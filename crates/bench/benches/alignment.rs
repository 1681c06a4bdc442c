//! Microbenchmarks of the alignment machinery itself:
//!
//! * progress-key comparison (the hot operation of the coupling protocol);
//! * the static counter-instrumentation pass (compile-time cost);
//! * interpreter throughput with and without instrumentation — the
//!   "counter maintenance" share of LDX's overhead in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use ldx_runtime::{run_program, ExecConfig, FrameKey, LoopUid, NativeHooks, ProgressKey};
use ldx_vos::{Vos, VosConfig};
use std::hint::black_box;
use std::sync::Arc;

fn key(depth: usize, loops: usize, cnt: u64) -> ProgressKey {
    ProgressKey {
        frames: (0..depth)
            .map(|d| FrameKey {
                loops: (0..loops)
                    .map(|l| (LoopUid::new(d as u32, l as u32), (l as u64) * 3, 0))
                    .collect(),
                cnt: cnt + d as u64,
            })
            .collect(),
    }
}

fn bench_progress_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("progress-key");
    let flat_a = key(1, 0, 17);
    let flat_b = key(1, 0, 18);
    group.bench_function("cmp-flat", |b| {
        b.iter(|| black_box(flat_a.cmp_progress(black_box(&flat_b))))
    });
    let deep_a = key(4, 3, 9);
    let deep_b = key(4, 3, 9);
    group.bench_function("cmp-deep-equal", |b| {
        b.iter(|| black_box(deep_a.cmp_progress(black_box(&deep_b))))
    });
    group.bench_function("clone-deep", |b| b.iter(|| black_box(deep_a.clone())));
    group.finish();
}

fn bench_instrumentation_pass(c: &mut Criterion) {
    let sources: Vec<String> = (0..8)
        .map(|seed| {
            ldx_workloads::random_program_source(
                seed,
                &ldx_workloads::GeneratorConfig {
                    max_depth: 4,
                    max_block_len: 6,
                    helpers: 4,
                },
            )
        })
        .collect();
    let lowered: Vec<_> = sources
        .iter()
        .map(|s| ldx_ir::lower(&ldx_lang::compile(s).unwrap()))
        .collect();
    c.bench_function("instrument-pass/8-programs", |b| {
        b.iter(|| {
            for p in &lowered {
                black_box(ldx_instrument::instrument(black_box(p)));
            }
        })
    });
}

fn bench_counter_maintenance(c: &mut Criterion) {
    // A loop-heavy, syscall-bearing program: the instrumented version pays
    // for CntAdd/LoopEnter/LoopBackedge/LoopExit on top of the same work.
    let w = ldx_workloads::by_name("minzip").unwrap();
    let world = ldx_bench::scaled_world(&w).unwrap();
    let plain = w.program_uninstrumented();
    let instrumented = w.program();
    let run = |program: &Arc<ldx_ir::IrProgram>, world: &VosConfig| {
        let vos = Arc::new(Vos::new(world));
        let hooks = Arc::new(NativeHooks::new(vos));
        run_program(Arc::clone(program), hooks, ExecConfig::default()).unwrap()
    };
    let mut group = c.benchmark_group("counter-maintenance");
    group.sample_size(10);
    group.bench_function("uninstrumented", |b| {
        b.iter(|| black_box(run(&plain, &world)))
    });
    group.bench_function("instrumented", |b| {
        b.iter(|| black_box(run(&instrumented, &world)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_progress_keys,
    bench_instrumentation_pass,
    bench_counter_maintenance
);
criterion_main!(benches);
