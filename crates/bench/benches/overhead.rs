//! Criterion counterpart of Figure 6: execution-model overhead on three
//! representative workloads (compute-heavy, compression, syscall-heavy
//! server), measuring native single execution, LDX dual execution
//! (identity and mutated), the taint trackers, and the EI-DualEx baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldx_baselines::ei_dual_execute;
use ldx_bench::scaled_world;
use ldx_dualex::{dual_execute, DualSpec, Mutation, SourceSpec};
use ldx_runtime::{run_program, ExecConfig, NativeHooks};
use ldx_taint::{taint_execute, TaintPolicy};
use ldx_vos::Vos;
use std::hint::black_box;
use std::sync::Arc;

fn identity_spec(w: &ldx_workloads::Workload) -> DualSpec {
    DualSpec {
        sources: w
            .sources
            .iter()
            .map(|s| SourceSpec {
                matcher: s.matcher.clone(),
                mutation: Mutation::Identity,
            })
            .collect(),
        sinks: w.sinks.clone(),
        ..DualSpec::default()
    }
}

fn bench_models(c: &mut Criterion) {
    for name in ["minzip", "minhmm", "minhttpd"] {
        let w = ldx_workloads::by_name(name).expect("workload exists");
        let world = scaled_world(&w).expect("perf workload");
        let plain = w.program_uninstrumented();
        let instrumented = w.program();

        let mut group = c.benchmark_group(format!("models/{name}"));
        group.sample_size(10);

        group.bench_function(BenchmarkId::from_parameter("native"), |b| {
            b.iter(|| {
                let vos = Arc::new(Vos::new(&world));
                let hooks = Arc::new(NativeHooks::new(vos));
                black_box(run_program(Arc::clone(&plain), hooks, ExecConfig::default()).unwrap())
            })
        });

        let ident = identity_spec(&w);
        group.bench_function(BenchmarkId::from_parameter("ldx-same"), |b| {
            b.iter(|| black_box(dual_execute(Arc::clone(&instrumented), &world, &ident)))
        });

        let mutated = w.dual_spec();
        group.bench_function(BenchmarkId::from_parameter("ldx-mutated"), |b| {
            b.iter(|| black_box(dual_execute(Arc::clone(&instrumented), &world, &mutated)))
        });

        group.bench_function(BenchmarkId::from_parameter("libdft"), |b| {
            b.iter(|| {
                black_box(taint_execute(
                    &plain,
                    &world,
                    &w.sources,
                    &w.sinks,
                    TaintPolicy::LibDftLike,
                ))
            })
        });

        group.bench_function(BenchmarkId::from_parameter("taintgrind"), |b| {
            b.iter(|| {
                black_box(taint_execute(
                    &plain,
                    &world,
                    &w.sources,
                    &w.sinks,
                    TaintPolicy::TaintGrindLike,
                ))
            })
        });

        group.bench_function(BenchmarkId::from_parameter("ei-dualex"), |b| {
            b.iter(|| {
                black_box(ei_dual_execute(
                    Arc::clone(&instrumented),
                    &world,
                    &w.sources,
                    &w.sinks,
                    ExecConfig::default(),
                ))
            })
        });

        group.finish();
    }
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
