//! DESIGN.md ablation: what happens without the compensation pass?
//!
//! LDX's key static ingredient is edge compensation: both branch arms
//! reach the join with the same counter, so the executions re-align after
//! a divergence. This ablation dual-executes each workload's *benign*
//! mutation twice — once with the full instrumentation, once on the
//! uninstrumented program (the dynamic per-syscall `+1` still happens,
//! but no compensation, no loop barriers, no fresh frames) — and compares
//! false reports and alignment quality.
//!
//! The (instrumented, naive) pairs run as one flat batch on the
//! work-stealing pool; the instrumentation cache supplies both compiled
//! forms from one parse each.
//!
//! Run: `cargo run -p ldx-bench --bin ablation_compensation`

use ldx::{BatchEngine, BatchJob, InstrumentCache};

fn main() {
    let (_args, obs_args) = ldx::obs::parse_obs_args(std::env::args().skip(1).collect());
    ldx::obs::init(&obs_args);
    println!(
        "{:<12} {:>12} {:>12} {:>14} {:>14}",
        "program", "false+instr", "false-naive", "shared+instr", "shared-naive"
    );
    let workloads: Vec<_> = ldx_workloads::corpus()
        .into_iter()
        .filter(|w| w.benign_spec().is_some())
        .collect();
    let engine = BatchEngine::auto();
    let cache = InstrumentCache::new();

    let mut jobs = Vec::with_capacity(workloads.len() * 2);
    for w in &workloads {
        let spec = w.benign_spec().expect("filtered above");
        jobs.push(BatchJob::new(
            format!("{}/instr", w.name),
            cache.program(&w.source).expect("workload compiles"),
            w.world.clone(),
            spec.clone(),
        ));
        jobs.push(BatchJob::new(
            format!("{}/naive", w.name),
            cache.uninstrumented(&w.source).expect("workload compiles"),
            w.world.clone(),
            spec,
        ));
    }
    let batch = engine.run(jobs);

    let mut false_instr = 0u32;
    let mut false_naive = 0u32;
    let rows = workloads.len() as u32;
    for (w, pair) in workloads.iter().zip(batch.results.chunks(2)) {
        let instrumented = &pair[0].report;
        let naive = &pair[1].report;
        if instrumented.leaked() {
            false_instr += 1;
        }
        if naive.leaked() {
            false_naive += 1;
        }
        println!(
            "{:<12} {:>12} {:>12} {:>14} {:>14}",
            w.name,
            if instrumented.leaked() { "O" } else { "X" },
            if naive.leaked() { "O" } else { "X" },
            instrumented.shared,
            naive.shared,
        );
    }
    println!(
        "\nfalse reports on {rows} benign mutations: {false_instr} with \
         compensation, {false_naive} without."
    );
    println!(
        "expected shape: compensation keeps false reports at 0; the naive \
         counter loses alignment after any path difference, producing \
         spurious sink mismatches and fewer shared outcomes."
    );
    if let Err(e) = ldx::obs::finish(&obs_args) {
        eprintln!("could not write observability output: {e}");
    }
}
