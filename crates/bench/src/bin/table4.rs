//! Regenerates paper **Table 4**: effectiveness for concurrent programs.
//!
//! Each of the five concurrent workloads is dual-executed `N` times (100
//! by default, like the paper; pass a smaller count as `argv[1]` for quick
//! runs). Reported per program: min/max/σ of the syscall differences and
//! of the tainted-sink count. The shape to reproduce: syscall differences
//! vary run-to-run (schedules and low-level races), while tainted sinks
//! are stable except for the programs whose racy statistics feed the sink
//! (the paper's axel and x264; here `mtget` and `mtenc`).
//!
//! All `workloads × N` dual executions are submitted as one flat batch to
//! the batch engine's pool; the submission-ordered results are then
//! re-chunked per program, so the aggregation is schedule-independent.
//!
//! Run: `cargo run -p ldx-bench --bin table4 [runs]`

use ldx::{BatchEngine, BatchJob, InstrumentCache};
use ldx_bench::{mean, stddev};
use ldx_workloads::{by_suite, Suite};

fn main() {
    let (args, obs_args) =
        ldx::obs::cli_args("usage: table4 [runs] [--trace <out.json>] [--metrics <out.json>]");
    ldx::obs::init(&obs_args);
    let runs: usize = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
        .max(1);
    println!("{runs} dual executions per program\n");
    println!(
        "{:<10} {:>28} {:>28}",
        "program", "syscall diffs (min/max/std)", "tainted sinks (min/max/std)"
    );
    let workloads = by_suite(Suite::Concurrent);
    let engine = BatchEngine::auto();
    let cache = InstrumentCache::new();

    let mut jobs = Vec::with_capacity(workloads.len() * runs);
    for w in &workloads {
        let program = cache.program(&w.source).expect("workload compiles");
        let spec = w.dual_spec();
        for run in 0..runs {
            jobs.push(BatchJob::new(
                format!("{}#{run}", w.name),
                program.clone(),
                w.world.clone(),
                spec.clone(),
            ));
        }
    }
    let batch = engine.run(jobs);

    for (w, chunk) in workloads.iter().zip(batch.results.chunks(runs)) {
        let diffs: Vec<f64> = chunk
            .iter()
            .map(|r| r.report.syscall_diffs as f64)
            .collect();
        let sinks: Vec<f64> = chunk
            .iter()
            .map(|r| r.report.tainted_sinks() as f64)
            .collect();
        let fmt = |xs: &[f64]| {
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            format!("{:.0} / {:.0} / {:.2}", min, max, stddev(xs))
        };
        println!(
            "{:<10} {:>28} {:>28}   (mean diffs {:.1}, mean sinks {:.1})",
            w.name,
            fmt(&diffs),
            fmt(&sinks),
            mean(&diffs),
            mean(&sinks),
        );
    }
    println!(
        "\nexpected shape: nonzero σ on syscall diffs for racy programs; \
         tainted-sink σ near 0 except where a racy statistic feeds the sink \
         (mtget/mtenc, mirroring the paper's axel/x264)."
    );
    if let Err(e) = ldx::obs::finish(&obs_args) {
        eprintln!("could not write observability output: {e}");
    }
}
