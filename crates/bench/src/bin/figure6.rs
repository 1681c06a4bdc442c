//! Regenerates paper **Figure 6**: normalized overhead of LDX.
//!
//! For every perf-measurable workload (scaled inputs, see
//! [`ldx_bench::scaled_world`]):
//!
//! * `same` — dual execution with an identity mutation (master and slave
//!   perfectly aligned): counter maintenance + outcome sharing overhead
//!   (the paper's first bar);
//! * `mutated` — dual execution with the leaking mutation: adds the
//!   divergence/realignment work (the paper's second bar);
//!
//! both normalized to the uninstrumented native run. Also printed: the
//! LIBDFT-like tracker's slowdown (paper §8.1 reports ~6x) and the
//! EI-DualEx baseline's slowdown (paper §9: three orders of magnitude).
//!
//! The paper runs master and slave "concurrently on separate CPUs", so
//! its baseline implicitly grants LDX a second core. On machines without
//! one (CI sandboxes), the two executions' *compute* serializes; the
//! harness therefore also reports the **coupling overhead** — dual time
//! normalized to twice the native time (the two executions' total
//! compute) — which isolates exactly the alignment/synchronization cost
//! the paper's 6.08% measures. The reproduced shape: coupling overhead is
//! small, the taint trackers cost integer factors, and EI-DualEx is far
//! beyond both.
//!
//! The timing cells deliberately run on a **sequential** pool so medians
//! are not distorted by co-running cells. Cross-commit performance
//! comparisons belong to the `ldxperf` benchmark (see `ldxperf/README.md`).
//!
//! Run: `cargo run -p ldx-bench --release --bin figure6 [reps] [--trace t.json] [--metrics m.json]`

use ldx::{BatchEngine, InstrumentCache};
use ldx_baselines::ei_dual_execute;
use ldx_bench::{geomean, mean, median_duration, perf_workloads, run_dual_timed, run_native_timed};
use ldx_dualex::{DualSpec, Mutation, SourceSpec};
use ldx_runtime::ExecConfig;
use ldx_taint::{taint_execute, TaintPolicy};
use std::time::Duration;

fn main() {
    let (args, obs_args) =
        ldx::obs::cli_args("usage: figure6 [reps] [--trace <out.json>] [--metrics <out.json>]");
    ldx::obs::init(&obs_args);
    let reps: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(5);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "median of {reps} repetitions per cell; {cpus} CPU(s) available \
         (the paper assumes a dedicated second CPU for the slave)\n"
    );
    println!(
        "{:<10} {:>10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "program", "native", "same", "couple%", "mutated", "libdft", "tgrind", "ei-dualex"
    );

    let cache = InstrumentCache::new();

    // Timing cells must not co-run (they would steal each other's cycles
    // and distort the medians), so the table uses the batch API on an
    // explicit one-worker pool.
    let cells = BatchEngine::sequential().map_ordered(perf_workloads(), |(w, world)| {
        let plain = cache.uninstrumented(&w.source).expect("workload compiles");
        let instrumented = cache.program(&w.source).expect("workload compiles");

        let native = median_duration(reps, || run_native_timed(&plain, &world).0);

        let identity_spec = DualSpec {
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
        };
        let same = median_duration(reps, || {
            run_dual_timed(&instrumented, &world, &identity_spec).0
        });

        let mut mutated_spec = w.dual_spec();
        mutated_spec.exec = ExecConfig::default();
        let mutated = median_duration(reps, || {
            run_dual_timed(&instrumented, &world, &mutated_spec).0
        });

        let taint_time = |policy: TaintPolicy| {
            median_duration(reps, || {
                let start = std::time::Instant::now();
                let _ = taint_execute(&plain, &world, &w.sources, &w.sinks, policy);
                start.elapsed()
            })
        };
        let libdft = taint_time(TaintPolicy::LibDftLike);
        let taintgrind = taint_time(TaintPolicy::TaintGrindLike);

        let ei = median_duration(reps.min(3), || {
            let start = std::time::Instant::now();
            let _ = ei_dual_execute(
                instrumented.clone(),
                &world,
                &w.sources,
                &w.sinks,
                ExecConfig::default(),
            );
            start.elapsed()
        });

        (w, native, same, mutated, libdft, taintgrind, ei)
    });

    let mut same_ratios = Vec::new();
    let mut mutated_ratios = Vec::new();
    let mut taint_ratios = Vec::new();
    let mut ei_ratios = Vec::new();

    for (w, native, same, mutated, libdft, taintgrind, ei) in &cells {
        let ratio = |d: &Duration| d.as_secs_f64() / native.as_secs_f64().max(1e-9);
        // The compute baseline for a dual execution: two executions' work
        // (one core each in the paper's setup).
        let dual_cores = cpus.min(2) as f64;
        let couple = ratio(same) * dual_cores / 2.0;
        same_ratios.push(couple);
        mutated_ratios.push(ratio(mutated) * dual_cores / 2.0);
        taint_ratios.push(ratio(libdft));
        ei_ratios.push(ratio(ei));

        println!(
            "{:<10} {:>9.2?} {:>7.2}x {:>8.1}% {:>8.2}x {:>8.2}x {:>8.2}x {:>9.2}x",
            w.name,
            native,
            ratio(same),
            (couple - 1.0) * 100.0,
            ratio(mutated),
            ratio(libdft),
            ratio(taintgrind),
            ratio(ei),
        );
    }

    println!(
        "\nLDX coupling overhead (same-input): geomean {:+.1}%, mean {:+.1}% (paper: +4.45% / +5.7%)",
        (geomean(&same_ratios) - 1.0) * 100.0,
        (mean(&same_ratios) - 1.0) * 100.0
    );
    println!(
        "LDX coupling overhead (mutated):    geomean {:+.1}%, mean {:+.1}% (paper: +4.7% / +6.08%)",
        (geomean(&mutated_ratios) - 1.0) * 100.0,
        (mean(&mutated_ratios) - 1.0) * 100.0
    );
    println!(
        "LIBDFT-like: mean {:.2}x of native (paper: ~6x)  |  EI-DualEx: mean {:.0}x (paper: ~1000x)",
        mean(&taint_ratios),
        mean(&ei_ratios)
    );

    if let Err(e) = ldx::obs::finish(&obs_args) {
        eprintln!("could not write observability output: {e}");
    }
}
