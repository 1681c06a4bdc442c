//! Regenerates paper **Table 1**: benchmarks and instrumentation.
//!
//! Columns mirror the paper: program, LOC, instrumented instructions
//! (count + percent), instrumented loops / recursive call sites / indirect
//! (fptr) call sites, sinks, syscall sites, max static counter, dynamic
//! counter (avg/max) and counter-stack depth from a run, plus the
//! barrier-crossing totals (count and wall-clock) the alignment-stall
//! profiler agrees with, the number of mutated inputs (sources), and the
//! source pairs the `ldx-sdep` pre-filter proves inert (pruned, counted
//! over declared plus statically discovered sources).
//!
//! Rows run on the batch engine's pool; the instrumentation cache compiles
//! each source once and feeds both the static report and the dynamic run.
//!
//! Run: `cargo run -p ldx-bench --bin table1 [--trace t.json] [--metrics m.json]`

use ldx::{BatchEngine, InstrumentCache};
use ldx_bench::run_native_timed;

fn main() {
    let (_args, obs_args) = ldx::obs::parse_obs_args(std::env::args().skip(1).collect());
    ldx::obs::init(&obs_args);
    // The barrier columns need hot-path timing regardless of the flags.
    ldx::obs::enable_profiling();
    println!(
        "{:<10} {:>5} {:>7} {:>7} {:>6} {:>6} {:>5} {:>6} {:>5} {:>8} {:>9} {:>6} {:>5} {:>6} {:>8} {:>7} {:>6}",
        "program",
        "loc",
        "instrs",
        "added%",
        "loops",
        "recur",
        "fptr",
        "sinks",
        "sys",
        "max-cnt",
        "dyn-avg",
        "dyn-max",
        "stack",
        "barr",
        "barr-ms",
        "sources",
        "pruned"
    );
    let engine = BatchEngine::auto();
    let cache = InstrumentCache::new();
    let rows = engine.map_ordered(ldx_workloads::corpus(), |w| {
        let compiled = cache.instrumented(&w.source).expect("workload compiles");
        let report = compiled.instrumented.report().clone();
        let (_, out) = run_native_timed(&compiled.program, &w.world);
        let stats = out.map(|o| o.stats).unwrap_or_default();
        let orig = report.total_original_instrs();
        let added = report.total_added_instrs();
        let sdep = ldx::sdep::StaticAnalysis::analyze(&compiled.program);
        let mut probe_sources = w.sources.clone();
        for d in sdep.discovered_sources() {
            if !probe_sources.iter().any(|s| s.matcher == d.matcher) {
                probe_sources.push(d);
            }
        }
        let pruned = probe_sources
            .iter()
            .filter(|s| !sdep.may_cause(s, &w.sinks))
            .count();
        ldx::obs::counter_add("sdep.pruned_pairs", pruned as u64);
        let line = format!(
            "{:<10} {:>5} {:>7} {:>6.2}% {:>6} {:>6} {:>5} {:>6} {:>5} {:>8} {:>9.2} {:>6} {:>5} {:>6} {:>8.2} {:>7} {:>6}",
            w.name,
            w.loc(),
            orig,
            report.instrumented_fraction() * 100.0,
            report.total_loops(),
            report.total_recursive_sites(),
            report.total_indirect_sites(),
            report.total_sinks(),
            report.total_syscall_sites(),
            report.max_cnt,
            stats.cnt_avg(),
            stats.cnt_max,
            stats.max_counter_depth,
            stats.barrier_waits,
            stats.barrier_wait_ns as f64 / 1e6,
            w.sources.len(),
            pruned,
        );
        (line, orig, added)
    });

    let mut total_orig = 0usize;
    let mut total_added = 0usize;
    for (line, orig, added) in &rows {
        total_orig += orig;
        total_added += added;
        println!("{line}");
    }
    let frac = total_added as f64 / (total_orig + total_added).max(1) as f64;
    println!(
        "\naverage instrumented fraction: {:.2}% (paper reports 3.44% for its suite)",
        frac * 100.0
    );
    if let Err(e) = ldx::obs::finish(&obs_args) {
        eprintln!("could not write observability output: {e}");
    }
}
