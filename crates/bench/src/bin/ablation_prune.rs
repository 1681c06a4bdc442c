//! Pruning ablation: per-source attribution with and without the
//! `ldx-sdep` static pre-filter.
//!
//! Every corpus workload is attributed over its declared sources *plus*
//! every statically discovered input resource (file paths read, peers
//! received from, client ports served), so the pruner has realistic inert
//! pairs to remove. Both modes run the same source list; the table
//! reports how many dual executions each mode needed, the wall-clock for
//! the whole attribution, and whether the verdicts are identical — they
//! must be, and the binary exits non-zero if any workload disagrees or if
//! pruning removed nothing anywhere.
//!
//! Concurrent-suite workloads are exempt from the verdict comparison
//! (shown as `race` instead of yes/no): their reports differ run-to-run
//! from scheduling nondeterminism alone, with or without pruning. The
//! pruner never skips a pair on a threaded program (see
//! `StaticAnalysis::may_cause`), so there is nothing to compare.
//!
//! Run: `cargo run -p ldx-bench --bin ablation_prune [--metrics m.json]`

use ldx::{Analysis, BatchEngine, SourceAttribution};
use std::process::ExitCode;
use std::time::Instant;

/// The comparable bytes of an attribution result: index, matcher, verdict,
/// and the causality records (pruned placeholders have none by
/// construction, so equality here is exactly "pruning changed nothing").
fn verdicts(attrs: &[SourceAttribution]) -> String {
    attrs
        .iter()
        .map(|a| {
            format!(
                "#{} {:?} causal={} records={:?}\n",
                a.index, a.source.matcher, a.causal, a.report.causality
            )
        })
        .collect()
}

fn main() -> ExitCode {
    let (_args, obs_args) = ldx::obs::parse_obs_args(std::env::args().skip(1).collect());
    ldx::obs::init(&obs_args);
    println!(
        "{:<12} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9} {:>6}",
        "program", "sources", "pruned", "runs-on", "runs-off", "ms-on", "ms-off", "same"
    );

    let engine = BatchEngine::auto();
    let mut total_pruned = 0usize;
    let mut total_runs_on = 0usize;
    let mut total_runs_off = 0usize;
    let mut all_same = true;

    for w in ldx_workloads::corpus() {
        let mut analysis = Analysis::for_source(&w.source)
            .expect("workload compiles")
            .world(w.world.clone())
            .sinks(w.sinks.clone());
        let mut sources = w.sources.clone();
        for discovered in analysis.static_analysis().discovered_sources() {
            if !sources.iter().any(|s| s.matcher == discovered.matcher) {
                sources.push(discovered);
            }
        }
        for s in &sources {
            analysis = analysis.source(s.clone());
        }

        let t = Instant::now();
        let with_prune = analysis.attribute_sources_with(&engine);
        let ms_on = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let without_prune = analysis.clone().no_prune().attribute_sources_with(&engine);
        let ms_off = t.elapsed().as_secs_f64() * 1e3;

        let pruned = with_prune.iter().filter(|a| a.pruned).count();
        let runs_on = with_prune.len() - pruned;
        let runs_off = without_prune.len();
        let racy = w.suite == ldx_workloads::Suite::Concurrent;
        let same = verdicts(&with_prune) == verdicts(&without_prune);
        total_pruned += pruned;
        total_runs_on += runs_on;
        total_runs_off += runs_off;
        all_same &= same || racy;

        println!(
            "{:<12} {:>7} {:>7} {:>9} {:>9} {:>9.2} {:>9.2} {:>6}",
            w.name,
            sources.len(),
            pruned,
            runs_on,
            runs_off,
            ms_on,
            ms_off,
            if racy {
                "race"
            } else if same {
                "yes"
            } else {
                "NO"
            }
        );
    }

    println!(
        "\ntotal: pruned {total_pruned} of {total_runs_off} source runs \
         ({total_runs_on} dual executions with pruning, {total_runs_off} without)"
    );
    if let Err(e) = ldx::obs::finish(&obs_args) {
        eprintln!("could not write observability output: {e}");
    }
    if !all_same {
        eprintln!("FAIL: pruning changed at least one causality verdict");
        return ExitCode::from(1);
    }
    if total_pruned == 0 {
        eprintln!("FAIL: pruning removed no pair on the whole corpus");
        return ExitCode::from(1);
    }
    println!("ok: verdicts identical in both modes, {total_pruned} pairs pruned");
    ExitCode::SUCCESS
}
