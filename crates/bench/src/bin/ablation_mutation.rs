//! §8.3 "Input Mutation" study: compares mutation strategies.
//!
//! The paper: "off-by-one mutation ... must detect any strong CCs as
//! proved ... We conduct an experiment to study different mutation
//! strategies. We observe that other strategies do not supersede
//! off-by-one." Here, every corpus workload with a leaking spec is re-run
//! under each strategy; the table reports how many leaks each one detects.
//!
//! The `workloads × strategies` grid runs as one flat batch on the batch
//! engine's pool; submission-ordered results are re-chunked into
//! rows, so the table is byte-identical to a sequential run.
//!
//! Run: `cargo run -p ldx-bench --bin ablation_mutation`

use ldx::{BatchEngine, BatchJob, InstrumentCache};
use ldx_dualex::{DualSpec, Mutation, SourceSpec};

fn main() {
    let (_args, obs_args) =
        ldx::obs::cli_args("usage: ablation_mutation [--trace <out.json>] [--metrics <out.json>]");
    ldx::obs::init(&obs_args);
    let strategies = [
        ("off-by-one", Mutation::OffByOne),
        ("bit-flip", Mutation::BitFlip),
        ("zero", Mutation::Zero),
        ("identity", Mutation::Identity),
    ];
    println!(
        "{:<12} {}",
        "program",
        strategies
            .iter()
            .map(|(n, _)| format!("{n:>11}"))
            .collect::<String>()
    );

    let workloads = ldx_workloads::corpus();
    let engine = BatchEngine::auto();
    let cache = InstrumentCache::new();

    let mut jobs = Vec::with_capacity(workloads.len() * strategies.len());
    for w in &workloads {
        let program = cache.program(&w.source).expect("workload compiles");
        for (name, mutation) in &strategies {
            let spec = DualSpec {
                sources: w
                    .sources
                    .iter()
                    .map(|s| SourceSpec {
                        matcher: s.matcher.clone(),
                        mutation: mutation.clone(),
                    })
                    .collect(),
                sinks: w.sinks.clone(),
                ..DualSpec::default()
            };
            jobs.push(BatchJob::new(
                format!("{}/{name}", w.name),
                program.clone(),
                w.world.clone(),
                spec,
            ));
        }
    }
    let batch = engine.run(jobs);

    let mut detected = vec![0u32; strategies.len()];
    let total = workloads.len() as u32;
    for (w, chunk) in workloads.iter().zip(batch.results.chunks(strategies.len())) {
        let mut row = format!("{:<12}", w.name);
        for (i, result) in chunk.iter().enumerate() {
            let leak = result.report.leaked();
            if leak {
                detected[i] += 1;
            }
            row.push_str(&format!("{:>11}", if leak { "O" } else { "X" }));
        }
        println!("{row}");
    }
    println!("\ndetections out of {total}:");
    for (i, (name, _)) in strategies.iter().enumerate() {
        println!("  {name:<12} {}", detected[i]);
    }
    println!(
        "\nreading: identity detects nothing on deterministic programs (any \
         identity hit is a race-induced false positive on a concurrent \
         workload — the paper's §7 caveat). Off-by-one is the \
         only strategy with a *guarantee* — it flips every strong \
         (one-to-one) causality — but strategies are incomparable on weak \
         flows: zeroing collapses distinct values (many-to-one) yet can \
         flip coarse predicates a one-step perturbation cannot, and \
         threshold-style leaks need threshold-crossing inputs. This is the \
         paper's point that no strategy supersedes off-by-one where it \
         matters (strong causality), not that off-by-one dominates \
         pointwise."
    );
    if let Err(e) = ldx::obs::finish(&obs_args) {
        eprintln!("could not write observability output: {e}");
    }
}
