//! Runs `ldx explain` over the whole workload corpus and writes one
//! provenance report per workload — the CI divergence-forensics sweep.
//!
//! For every corpus workload the analysis runs the per-source
//! attribution with the flight recorder on, reconstructs the causal
//! chains, and writes `explain_<name>.json` into the output directory
//! (`schemas/explain_schema.json` format; validated in CI by
//! `scripts/check_explain_output.py`). The binary itself asserts the
//! truthfulness invariants: a workload expected to leak must produce at
//! least one chain, and every chain must name a sink.
//!
//! Run: `cargo run -p ldx-bench --release --bin explain_corpus [--out <dir>]`

use ldx::Analysis;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: explain_corpus [--out <dir>] [--trace <out.json>] [--metrics <out.json>]";

fn main() -> ExitCode {
    let (args, obs_args) = ldx::obs::cli_args(USAGE);
    ldx::obs::init(&obs_args);
    let mut out_dir = "explain_out".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                if let Some(dir) = it.next() {
                    out_dir = dir.clone();
                }
            }
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        return ExitCode::from(2);
    }

    let mut failures = 0usize;
    let mut chains = 0usize;
    let corpus = ldx_workloads::corpus();
    let total = corpus.len();
    for w in corpus {
        let mut analysis = Analysis::for_source(&w.source)
            .expect("corpus workload compiles")
            .world(w.world.clone())
            .sinks(w.sinks.clone());
        for s in &w.sources {
            analysis = analysis.source(s.clone());
        }
        let report = analysis.explain(w.name);
        if w.expect_leak && !report.any_causal() {
            eprintln!("FAIL {}: expected a causal chain, got none", w.name);
            failures += 1;
        }
        for chain in &report.chains {
            if chain.sink.sys.is_empty() {
                eprintln!("FAIL {}: chain without a sink syscall", w.name);
                failures += 1;
            }
        }
        chains += report.chains.len();
        let path = Path::new(&out_dir).join(format!("explain_{}.json", w.name));
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            failures += 1;
        }
    }
    println!(
        "explained {total} workloads -> {out_dir}/ ({chains} causal chains, {failures} failures)"
    );
    if let Err(e) = ldx::obs::finish(&obs_args) {
        eprintln!("could not write observability output: {e}");
        return ExitCode::from(2);
    }
    ExitCode::from(u8::from(failures > 0))
}
