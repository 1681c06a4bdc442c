//! Soundness of the static dependence analysis (`ldx-sdep`) against the
//! dynamic engine, over generated programs and the workload corpus.
//!
//! Two properties:
//!
//! * **Independence is sound.** A source `may_cause` rejects comes back
//!   non-causal, with no causality record, from its attribution run —
//!   the fact behind `ldx explain`'s `statically_independent` flag.
//! * **The oracle holds.** Every causality record dual execution reports
//!   sits inside the static reachability map (`check_report`). The static
//!   analysis over-approximates; a record outside the map is a bug in
//!   either the engine or the analysis.

use ldx::sdep::StaticAnalysis;
use ldx::{Analysis, SinkSpec, SourceSpec};
use ldx_dualex::{dual_execute, DualSpec, Mutation, SourceMatcher};
use ldx_runtime::ExecConfig;
use ldx_vos::VosConfig;
use ldx_workloads::{corpus, random_program_source, GeneratorConfig};
use proptest::prelude::*;

fn world(value: &str) -> VosConfig {
    VosConfig::new()
        .file("/gen/input", value.to_string())
        .dir("/gen")
}

/// An analysis over a generated program with the real source plus two
/// decoys `may_cause` can prove independent: a file nothing reads and
/// the write-only output file.
fn generated_analysis(seed: u64, input: i64) -> Analysis {
    let src = random_program_source(seed, &GeneratorConfig::default());
    Analysis::for_source(&src)
        .expect("generated programs compile")
        .world(world(&input.to_string()).file("/gen/absent", "decoy"))
        .source(SourceSpec::file("/gen/input"))
        .source(SourceSpec::file("/gen/absent"))
        .source(SourceSpec::file("/gen/out"))
        .sinks(SinkSpec::FileOut)
        .exec_config(ExecConfig {
            max_steps: 5_000_000,
            ..ExecConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Every source `may_cause` rejects runs inert, and the decoy sources
    /// make sure some are rejected.
    #[test]
    fn statically_independent_sources_run_inert(seed in 0u64..2000, input in 0i64..1000) {
        let analysis = generated_analysis(seed, input);
        let sdep = analysis.static_analysis();
        let attributions = analysis.attribute_sources();
        let independent: Vec<_> = attributions
            .iter()
            .filter(|a| !sdep.may_cause(&a.source, &analysis.spec().sinks))
            .collect();
        prop_assert!(
            !independent.is_empty(),
            "seed {seed}: the decoy sources must be statically independent"
        );
        for a in independent {
            prop_assert!(
                !a.causal && a.report.causality.is_empty(),
                "seed {}: statically independent source #{} {:?} is causal: {:?}",
                seed,
                a.index,
                a.source.matcher,
                a.report.causality
            );
        }
    }

    /// Every dynamically reported causal pair is inside the static map.
    #[test]
    fn dynamic_records_are_inside_the_static_map(seed in 0u64..2000, input in 0i64..1000) {
        let src = random_program_source(seed, &GeneratorConfig::default());
        let program = std::sync::Arc::new(
            ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(&src).unwrap()))
                .into_program(),
        );
        let sdep = StaticAnalysis::analyze(&program);
        let spec = DualSpec {
            sources: vec![SourceSpec {
                matcher: SourceMatcher::FileRead("/gen/input".into()),
                mutation: Mutation::OffByOne,
            }],
            sinks: SinkSpec::FileOut,
            exec: ExecConfig {
                max_steps: 5_000_000,
                ..ExecConfig::default()
            },
            ..DualSpec::default()
        };
        let report = dual_execute(std::sync::Arc::clone(&program), &world(&input.to_string()), &spec);
        prop_assert!(
            sdep.check_report(&spec.sources, &report).is_ok(),
            "seed {seed}: {:?}",
            sdep.check_report(&spec.sources, &report).unwrap_err()
        );
    }
}

/// The oracle holds across the whole 28-program corpus, for both the
/// leaking and the benign experiment of every workload (this is the
/// CI soundness-oracle step).
#[test]
fn oracle_holds_over_the_workload_corpus() {
    for w in corpus() {
        let program = w.program();
        let sdep = StaticAnalysis::analyze(&program);
        let mut specs = vec![w.dual_spec()];
        specs.extend(w.benign_spec());
        for spec in specs {
            let report = dual_execute(std::sync::Arc::clone(&program), &w.world, &spec);
            assert!(
                sdep.check_report(&spec.sources, &report).is_ok(),
                "workload `{}`: {}",
                w.name,
                sdep.check_report(&spec.sources, &report).unwrap_err()
            );
        }
    }
}

/// The `ldx explain` source verdicts restate the static analysis
/// faithfully: a source the report marks `statically_independent` is
/// exactly one `may_cause` rejects against the workload's sinks — and
/// such a source is never causal (the soundness oracle surfaced through
/// the forensics layer).
#[test]
fn explain_static_verdicts_agree_with_may_cause() {
    for w in corpus() {
        let sdep = StaticAnalysis::analyze(&w.program());
        let mut analysis = Analysis::for_source(&w.source)
            .expect("corpus workload compiles")
            .world(w.world.clone())
            .sinks(w.sinks.clone());
        for s in &w.sources {
            analysis = analysis.source(s.clone());
        }
        let report = analysis.explain(w.name);
        for summary in &report.sources {
            let spec = &w.sources[summary.index];
            assert_eq!(
                summary.statically_independent,
                !sdep.may_cause(spec, &w.sinks),
                "workload `{}`, source {:?}",
                w.name,
                spec.matcher
            );
            assert!(
                !(summary.statically_independent && summary.causal),
                "workload `{}`: statically independent source {:?} marked causal",
                w.name,
                spec.matcher
            );
        }
    }
}

/// `may_cause` never rejects a true causality: for every workload that
/// expects a leak, it keeps each declared source alive. (The converse —
/// rejected sources really are inert — is the independence property
/// above.)
#[test]
fn pruner_keeps_every_expected_leak_alive() {
    for w in corpus() {
        if !w.expect_leak {
            continue;
        }
        let program = w.program();
        let sdep = StaticAnalysis::analyze(&program);
        for s in &w.sources {
            assert!(
                sdep.may_cause(s, &w.sinks),
                "workload `{}`: `may_cause` rejects declared source {:?}",
                w.name,
                s.matcher
            );
        }
    }
}
