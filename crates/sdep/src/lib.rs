//! `ldx-sdep`: static program-dependence analysis for the LDX pipeline.
//!
//! LDX infers causality *dynamically* by dual execution. This crate is its
//! static complement: an interprocedural dependence over-approximation.
//! It never decides a verdict; every attribution and strength probe runs.
//! It has two jobs —
//!
//! 1. **Explanation.** `ldx explain` marks the sources this analysis
//!    proves independent of the sinks ([`StaticAnalysis::may_cause`]) and
//!    cross-references each causal chain against a PDG witness path.
//! 2. **Soundness oracle.** Every causality record the engine *does*
//!    report must fall inside the static map
//!    ([`StaticAnalysis::check_report`]); a violation is a machine-checked
//!    bug in either the engine or this analysis, and CI runs the check
//!    over the whole workload corpus.
//!
//! The pipeline, bottom to top:
//!
//! * [`reachdef`] — flow-sensitive intraprocedural reaching definitions
//!   and def-use chains (weak updates for array element stores);
//! * [`cdep`] — control dependence, Ferrante–Ottenstein–Warren over the
//!   existing post-dominator tree from `ldx-ir`;
//! * [`resource`] — abstract values for fd/path arguments and the vOS
//!   *channels* (files, peers, client queues, clock, RNG) through which
//!   data flows around the program;
//! * [`graph`] — the whole-program PDG: data + control edges, a coarse
//!   context-insensitive call treatment over the existing `CallGraph`
//!   (conservative at indirect calls, `spawn`/`join`, and recursion),
//!   global-variable edges, channel edges, and *end* edges (ways a
//!   perturbed value can change the exit code or trap);
//! * [`reach`] — per-syscall-site forward reachability, source-matcher
//!   candidate sets, [`may_cause`](StaticAnalysis::may_cause), and the
//!   oracle;
//! * [`export`] — JSON (schema-checked in CI) and Graphviz DOT dumps,
//!   surfaced as `ldx analyze`.
//!
//! Precision notes and the soundness argument live in `docs/ANALYSIS.md`.

pub mod cdep;
pub mod export;
pub mod graph;
pub mod reach;
pub mod reachdef;
pub mod resource;

pub use cdep::ControlDeps;
pub use export::{analysis_to_json, pdg_to_dot};
pub use graph::{Node, Pdg, SiteInfo};
pub use reach::{type_preserving, OracleViolation, SiteReach, SiteRef, StaticAnalysis};
pub use reachdef::ReachingDefs;
pub use resource::{may_alias, site_effects, Chan, Resolver, SiteEffects, ValSet};

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_dualex::{SinkSpec, SourceSpec};
    use ldx_ir::lower;
    use ldx_lang::compile;

    fn analyze(src: &str) -> (ldx_ir::IrProgram, StaticAnalysis) {
        let program = lower(&compile(src).unwrap());
        let analysis = StaticAnalysis::analyze(&program);
        (program, analysis)
    }

    const TWO_SOURCE: &str = r#"
        fn main() {
            let a = open("/a", 0);
            let secret = read(a, 32);
            close(a);
            let b = open("/b", 0);
            let dead = read(b, 32);
            close(b);
            write(1, secret);
        }
    "#;

    #[test]
    fn causal_source_reaches_the_sink() {
        let (_, analysis) = analyze(TWO_SOURCE);
        assert!(
            analysis.may_cause(&SourceSpec::file("/a"), &SinkSpec::Outputs),
            "/a flows to write(1, secret)"
        );
    }

    #[test]
    fn dead_read_is_statically_independent() {
        let (_, analysis) = analyze(TWO_SOURCE);
        assert!(
            !analysis.may_cause(&SourceSpec::file("/b"), &SinkSpec::Outputs),
            "/b is read into a dead local"
        );
    }

    #[test]
    fn threads_keep_every_matchable_source_dependent() {
        // The dead read of /b would be independent in a sequential program
        // (see `dead_read_is_statically_independent`), but a spawned
        // thread makes every run scheduling-dependent: races can surface
        // records at any sink the threads reach, so `may_cause` must stay
        // conservative. Sources with no candidate site are still
        // independent — they can never be mutated, race or not.
        let (_, analysis) = analyze(
            r#"
            global counter = 0;
            fn bump(x) { counter = counter + 1; }
            fn main() {
                let t = spawn(&bump, 0);
                let b = open("/b", 0);
                let dead = read(b, 32);
                close(b);
                join(t);
                write(1, str(counter));
            }
            "#,
        );
        assert!(
            analysis.may_cause(&SourceSpec::file("/b"), &SinkSpec::Outputs),
            "threads make every matchable source dependent"
        );
        assert!(
            !analysis.may_cause(&SourceSpec::file("/nope"), &SinkSpec::Outputs),
            "a source with no candidate site is inert even with threads"
        );
    }

    #[test]
    fn missing_file_has_no_candidate_sites() {
        let (_, analysis) = analyze(TWO_SOURCE);
        assert!(analysis
            .candidate_sites(&ldx_dualex::SourceMatcher::FileRead("/nope".into()))
            .is_empty());
    }

    #[test]
    fn control_dependence_is_causal() {
        let (_, analysis) = analyze(
            r#"
            fn main() {
                let fd = open("/flag", 0);
                let v = int(read(fd, 8));
                if (v > 0) { write(1, "yes"); } else { write(1, "no"); }
            }
        "#,
        );
        assert!(
            analysis.may_cause(&SourceSpec::file("/flag"), &SinkSpec::Outputs),
            "sinks are control-dependent on the source"
        );
    }

    #[test]
    fn interprocedural_flow_through_helper() {
        let (_, analysis) = analyze(
            r#"
            fn emit(x) { write(1, x); return 0; }
            fn main() {
                let fd = open("/in", 0);
                emit(read(fd, 8));
            }
        "#,
        );
        assert!(
            analysis.may_cause(&SourceSpec::file("/in"), &SinkSpec::Outputs),
            "taint flows into the callee's sink"
        );
    }

    #[test]
    fn channel_flow_through_a_file() {
        let (_, analysis) = analyze(
            r#"
            fn main() {
                let i = open("/in", 0);
                let v = read(i, 8);
                close(i);
                let o = open("/tmp/x", 1);
                write(o, v);
                close(o);
                let r = open("/tmp/x", 0);
                let copy = read(r, 8);
                close(r);
                send(connect("upstream"), copy);
            }
        "#,
        );
        assert!(
            analysis.may_cause(&SourceSpec::file("/in"), &SinkSpec::NetworkOut),
            "taint flows through /tmp/x to the send"
        );
        // The relay file itself is also a source candidate.
        assert!(analysis.may_cause(&SourceSpec::file("/tmp/x"), &SinkSpec::NetworkOut));
    }

    #[test]
    fn write_only_output_file_is_not_a_read_candidate() {
        let (_, analysis) = analyze(
            r#"
            fn main() {
                let i = open("/in", 0);
                let v = read(i, 8);
                let o = open("/out", 1);
                write(o, v);
            }
        "#,
        );
        assert!(
            !analysis.may_cause(&SourceSpec::file("/out"), &SinkSpec::Outputs),
            "nothing reads /out, so it cannot be a source"
        );
    }

    #[test]
    fn exit_code_dependence_sets_affects_end() {
        let (_, analysis) = analyze(
            r#"
            fn main() {
                let fd = open("/in", 0);
                let v = int(read(fd, 8));
                exit(v);
            }
        "#,
        );
        let sites = analysis.candidate_sites(&ldx_dualex::SourceMatcher::FileRead("/in".into()));
        assert_eq!(sites.len(), 1);
        let reach = &analysis.reach()[&sites[0]];
        assert!(reach.affects_end, "source feeds exit()");
        assert!(
            analysis.may_cause(&SourceSpec::file("/in"), &SinkSpec::NetworkOut),
            "EndDiff is observable under any sink spec"
        );
    }

    #[test]
    fn division_by_tainted_value_affects_end() {
        let (_, analysis) = analyze(
            r#"
            fn main() {
                let fd = open("/in", 0);
                let v = int(read(fd, 8));
                let q = 100 / v;
            }
        "#,
        );
        let sites = analysis.candidate_sites(&ldx_dualex::SourceMatcher::FileRead("/in".into()));
        let reach = &analysis.reach()[&sites[0]];
        assert!(reach.affects_end, "a zeroed divisor traps");
    }

    #[test]
    fn unrelated_straightline_source_is_independent() {
        let (_, analysis) = analyze(
            r#"
            fn main() {
                let fd = open("/cfg", 0);
                let v = read(fd, 8);
                close(fd);
                write(1, "constant");
            }
        "#,
        );
        assert!(
            !analysis.may_cause(&SourceSpec::file("/cfg"), &SinkSpec::Outputs),
            "v is dead, the write is constant and not control-dependent"
        );
    }

    #[test]
    fn loop_bound_from_source_affects_end() {
        let (_, analysis) = analyze(
            r#"
            fn main() {
                let fd = open("/n", 0);
                let n = int(read(fd, 8));
                let i = 0;
                while (i < n) { i = i + 1; }
            }
        "#,
        );
        let sites = analysis.candidate_sites(&ldx_dualex::SourceMatcher::FileRead("/n".into()));
        let reach = &analysis.reach()[&sites[0]];
        assert!(
            reach.affects_end,
            "a perturbed loop bound can cross the step limit"
        );
    }

    #[test]
    fn indirect_call_is_conservative() {
        let (_, analysis) = analyze(
            r#"
            fn quiet(x) { return x + 1; }
            fn loud(x) { write(1, str(x)); return 0; }
            fn main() {
                let fd = open("/sel", 0);
                let v = int(read(fd, 8));
                let table = [&quiet, &loud];
                let h = table[v % 2];
                h(v);
            }
        "#,
        );
        assert!(
            analysis.may_cause(&SourceSpec::file("/sel"), &SinkSpec::Outputs),
            "indirect call may target the function containing the sink"
        );
    }

    #[test]
    fn type_changing_mutation_widens_to_any_use() {
        use ldx_dualex::Mutation;
        let (_, analysis) = analyze(
            r#"
            fn main() {
                let fd = open("/in", 0);
                let v = read(fd, 8);
                let w = v + "!";
            }
        "#,
        );
        // Type-preserving mutation: no sink, no end effect... but the
        // concatenation itself cannot trap, so Outputs finds nothing.
        assert!(!analysis.may_cause(&SourceSpec::file("/in"), &SinkSpec::Outputs));
        // A Replace mutation can change the type and trap anywhere the
        // value is used.
        assert!(analysis.may_cause(
            &SourceSpec::file("/in").with_mutation(Mutation::Replace("zzz".into())),
            &SinkSpec::Outputs
        ));
    }

    #[test]
    fn global_flow_crosses_functions() {
        let (_, analysis) = analyze(
            r#"
            global acc = 0;
            fn produce() {
                let fd = open("/in", 0);
                acc = int(read(fd, 8));
                return 0;
            }
            fn consume() { write(1, str(acc)); return 0; }
            fn main() { produce(); consume(); }
        "#,
        );
        assert!(
            analysis.may_cause(&SourceSpec::file("/in"), &SinkSpec::Outputs),
            "taint flows through the global"
        );
    }

    #[test]
    fn instrumented_program_keeps_the_same_verdicts() {
        // The analysis runs on the instrumented program (site ids must line
        // up with causality records), so it has to digest the counter
        // instructions too.
        let program = lower(&compile(TWO_SOURCE).unwrap());
        let instrumented = ldx_instrument::instrument(&program);
        let analysis = StaticAnalysis::analyze(instrumented.program());
        assert!(analysis.may_cause(&SourceSpec::file("/a"), &SinkSpec::Outputs));
        assert!(!analysis.may_cause(&SourceSpec::file("/b"), &SinkSpec::Outputs));
    }

    #[test]
    fn path_witness_connects_source_to_sink() {
        let (_, analysis) = analyze(TWO_SOURCE);
        let sources = analysis.candidate_sites(&ldx_dualex::SourceMatcher::FileRead("/a".into()));
        assert_eq!(sources.len(), 1);
        let sinks = analysis.sink_sites(&SinkSpec::Outputs);
        let sink = *sinks.iter().next().expect("one write sink");
        let path = analysis
            .path_witness(sources[0], sink)
            .expect("a static path exists");
        assert_eq!(path.first(), Some(&sources[0]), "path starts at the source");
        assert_eq!(path.last(), Some(&sink), "path ends at the sink");
        // Independent pair: the dead /b read reaches no sink.
        let dead = analysis.candidate_sites(&ldx_dualex::SourceMatcher::FileRead("/b".into()));
        assert!(analysis.path_witness(dead[0], sink).is_none());
    }

    #[test]
    fn path_witness_is_deterministic() {
        let (_, a1) = analyze(TWO_SOURCE);
        let (_, a2) = analyze(TWO_SOURCE);
        let src = a1.candidate_sites(&ldx_dualex::SourceMatcher::FileRead("/a".into()))[0];
        let sink = *a1.sink_sites(&SinkSpec::Outputs).iter().next().unwrap();
        assert_eq!(a1.path_witness(src, sink), a2.path_witness(src, sink));
    }

    #[test]
    fn path_to_end_witnesses_exit_dependence() {
        let (_, analysis) = analyze(
            r#"
            fn main() {
                let fd = open("/in", 0);
                let v = int(read(fd, 8));
                exit(v);
            }
        "#,
        );
        let src = analysis.candidate_sites(&ldx_dualex::SourceMatcher::FileRead("/in".into()))[0];
        let path = analysis.path_to_end(src).expect("source affects the end");
        assert_eq!(path.first(), Some(&src));
    }

    #[test]
    fn oracle_rejects_fabricated_record() {
        use ldx_dualex::{CausalityKind, CausalityRecord};
        use ldx_runtime::{ProgressKey, ThreadKey};
        let (_, analysis) = analyze(TWO_SOURCE);
        // A record claiming /b caused the write must be flagged.
        let record = CausalityRecord {
            kind: CausalityKind::MasterOnlySink,
            thread: ThreadKey::root(),
            key: ProgressKey::start(),
            func: ldx_ir::FuncId(0),
            site: ldx_ir::SiteId(999),
            sys: ldx_lang::Syscall::Write,
        };
        let report = ldx_dualex::DualReport {
            causality: vec![record],
            master: Err(ldx_runtime::Trap::DivisionByZero),
            slave: Err(ldx_runtime::Trap::DivisionByZero),
            syscall_diffs: 0,
            shared: 0,
            decoupled: 0,
            master_sinks: 0,
            timeouts: 0,
            flight: ldx_dualex::FlightLog::default(),
        };
        assert!(analysis
            .check_report(&[SourceSpec::file("/b")], &report)
            .is_err());
        // The empty report always passes.
        let empty = ldx_dualex::DualReport {
            causality: vec![],
            ..report
        };
        assert!(analysis
            .check_report(&[SourceSpec::file("/b")], &empty)
            .is_ok());
    }
}
