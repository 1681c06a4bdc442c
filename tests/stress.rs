//! Stress tests: larger generated programs and repeated concurrent runs.
//!
//! These exercise the engine at scales the unit suites do not: deeper
//! nesting (more compensation edges, more loop barriers per run) and
//! repeated dual executions of genuinely racy multi-threaded programs.

use ldx_dualex::{dual_execute, DualSpec, Mutation, SinkSpec, SourceMatcher, SourceSpec};
use ldx_runtime::ExecConfig;
use ldx_vos::VosConfig;
use ldx_workloads::{by_suite, random_program_source, GeneratorConfig, Suite};
use std::sync::Arc;

#[test]
fn large_generated_programs_instrument_and_dual_execute() {
    let config = GeneratorConfig {
        max_depth: 5,
        max_block_len: 6,
        helpers: 4,
    };
    for seed in 100..112 {
        let src = random_program_source(seed, &config);
        let resolved = ldx_lang::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let ip = ldx_instrument::instrument(&ldx_ir::lower(&resolved));
        ldx_instrument::check_counter_consistency(&ip)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let program = Arc::new(ip.into_program());

        let world = VosConfig::new().file("/gen/input", "137").dir("/gen");
        let spec = DualSpec {
            sources: vec![SourceSpec {
                matcher: SourceMatcher::FileRead("/gen/input".into()),
                mutation: Mutation::OffByOne,
            }],
            sinks: SinkSpec::FileOut,
            exec: ExecConfig {
                max_steps: 20_000_000,
                ..ExecConfig::default()
            },
            ..DualSpec::default()
        };
        let report = dual_execute(Arc::clone(&program), &world, &spec);
        assert!(report.master.is_ok(), "seed {seed}: {:?}", report.master);
        assert!(report.slave.is_ok(), "seed {seed}: {:?}", report.slave);
    }
}

#[test]
fn concurrent_workloads_are_stable_over_repeated_runs() {
    for w in by_suite(Suite::Concurrent) {
        let program = w.program();
        let spec = w.dual_spec();
        for rep in 0..8 {
            let report = dual_execute(program.clone(), &w.world, &spec);
            assert!(
                report.master.is_ok(),
                "`{}` rep {rep}: {:?}",
                w.name,
                report.master
            );
            assert!(
                report.slave.is_ok(),
                "`{}` rep {rep}: {:?}",
                w.name,
                report.slave
            );
            // Whatever the schedule, the planted leak must be found.
            assert!(
                report.leaked(),
                "`{}` rep {rep}: leak missed (diffs {}, shared {})",
                w.name,
                report.syscall_diffs,
                report.shared
            );
        }
    }
}

#[test]
fn deeply_nested_loop_tower_aligns() {
    // Four nested instrumented loops with divergent middle trip counts:
    // a worst case for epoch bookkeeping.
    let program = Arc::new(
        ldx_instrument::instrument(&ldx_ir::lower(
            &ldx_lang::compile(
                r#"fn main() {
                    let n = int(trim(read(open("/in", 0), 4)));
                    let total = 0;
                    for (let a = 0; a < 2; a = a + 1) {
                        for (let b = 0; b < n; b = b + 1) {
                            for (let c = 0; c < 2; c = c + 1) {
                                for (let d = 0; d < n; d = d + 1) {
                                    write(2, str(a) + str(b) + str(c) + str(d));
                                    total = total + 1;
                                }
                            }
                        }
                    }
                    send(connect("out"), "n=" + str(n) + " total=" + str(total));
                }"#,
            )
            .unwrap(),
        ))
        .into_program(),
    );
    let world = VosConfig::new()
        .file("/in", "3")
        .peer("out", ldx_vos::PeerBehavior::Echo);
    let spec = DualSpec::with_source(SourceSpec::file("/in")).sinks(SinkSpec::NetworkOut);
    let report = dual_execute(program, &world, &spec);
    assert!(report.master.is_ok(), "{:?}", report.master);
    assert!(report.slave.is_ok(), "{:?}", report.slave);
    // Master: 2*3*2*3 = 36 writes; slave: 2*4*2*4 = 64. The final send
    // realigns and differs.
    assert!(report
        .causality
        .iter()
        .any(|c| matches!(c.kind, ldx_dualex::CausalityKind::ArgDiff { .. })));
}
