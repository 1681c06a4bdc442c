//! End-to-end validation of the 28-program corpus: every workload must run
//! natively without trapping, report exactly the causality its spec
//! promises under the leaking mutation, stay silent under the benign
//! mutation, and stay silent under the identity mutation (invariant I5).
//! No run may lean on a safety valve (`MAX_WAIT`, the stop signal).

use ldx_dualex::{
    dual_execute, CausalityKind, DualReport, DualSpec, FlightEvent, Mutation, SourceSpec,
};
use ldx_runtime::{run_program, ExecConfig, NativeHooks};
use ldx_vos::Vos;
use ldx_workloads::{corpus, Suite, Workload};
use std::collections::HashSet;
use std::sync::Arc;

fn run(w: &Workload, spec: &DualSpec) -> DualReport {
    let report = dual_execute(w.program(), &w.world, spec);
    assert_eq!(
        report.timeouts, 0,
        "`{}`: a coupling wait timed out",
        w.name
    );
    report
}

fn native_runs_clean(w: &Workload) {
    let program = w.program();
    let vos = Arc::new(Vos::new(&w.world));
    let hooks = Arc::new(NativeHooks::new(Arc::clone(&vos)));
    let out = run_program(program, hooks, ExecConfig::default())
        .unwrap_or_else(|e| panic!("workload `{}` traps natively: {e}", w.name));
    assert_eq!(out.exit_code, 0, "workload `{}` exits nonzero", w.name);
    assert!(
        out.stats.syscalls > 0,
        "workload `{}` performs no syscalls",
        w.name
    );
}

#[test]
fn every_workload_runs_natively() {
    for w in corpus() {
        native_runs_clean(&w);
    }
    native_runs_clean(&ldx_workloads::preprocessor_case_study());
    native_runs_clean(&ldx_workloads::showip_case_study());
}

#[test]
fn identity_mutation_never_reports() {
    for w in corpus() {
        // Concurrent workloads have genuinely racy sink payloads; the
        // paper's Table 4 documents that variance separately. Identity
        // quiescence is only promised for deterministic programs.
        if w.suite == Suite::Concurrent {
            continue;
        }
        let spec = DualSpec {
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
        let report = run(&w, &spec);
        assert!(
            report.master.is_ok(),
            "`{}` master: {:?}",
            w.name,
            report.master
        );
        assert!(
            report.slave.is_ok(),
            "`{}` slave: {:?}",
            w.name,
            report.slave
        );
        assert!(
            !report.leaked(),
            "`{}` reports under identity mutation: {:?}",
            w.name,
            report.causality
        );
        assert_eq!(
            report.syscall_diffs, 0,
            "`{}` has syscall diffs under identity mutation",
            w.name
        );
    }
}

#[test]
fn leaking_mutations_are_detected() {
    for w in corpus() {
        let report = run(&w, &w.dual_spec());
        assert!(
            report.master.is_ok(),
            "`{}` master: {:?}",
            w.name,
            report.master
        );
        assert!(
            report.slave.is_ok(),
            "`{}` slave: {:?}",
            w.name,
            report.slave
        );
        assert_eq!(
            report.leaked(),
            w.expect_leak,
            "`{}`: expected leak={}, got records {:?} (diffs {}, shared {}, decoupled {})",
            w.name,
            w.expect_leak,
            report.causality,
            report.syscall_diffs,
            report.shared,
            report.decoupled,
        );
    }
}

#[test]
fn benign_mutations_stay_quiet_with_syscall_differences_tolerated() {
    for w in corpus() {
        let Some(spec) = w.benign_spec() else {
            continue;
        };
        let report = run(&w, &spec);
        assert!(
            report.master.is_ok() && report.slave.is_ok(),
            "`{}` failed: {:?} / {:?}",
            w.name,
            report.master,
            report.slave
        );
        assert!(
            !report.leaked(),
            "`{}` benign mutation falsely reported: {:?}",
            w.name,
            report.causality
        );
    }
}

#[test]
fn case_studies_detect_their_leaks() {
    for w in [
        ldx_workloads::preprocessor_case_study(),
        ldx_workloads::showip_case_study(),
    ] {
        let report = run(&w, &w.dual_spec());
        assert!(
            report.leaked(),
            "case study `{}` must report: {:?}",
            w.name,
            report.causality
        );
    }
}

/// Every causality record is reported with its decision: with recording
/// on, each record but the whole-execution `EndDiff` sits at the site of
/// an event in one of the two lanes.
#[test]
fn every_causality_record_has_its_event() {
    for w in corpus() {
        let mut spec = w.dual_spec();
        spec.record = true;
        let report = run(&w, &spec);
        let sites: HashSet<_> = report
            .flight
            .master
            .iter()
            .chain(&report.flight.slave)
            .filter_map(FlightEvent::site)
            .collect();
        for record in &report.causality {
            if !matches!(record.kind, CausalityKind::EndDiff { .. }) {
                assert!(
                    sites.contains(&(record.func, record.site)),
                    "`{}`: no event for {record}",
                    w.name
                );
            }
        }
    }
}
