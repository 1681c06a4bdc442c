//! Paper Figures 2–5: the employee example and the nested-loop example,
//! checked at the level of the alignment *trace* — the run's event stream
//! (who executed, who copied, who decoupled, where the executions
//! re-aligned).

use ldx_dualex::{dual_execute, Decision, DualReport, FlightEvent};
use ldx_workloads::{figure2_employee, figure4_loops, FigureCase};
use std::sync::Arc;

/// Checks `report.trace_lines()` against the trace the engine printed
/// before the event stream replaced its separate trace vocabulary
/// (regrouped master lane, then slave lane), plus `added`: lines for
/// decisions that old trace dropped, each at its index in the new trace.
fn assert_trace(report: &DualReport, old: &[&str], added: &[(usize, &str)]) {
    let mut expected = old.to_vec();
    for &(index, line) in added {
        expected.insert(index, line);
    }
    assert_eq!(report.trace_lines(), expected);
}

const FIGURE3_TRACE: [&str; 25] = [
    "M t0 cnt=1 open exec",
    "M t0 cnt=2 read exec",
    "M t0 cnt=3 close exec",
    "M t0 cnt=4 open exec",
    "M t0 cnt=5 read exec",
    "M t0 cnt=6 open exec",
    "M t0 cnt=7 read exec",
    "M t0 cnt=8 close exec",
    "M t0 cnt=11 close exec",
    "M t0 cnt=12 connect exec",
    "M t0 cnt=13 send exec",
    "S t0 cnt=1 open copy",
    "S t0 cnt=2 read copy",
    "S t0 cnt=2 read copy+mutate",
    "S t0 cnt=3 close copy",
    "S t0 cnt=4 open copy",
    "S t0 cnt=5 read copy",
    "S t0 cnt=6 open decoupled",
    "S t0 cnt=7 read decoupled",
    "S t0 cnt=8 close decoupled",
    "S t0 cnt=10 read decoupled",
    "S t0 cnt=11 close decoupled",
    "S t0 cnt=12 connect copy",
    "S t0 cnt=13 send sink!",
    "S t0 cnt=13 send decoupled",
];

const FIGURE5_TRACE: [&str; 30] = [
    "M t0 cnt=1 open exec",
    "M t0 cnt=2 read exec",
    "M t0 cnt=3 close exec",
    "M t0 cnt=4 open exec",
    "M t0 cnt=L0#0:L1#0:5 read exec",
    "M t0 cnt=L0#0:L1#0:5 - barrier",
    "M t0 cnt=L0#0:L1#1:5 read exec",
    "M t0 cnt=L0#0:L1#1:5 - barrier",
    "M t0 cnt=L0#0:7 write exec",
    "M t0 cnt=L0#0:7 - barrier",
    "M t0 cnt=9 close exec",
    "M t0 cnt=10 connect exec",
    "M t0 cnt=11 send exec",
    "S t0 cnt=1 open copy",
    "S t0 cnt=2 read copy",
    "S t0 cnt=2 read copy+mutate",
    "S t0 cnt=3 close copy",
    "S t0 cnt=4 open copy",
    "S t0 cnt=L0#0:L1#0:5 read copy",
    "S t0 cnt=L0#0:L1#0:5 - barrier",
    "S t0 cnt=L0#0:7 write decoupled",
    "S t0 cnt=L0#0:7 - barrier",
    "S t0 cnt=L0#1:L1#0:5 read decoupled",
    "S t0 cnt=L0#1:L1#0:5 - barrier",
    "S t0 cnt=L0#1:7 write decoupled",
    "S t0 cnt=L0#1:7 - barrier",
    "S t0 cnt=9 close decoupled",
    "S t0 cnt=10 connect copy",
    "S t0 cnt=11 send sink!",
    "S t0 cnt=11 send decoupled",
];

fn run(case: &FigureCase) -> ldx_dualex::DualReport {
    let program = Arc::new(
        ldx_instrument::instrument(&ldx_ir::lower(
            &ldx_lang::compile(&case.source).expect("figure compiles"),
        ))
        .into_program(),
    );
    dual_execute(program, &case.world, &case.spec)
}

#[test]
fn figure3_employee_trace_shape() {
    let case = figure2_employee();
    let report = run(&case);
    assert!(report.master.is_ok() && report.slave.is_ok());
    assert!(report.leaked(), "the title leaks through the raise");

    // The slave must have copied the prefix (the shared reads), decoupled
    // through the divergent branch, and flagged the sink difference.
    let slave = &report.flight.slave;
    let decided = |want: Decision| {
        slave
            .iter()
            .any(|e| matches!(e, FlightEvent::Syscall { decision, .. } if *decision == want))
    };
    assert!(decided(Decision::Shared), "shared prefix");
    assert!(
        slave
            .iter()
            .any(|e| matches!(e, FlightEvent::Mutated { .. })),
        "the title read is perturbed"
    );
    assert!(
        decided(Decision::Decoupled),
        "the manager branch runs decoupled"
    );
    assert!(
        slave
            .iter()
            .any(|e| matches!(e, FlightEvent::SinkDiff { .. })),
        "the send re-aligns and differs"
    );

    // Re-alignment: the send is a *matched-key* comparison, not a
    // missing-sink report.
    assert!(
        report
            .causality
            .iter()
            .any(|c| matches!(c.kind, ldx_dualex::CausalityKind::ArgDiff { .. })),
        "paper: the sinks align (same counter) and their payloads differ: {:?}",
        report.causality
    );
    // The divergent-branch syscalls were tolerated, not reported.
    assert!(report.decoupled > 0);

    // The old trace showed the differing send only as `sink!`, dropping
    // the aligned comparison that found the difference.
    assert_trace(&report, &FIGURE3_TRACE, &[(23, "S t0 cnt=13 send compare")]);
}

#[test]
fn figure5_loop_trace_shape() {
    let case = figure4_loops();
    let report = run(&case);
    assert!(report.master.is_ok(), "master: {:?}", report.master);
    assert!(report.slave.is_ok(), "slave: {:?}", report.slave);
    assert!(report.leaked(), "n/m swap changes the totals");

    // Iteration barriers appear in the trace for both roles.
    let barrier = |e: &FlightEvent| matches!(e, FlightEvent::Barrier { .. });
    assert!(report.flight.master.iter().any(barrier));
    assert!(report.flight.slave.iter().any(barrier));

    // The executions took different loop shapes (master 1x2, slave 2x1):
    // some in-loop syscalls have no alignment.
    assert!(
        report.syscall_diffs + report.decoupled > 0,
        "loop-shape divergence must appear as syscall differences"
    );

    // The final send must align (ArgDiff, not a missing sink) — the
    // counter re-synchronizes beyond the loops, paper Fig. 5's last row.
    assert!(report
        .causality
        .iter()
        .any(|c| matches!(c.kind, ldx_dualex::CausalityKind::ArgDiff { .. })));

    // The old trace dropped the slave skipping the master's second inner
    // read (a master-only decision) and the send's aligned comparison.
    assert_trace(
        &report,
        &FIGURE5_TRACE,
        &[
            (20, "S t0 cnt=L0#0:L1#1:5 read master-only"),
            (29, "S t0 cnt=11 send compare"),
        ],
    );
}

#[test]
fn figure5_identity_loops_fully_aligned() {
    // Same loop program, identity mutation: every iteration aligns, no
    // divergence at all.
    let case = figure4_loops();
    let mut spec = case.spec.clone();
    for s in &mut spec.sources {
        s.mutation = ldx_dualex::Mutation::Identity;
    }
    let program = Arc::new(
        ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(&case.source).unwrap()))
            .into_program(),
    );
    let report = dual_execute(program, &case.world, &spec);
    assert!(!report.leaked(), "{:?}", report.causality);
    assert_eq!(report.syscall_diffs, 0);
    assert_eq!(report.decoupled, 0);
    let master_sys = report.master.as_ref().unwrap().stats.syscalls;
    assert_eq!(report.shared, master_sys, "every outcome shared");
}
