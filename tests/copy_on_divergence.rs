//! The copy-on-divergence probe: the slave's first decoupled access to a
//! resource must see the master's world as of the cut (the last master
//! syscall the slave consumed), never the master's later writes.
//!
//! The probe reads `/log` only on the branch the mutation flips, sends
//! what it read, and then, after a loop that lets the master run ahead,
//! overwrites `/log`. With `/secret` = 41 the master skips the read and
//! sends "init"; the mutated slave (42) reads `/log` decoupled and must
//! also find "init", exactly as a native run on 42 does. A slave that
//! cloned `/log` from the master's live world would read "changed" and
//! report a leak that does not exist. Slaves replayed against one
//! recorded master all clone from that master's kept history, each as of
//! its own cut, and so do live slaves sharing one master.
//!
//! A second probe writes the same data to a file it opened through a
//! descriptor of the slave's own (the file is tainted, so the slave's
//! `open` runs on its overlay): the sink is compared by the resource the
//! descriptors name (the file and the mode it was opened in), not by
//! their numbers.

use ldx_dualex::{
    dual_execute, dual_execute_shared, record, replay, CausalityKind, Decision, DualReport,
    DualSpec, FlightEvent, Mutation, SinkSpec, SourceSpec,
};
use ldx_runtime::{run_program, ExecConfig, NativeHooks};
use ldx_vos::{PeerBehavior, Vos, VosConfig};
use std::sync::Arc;

const PROBE: &str = r#"fn main() {
    let x = int(read(open("/secret", 0), 8));
    let d = "init";
    if (x > 41) {
        d = read(open("/log", 0), 64);
    }
    send(connect("out"), d);
    let i = 0;
    while (i < 200) {
        i = i + 1;
    }
    write(open("/log", 1), "changed");
}"#;

const RUNS: usize = 200;

/// A way to run one dual execution.
type Run = fn(Arc<ldx_ir::IrProgram>, &VosConfig, &DualSpec) -> DualReport;

/// The two ways: master and slave at once on two threads, and the slave
/// after the master on one.
const SCHEDULES: [(&str, Run); 2] = [("two threads", dual_execute), ("one thread", one_thread)];

fn one_thread(program: Arc<ldx_ir::IrProgram>, config: &VosConfig, spec: &DualSpec) -> DualReport {
    replay(&record(program, config, spec), spec)
}

fn world(secret: &str) -> VosConfig {
    VosConfig::new()
        .file("/secret", secret)
        .file("/log", "init")
        .peer("out", PeerBehavior::Echo)
}

fn program() -> Arc<ldx_ir::IrProgram> {
    compile(PROBE)
}

fn compile(source: &str) -> Arc<ldx_ir::IrProgram> {
    let resolved = ldx_lang::compile(source).expect("the probe compiles");
    Arc::new(ldx_instrument::instrument(&ldx_ir::lower(&resolved)).into_program())
}

#[test]
fn the_mutated_run_really_sends_the_same_data() {
    let sent = |secret: &str| {
        let vos = Arc::new(Vos::new(&world(secret)));
        let hooks = Arc::new(NativeHooks::new(Arc::clone(&vos)));
        run_program(program(), hooks, ExecConfig::default()).expect("runs");
        vos.sent_to("out")
    };
    assert_eq!(sent("41"), vec!["init"]);
    assert_eq!(
        sent("42"),
        sent("41"),
        "so the right verdict is no causality"
    );
}

fn spec() -> DualSpec {
    DualSpec::with_source(SourceSpec::file("/secret")).sinks(SinkSpec::NetworkOut)
}

/// Runs the probe `RUNS` times through `run` and asserts no run reports
/// the leak; `what` names the runs.
fn no_false_leaks(what: &str, mut run: impl FnMut() -> DualReport) {
    let mut false_leaks = 0;
    for _ in 0..RUNS {
        let report = run();
        assert_eq!(report.timeouts, 0, "{what}: a coupling wait timed out");
        assert!(report.decoupled > 0, "{what}: the slave never read /log");
        if report.leaked() {
            false_leaks += 1;
        }
    }
    assert_eq!(
        false_leaks, 0,
        "{what}: {false_leaks} of {RUNS} runs reported a leak"
    );
}

#[test]
fn decoupled_clones_never_see_the_masters_future() {
    let program = program();
    for (schedule, run) in SCHEDULES {
        no_false_leaks(schedule, || {
            run(Arc::clone(&program), &world("41"), &spec())
        });
    }
}

#[test]
fn replays_of_one_recording_never_see_the_masters_future() {
    let program = program();
    let recording = record(Arc::clone(&program), &world("41"), &spec());
    no_false_leaks("recorded alone", || replay(&recording, &spec()));
}

#[test]
fn live_slaves_of_one_master_never_see_its_future() {
    let program = program();
    let identity =
        DualSpec::with_source(SourceSpec::file("/secret").with_mutation(Mutation::Identity))
            .sinks(SinkSpec::NetworkOut);
    let specs = [spec(), identity];
    let mut quiet = 0;
    no_false_leaks("two live slaves", || {
        let mut reports = dual_execute_shared(Arc::clone(&program), &world("41"), &specs);
        let identity = reports.pop().expect("two reports");
        assert_eq!(identity.timeouts, 0);
        quiet += usize::from(!identity.leaked() && identity.decoupled == 0);
        reports.pop().expect("two reports")
    });
    assert_eq!(
        quiet, RUNS,
        "the identity slave shares every master syscall"
    );
}

/// Reads `/log` on the branch the mutation flips, then appends `data` to
/// it: the slave's append runs through an overlay descriptor.
fn append_after_a_tainting_read(data: &str) -> Arc<ldx_ir::IrProgram> {
    compile(&format!(
        r#"fn main() {{
    let x = int(read(open("/secret", 0), 8));
    if (x > 41) {{
        read(open("/log", 0), 64);
    }}
    write(open("/log", 2), {data});
}}"#
    ))
}

fn file_out() -> DualSpec {
    DualSpec::with_source(SourceSpec::file("/secret"))
        .sinks(SinkSpec::FileOut)
        .recorded()
}

#[test]
fn a_sink_compares_descriptors_by_the_resource_they_name() {
    let program = append_after_a_tainting_read(r#""same""#);
    for (schedule, run) in SCHEDULES {
        let report = run(Arc::clone(&program), &world("41"), &file_out());
        assert!(
            !report.leaked(),
            "{schedule}: the same append to /log is no causality: {:?}",
            report.causality
        );
        assert_eq!(report.timeouts, 0);
        // The slave still appends, on its own overlay descriptor.
        let appended = report.flight.slave.iter().any(|event| {
            matches!(
                event,
                FlightEvent::Syscall {
                    decision: Decision::Decoupled,
                    sys: ldx_lang::Syscall::Write,
                    is_sink: true,
                    ..
                }
            )
        });
        assert!(appended, "{schedule}: the slave's append did not run");
    }
}

#[test]
fn a_sink_with_different_data_is_still_an_argument_difference() {
    let program = append_after_a_tainting_read("str(x)");
    for (schedule, run) in SCHEDULES {
        let report = run(Arc::clone(&program), &world("41"), &file_out());
        let diffs: Vec<(&str, &str)> = report
            .causality
            .iter()
            .filter_map(|record| match &record.kind {
                CausalityKind::ArgDiff { master, slave } => Some((master.as_str(), slave.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(diffs.len(), 1, "{schedule}: {:?}", report.causality);
        let (master, slave) = diffs[0];
        assert!(
            master.ends_with(", 41") && slave.ends_with(", 42"),
            "{master} vs {slave}"
        );
    }
}

#[test]
fn a_sink_through_a_file_opened_in_another_mode_is_an_argument_difference() {
    // The mutation turns the append into a truncating write of the same
    // data: the file ends up different, so the write is a real flow.
    let program = compile(
        r#"fn main() {
    let x = int(read(open("/secret", 0), 8));
    let flags = 2;
    if (x > 41) {
        flags = 1;
    }
    write(open("/log", flags), "same");
}"#,
    );
    for (schedule, run) in SCHEDULES {
        let report = run(Arc::clone(&program), &world("41"), &file_out());
        let diffs = report
            .causality
            .iter()
            .filter(|record| matches!(record.kind, CausalityKind::ArgDiff { .. }))
            .count();
        assert_eq!(diffs, 1, "{schedule}: {:?}", report.causality);
        assert_eq!(report.timeouts, 0);
    }
}
