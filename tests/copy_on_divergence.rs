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
//! its own cut.

use ldx_dualex::{
    dual_execute_and_record, dual_execute_with, record, replay, DualReport, DualSpec, Schedule,
    SinkSpec, SourceSpec,
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

fn world(secret: &str) -> VosConfig {
    VosConfig::new()
        .file("/secret", secret)
        .file("/log", "init")
        .peer("out", PeerBehavior::Echo)
}

fn program() -> Arc<ldx_ir::IrProgram> {
    let resolved = ldx_lang::compile(PROBE).expect("the probe compiles");
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
fn no_false_leaks(what: &str, run: impl Fn() -> DualReport) {
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
    for schedule in [Schedule::TwoThreads, Schedule::OneThread] {
        no_false_leaks(&format!("{schedule:?}"), || {
            dual_execute_with(Arc::clone(&program), &world("41"), &spec(), schedule)
        });
    }
}

#[test]
fn replays_of_one_recording_never_see_the_masters_future() {
    let program = program();
    let alone = record(Arc::clone(&program), &world("41"), &spec());
    let (_, kept) = dual_execute_and_record(Arc::clone(&program), &world("41"), &spec());
    let kept = kept.expect("the probe has no spawn site");
    for (what, recording) in [("recorded alone", alone), ("kept by a run", kept)] {
        no_false_leaks(what, || replay(&recording, &spec()));
    }
}
