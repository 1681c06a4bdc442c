//! Protocol edge cases: indirect-call frames, recursion, setjmp/longjmp
//! divergence, resource tainting, thread asymmetry, live slaves of one
//! master that run at different speeds, and a master lane that overflows.

use ldx_dualex::{
    dual_execute, dual_execute_shared, record, replay, CausalityKind, Decision, DualSpec,
    FlightEvent, Mutation, SinkSpec, SourceMatcher, SourceSpec, DEFAULT_FLIGHT_CAPACITY,
};
use ldx_vos::{PeerBehavior, VosConfig};
use std::sync::Arc;

fn build(src: &str) -> Arc<ldx_ir::IrProgram> {
    Arc::new(
        ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(src).unwrap())).into_program(),
    )
}

fn spec_file(path: &str, mutation: Mutation, sinks: SinkSpec) -> DualSpec {
    DualSpec::with_source(SourceSpec::file(path).with_mutation(mutation)).sinks(sinks)
}

#[test]
fn indirect_call_frames_align_across_divergence() {
    // The source selects WHICH handler runs; both handlers do syscalls in
    // fresh counter frames. The final send (back in the root frame) must
    // re-align and carry the causality.
    let program = build(
        r#"
        fn ha(x) { write(2, "A" + str(x)); write(2, "A2"); return x + 1; }
        fn hb(x) { write(2, "B" + str(x)); return x + 2; }
        fn main() {
            let v = int(trim(read(open("/in", 0), 8)));
            let h = &ha;
            if (v % 2 == 0) { h = &hb; }
            let r = h(v);
            send(connect("out"), str(r));
        }
        "#,
    );
    let world = VosConfig::new()
        .file("/in", "3")
        .peer("out", PeerBehavior::Echo);
    let report = dual_execute(
        program,
        &world,
        &spec_file("/in", Mutation::OffByOne, SinkSpec::NetworkOut),
    );
    assert!(report.master.is_ok() && report.slave.is_ok());
    assert!(report.leaked());
    assert!(
        report
            .causality
            .iter()
            .any(|c| matches!(c.kind, CausalityKind::ArgDiff { .. })),
        "the root-frame send re-aligns: {:?}",
        report.causality
    );
}

#[test]
fn recursion_depth_divergence_realigns() {
    let program = build(
        r#"
        fn walk(n) {
            write(2, "step" + str(n));
            if (n <= 0) { return 0; }
            return walk(n - 1) + 1;
        }
        fn main() {
            let n = int(trim(read(open("/in", 0), 8)));
            let depth = walk(n);
            send(connect("out"), "depth=" + str(depth));
        }
        "#,
    );
    let world = VosConfig::new()
        .file("/in", "3")
        .peer("out", PeerBehavior::Echo);
    let report = dual_execute(
        program,
        &world,
        &spec_file("/in", Mutation::OffByOne, SinkSpec::NetworkOut),
    );
    assert!(report.master.is_ok() && report.slave.is_ok());
    // Master recurses 3 deep, slave 4 deep: extra in-recursion writes are
    // tolerated; the send aligns with different payloads.
    assert!(report.leaked());
    assert!(report
        .causality
        .iter()
        .any(|c| matches!(c.kind, CausalityKind::ArgDiff { .. })));
}

#[test]
fn longjmp_divergence_is_an_artificial_sink() {
    // Only the slave longjmps (its mutated input overflows the budget):
    // the artificial sink before longjmp (paper §6) must fire.
    let program = build(
        r#"
        fn consume(budget) {
            if (budget > 5) { longjmp(budget); }
            return budget;
        }
        fn main() {
            let v = int(trim(read(open("/in", 0), 8)));
            let code = setjmp();
            if (code == 0) {
                consume(v);
                write(2, "ok");
            } else {
                write(2, "jumped");
            }
            send(connect("out"), "done");
        }
        "#,
    );
    let world = VosConfig::new()
        .file("/in", "5")
        .peer("out", PeerBehavior::Echo);
    let report = dual_execute(
        program,
        &world,
        &spec_file("/in", Mutation::OffByOne, SinkSpec::NetworkOut),
    );
    assert!(report.master.is_ok() && report.slave.is_ok());
    assert!(
        report
            .causality
            .iter()
            .any(|c| c.sys == ldx_lang::Syscall::Longjmp),
        "slave-only longjmp must be reported: {:?}",
        report.causality
    );
}

#[test]
fn renamed_file_is_tainted_and_decoupled() {
    // The slave renames a file the master leaves alone (source-dependent
    // path); later accesses to it must stay decoupled without corrupting
    // the master's world.
    let program = build(
        r#"fn main() {
            let mode = trim(read(open("/mode", 0), 8));
            if (mode == "rotate") {
                rename("/data/log", "/data/log.old");
                let w = open("/data/log", 1);
                write(w, "fresh");
                close(w);
            }
            let fd = open("/data/log", 0);
            let content = read(fd, 32);
            close(fd);
            send(connect("out"), content);
        }"#,
    );
    let world = VosConfig::new()
        .file("/mode", "keep")
        .file("/data/log", "original-content")
        .peer("out", PeerBehavior::Echo);
    let spec = spec_file(
        "/mode",
        Mutation::Replace("rotate".into()),
        SinkSpec::NetworkOut,
    );
    let report = dual_execute(program, &world, &spec);
    assert!(report.master.is_ok() && report.slave.is_ok());
    // Master sends the original, slave sends "fresh": causality.
    let arg_diff = report.causality.iter().find_map(|c| match &c.kind {
        CausalityKind::ArgDiff { master, slave } => Some((master.clone(), slave.clone())),
        _ => None,
    });
    let (m, s) = arg_diff.expect("send aligns with different content");
    assert!(m.contains("original-content"));
    assert!(s.contains("fresh"));
}

#[test]
fn slave_only_threads_run_decoupled() {
    // The mutated input makes the slave spawn an extra worker; its
    // syscalls must not confuse the coupling, and its sink output is
    // reported as slave-only causality.
    let program = build(
        r#"
        fn worker(k) {
            send(connect("out"), "worker" + str(k));
            return 0;
        }
        fn main() {
            let n = int(trim(read(open("/in", 0), 8)));
            let t1 = spawn(&worker, 1);
            join(t1);
            if (n > 5) {
                let t2 = spawn(&worker, 2);
                join(t2);
            }
        }
        "#,
    );
    let world = VosConfig::new()
        .file("/in", "5")
        .peer("out", PeerBehavior::Echo);
    let mut spec = spec_file("/in", Mutation::OffByOne, SinkSpec::NetworkOut);
    spec.record = true;
    let report = dual_execute(program, &world, &spec);
    assert!(report.master.is_ok(), "{:?}", report.master);
    assert!(report.slave.is_ok(), "{:?}", report.slave);
    let record = report
        .causality
        .iter()
        .find(|c| matches!(c.kind, CausalityKind::SlaveOnlySink))
        .unwrap_or_else(|| {
            panic!(
                "the slave-only worker's send is causality: {:?}",
                report.causality
            )
        });
    // The decision behind the record is in the event stream too.
    assert!(report.flight.slave.iter().any(|e| matches!(
        e,
        ldx_dualex::FlightEvent::Syscall { decision: ldx_dualex::Decision::SlaveOnly, thread, func, site, .. }
            if *thread == record.thread && (*func, *site) == (record.func, record.site)
    )));
}

#[test]
fn master_only_threads_reconcile() {
    let program = build(
        r#"
        fn worker(k) {
            send(connect("out"), "worker" + str(k));
            return 0;
        }
        fn main() {
            let n = int(trim(read(open("/in", 0), 8)));
            if (n > 5) {
                let t = spawn(&worker, 1);
                join(t);
            }
        }
        "#,
    );
    let world = VosConfig::new()
        .file("/in", "9")
        .peer("out", PeerBehavior::Echo);
    // Mutation drops the digit below the threshold: 9 -> 0.
    let report = dual_execute(
        program,
        &world,
        &spec_file("/in", Mutation::Zero, SinkSpec::NetworkOut),
    );
    assert!(report.master.is_ok() && report.slave.is_ok());
    assert!(
        report
            .causality
            .iter()
            .any(|c| matches!(c.kind, CausalityKind::MasterOnlySink)),
        "the master-only worker's send is causality: {:?}",
        report.causality
    );
}

#[test]
fn sources_on_entropy_syscalls() {
    // SyscallKind sources: mutate every random() outcome in the slave.
    let program = build(
        r#"fn main() {
            let r = random();
            send(connect("out"), "lucky=" + str(r % 100));
        }"#,
    );
    let world = VosConfig::new().peer("out", PeerBehavior::Echo);
    let spec = DualSpec::with_source(SourceSpec {
        matcher: SourceMatcher::SyscallKind(ldx_lang::Syscall::Random),
        mutation: Mutation::OffByOne,
    })
    .sinks(SinkSpec::NetworkOut);
    let report = dual_execute(program, &world, &spec);
    assert!(report.leaked(), "entropy flows to the sink");
}

#[test]
fn deep_nested_loops_with_mixed_divergence() {
    // Three levels of nesting where the mutation changes the middle
    // level's trip count: inner iterations shift wholesale, and the
    // post-loop sink still aligns.
    let program = build(
        r#"fn main() {
            let n = int(trim(read(open("/in", 0), 8)));
            let total = 0;
            for (let a = 0; a < 2; a = a + 1) {
                for (let b = 0; b < n; b = b + 1) {
                    for (let c = 0; c < 2; c = c + 1) {
                        write(2, str(a) + str(b) + str(c));
                        total = total + 1;
                    }
                }
            }
            send(connect("out"), "total=" + str(total));
        }"#,
    );
    let world = VosConfig::new()
        .file("/in", "2")
        .peer("out", PeerBehavior::Echo);
    let report = dual_execute(
        program,
        &world,
        &spec_file("/in", Mutation::OffByOne, SinkSpec::NetworkOut),
    );
    assert!(report.master.is_ok(), "{:?}", report.master);
    assert!(report.slave.is_ok(), "{:?}", report.slave);
    assert!(report.leaked());
    assert!(report
        .causality
        .iter()
        .any(|c| matches!(c.kind, CausalityKind::ArgDiff { .. })));
}

#[test]
fn decoupled_peer_recv_reconstructs_connection() {
    // The socket is connected and partially consumed while coupled; the
    // slave then diverges and must recv the *rest* of the conversation on
    // its own reconstructed connection.
    let program = build(
        r#"fn main() {
            let s = connect("feed.example");
            let head = recv(s, 6);
            let secret = trim(read(open("/secret", 0), 8));
            let tail = "";
            if (secret == "more") {
                tail = recv(s, 6);
            }
            send(connect("out"), head + "|" + tail);
        }"#,
    );
    let world = VosConfig::new()
        .file("/secret", "stop")
        .peer(
            "feed.example",
            PeerBehavior::Script(vec!["first!".into(), "second".into()]),
        )
        .peer("out", PeerBehavior::Echo);
    let spec = spec_file(
        "/secret",
        Mutation::Replace("more".into()),
        SinkSpec::NetworkOut,
    );
    let report = dual_execute(program, &world, &spec);
    assert!(report.master.is_ok() && report.slave.is_ok());
    let arg_diff = report.causality.iter().find_map(|c| match &c.kind {
        CausalityKind::ArgDiff { master, slave } => Some((master.clone(), slave.clone())),
        _ => None,
    });
    let (m, s) = arg_diff.expect("final send aligns: {report:?}");
    assert!(m.contains("first!|"), "master: {m}");
    // The slave's decoupled recv continues the script from where the
    // coupled conversation left off.
    assert!(s.contains("first!|second"), "slave: {s}");
}

#[test]
fn decoupled_accept_replays_backlog_position() {
    // Master accepts both clients; the slave diverges before the second
    // accept and must reconstruct it from its overlay backlog at the right
    // index.
    let program = build(
        r#"fn main() {
            let c1 = accept(80);
            let r1 = recv(c1, 16);
            close(c1);
            let secret = trim(read(open("/secret", 0), 8));
            let summary = r1;
            if (secret == "greedy") {
                let c2 = accept(80);
                let r2 = recv(c2, 16);
                close(c2);
                summary = r1 + "+" + r2;
            }
            send(connect("out"), summary);
        }"#,
    );
    let world = VosConfig::new()
        .file("/secret", "modest")
        .listen(80, vec!["alpha".into(), "beta".into()])
        .peer("out", PeerBehavior::Echo);
    let spec = spec_file(
        "/secret",
        Mutation::Replace("greedy".into()),
        SinkSpec::NetworkOut,
    );
    let report = dual_execute(program, &world, &spec);
    assert!(report.master.is_ok() && report.slave.is_ok());
    let arg_diff = report.causality.iter().find_map(|c| match &c.kind {
        CausalityKind::ArgDiff { master, slave } => Some((master.clone(), slave.clone())),
        _ => None,
    });
    let (m, s) = arg_diff.expect("final send aligns");
    assert!(m.contains("alpha"), "master: {m}");
    assert!(
        s.contains("alpha+beta"),
        "slave's decoupled accept must get the SECOND client: {s}"
    );
}

#[test]
fn decoupled_descriptor_never_collides_with_held_master_descriptor() {
    // The slave keeps a master-issued descriptor open across a divergence
    // in which it decoupled-opens a second file. The two descriptors must
    // stay distinct: reading the first must still return the FIRST file's
    // content.
    let program = build(
        r#"fn main() {
            let a = open("/data/a.txt", 0);
            let head = read(a, 4);
            let secret = trim(read(open("/secret", 0), 8));
            let extra = "";
            if (secret == "log") {
                let b = open("/scratch/b.txt", 1);
                write(b, "bbbb");
                close(b);
                extra = "+logged";
            }
            let tail = read(a, 4);
            close(a);
            send(connect("out"), head + tail + extra);
        }"#,
    );
    let world = VosConfig::new()
        .file("/data/a.txt", "AAAAaaaa")
        .file("/secret", "off")
        .dir("/scratch")
        .peer("out", PeerBehavior::Echo);
    let spec = spec_file(
        "/secret",
        Mutation::Replace("log".into()),
        SinkSpec::NetworkOut,
    );
    let report = dual_execute(program, &world, &spec);
    assert!(report.master.is_ok() && report.slave.is_ok());
    let arg_diff = report.causality.iter().find_map(|c| match &c.kind {
        CausalityKind::ArgDiff { master, slave } => Some((master.clone(), slave.clone())),
        _ => None,
    });
    let (m, s) = arg_diff.expect("final send aligns");
    assert!(m.contains("AAAAaaaa"), "master: {m}");
    // With colliding descriptors the slave's `tail` read would return the
    // scratch file's content; the disjoint overlay fd range prevents it.
    assert!(s.contains("AAAAaaaa+logged"), "slave: {s}");
}

#[test]
fn aligned_syscalls_on_tainted_resources_count_once() {
    // The slave (s == "B") rewrites /log before both executions reopen
    // it: the reopen aligns with the master's, but /log is tainted, so
    // the slave executes it privately — decoupled, not also shared.
    let program = build(
        r#"fn main() {
            let s = read(open("/s", 0), 1);
            if (s == "B") {
                let fd = open("/log", 1);
                write(fd, "x");
                close(fd);
            }
            let g = open("/log", 0);
            let d = read(g, 4);
            write(1, "done" + d);
        }"#,
    );
    let world = VosConfig::new().file("/s", "A").file("/log", "old");
    let report = dual_execute(
        program,
        &world,
        &spec_file("/s", Mutation::OffByOne, SinkSpec::Outputs),
    );
    let slave = report.slave.as_ref().expect("slave runs");
    assert_eq!((report.shared, report.decoupled), (2, 6));
    assert_eq!(report.shared + report.decoupled, slave.stats.syscalls);
}

#[test]
fn a_fast_slave_never_trims_history_a_slow_slave_still_reads() {
    // Two live slaves of one master. The mutated one decouples at once
    // and then computes for a while before its first decoupled access to
    // /log, which must see /log as of its cut: "init", before the master
    // truncated it and wrote it 3000 times. Meanwhile the identity slave
    // shares every master syscall, so its cut runs far ahead; had it
    // trimmed the master's history behind that cut, the slow slave's
    // clone would see the writes and report a leak that does not exist.
    let program = build(
        r#"
        fn main() {
            let x = int(read(open("/secret", 0), 8));
            let d = "init";
            if (x > 41) {
                let i = 0;
                while (i < 100000) { i = i + 1; }
                d = read(open("/log", 0), 64);
            }
            let fd = open("/log", 1);
            for (let j = 0; j < 3000; j = j + 1) { write(fd, "x"); }
            close(fd);
            send(connect("out"), d);
        }
        "#,
    );
    let world = VosConfig::new()
        .file("/secret", "41")
        .file("/log", "init")
        .peer("out", PeerBehavior::Echo);
    let specs = [
        spec_file("/secret", Mutation::OffByOne, SinkSpec::NetworkOut),
        spec_file("/secret", Mutation::Identity, SinkSpec::NetworkOut),
    ];
    for run in 0..5 {
        let reports = dual_execute_shared(Arc::clone(&program), &world, &specs);
        let (mutated, identity) = (&reports[0], &reports[1]);
        assert!(mutated.decoupled > 0, "run {run}: the slow slave read /log");
        assert!(
            !mutated.leaked(),
            "run {run}: the slow slave saw the master's future: {:?}",
            mutated.causality
        );
        assert!(!identity.leaked() && identity.decoupled == 0 && identity.syscall_diffs == 0);
        let master_syscalls = identity.master.as_ref().map_or(0, |o| o.stats.syscalls);
        assert_eq!(identity.shared, master_syscalls, "run {run}");
        assert_eq!(mutated.timeouts + identity.timeouts, 0);
    }
}

#[test]
fn an_overflowing_master_lane_is_the_same_live_replayed_and_shared() {
    // The mutated slave exits at once, so the master's 20,000 writes and
    // their backedges overflow its lane, and every write is a leftover
    // that reconcile drops at the full lane.
    let program = build(
        r#"
        fn main() {
            let x = int(read(open("/secret", 0), 8));
            if (x > 41) { exit(0); }
            let fd = open("/log", 1);
            for (let j = 0; j < 20000; j = j + 1) { write(fd, "x"); }
            close(fd);
        }
        "#,
    );
    let world = VosConfig::new().file("/secret", "41").file("/log", "");
    let spec = spec_file("/secret", Mutation::OffByOne, SinkSpec::NetworkOut).recorded();
    let live = dual_execute(Arc::clone(&program), &world, &spec);
    let replayed = replay(&record(Arc::clone(&program), &world, &spec), &spec);
    assert_eq!(live.flight, replayed.flight);
    for shared in dual_execute_shared(Arc::clone(&program), &world, &[spec.clone(), spec.clone()]) {
        assert_eq!(shared.flight, live.flight);
    }
    let m = &live.master.as_ref().expect("master ran").stats;
    let flight = &live.flight;
    // Keep-earliest: the full lane holds only the master's own events.
    assert_eq!(flight.master.len(), DEFAULT_FLIGHT_CAPACITY);
    assert!(flight.master.iter().all(|e| matches!(
        e,
        FlightEvent::Barrier { .. }
            | FlightEvent::Syscall {
                decision: Decision::Executed,
                ..
            }
    )));
    // The slave read only the two entries it shared; reconcile drained
    // the rest, each a syscall difference.
    let leftovers = m.syscalls - live.shared;
    assert_eq!((live.shared, live.syscall_diffs), (2, leftovers));
    let total = m.syscalls + m.barrier_waits + leftovers;
    assert_eq!(
        flight.master_dropped,
        total - DEFAULT_FLIGHT_CAPACITY as u64
    );
}
