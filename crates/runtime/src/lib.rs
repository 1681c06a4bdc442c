//! The Lx runtime: a CFG interpreter that maintains the LDX progress
//! counter and routes every syscall through pluggable hooks.
//!
//! This crate is the *execution substrate* of the reproduction. It knows
//! how to run one execution; the dual-execution engine (`ldx-dualex`) runs
//! two of them, coupled through a [`SyscallHooks`] implementation.
//!
//! Key pieces:
//!
//! * [`run_program`] — interpret an (instrumented) [`ldx_ir::IrProgram`];
//! * [`Value`] — dynamically typed Lx values;
//! * [`ProgressKey`] — the runtime form of the paper's counter: a scalar
//!   per fresh frame plus loop-iteration epochs;
//! * [`NativeHooks`] — plain single-execution dispatch to a virtual OS;
//! * Lx threads map to real OS threads ([`ThreadKey`] pairs them across
//!   dual executions), with `lock`/`unlock` as syscalls (paper §7);
//! * `setjmp`/`longjmp` with counter-stack save/restore (paper §6).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ldx_runtime::{run_program, ExecConfig, NativeHooks};
//! use ldx_vos::{Vos, VosConfig};
//!
//! let program = ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(r#"
//!     fn main() {
//!         let fd = open("/greeting", 0);
//!         write(1, read(fd, 64));
//!         close(fd);
//!     }
//! "#)?)).into_program();
//!
//! let vos = Arc::new(Vos::new(&VosConfig::new().file("/greeting", "hi")));
//! let hooks = Arc::new(NativeHooks::new(Arc::clone(&vos)));
//! let outcome = run_program(Arc::new(program), hooks, ExecConfig::default())?;
//! assert_eq!(outcome.exit_code, 0);
//! assert_eq!(vos.file_contents("/dev/stdout").unwrap(), "hi");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod globals;
mod hooks;
mod libfns;
mod machine;
mod progress;
mod recording;
mod stats;
mod threads;
mod trap;
mod value;

pub use globals::{const_to_value, Globals};
pub use hooks::{
    from_sys_ret, to_sys_args, NativeHooks, SysArgs, SysOutcome, SyscallCtx, SyscallHooks,
};
pub use libfns::eval_lib;
pub use machine::{run_program, ExecConfig, RunOutcome};
pub use progress::{FrameKey, FrameRef, LoopUid, ProgressKey, ProgressOrder};
pub use recording::{RecordingHooks, SyscallEvent};
pub use stats::RunStats;
pub use threads::{LockTable, StopSignal, ThreadKey, ThreadRegistry};
pub use trap::Trap;
pub use value::{eval_binary, eval_index, eval_unary, store_index, Value};

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_vos::{PeerBehavior, Vos, VosConfig};
    use std::sync::Arc;

    fn run(src: &str, cfg: &VosConfig) -> (Result<RunOutcome, Trap>, Arc<Vos>) {
        let program = ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(src).unwrap()))
            .into_program();
        let vos = Arc::new(Vos::new(cfg));
        let hooks = Arc::new(NativeHooks::new(Arc::clone(&vos)));
        let out = run_program(Arc::new(program), hooks, ExecConfig::default());
        (out, vos)
    }

    fn run_ok(src: &str, cfg: &VosConfig) -> (RunOutcome, Arc<Vos>) {
        let (out, vos) = run(src, cfg);
        (out.expect("program runs"), vos)
    }

    fn stdout(vos: &Vos) -> String {
        vos.file_contents("/dev/stdout").unwrap_or_default()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let (out, vos) = run_ok(
            r#"fn main() {
                let total = 0;
                for (let i = 1; i <= 10; i = i + 1) {
                    if (i % 2 == 0) { total = total + i; }
                }
                write(1, str(total));
                return total;
            }"#,
            &VosConfig::new(),
        );
        assert_eq!(stdout(&vos), "30");
        assert_eq!(out.result, Value::Int(30));
    }

    #[test]
    fn file_io_roundtrip() {
        let (_, vos) = run_ok(
            r#"fn main() {
                let fd = open("/in", 0);
                let data = read(fd, 100);
                close(fd);
                let out = open("/out", 1);
                write(out, upper(data));
                close(out);
            }"#,
            &VosConfig::new().file("/in", "shout"),
        );
        assert_eq!(vos.file_contents("/out").unwrap(), "SHOUT");
    }

    #[test]
    fn functions_and_recursion() {
        let (out, _) = run_ok(
            r#"
            fn fib(n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { return fib(15); }
            "#,
            &VosConfig::new(),
        );
        assert_eq!(out.result, Value::Int(610));
    }

    #[test]
    fn indirect_calls_dispatch() {
        let (out, _) = run_ok(
            r#"
            fn double(x) { return x * 2; }
            fn triple(x) { return x * 3; }
            fn main() {
                let fs = [&double, &triple];
                let total = 0;
                for (let i = 0; i < 2; i = i + 1) {
                    let f = fs[i];
                    total = total + f(10);
                }
                return total;
            }
            "#,
            &VosConfig::new(),
        );
        assert_eq!(out.result, Value::Int(50));
    }

    #[test]
    fn globals_and_arrays() {
        let (out, _) = run_ok(
            r#"
            global counts = [0, 0, 0];
            global total = 0;
            fn bump(i) { counts[i] = counts[i] + 1; return counts[i]; }
            fn main() {
                bump(1); bump(1); bump(2);
                total = counts[0] + counts[1] * 10 + counts[2] * 100;
                return total;
            }
            "#,
            &VosConfig::new(),
        );
        assert_eq!(out.result, Value::Int(120));
    }

    #[test]
    fn network_echo() {
        let (_, vos) = run_ok(
            r#"fn main() {
                let s = connect("srv");
                send(s, "hello");
                write(1, recv(s, 16));
            }"#,
            &VosConfig::new().peer("srv", PeerBehavior::Echo),
        );
        assert_eq!(stdout(&vos), "hello");
        assert_eq!(vos.sent_to("srv"), vec!["hello"]);
    }

    #[test]
    fn exit_stops_everything() {
        let (out, vos) = run_ok(
            r#"fn main() {
                write(1, "before");
                exit(3);
                write(1, "after");
            }"#,
            &VosConfig::new(),
        );
        assert_eq!(out.exit_code, 3);
        assert_eq!(stdout(&vos), "before");
    }

    #[test]
    fn traps_propagate() {
        let (out, _) = run("fn main() { let x = 1 / 0; }", &VosConfig::new());
        assert_eq!(out.unwrap_err(), Trap::DivisionByZero);

        let (out, _) = run(
            "fn main() { let a = [1]; let x = a[5]; }",
            &VosConfig::new(),
        );
        assert!(matches!(out.unwrap_err(), Trap::IndexOutOfBounds { .. }));
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let program = ldx_instrument::instrument(&ldx_ir::lower(
            &ldx_lang::compile("fn main() { while (1) { } }").unwrap(),
        ))
        .into_program();
        let vos = Arc::new(Vos::new(&VosConfig::new()));
        let hooks = Arc::new(NativeHooks::new(vos));
        let out = run_program(
            Arc::new(program),
            hooks,
            ExecConfig {
                max_steps: 10_000,
                ..ExecConfig::default()
            },
        );
        assert!(matches!(out.unwrap_err(), Trap::StepLimitExceeded { .. }));
    }

    #[test]
    fn deep_lx_recursion_overflows_gracefully() {
        let (out, _) = run(
            "fn f(n) { return f(n + 1); } fn main() { f(0); }",
            &VosConfig::new(),
        );
        assert!(matches!(out.unwrap_err(), Trap::StackOverflow { .. }));
    }

    #[test]
    fn threads_spawn_join_and_share_globals() {
        let (out, _) = run_ok(
            r#"
            global sum = 0;
            fn worker(k) {
                lock(1);
                sum = sum + k;
                unlock(1);
                return k * 10;
            }
            fn main() {
                let t1 = spawn(&worker, 3);
                let t2 = spawn(&worker, 4);
                let r1 = join(t1);
                let r2 = join(t2);
                return sum * 1000 + r1 + r2;
            }
            "#,
            &VosConfig::new(),
        );
        assert_eq!(out.result, Value::Int(7070));
        assert_eq!(out.stats.threads_spawned, 2);
    }

    #[test]
    fn join_unknown_tid_traps() {
        let (out, _) = run("fn main() { join(99); }", &VosConfig::new());
        assert!(matches!(out.unwrap_err(), Trap::BadJoin { .. }));
    }

    #[test]
    fn spawn_target_arity_checked() {
        let (out, _) = run(
            "fn w(a, b) { return 0; } fn main() { spawn(&w, 1); }",
            &VosConfig::new(),
        );
        assert!(matches!(out.unwrap_err(), Trap::BadSpawnTarget { .. }));
    }

    #[test]
    fn lock_serializes_racy_increments() {
        let (out, _) = run_ok(
            r#"
            global n = 0;
            fn worker(reps) {
                for (let i = 0; i < reps; i = i + 1) {
                    lock(7);
                    n = n + 1;
                    unlock(7);
                }
                return 0;
            }
            fn main() {
                let t1 = spawn(&worker, 200);
                let t2 = spawn(&worker, 200);
                join(t1); join(t2);
                return n;
            }
            "#,
            &VosConfig::new(),
        );
        assert_eq!(out.result, Value::Int(400));
    }

    #[test]
    fn setjmp_longjmp_roundtrip() {
        let (out, vos) = run_ok(
            r#"
            fn risky(depth) {
                if (depth > 2) { longjmp(7); }
                return risky(depth + 1);
            }
            fn main() {
                let code = setjmp();
                if (code == 0) {
                    write(1, "try;");
                    risky(0);
                    write(1, "unreached;");
                } else {
                    write(1, "caught" + str(code) + ";");
                }
            }
            "#,
            &VosConfig::new(),
        );
        assert_eq!(stdout(&vos), "try;caught7;");
        assert_eq!(out.exit_code, 0);
    }

    #[test]
    fn longjmp_without_setjmp_traps() {
        let (out, _) = run("fn main() { longjmp(1); }", &VosConfig::new());
        assert_eq!(out.unwrap_err(), Trap::LongjmpWithoutSetjmp);
    }

    #[test]
    fn longjmp_zero_becomes_one() {
        let (out, _) = run_ok(
            r#"fn main() {
                let code = setjmp();
                if (code == 0) { longjmp(0); }
                return code;
            }"#,
            &VosConfig::new(),
        );
        assert_eq!(out.result, Value::Int(1));
    }

    #[test]
    fn progress_keys_reflect_compensation() {
        // Both branches must reach the final send with the same counter.
        let src = r#"fn main() {
            let fd = open("/in", 0);
            let v = read(fd, 4);
            if (v == "big") {
                write(1, "a");
                write(1, "b");
            } else {
                write(1, "c");
            }
            send(connect("out"), "done");
        }"#;
        let keys_for = |input: &str| {
            let program =
                ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(src).unwrap()))
                    .into_program();
            let cfg = VosConfig::new()
                .file("/in", input)
                .peer("out", PeerBehavior::Echo);
            let vos = Arc::new(Vos::new(&cfg));
            let hooks = Arc::new(RecordingHooks::new(NativeHooks::new(vos)));
            let events = hooks.events_handle();
            run_program(Arc::new(program), hooks, ExecConfig::default()).unwrap();
            let evs = events.lock();
            evs.iter()
                .find(|e| e.sys == ldx_lang::Syscall::Send)
                .unwrap()
                .key
                .clone()
        };
        let k_big = keys_for("big");
        let k_small = keys_for("x");
        assert_eq!(
            k_big.cmp_progress(&k_small),
            ProgressOrder::Equal,
            "the send must align across paths: {k_big} vs {k_small}"
        );
    }

    #[test]
    fn progress_keys_in_loops_carry_epochs() {
        let src = r#"fn main() {
            let fd = open("/in", 0);
            let n = int(read(fd, 4));
            for (let i = 0; i < n; i = i + 1) {
                write(1, str(i));
            }
            close(fd);
        }"#;
        let program = ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(src).unwrap()))
            .into_program();
        let vos = Arc::new(Vos::new(&VosConfig::new().file("/in", "3")));
        let hooks = Arc::new(RecordingHooks::new(NativeHooks::new(vos)));
        let events = hooks.events_handle();
        run_program(Arc::new(program), hooks, ExecConfig::default()).unwrap();
        let evs = events.lock();
        let writes: Vec<_> = evs
            .iter()
            .filter(|e| e.sys == ldx_lang::Syscall::Write)
            .collect();
        assert_eq!(writes.len(), 3);
        // All three writes share the same scalar but have distinct epochs.
        let scalars: Vec<u64> = writes.iter().map(|e| e.key.frames()[0].cnt).collect();
        assert_eq!(scalars[0], scalars[1]);
        assert_eq!(scalars[1], scalars[2]);
        let epochs: Vec<u64> = writes
            .iter()
            .map(|e| e.key.frames()[0].loops[0].1)
            .collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        // The close after the loop is strictly ahead of every write.
        let close = evs
            .iter()
            .find(|e| e.sys == ldx_lang::Syscall::Close)
            .unwrap();
        for w in &writes {
            assert_eq!(close.key.cmp_progress(&w.key), ProgressOrder::Ahead);
        }
    }

    #[test]
    fn progress_keys_fresh_frames_for_indirect_calls() {
        let src = r#"
            fn emit(x) { write(1, str(x)); return 0; }
            fn main() {
                let f = &emit;
                write(1, "pre");
                f(1);
                write(1, "post");
            }
        "#;
        let program = ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(src).unwrap()))
            .into_program();
        let vos = Arc::new(Vos::new(&VosConfig::new()));
        let hooks = Arc::new(RecordingHooks::new(NativeHooks::new(vos)));
        let events = hooks.events_handle();
        run_program(Arc::new(program), hooks, ExecConfig::default()).unwrap();
        let evs = events.lock();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].key.frames().len(), 1, "pre: root frame only");
        assert_eq!(evs[1].key.frames().len(), 2, "emit: fresh frame");
        assert_eq!(evs[1].key.frames()[1].cnt, 1, "inside call: fresh scalar");
        assert_eq!(evs[2].key.frames().len(), 1, "post: restored");
        assert_eq!(
            evs[2].key.cmp_progress(&evs[1].key),
            ProgressOrder::Ahead,
            "post-call is ahead of in-call"
        );
    }

    #[test]
    fn stats_track_counters() {
        let (out, _) = run_ok(
            r#"fn main() {
                write(1, "a");
                write(1, "b");
                write(1, "c");
            }"#,
            &VosConfig::new(),
        );
        assert_eq!(out.stats.syscalls, 3);
        assert_eq!(out.stats.cnt_max, 3);
        assert_eq!(out.stats.cnt_avg(), 2.0);
        assert_eq!(out.stats.max_counter_depth, 1);
    }

    #[test]
    fn main_without_explicit_return_yields_zero() {
        let (out, _) = run_ok("fn main() { let x = 5; }", &VosConfig::new());
        assert_eq!(out.result, Value::Int(0));
        assert_eq!(out.exit_code, 0);
    }

    #[test]
    fn string_indexing_and_building() {
        let (out, vos) = run_ok(
            r#"fn main() {
                let s = "dual";
                let out = "";
                for (let i = len(s) - 1; i >= 0; i = i - 1) {
                    out = out + s[i];
                }
                write(1, out);
                return find("execution", "cut");
            }"#,
            &VosConfig::new(),
        );
        assert_eq!(stdout(&vos), "laud");
        assert_eq!(out.result, Value::Int(3));
    }
}
