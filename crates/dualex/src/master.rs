//! The master execution's syscall wrapper (paper Algorithm 2).
//!
//! The master runs against the real virtual world and records every
//! syscall outcome once, in its Lx thread's log, which every slave reads
//! through a cursor of its own (see `dualex::couple`). At loop backedges it
//! publishes its progress to a parked slave, so the slave can align. Its
//! own facts are kept once too, however many slaves read it: the sinks it
//! executed, and (when recording) its `Executed` decisions and backedges in
//! a flight lane of its own, which each slave's report continues. In the
//! paper the master also blocks at sinks to compare arguments in-line; this
//! reproduction runs in *detection* mode — sink comparison happens when the
//! slave reaches the aligned sink, or at end-of-run reconciliation for
//! sinks the slave never reaches — which detects exactly the same causality
//! set without the master-side stall (deviation documented in DESIGN.md).
//! The master never waits for a slave, and runs the same with none (a
//! recording).

use crate::couple::{Entry, MasterLogs};
use crate::recorder::{Decision, FlightEvent, FlightLog, FlightRecorder};
use crate::report::Role;
use crate::resolved::ResolvedSinks;
use ldx_lang::Syscall;
use ldx_runtime::{
    from_sys_ret, to_sys_args, LockTable, ProgressKey, RunOutcome, SysOutcome, SyscallCtx,
    SyscallHooks, ThreadKey, Trap, Value,
};
use ldx_vos::Vos;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Master-side hooks.
pub(crate) struct MasterHooks {
    /// The logs every slave reads.
    pub logs: Arc<MasterLogs>,
    pub vos: Arc<Vos>,
    pub locks: LockTable,
    pub sinks: ResolvedSinks,
    /// Sink instances executed.
    pub sink_count: AtomicU64,
    /// The master's flight lane (`None` when recording is off).
    pub lane: Option<FlightRecorder>,
}

/// A finished master: its outcome, the sinks it executed and its flight
/// lane (empty when recording was off).
pub(crate) struct MasterRun {
    pub outcome: Result<RunOutcome, Trap>,
    pub sinks: u64,
    pub lane: FlightLog,
}

impl MasterHooks {
    /// Logs a syscall that left the master's world at `version`.
    fn append(
        &self,
        ctx: &SyscallCtx,
        args: &[Value],
        outcome: Value,
        version: u64,
        is_sink: bool,
    ) {
        let entry = Entry::new(ctx, args, outcome, version, is_sink);
        self.logs.with_log(ctx.thread, |log| log.append(entry));
        if is_sink {
            self.sink_count.fetch_add(1, Ordering::Relaxed);
        }
        self.flight(|| FlightEvent::Syscall {
            decision: Decision::Executed,
            thread: ctx.thread.clone(),
            key: ctx.key.clone(),
            func: ctx.func,
            site: ctx.site,
            sys: ctx.sys,
            is_sink,
        });
    }

    /// Records an event in the master's lane; `event` runs only when
    /// recording is on.
    fn flight(&self, event: impl FnOnce() -> FlightEvent) {
        if let Some(lane) = &self.lane {
            lane.record(Role::Master, event());
        }
    }
}

impl SyscallHooks for MasterHooks {
    fn syscall(&self, ctx: &SyscallCtx<'_>, args: &[Value]) -> Result<SysOutcome, Trap> {
        if ctx.stop.should_stop() {
            return Err(Trap::Aborted {
                reason: "master execution stopping".into(),
            });
        }
        match ctx.sys {
            Syscall::Lock => {
                let id = args[0].as_int()?;
                self.locks.lock(id, ctx.thread, ctx.stop);
                self.append(ctx, args, Value::Int(0), 0, false);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Unlock => {
                let id = args[0].as_int()?;
                self.locks.unlock(id);
                self.append(ctx, args, Value::Int(0), 0, false);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Spawn | Syscall::Join | Syscall::Exit | Syscall::Setjmp | Syscall::Longjmp => {
                // Control syscalls always execute independently (paper
                // §4.2); a longjmp is preceded by an artificial sink (§6)
                // so a jump difference across the executions is reported.
                let is_sink = ctx.sys == Syscall::Longjmp;
                self.append(ctx, args, Value::Int(0), 0, is_sink);
                Ok(SysOutcome::DoLocal)
            }
            sys => {
                let is_sink = self.sinks.is_sink(ctx.func, ctx.site, sys, args);
                let sys_args = to_sys_args(args)?;
                let (ret, version) = self.vos.syscall_versioned(sys, &sys_args)?;
                let outcome = from_sys_ret(ret);
                self.append(ctx, args, outcome.clone(), version, is_sink);
                Ok(SysOutcome::Value(outcome))
            }
        }
    }

    fn loop_barrier(&self, thread: &ThreadKey, key: &ProgressKey) -> Result<(), Trap> {
        // Publishing the barrier progress to a parked slave is all the
        // master does: the slave's per-syscall alignment wait provides all
        // the ordering the protocol needs, so the master runs unthrottled
        // (detection mode).
        self.logs.with_log(thread, |log| log.publish(key));
        self.flight(|| FlightEvent::Barrier {
            thread: thread.clone(),
            key: key.clone(),
            delta: 0,
        });
        Ok(())
    }

    fn thread_finished(&self, thread: &ThreadKey) {
        self.logs.finish_thread(thread);
    }
}
