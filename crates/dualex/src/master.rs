//! The master execution's syscall wrapper (paper Algorithm 2).
//!
//! The master runs against the real virtual world and records every
//! syscall outcome into its thread pair's open batch, which it hands to
//! the slave's queue a chunk at a time, or at once when the slave is
//! parked (the slave also pulls the batch itself when it runs dry; see
//! `dualex::couple`). At loop backedges it publishes its progress to a
//! parked slave, so the slave can align. One master may drive several
//! couplings, one per live slave (a `Fanout`): each gets every entry,
//! backedge and thread exit, so each slave sees the master it would see
//! alone. In the paper the master also
//! blocks at sinks to compare arguments in-line; this reproduction runs in
//! *detection* mode — sink comparison happens when the slave reaches the
//! aligned sink, or at end-of-run reconciliation for sinks the slave never
//! reaches — which detects exactly the same causality set without the
//! master-side stall (deviation documented in DESIGN.md). The master never
//! waits for the slave.

use crate::couple::{At, Entry, Fanout};
use crate::recorder::{Decision, FlightEvent};
use crate::report::Role;
use crate::resolved::ResolvedSinks;
use ldx_lang::Syscall;
use ldx_runtime::{
    from_sys_ret, to_sys_args, LockTable, ProgressKey, SysOutcome, SyscallCtx, SyscallHooks,
    ThreadKey, Trap, Value,
};
use ldx_vos::Vos;
use std::sync::Arc;

/// Master-side hooks.
pub(crate) struct MasterHooks {
    pub fanout: Fanout,
    pub vos: Arc<Vos>,
    pub locks: LockTable,
    pub sinks: ResolvedSinks,
}

impl MasterHooks {
    /// Queues a syscall that left the master's world at `version`.
    fn enqueue(
        &self,
        ctx: &SyscallCtx,
        args: &[Value],
        outcome: Value,
        version: u64,
        is_sink: bool,
    ) {
        let entry = Entry::new(ctx, args, outcome, version, is_sink);
        self.fanout.with_pairs(&ctx.thread, |pairs| {
            let (last, others) = pairs.split_last().expect("one pair per coupling");
            others.iter().for_each(|pair| pair.enqueue(entry.clone()));
            last.enqueue(entry);
        });
        for coupling in self.fanout.couplings() {
            coupling.emit(
                Role::Master,
                Decision::Executed,
                At::ctx(ctx),
                is_sink,
                None,
            );
        }
    }
}

impl SyscallHooks for MasterHooks {
    fn syscall(&self, ctx: &SyscallCtx, args: &[Value]) -> Result<SysOutcome, Trap> {
        if ctx.stop.should_stop() {
            return Err(Trap::Aborted {
                reason: "master execution stopping".into(),
            });
        }
        match ctx.sys {
            Syscall::Lock => {
                let id = args[0].as_int()?;
                self.locks.lock(id, &ctx.thread, &ctx.stop);
                self.enqueue(ctx, args, Value::Int(0), 0, false);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Unlock => {
                let id = args[0].as_int()?;
                self.locks.unlock(id);
                self.enqueue(ctx, args, Value::Int(0), 0, false);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Spawn | Syscall::Join | Syscall::Exit | Syscall::Setjmp | Syscall::Longjmp => {
                // Control syscalls always execute independently (paper
                // §4.2); a longjmp is preceded by an artificial sink (§6)
                // so a jump difference across the executions is reported.
                let is_sink = ctx.sys == Syscall::Longjmp;
                self.enqueue(ctx, args, Value::Int(0), 0, is_sink);
                Ok(SysOutcome::DoLocal)
            }
            sys => {
                let is_sink = self.sinks.is_sink(ctx.func, ctx.site, sys, args);
                let sys_args = to_sys_args(args)?;
                let (ret, version) = self.vos.syscall_versioned(sys, &sys_args)?;
                let outcome = from_sys_ret(ret);
                self.enqueue(ctx, args, outcome.clone(), version, is_sink);
                Ok(SysOutcome::Value(outcome))
            }
        }
    }

    fn loop_barrier(&self, thread: &ThreadKey, key: &ProgressKey) -> Result<(), Trap> {
        // Publishing the barrier progress to a parked slave is all the
        // master does: the slave's per-syscall alignment wait provides all
        // the ordering the protocol needs, so the master runs unthrottled
        // (detection mode).
        self.fanout.with_pairs(thread, |pairs| {
            pairs.iter().for_each(|pair| pair.publish(key));
        });
        for coupling in self.fanout.couplings() {
            coupling.flight(Role::Master, || FlightEvent::Barrier {
                thread: thread.clone(),
                key: key.clone(),
                delta: 0,
            });
        }
        Ok(())
    }

    fn thread_finished(&self, thread: &ThreadKey) {
        self.fanout.finish_thread(thread);
    }
}
