//! The syscall-hook interface: where execution engines plug in.
//!
//! The interpreter routes every syscall through a [`SyscallHooks`]
//! implementation. [`NativeHooks`] dispatches straight to the virtual OS —
//! that is a plain, single execution (the paper's "native" baseline). The
//! dual-execution engine in `ldx-dualex` provides master/slave hooks
//! implementing the coupling protocol (paper Algorithm 2) on top of the
//! same interface, and the taint/TightLip/DualEx baselines do likewise.

use crate::threads::{LockTable, StopSignal, ThreadKey};
use crate::trap::Trap;
use crate::value::Value;
use crate::ProgressKey;
use ldx_ir::{FuncId, SiteId};
use ldx_lang::Syscall;
use ldx_vos::{SysArg, SysRet, Vos};
use std::sync::Arc;

/// Context describing one syscall event. It borrows the issuing thread's
/// key and stop signal, so issuing a syscall copies neither.
#[derive(Debug, Clone)]
pub struct SyscallCtx<'a> {
    /// The issuing Lx thread.
    pub thread: &'a ThreadKey,
    /// The thread's progress key at the syscall.
    pub key: ProgressKey,
    /// The function containing the call site.
    pub func: FuncId,
    /// The call site ("PC" for alignment).
    pub site: SiteId,
    /// Which syscall.
    pub sys: Syscall,
    /// The execution's stop signal (so blocking hooks can bail out).
    pub stop: &'a StopSignal,
}

/// What the hooks decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysOutcome {
    /// The syscall produced this value (hooks executed or shared it).
    Value(Value),
    /// The interpreter should perform the operation locally — used for the
    /// control-flow syscalls it owns: `spawn`, `join`, `exit`, `setjmp`,
    /// `longjmp`.
    DoLocal,
    /// Terminate the execution with this exit code.
    Exit(i64),
}

/// The engine interface: every execution model implements this.
pub trait SyscallHooks: Send + Sync {
    /// Handles one syscall; see [`SysOutcome`].
    ///
    /// # Errors
    ///
    /// May return any [`Trap`] (e.g. [`Trap::Aborted`] when the engine
    /// stops this execution).
    fn syscall(&self, ctx: &SyscallCtx<'_>, args: &[Value]) -> Result<SysOutcome, Trap>;

    /// Called at each instrumented-loop backedge with the progress key at
    /// the barrier point, *before* the iteration epoch increments. Engines
    /// use it to synchronize iterations (paper §5); the default is a no-op.
    ///
    /// # Errors
    ///
    /// May return [`Trap::Aborted`] when the engine tears down.
    fn loop_barrier(&self, _thread: &ThreadKey, _key: &ProgressKey) -> Result<(), Trap> {
        Ok(())
    }

    /// Called when an Lx thread finishes (normally or not); the engine
    /// publishes terminal progress so its peer never waits on this thread.
    fn thread_finished(&self, _thread: &ThreadKey) {}

    /// Whether the engine wants per-instruction callbacks. Only engines
    /// that model instruction-level monitoring (the execution-indexing
    /// DualEx baseline) return `true`; the interpreter skips the callback
    /// entirely otherwise.
    fn observes_steps(&self) -> bool {
        false
    }

    /// Per-instruction callback (only invoked when [`observes_steps`]
    /// returns `true`).
    ///
    /// [`observes_steps`]: SyscallHooks::observes_steps
    fn on_step(&self, _thread: &ThreadKey, _func: FuncId, _block: u32, _idx: usize) {}
}

/// A syscall's virtual OS arguments, inline and borrowed from the
/// interpreter values they convert (see [`to_sys_args`]).
#[derive(Debug, Clone, Copy)]
pub struct SysArgs<'a> {
    args: [SysArg<'a>; Syscall::MAX_ARITY],
    len: usize,
}

impl<'a> std::ops::Deref for SysArgs<'a> {
    type Target = [SysArg<'a>];

    fn deref(&self) -> &[SysArg<'a>] {
        &self.args[..self.len]
    }
}

/// Converts interpreter values to virtual OS arguments, borrowing their
/// strings.
///
/// # Errors
///
/// Returns [`Trap::TypeError`] for arrays/functions (not valid syscall
/// arguments).
///
/// # Panics
///
/// Panics on more than [`Syscall::MAX_ARITY`] arguments (the compiler
/// checks every syscall's arity).
pub fn to_sys_args(args: &[Value]) -> Result<SysArgs<'_>, Trap> {
    assert!(
        args.len() <= Syscall::MAX_ARITY,
        "more syscall arguments than Syscall::MAX_ARITY"
    );
    let mut out = SysArgs {
        args: [SysArg::Int(0); Syscall::MAX_ARITY],
        len: args.len(),
    };
    for (slot, v) in out.args.iter_mut().zip(args) {
        *slot = match v {
            Value::Int(i) => SysArg::Int(*i),
            Value::Str(s) => SysArg::Str(s),
            other => {
                return Err(Trap::TypeError {
                    expected: "integer or string syscall argument",
                    found: other.type_name(),
                })
            }
        };
    }
    Ok(out)
}

/// Converts a virtual OS result back to a value.
pub fn from_sys_ret(ret: SysRet) -> Value {
    match ret {
        SysRet::Int(v) => Value::Int(v),
        SysRet::Str(s) => Value::str(s),
    }
}

/// Plain single-execution hooks: syscalls go straight to one virtual OS.
#[derive(Debug)]
pub struct NativeHooks {
    vos: Arc<Vos>,
    locks: LockTable,
}

impl NativeHooks {
    /// Creates hooks over a virtual world.
    pub fn new(vos: Arc<Vos>) -> Self {
        NativeHooks {
            vos,
            locks: LockTable::new(),
        }
    }

    /// The underlying world (for output inspection).
    pub fn vos(&self) -> &Arc<Vos> {
        &self.vos
    }
}

impl SyscallHooks for NativeHooks {
    fn syscall(&self, ctx: &SyscallCtx<'_>, args: &[Value]) -> Result<SysOutcome, Trap> {
        match ctx.sys {
            Syscall::Spawn | Syscall::Join | Syscall::Exit | Syscall::Setjmp | Syscall::Longjmp => {
                Ok(SysOutcome::DoLocal)
            }
            Syscall::Lock => {
                let id = args[0].as_int()?;
                self.locks.lock(id, ctx.thread, ctx.stop);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Unlock => {
                let id = args[0].as_int()?;
                self.locks.unlock(id);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            sys => {
                let sys_args = to_sys_args(args)?;
                let ret = self.vos.syscall(sys, &sys_args)?;
                Ok(SysOutcome::Value(from_sys_ret(ret)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_vos::VosConfig;

    fn ctx<'a>(sys: Syscall, thread: &'a ThreadKey, stop: &'a StopSignal) -> SyscallCtx<'a> {
        SyscallCtx {
            thread,
            key: ProgressKey::start(),
            func: FuncId(0),
            site: SiteId(0),
            sys,
            stop,
        }
    }

    #[test]
    fn native_hooks_dispatch_to_vos() {
        let vos = Arc::new(Vos::new(&VosConfig::new().file("/f", "abc")));
        let hooks = NativeHooks::new(vos);
        let (root, stop) = (ThreadKey::root(), StopSignal::new());
        let out = hooks
            .syscall(
                &ctx(Syscall::Open, &root, &stop),
                &[Value::Str("/f".into()), Value::Int(0)],
            )
            .unwrap();
        let SysOutcome::Value(Value::Int(fd)) = out else {
            panic!()
        };
        assert!(fd >= 3);
    }

    #[test]
    fn control_syscalls_are_local() {
        let vos = Arc::new(Vos::new(&VosConfig::new()));
        let hooks = NativeHooks::new(vos);
        let (root, stop) = (ThreadKey::root(), StopSignal::new());
        for sys in [Syscall::Spawn, Syscall::Join, Syscall::Exit] {
            let ctx = ctx(sys, &root, &stop);
            assert_eq!(hooks.syscall(&ctx, &[]).unwrap(), SysOutcome::DoLocal);
        }
    }

    #[test]
    fn lock_unlock_return_zero() {
        let vos = Arc::new(Vos::new(&VosConfig::new()));
        let hooks = NativeHooks::new(vos);
        let (root, stop) = (ThreadKey::root(), StopSignal::new());
        assert_eq!(
            hooks
                .syscall(&ctx(Syscall::Lock, &root, &stop), &[Value::Int(1)])
                .unwrap(),
            SysOutcome::Value(Value::Int(0))
        );
        assert_eq!(
            hooks
                .syscall(&ctx(Syscall::Unlock, &root, &stop), &[Value::Int(1)])
                .unwrap(),
            SysOutcome::Value(Value::Int(0))
        );
    }

    #[test]
    fn bad_args_convert_to_traps() {
        assert!(to_sys_args(&[Value::arr(vec![])]).is_err());
        let args = [Value::Int(1), Value::Str("x".into())];
        assert_eq!(
            *to_sys_args(&args).unwrap(),
            [SysArg::Int(1), SysArg::Str("x")]
        );
        assert!(to_sys_args(&[]).unwrap().is_empty());
    }
}
