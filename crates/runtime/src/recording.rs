//! Event-recording hook wrapper (testing and trace tooling).

use crate::hooks::{SysOutcome, SyscallCtx, SyscallHooks};
use crate::threads::ThreadKey;
use crate::trap::Trap;
use crate::value::Value;
use crate::ProgressKey;
use ldx_ir::{FuncId, SiteId};
use ldx_lang::Syscall;
use parking_lot::Mutex;
use std::sync::Arc;

/// One observed syscall event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallEvent {
    /// Issuing thread.
    pub thread: ThreadKey,
    /// Progress key at the syscall.
    pub key: ProgressKey,
    /// Containing function.
    pub func: FuncId,
    /// Call site.
    pub site: SiteId,
    /// Which syscall.
    pub sys: Syscall,
    /// The argument values.
    pub args: Vec<Value>,
}

/// Wraps any [`SyscallHooks`], recording every syscall event before
/// delegating. Used by tests (to assert on progress keys) and by the
/// alignment-trace example that reproduces paper Figures 3 and 5.
pub struct RecordingHooks<H: SyscallHooks> {
    inner: H,
    events: Arc<Mutex<Vec<SyscallEvent>>>,
}

impl<H: SyscallHooks> RecordingHooks<H> {
    /// Wraps `inner`.
    pub fn new(inner: H) -> Self {
        RecordingHooks {
            inner,
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A shared handle to the recorded events (usable after the run).
    pub fn events_handle(&self) -> Arc<Mutex<Vec<SyscallEvent>>> {
        Arc::clone(&self.events)
    }

    /// The wrapped hooks.
    pub fn inner(&self) -> &H {
        &self.inner
    }
}

impl<H: SyscallHooks> SyscallHooks for RecordingHooks<H> {
    fn syscall(&self, ctx: &SyscallCtx<'_>, args: &[Value]) -> Result<SysOutcome, Trap> {
        self.events.lock().push(SyscallEvent {
            thread: ctx.thread.clone(),
            key: ctx.key.clone(),
            func: ctx.func,
            site: ctx.site,
            sys: ctx.sys,
            args: args.to_vec(),
        });
        self.inner.syscall(ctx, args)
    }

    fn loop_barrier(&self, thread: &ThreadKey, key: &ProgressKey) -> Result<(), Trap> {
        self.inner.loop_barrier(thread, key)
    }

    fn thread_finished(&self, thread: &ThreadKey) {
        self.inner.thread_finished(thread);
    }

    fn observes_steps(&self) -> bool {
        self.inner.observes_steps()
    }

    fn on_step(&self, thread: &ThreadKey, func: FuncId, block: u32, idx: usize) {
        self.inner.on_step(thread, func, block, idx);
    }
}
