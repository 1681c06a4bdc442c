//! The slave execution's syscall wrapper.
//!
//! For every syscall the slave checks its alignment against the master's
//! outcome log, read through its own cursor, using the progress key (paper
//! §4.2):
//!
//! * **behind entries** (master-only syscalls) are skipped and counted as
//!   syscall differences — master-only *sinks* become causality records;
//! * an **equal** entry with the same site and arguments is *shared*: the
//!   slave copies the master's outcome without touching the OS;
//! * an equal entry with different arguments or a different site, or no
//!   entry at all once the master is provably past this key, means the
//!   paths diverged: the slave executes **decoupled** against its private
//!   overlay world (cloning touched resources, paper §7), and sink
//!   instances on either side become causality records (a sink's
//!   descriptor argument compares by the resource it names, not by its
//!   number);
//! * if the master is **behind**, the slave blocks until it catches up.
//!
//! Source-matched input outcomes are mutated (this is where the
//! counterfactual perturbation enters the slave).
//!
//! A slave is one [`SlaveHooks`], built live, reading a running master
//! ([`SlaveHooks::live`]), or replayed against a recording
//! ([`SlaveHooks::replaying`]); the engine builds every report from it.

use crate::couple::{Entry, Heads, MasterLogs, ThreadLog};
use crate::fdmap::{FdInfo, Resource, SlaveFdMap};
use crate::mutation::Mutation;
use crate::recorder::{
    excerpt, key_scalar, ByteDiff, Decision, FlightEvent, FlightLog, FlightRecorder, ResourceId,
    DEFAULT_FLIGHT_CAPACITY,
};
use crate::report::{CausalityKind, CausalityRecord, Role};
use crate::resolved::{ResolvedMatcher, ResolvedSinks, ResolvedSources};
use crate::spec::DualSpec;
use ldx_ir::{FuncId, IrProgram, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::{
    from_sys_ret, to_sys_args, LockTable, ProgressKey, ProgressOrder, SysOutcome, SyscallCtx,
    SyscallHooks, ThreadKey, Trap, Value,
};
use ldx_vos::{SlaveVos, SysArg, SysRet};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long any coupling wait may block before giving up (safety valve;
/// orders of magnitude above any legitimate wait in the test suite).
const MAX_WAIT: Duration = Duration::from_secs(30);

/// How long one slave park lasts before the slave looks again.
const PARK_WAIT: Duration = Duration::from_millis(2);

/// One slave: the master's logs it reads, its private world, and all it
/// makes of them (counters, taint sets, causality records and flight
/// recorder). The master writes none of it, so k live slaves of one
/// master each have exactly the state of a one-slave run.
pub(crate) struct SlaveHooks {
    logs: Arc<MasterLogs>,
    /// The cursor of each log this slave reads.
    reader: usize,
    /// The slave starts only once the master has finished (a replay), so
    /// it must never wait for it.
    master_first: bool,
    pub records: Mutex<Vec<CausalityRecord>>,
    pub stats: SlaveStats,
    /// Paths with diverged state (paper §7 resource tainting).
    tainted_paths: Mutex<HashSet<String>>,
    /// Lock ids with diverged synchronization (paper §7).
    tainted_locks: Mutex<HashSet<i64>>,
    /// The divergence flight recorder (`None` when recording is off — the
    /// disabled probe is a single discriminant check, no atomics).
    pub recorder: Option<FlightRecorder>,
    overlay: SlaveVos,
    locks: LockTable,
    sinks: ResolvedSinks,
    sources: ResolvedSources,
    fdmap: Mutex<SlaveFdMap>,
    decoupled_threads: Mutex<HashSet<ThreadKey>>,
    spawn_counts: Mutex<HashMap<ThreadKey, u32>>,
}

/// Counters the slave writes while it runs (and [`SlaveHooks::reconcile`]
/// once both executions have finished), through [`SlaveHooks::emit`].
#[derive(Debug, Default)]
pub(crate) struct SlaveStats {
    /// Outcomes shared master → slave.
    pub shared: AtomicU64,
    /// Slave syscalls executed decoupled.
    pub decoupled: AtomicU64,
    /// Non-sink syscall differences (master-only + slave-decoupled).
    pub diffs: AtomicU64,
    /// Waits released by the stop signal or `MAX_WAIT`.
    pub timeouts: AtomicU64,
}

/// Where a decision was made: the acting role's thread and progress key,
/// and the syscall site.
#[derive(Clone, Copy)]
struct At<'a> {
    thread: &'a ThreadKey,
    key: &'a ProgressKey,
    site: (FuncId, SiteId, Syscall),
}

impl<'a> At<'a> {
    /// The syscall `ctx` is issuing.
    fn ctx(ctx: &'a SyscallCtx) -> Self {
        At {
            thread: ctx.thread,
            key: &ctx.key,
            site: (ctx.func, ctx.site, ctx.sys),
        }
    }

    /// The master syscall logged as `entry` on `thread`.
    fn entry(thread: &'a ThreadKey, entry: &'a Entry) -> Self {
        At {
            thread,
            key: &entry.key,
            site: (entry.func, entry.site, entry.sys),
        }
    }
}

/// A difference between the executions that a decision exposes.
enum Diff {
    /// A non-sink syscall difference (`DualReport::syscall_diffs`).
    Syscall,
    /// A sink difference: strong causality.
    Sink(CausalityKind),
}

impl Diff {
    /// What a master entry without a slave counterpart exposes: a sink is
    /// causality of `kind`, anything else a syscall difference.
    fn unmatched(entry: &Entry, kind: CausalityKind) -> Self {
        if entry.is_sink {
            Diff::Sink(kind)
        } else {
            Diff::Syscall
        }
    }
}

/// How far the master's published progress is past the slave's key (0
/// when unknown, terminal, or behind).
fn master_delta(master: Option<&ProgressKey>, slave: &ProgressKey) -> u64 {
    match master {
        Some(m) if !m.is_top() => key_scalar(m).saturating_sub(key_scalar(slave)),
        _ => 0,
    }
}

/// Result of the alignment check. Every decision but the final
/// share-or-decouple one has already been emitted.
enum Align {
    /// Aligned with a master entry (same key, site and arguments): its
    /// outcome.
    Aligned(Value),
    /// The same site with different arguments: a non-sink syscall
    /// difference (a sink's was recorded as causality).
    Mismatched,
    /// No alignment.
    Decoupled,
}

impl SlaveHooks {
    /// A live slave under `spec`, reading `logs` through cursor `reader`,
    /// with `overlay` as its private world; `spec.record` turns its flight
    /// recorder on.
    pub fn live(
        logs: Arc<MasterLogs>,
        reader: usize,
        overlay: SlaveVos,
        sinks: ResolvedSinks,
        spec: &DualSpec,
        program: &IrProgram,
    ) -> Self {
        SlaveHooks {
            logs,
            reader,
            master_first: false,
            records: Mutex::new(Vec::new()),
            stats: SlaveStats::default(),
            tainted_paths: Mutex::new(HashSet::new()),
            tainted_locks: Mutex::new(HashSet::new()),
            recorder: spec
                .record
                .then(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
            overlay,
            locks: LockTable::new(),
            sinks,
            sources: ResolvedSources::resolve(&spec.sources, program),
            fdmap: Mutex::new(Default::default()),
            decoupled_threads: Mutex::new(HashSet::new()),
            spawn_counts: Mutex::new(HashMap::new()),
        }
    }

    /// A slave under `spec` replayed against a finished master: fresh
    /// cursors on the recorded `heads`.
    pub fn replaying(
        heads: &Heads,
        overlay: SlaveVos,
        sinks: ResolvedSinks,
        spec: &DualSpec,
        program: &IrProgram,
    ) -> Self {
        let logs = Arc::new(MasterLogs::replaying(heads));
        SlaveHooks {
            master_first: true,
            ..SlaveHooks::live(logs, 0, overlay, sinks, spec, program)
        }
    }

    /// Reports one slave decision, or a master entry the slave left unread:
    /// bumps its counter, fires its `ldx-obs` instant, records the
    /// causality `diff` exposes, and appends the event to `role`'s lane
    /// when recording. With recording off nothing is cloned unless `diff`
    /// is a causality record.
    fn emit(&self, role: Role, decision: Decision, at: At<'_>, is_sink: bool, diff: Option<Diff>) {
        let stats = &self.stats;
        let (counter, instant) = match decision {
            Decision::Shared => (Some(&stats.shared), Some("aligned-reuse")),
            // A sink that compared equal shares the outcome.
            Decision::Compared => (
                diff.is_none().then_some(&stats.shared),
                Some("sink-compare"),
            ),
            Decision::Decoupled => (Some(&stats.decoupled), Some("decoupled")),
            Decision::Timeout => (Some(&stats.timeouts), Some("timeout")),
            Decision::Executed | Decision::MasterOnly | Decision::SlaveOnly => (None, None),
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(name) = instant {
            ldx_obs::instant(ldx_obs::cat::SYSCALL_DECISION, name);
        }
        let (thread, key) = (|| at.thread.clone(), || at.key.clone());
        if decision == Decision::Timeout {
            return self.flight(role, || FlightEvent::Timeout {
                thread: thread(),
                key: key(),
            });
        }
        let (func, site, sys) = at.site;
        self.flight(role, || FlightEvent::Syscall {
            decision,
            thread: thread(),
            key: key(),
            func,
            site,
            sys,
            is_sink,
        });
        match diff {
            Some(Diff::Syscall) => {
                stats.diffs.fetch_add(1, Ordering::Relaxed);
            }
            Some(Diff::Sink(kind)) => {
                if let CausalityKind::ArgDiff { master, slave } = &kind {
                    self.flight(role, || FlightEvent::SinkDiff {
                        thread: thread(),
                        key: key(),
                        func,
                        site,
                        sys,
                        diff: ByteDiff::compute(master, slave),
                    });
                }
                self.records.lock().push(CausalityRecord {
                    kind,
                    thread: thread(),
                    key: key(),
                    func,
                    site,
                    sys,
                });
            }
            None => {}
        }
    }

    /// Records a non-decision flight event (taint, CoW clone, barrier,
    /// mutation) into `role`'s lane. The closure is only evaluated when
    /// the recorder is on, so disabled probes cost nothing.
    #[inline]
    fn flight(&self, role: Role, event: impl FnOnce() -> FlightEvent) {
        if let Some(r) = &self.recorder {
            r.record(role, event());
        }
    }

    /// Drains the flight recorder (empty log when recording was off).
    pub fn take_flight_log(&self) -> FlightLog {
        self.recorder
            .as_ref()
            .map(FlightRecorder::drain)
            .unwrap_or_default()
    }

    /// Marks a filesystem path as tainted, recording the first divergence
    /// on each path as a flight event (in the slave lane: only the slave's
    /// decoupled execution taints).
    fn taint_path(&self, path: &str) {
        let normalized = ldx_vos::normalize_path(path).joined();
        let first = self.tainted_paths.lock().insert(normalized.clone());
        if first {
            self.flight(Role::Slave, || FlightEvent::Taint {
                resource: ResourceId::Path(normalized),
            });
        }
    }

    /// Marks a lock id as tainted (grant order diverged), recording the
    /// first divergence as a flight event.
    fn taint_lock(&self, id: i64) {
        let first = self.tainted_locks.lock().insert(id);
        if first {
            self.flight(Role::Slave, || FlightEvent::Taint {
                resource: ResourceId::Lock(id),
            });
        }
    }

    /// Whether a path is tainted. Nothing is normalized or allocated
    /// while no path is.
    fn path_tainted(&self, path: &str) -> bool {
        let tainted = self.tainted_paths.lock();
        !tainted.is_empty() && tainted.contains(&ldx_vos::normalize_path(path).joined())
    }

    /// Drains every master entry this slave left unread at the end of the
    /// run: master-only syscall differences, including master-only sinks.
    /// Logs are drained in `ThreadKey` order so records and flight events
    /// land deterministically.
    pub fn reconcile(&self) {
        for (thread, log) in self.logs.sorted() {
            let mut cursor = log.cursor(self.reader);
            while let Some(entry) = cursor.pop() {
                self.emit(
                    Role::Master,
                    Decision::MasterOnly,
                    At::entry(&thread, entry),
                    entry.is_sink,
                    Some(Diff::unmatched(entry, CausalityKind::MasterOnlySink)),
                );
            }
        }
    }

    fn thread_decoupled(&self, t: &ThreadKey) -> bool {
        let decoupled = self.decoupled_threads.lock();
        !decoupled.is_empty() && decoupled.contains(t)
    }

    /// Reports a decision on the syscall `ctx` is issuing.
    fn decide(&self, decision: Decision, ctx: &SyscallCtx, is_sink: bool, diff: Option<Diff>) {
        self.emit(Role::Slave, decision, At::ctx(ctx), is_sink, diff);
    }

    /// A sink only the slave reaches: causality.
    fn slave_only_sink(&self, ctx: &SyscallCtx) {
        self.decide(
            Decision::SlaveOnly,
            ctx,
            true,
            Some(Diff::Sink(CausalityKind::SlaveOnlySink)),
        );
    }

    /// Skips a master entry the slave has no counterpart for. Every event
    /// the slave witnesses lands in the slave lane, so each lane has a
    /// single writer while both executions run concurrently.
    fn master_only(&self, ctx: &SyscallCtx, entry: &Entry, kind: CausalityKind) {
        self.emit(
            Role::Slave,
            Decision::MasterOnly,
            At::entry(ctx.thread, entry),
            entry.is_sink,
            Some(Diff::unmatched(entry, kind)),
        );
    }

    /// Copies an aligned outcome (an aligned sink compared equal).
    fn share(&self, ctx: &SyscallCtx, is_sink: bool) {
        let decision = if is_sink {
            Decision::Compared
        } else {
            Decision::Shared
        };
        self.decide(decision, ctx, is_sink, None);
    }

    /// Aligns a control syscall (lock, spawn, join, exit, setjmp/longjmp),
    /// which the slave always performs itself; returns whether it aligned.
    fn align_control(&self, ctx: &SyscallCtx, args: &[Value], is_sink: bool) -> bool {
        match self.align(ctx, args, is_sink) {
            Align::Aligned(_) => {
                self.share(ctx, is_sink);
                true
            }
            Align::Mismatched => {
                self.decide(Decision::MasterOnly, ctx, false, Some(Diff::Syscall));
                false
            }
            Align::Decoupled => false,
        }
    }

    /// Whether a sink's master and slave arguments differ only in the
    /// descriptor `sys` takes first, and both descriptors name the same
    /// resource.
    fn same_sink_resource(&self, sys: Syscall, master: &[Value], slave: &[Value]) -> bool {
        let takes_fd = matches!(
            sys,
            Syscall::Read
                | Syscall::Write
                | Syscall::Recv
                | Syscall::Send
                | Syscall::Seek
                | Syscall::Close
        );
        if !takes_fd {
            return false;
        }
        match (master.split_first(), slave.split_first()) {
            (Some((Value::Int(m), m_rest)), Some((Value::Int(s), s_rest))) => {
                m_rest == s_rest && self.fdmap.lock().same_resource(*m, *s)
            }
            _ => false,
        }
    }

    fn render_args(args: &[Value]) -> String {
        let parts: Vec<String> = args.iter().map(Value::stringify).collect();
        parts.join(", ")
    }

    /// The alignment state machine, instrumented. When observability is
    /// on and the slave actually waited, the wait is reported to the
    /// stall profiler (keyed by the barrier's static site) together with
    /// the master/slave progress-counter delta observed at release.
    fn align(&self, ctx: &SyscallCtx, args: &[Value], is_sink: bool) -> Align {
        self.logs.with_log(ctx.thread, |log| {
            let mut waits: u64 = 0;
            if !ldx_obs::enabled() {
                return self.align_inner(log, ctx, args, is_sink, &mut waits);
            }
            let t0_ns = ldx_obs::now_ns();
            let out = self.align_inner(log, ctx, args, is_sink, &mut waits);
            if waits > 0 {
                let ns = ldx_obs::now_ns().saturating_sub(t0_ns);
                let delta = master_delta(log.published.lock().master_ready.as_ref(), &ctx.key);
                ldx_obs::stall_record(&format!("f{}:s{}", ctx.func.0, ctx.site.0), ns, delta);
                ldx_obs::record_complete(
                    ldx_obs::cat::BARRIER_WAIT,
                    "align-wait",
                    t0_ns,
                    ns,
                    vec![("delta", delta as i64), ("waits", waits as i64)],
                );
            }
            out
        })
    }

    /// The alignment state machine. Never blocks forever: released by the
    /// master's progress, the master's termination, the stop signal, or
    /// the safety timeout. `waits` counts parks for the caller's stall
    /// accounting.
    fn align_inner(
        &self,
        log: &ThreadLog,
        ctx: &SyscallCtx,
        args: &[Value],
        is_sink: bool,
        waits: &mut u64,
    ) -> Align {
        let start = Instant::now();
        let mut cursor = log.cursor(self.reader);
        loop {
            if let Some(front) = cursor.peek() {
                let order = front.key.cmp_progress(&ctx.key);
                let same_site = front.site == ctx.site && front.sys == ctx.sys;
                if matches!(order, ProgressOrder::Ahead | ProgressOrder::Divergent) {
                    // The master is already past this key: no alignment
                    // will ever exist (Alg. 2 case 1).
                    if is_sink {
                        self.slave_only_sink(ctx);
                    }
                    return Align::Decoupled;
                }
                let e = cursor.pop().expect("front exists");
                self.overlay.advance_cut(e.version);
                if matches!(e.sys, Syscall::Open | Syscall::Connect | Syscall::Accept) {
                    let mut fdmap = self.fdmap.lock();
                    fdmap.on_master_new(e.sys, e.args(), &e.outcome);
                }
                if order == ProgressOrder::Behind {
                    // A master-only syscall the slave will never issue.
                    self.master_only(ctx, e, CausalityKind::MasterOnlySink);
                    continue;
                }
                if !same_site {
                    // Same key, different site (Alg. 2 case 2).
                    self.master_only(ctx, e, CausalityKind::PathDiffAtSink);
                    if is_sink {
                        self.slave_only_sink(ctx);
                    }
                    return Align::Decoupled;
                }
                if e.args() == args {
                    return Align::Aligned(e.outcome());
                }
                // Same site, different arguments (Alg. 2 case 3).
                if !is_sink {
                    return Align::Mismatched;
                }
                if self.same_sink_resource(ctx.sys, e.args(), args) {
                    // The same data to the same resource, through a
                    // descriptor of the slave's own: no difference. The
                    // slave still performs it, on its own descriptor.
                    return Align::Decoupled;
                }
                let diff = CausalityKind::ArgDiff {
                    master: Self::render_args(e.args()),
                    slave: Self::render_args(args),
                };
                self.decide(Decision::Compared, ctx, true, Some(Diff::Sink(diff)));
                return Align::Decoupled;
            }
            // The end of the log: decide by the master's published
            // progress, read after the slots so that it names no key past
            // an entry this cursor cannot see.
            let mut published = log.published.lock();
            if cursor.peek().is_some() {
                continue;
            }
            let master_past = published.done
                || published
                    .master_ready
                    .as_ref()
                    .is_some_and(|r| !matches!(r.cmp_progress(&ctx.key), ProgressOrder::Behind));
            if master_past {
                drop(published);
                if is_sink {
                    self.slave_only_sink(ctx);
                }
                return Align::Decoupled;
            }
            // A slave running after its finished master finds every log
            // done, so reaching a park is a protocol error, reported at once.
            if self.master_first || ctx.stop.should_stop() || start.elapsed() > MAX_WAIT {
                drop(published);
                self.decide(Decision::Timeout, ctx, is_sink, None);
                return Align::Decoupled;
            }
            *waits += 1;
            log.park(self.reader, &mut published, &mut cursor, PARK_WAIT);
        }
    }

    /// Mutation matching one of the configured sources, if any.
    fn source_mutation(&self, ctx: &SyscallCtx, args: &[Value]) -> Option<Mutation> {
        let fdmap = self.fdmap.lock();
        let fd_resource = match args.first() {
            Some(Value::Int(fd)) => fdmap.get(*fd).map(|i| &i.resource),
            _ => None,
        };
        for source in &self.sources.sources {
            let hit = match &source.matcher {
                ResolvedMatcher::FileRead(segs) => {
                    ctx.sys == Syscall::Read
                        && matches!(fd_resource, Some(Resource::File { path, .. })
                            if ldx_vos::normalize_path(path).eq(segs.iter().map(String::as_str)))
                }
                ResolvedMatcher::NetRecv(host) => {
                    matches!(ctx.sys, Syscall::Recv | Syscall::Read)
                        && matches!(fd_resource, Some(Resource::Peer { host: h }) if h == host)
                }
                ResolvedMatcher::ClientRecv(port) => {
                    matches!(ctx.sys, Syscall::Recv | Syscall::Read)
                        && matches!(fd_resource, Some(Resource::Client { port: p, .. }) if p == port)
                }
                ResolvedMatcher::SyscallKind(sys) => ctx.sys == *sys,
                ResolvedMatcher::Site(fid, site) => ctx.func == *fid && ctx.site == *site,
            };
            if hit {
                return Some(source.mutation.clone());
            }
        }
        None
    }

    /// Whether the syscall references a tainted resource.
    fn touches_tainted(&self, sys: Syscall, args: &[Value]) -> bool {
        if Self::paths_in(sys, args).any(|path| self.path_tainted(path)) {
            return true;
        }
        if let Some(Value::Int(fd)) = args.first() {
            if matches!(
                sys,
                Syscall::Read | Syscall::Write | Syscall::Seek | Syscall::Close
            ) {
                if let Some(FdInfo {
                    resource: Resource::File { path, .. },
                    ..
                }) = self.fdmap.lock().get(*fd)
                {
                    return self.path_tainted(path);
                }
            }
        }
        false
    }

    /// The path arguments of a syscall, borrowed from `args`.
    fn paths_in(sys: Syscall, args: &[Value]) -> impl Iterator<Item = &str> {
        let n = match sys {
            Syscall::Open | Syscall::Stat | Syscall::Mkdir | Syscall::Unlink | Syscall::Readdir => {
                1
            }
            Syscall::Rename => 2,
            _ => 0,
        };
        args.iter().take(n).filter_map(|a| match a {
            Value::Str(s) => Some(&**s),
            _ => None,
        })
    }

    /// Reconstructs (or retrieves) the overlay descriptor for a program
    /// descriptor whose resource was created while coupled (paper §4.2:
    /// clone, open, seek).
    fn ensure_overlay_fd(&self, fdmap: &mut SlaveFdMap, fd: i64) -> Option<i64> {
        let info = fdmap.get(fd)?.clone();
        if let Some(ofd) = info.overlay_fd {
            return Some(ofd);
        }
        let cow_clone = |resource| {
            let pos = info.pos as u64;
            self.flight(Role::Slave, || FlightEvent::CowClone { resource, pos });
        };
        // A descriptor the overlay hands out, if the call succeeded.
        let overlay_fd = |sys, args: &[SysArg]| match self.overlay.syscall(sys, args) {
            Ok(SysRet::Int(ofd)) if ofd >= 0 => Some(ofd),
            _ => None,
        };
        let ofd = match &info.resource {
            Resource::File { path, flags } => {
                self.taint_path(path);
                cow_clone(ResourceId::Path(ldx_vos::normalize_path(path).joined()));
                let mode = if *flags == 0 { 0 } else { 2 };
                let ofd = overlay_fd(Syscall::Open, &[SysArg::Str(path), SysArg::Int(mode)])?;
                if *flags == 0 && info.pos > 0 {
                    let _ = self.overlay.syscall(
                        Syscall::Seek,
                        &[SysArg::Int(ofd), SysArg::Int(info.pos as i64)],
                    );
                }
                ofd
            }
            Resource::Peer { host } => {
                cow_clone(ResourceId::Peer(host.clone()));
                overlay_fd(Syscall::Connect, &[SysArg::Str(host)])?
            }
            Resource::Client { port, index } => {
                cow_clone(ResourceId::Client(*port));
                // Replay accepts up to this client's index, then skip the
                // characters already consumed while coupled.
                let mut ofd = None;
                while fdmap.overlay_accepts <= *index {
                    ofd = overlay_fd(Syscall::Accept, &[SysArg::Int(*port)]);
                    fdmap.overlay_accepts += 1;
                }
                let ofd = ofd?;
                if info.pos > 0 {
                    let _ = self.overlay.syscall(
                        Syscall::Recv,
                        &[SysArg::Int(ofd), SysArg::Int(info.pos as i64)],
                    );
                }
                ofd
            }
        };
        if let Some(slot) = fdmap.get_mut(fd) {
            slot.overlay_fd = Some(ofd);
        }
        Some(ofd)
    }

    /// Executes a syscall against the private overlay world; `diff` when
    /// it replaces a mismatched master syscall.
    fn exec_decoupled(
        &self,
        ctx: &SyscallCtx,
        args: &[Value],
        is_sink: bool,
        diff: bool,
    ) -> Result<Value, Trap> {
        self.decide(
            Decision::Decoupled,
            ctx,
            is_sink,
            diff.then_some(Diff::Syscall),
        );
        let mut fdmap = self.fdmap.lock();
        let sys = ctx.sys;
        match sys {
            Syscall::Open | Syscall::Connect | Syscall::Accept => {
                let sys_args = to_sys_args(args)?;
                if sys == Syscall::Open {
                    self.taint_path(args[0].as_str()?);
                }
                if sys == Syscall::Accept {
                    // Catch up the overlay backlog to the coupled position.
                    while fdmap.overlay_accepts < fdmap.accept_count {
                        let _ = self.overlay.syscall(sys, &sys_args);
                        fdmap.overlay_accepts += 1;
                    }
                }
                let resource = fdmap.created(sys, args);
                let ret = self.overlay.syscall(sys, &sys_args)?;
                if sys == Syscall::Accept {
                    fdmap.overlay_accepts += 1;
                }
                if let (Some(resource), SysRet::Int(fd)) = (resource, &ret) {
                    fdmap.on_new(*fd, resource, true);
                }
                Ok(from_sys_ret(ret))
            }
            Syscall::Read | Syscall::Recv => {
                let fd = args[0].as_int()?;
                if (0..=2).contains(&fd) {
                    return Ok(Value::str(""));
                }
                let Some(ofd) = self.ensure_overlay_fd(&mut fdmap, fd) else {
                    return Ok(Value::str(""));
                };
                let n = args[1].as_int()?;
                let ret = self
                    .overlay
                    .syscall(sys, &[SysArg::Int(ofd), SysArg::Int(n)])?;
                if let SysRet::Str(s) = &ret {
                    fdmap.on_read(fd, s.chars().count());
                }
                Ok(from_sys_ret(ret))
            }
            Syscall::Write | Syscall::Send => {
                let fd = args[0].as_int()?;
                let data = args[1].as_str()?;
                if (0..=2).contains(&fd) {
                    let ret = self.overlay.syscall(sys, &to_sys_args(args)?)?;
                    return Ok(from_sys_ret(ret));
                }
                let Some(ofd) = self.ensure_overlay_fd(&mut fdmap, fd) else {
                    return Ok(Value::Int(-1));
                };
                let ret = self
                    .overlay
                    .syscall(sys, &[SysArg::Int(ofd), SysArg::Str(data)])?;
                Ok(from_sys_ret(ret))
            }
            Syscall::Seek => {
                let fd = args[0].as_int()?;
                let pos = args[1].as_int()?;
                fdmap.on_seek(fd, pos);
                if let Some(ofd) = fdmap.get(fd).and_then(|i| i.overlay_fd) {
                    let _ = self
                        .overlay
                        .syscall(sys, &[SysArg::Int(ofd), SysArg::Int(pos)]);
                }
                Ok(Value::Int(0))
            }
            Syscall::Close => {
                let fd = args[0].as_int()?;
                if let Some(info) = fdmap.on_close(fd) {
                    if let Some(ofd) = info.overlay_fd {
                        let _ = self.overlay.syscall(sys, &[SysArg::Int(ofd)]);
                    }
                    Ok(Value::Int(0))
                } else {
                    Ok(Value::Int(-1))
                }
            }
            Syscall::Stat
            | Syscall::Mkdir
            | Syscall::Unlink
            | Syscall::Readdir
            | Syscall::Rename => {
                for p in Self::paths_in(sys, args) {
                    self.taint_path(p);
                }
                Ok(from_sys_ret(
                    self.overlay.syscall(sys, &to_sys_args(args)?)?,
                ))
            }
            Syscall::GetPid | Syscall::Time | Syscall::Random | Syscall::Sleep => Ok(from_sys_ret(
                self.overlay.syscall(sys, &to_sys_args(args)?)?,
            )),
            other => Err(Trap::Aborted {
                reason: format!("decoupled execution of unexpected syscall `{other}`"),
            }),
        }
    }
}

impl SyscallHooks for SlaveHooks {
    fn syscall(&self, ctx: &SyscallCtx<'_>, args: &[Value]) -> Result<SysOutcome, Trap> {
        if ctx.stop.should_stop() {
            return Err(Trap::Aborted {
                reason: "slave execution stopping".into(),
            });
        }
        match ctx.sys {
            Syscall::Lock => {
                let id = args[0].as_int()?;
                let tainted = self.tainted_locks.lock().contains(&id);
                if tainted || self.thread_decoupled(ctx.thread) {
                    self.decide(Decision::Decoupled, ctx, false, None);
                } else if !self.align_control(ctx, args, false) {
                    // Share the master's grant order: wait for the aligned
                    // lock entry before acquiring our own lock (paper §7).
                    self.taint_lock(id);
                }
                self.locks.lock(id, ctx.thread, ctx.stop);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Unlock => {
                let id = args[0].as_int()?;
                let tainted = self.tainted_locks.lock().contains(&id);
                if !tainted
                    && !self.thread_decoupled(ctx.thread)
                    && !self.align_control(ctx, args, false)
                {
                    self.taint_lock(id);
                }
                self.locks.unlock(id);
                Ok(SysOutcome::Value(Value::Int(0)))
            }
            Syscall::Spawn => {
                let index = {
                    let mut counts = self.spawn_counts.lock();
                    let c = counts.entry(ctx.thread.clone()).or_insert(0);
                    let i = *c;
                    *c += 1;
                    i
                };
                let child = ctx.thread.child(index);
                if self.thread_decoupled(ctx.thread) || !self.align_control(ctx, args, false) {
                    // The spawned thread is unique to the slave: it runs
                    // fully decoupled (paper §7).
                    self.decoupled_threads.lock().insert(child);
                }
                Ok(SysOutcome::DoLocal)
            }
            Syscall::Join | Syscall::Exit | Syscall::Setjmp | Syscall::Longjmp => {
                let is_sink = ctx.sys == Syscall::Longjmp;
                if !self.thread_decoupled(ctx.thread) {
                    self.align_control(ctx, args, is_sink);
                } else if is_sink {
                    self.slave_only_sink(ctx);
                }
                Ok(SysOutcome::DoLocal)
            }
            sys => {
                let is_sink = self.sinks.is_sink(ctx.func, ctx.site, sys, args);
                let alignment = if self.thread_decoupled(ctx.thread) {
                    if is_sink {
                        self.slave_only_sink(ctx);
                    }
                    Align::Decoupled
                } else {
                    self.align(ctx, args, is_sink)
                };
                let mut outcome = match alignment {
                    Align::Aligned(v) if !self.touches_tainted(sys, args) => {
                        self.share(ctx, is_sink);
                        // Observe shared outcomes so the descriptor shadow
                        // stays accurate.
                        let mut fdmap = self.fdmap.lock();
                        if let (Some(resource), Value::Int(fd)) = (fdmap.created(sys, args), &v) {
                            fdmap.on_new(*fd, resource, false);
                        }
                        match (sys, args.first(), &v) {
                            (
                                Syscall::Read | Syscall::Recv,
                                Some(Value::Int(fd)),
                                Value::Str(s),
                            ) => {
                                fdmap.on_read(*fd, s.chars().count());
                            }
                            (Syscall::Seek, Some(Value::Int(fd)), _) => {
                                if let Ok(p) = args[1].as_int() {
                                    fdmap.on_seek(*fd, p);
                                }
                            }
                            (Syscall::Close, Some(Value::Int(fd)), _) => {
                                if let Some(info) = fdmap.on_close(*fd) {
                                    if let Some(ofd) = info.overlay_fd {
                                        drop(fdmap);
                                        let _ = self
                                            .overlay
                                            .syscall(Syscall::Close, &[SysArg::Int(ofd)]);
                                        fdmap = self.fdmap.lock();
                                    }
                                }
                            }
                            _ => {}
                        }
                        drop(fdmap);
                        v
                    }
                    // Aligned but on a tainted resource: the entry is
                    // consumed, yet the syscall executes privately (paper
                    // §7: "future syscalls on the resource cannot be
                    // coupled"), and that is its one decision.
                    Align::Aligned(_) | Align::Decoupled => {
                        self.exec_decoupled(ctx, args, is_sink, false)?
                    }
                    Align::Mismatched => self.exec_decoupled(ctx, args, is_sink, true)?,
                };
                if let Some(mutation) = self.source_mutation(ctx, args) {
                    let mutated = mutation.apply(&outcome);
                    if mutated != outcome {
                        self.flight(Role::Slave, || FlightEvent::Mutated {
                            thread: ctx.thread.clone(),
                            key: ctx.key.clone(),
                            func: ctx.func,
                            site: ctx.site,
                            sys,
                            original: excerpt(&outcome.stringify()),
                            mutated: excerpt(&mutated.stringify()),
                        });
                    }
                    outcome = mutated;
                }
                Ok(SysOutcome::Value(outcome))
            }
        }
    }

    fn loop_barrier(&self, thread: &ThreadKey, key: &ProgressKey) -> Result<(), Trap> {
        if self.thread_decoupled(thread) {
            return Ok(());
        }
        // The slave never blocks here: its next syscall's alignment wait
        // provides the ordering (detection mode; see DESIGN.md).
        self.flight(Role::Slave, || {
            let delta = self.logs.with_log(thread, |log| {
                master_delta(log.published.lock().master_ready.as_ref(), key)
            });
            FlightEvent::Barrier {
                thread: thread.clone(),
                key: key.clone(),
                delta,
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_runtime::{FrameKey, LoopUid, StopSignal};
    use ldx_vos::{Vos, VosConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier, LazyLock};

    /// A live slave (recording if `record`) of fresh logs, for a program
    /// with an empty `main`, and that `main`.
    fn hooks(record: bool) -> (SlaveHooks, FuncId) {
        let program = ldx_ir::lower(&ldx_lang::compile("fn main() { }").unwrap());
        let config = VosConfig::new();
        let spec = DualSpec {
            record,
            ..DualSpec::default()
        };
        let overlay = SlaveVos::new(Arc::new(Vos::new(&config)), &config);
        let sinks = ResolvedSinks::resolve(&spec, &program);
        let logs = Arc::new(MasterLogs::new(1));
        let hooks = SlaveHooks::live(logs, 0, overlay, sinks, &spec, &program);
        (hooks, program.main())
    }

    /// A master entry at site `site` and counter `cnt`.
    fn entry(site: u32, cnt: u64, is_sink: bool) -> Entry {
        let stop = StopSignal::new();
        let ctx = SyscallCtx {
            site: SiteId(site),
            sys: if is_sink {
                Syscall::Send
            } else {
                Syscall::Read
            },
            ..read_at(flat(cnt), FuncId(0), &stop)
        };
        Entry::new(&ctx, &READ_ARGS, Value::Int(0), 0, is_sink)
    }

    /// A flat progress key at counter `cnt`.
    fn flat(cnt: u64) -> ProgressKey {
        ProgressKey::from_frames(&[FrameKey { loops: vec![], cnt }])
    }

    static ROOT: LazyLock<ThreadKey> = LazyLock::new(ThreadKey::root);

    /// A slave `read` at `key` in `main` of the root thread.
    fn read_at(key: ProgressKey, func: FuncId, stop: &StopSignal) -> SyscallCtx<'_> {
        SyscallCtx {
            thread: &ROOT,
            key,
            func,
            site: SiteId(0),
            sys: Syscall::Read,
            stop,
        }
    }

    const READ_ARGS: [Value; 2] = [Value::Int(3), Value::Int(1)];

    /// Aligns one slave `read` at `key` against a master whose only
    /// progress is `master_ready`, with the stop signal already fired:
    /// returns the decision and the number of timeouts counted.
    fn align_with_stop(master_ready: Option<ProgressKey>, key: ProgressKey) -> (Align, u64) {
        let (hooks, main) = hooks(true);
        hooks.logs.with_log(&ThreadKey::root(), |log| {
            log.published.lock().master_ready = master_ready;
        });
        let stop = StopSignal::new();
        stop.request_exit(0);
        let aligned = hooks.align(&read_at(key, main, &stop), &READ_ARGS, false);
        let timeouts = hooks.stats.timeouts.load(Ordering::Relaxed);
        let log = hooks.take_flight_log();
        assert_eq!(
            timeouts > 0,
            matches!(log.slave[..], [FlightEvent::Timeout { .. }])
        );
        (aligned, timeouts)
    }

    fn in_loop(epoch: u64, entry_cnt: u64, cnt: u64) -> ProgressKey {
        ProgressKey::from_frames(&[FrameKey {
            loops: vec![(LoopUid(1), epoch, entry_cnt)],
            cnt,
        }])
    }

    #[test]
    fn align_releases_on_stop_as_a_timeout() {
        // The master has neither logged nor published anything and is not
        // done, so only the stop signal can release the wait.
        let (aligned, timeouts) = align_with_stop(None, ProgressKey::start());
        assert!(matches!(aligned, Align::Decoupled));
        assert_eq!(timeouts, 1);
    }

    #[test]
    fn a_slave_after_its_finished_master_never_waits() {
        // On the one-thread schedule every log is done before the slave
        // starts. A slave that would park anyway (here: nothing logged or
        // published, and no stop signal) reports a timeout at once.
        let (mut hooks, main) = hooks(false);
        hooks.master_first = true;
        let start = Instant::now();
        let stop = StopSignal::new();
        let ctx = read_at(ProgressKey::start(), main, &stop);
        assert!(matches!(
            hooks.align(&ctx, &READ_ARGS, false),
            Align::Decoupled
        ));
        assert_eq!(hooks.stats.timeouts.load(Ordering::Relaxed), 1);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_replayed_slave_reads_finished_logs_and_never_waits() {
        let logs = MasterLogs::new(0);
        logs.with_log(&ThreadKey::root(), |log| log.append(entry(0, 0, false)));
        let (live, main) = hooks(false);
        let program = ldx_ir::lower(&ldx_lang::compile("fn main() { }").unwrap());
        let spec = DualSpec::default();
        let sinks = ResolvedSinks::resolve(&spec, &program);
        let replayed = SlaveHooks::replaying(&logs.heads(), live.overlay, sinks, &spec, &program);
        assert!(replayed.master_first);
        let stop = StopSignal::new();
        let ctx = read_at(flat(0), main, &stop);
        assert!(matches!(
            replayed.align(&ctx, &READ_ARGS, false),
            Align::Aligned(Value::Int(0))
        ));
        // Past the recorded entry the master is done: the slave decouples
        // at once, without a timeout.
        let ctx = read_at(flat(1), main, &stop);
        assert!(matches!(
            replayed.align(&ctx, &READ_ARGS, false),
            Align::Decoupled
        ));
        assert_eq!(replayed.stats.timeouts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_master_in_an_earlier_loop_instance_is_waited_for() {
        // A helper's loop runs twice in one frame. The master's last
        // barrier is in the first instance (epoch 4); the slave is in the
        // second (epoch 0). The master is behind, not past: the slave waits
        // (here until the stop fires) instead of decoupling.
        let (aligned, timeouts) = align_with_stop(Some(in_loop(4, 10, 14)), in_loop(0, 15, 16));
        assert!(matches!(aligned, Align::Decoupled));
        assert_eq!(timeouts, 1);
        // Once the master's barrier is past the slave, it decouples at once.
        let (_, timeouts) = align_with_stop(Some(in_loop(1, 15, 16)), in_loop(0, 15, 16));
        assert_eq!(timeouts, 0);
    }

    #[test]
    fn a_slave_that_parks_while_the_master_publishes_is_released() {
        // The master publishes only to a parked slave. Whenever the slave
        // parks relative to the master's publishes, the next publish must
        // release it: it decouples (the master is ahead) without a timeout.
        let ahead = flat(5);
        for i in 0..200u32 {
            let (hooks, main) = hooks(false);
            let hooks = Arc::new(hooks);
            let done = Arc::new(AtomicBool::new(false));
            let start = Arc::new(Barrier::new(2));
            let master = {
                let (logs, done, start, ahead) = (
                    Arc::clone(&hooks.logs),
                    Arc::clone(&done),
                    Arc::clone(&start),
                    ahead.clone(),
                );
                std::thread::spawn(move || {
                    start.wait();
                    // Begin publishing at a varied moment around the
                    // slave's park.
                    for _ in 0..(i % 20) * 50 {
                        std::hint::spin_loop();
                    }
                    while !done.load(Ordering::SeqCst) {
                        logs.with_log(&ThreadKey::root(), |log| log.publish(&ahead));
                        std::thread::yield_now();
                    }
                })
            };
            let stop = StopSignal::new();
            let (tx, rx) = mpsc::channel();
            let slave = {
                let hooks = Arc::clone(&hooks);
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let ctx = read_at(ProgressKey::start(), main, &stop);
                    start.wait();
                    let aligned = hooks.align(&ctx, &READ_ARGS, false);
                    tx.send(matches!(aligned, Align::Decoupled))
                        .expect("test is waiting");
                })
            };
            let decoupled = rx.recv_timeout(Duration::from_secs(5));
            done.store(true, Ordering::SeqCst);
            stop.request_exit(0);
            assert_eq!(decoupled, Ok(true), "iteration {i}: slave not released");
            assert_eq!(hooks.stats.timeouts.load(Ordering::Relaxed), 0);
            master.join().expect("master thread");
            slave.join().expect("slave thread");
        }
    }

    #[test]
    fn taint_normalizes_paths() {
        let (hooks, _) = hooks(false);
        hooks.taint_path("/a//b/");
        assert!(hooks.path_tainted("a/b"));
        assert!(!hooks.path_tainted("/a"));
    }

    #[test]
    fn reconcile_counts_master_only_entries() {
        let (hooks, _) = hooks(false);
        hooks.logs.with_log(&ThreadKey::root(), |log| {
            log.append(entry(0, 0, false));
            log.append(entry(1, 2, true));
        });
        hooks.reconcile();
        assert_eq!(hooks.stats.diffs.load(Ordering::Relaxed), 1);
        assert_eq!(hooks.records.lock().len(), 1);
    }

    #[test]
    fn reconcile_drains_what_the_slave_left_unread() {
        let (hooks, _) = hooks(true);
        hooks.logs.with_log(&ThreadKey::root(), |log| {
            log.append(entry(0, 0, false));
            log.append(entry(1, 2, false));
            assert!(log.cursor(0).pop().is_some_and(|e| e.site == SiteId(0)));
            log.append(entry(2, 4, true));
            log.append(entry(3, 6, false));
        });
        hooks.reconcile();
        assert_eq!(hooks.stats.diffs.load(Ordering::Relaxed), 2);
        assert_eq!(hooks.records.lock().len(), 1);
        let log = hooks.take_flight_log();
        let sites: Vec<u32> = log
            .master
            .iter()
            .map(|e| match e {
                FlightEvent::Syscall {
                    decision: Decision::MasterOnly,
                    site,
                    ..
                } => site.0,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(sites, [1, 2, 3]);
        assert!(hooks
            .logs
            .with_log(&ThreadKey::root(), |log| log.cursor(0).peek().is_none()));
    }
}
