//! Shared coupling state between the master and slave executions.
//!
//! This is the runtime realization of paper §4.2: per thread-pair, the
//! master queues its syscall outcomes and publishes a *ready* progress
//! key; the slave consumes aligned outcomes, skips (and counts)
//! master-only entries, and decouples when no alignment can exist. The
//! channel runs one way, master → slave: the master also publishes its
//! progress at loop backedges (§5) while the slave is parked, and a
//! terminal key on thread exit, so the slave never blocks forever, and it
//! never waits for the slave.
//!
//! The per-pair queue has two levels. The master appends each outcome to
//! an open batch, behind a lock and on a cache line of its own, and hands
//! the batch to the shared [`EntryQueue`] when it fills a chunk, when it
//! finds the slave parked, and when its thread finishes. So while the
//! slave is busy, the master touches no state the slave uses. A slave
//! whose queue is empty pulls the open batch itself, and parks only if
//! that batch is empty too. `master_ready` moves only with entries (to the
//! last key moved), or with a backedge publish or thread exit that first
//! moved the whole batch, so it never names a key past an entry the slave
//! cannot see. The master wakes a parked slave once per park: it clears
//! `slave_parked` when it notifies.
//!
//! A run that keeps a recording also logs every entry its master queues,
//! per pair and under the batch lock the master already holds; a replay
//! starts from pairs whose queues hold such a log and whose master is done
//! ([`Coupling::replaying`]).
//!
//! One master may drive several couplings, one per live slave: a
//! [`Fanout`] hands every coupling's pair each entry, backedge and thread
//! exit. Nothing else is shared between those slaves, so each coupling is
//! exactly the coupling of a one-slave run.
//!
//! Every protocol decision either side makes is reported once, through
//! [`Coupling::emit`].

use crate::recorder::{
    ByteDiff, Decision, FlightEvent, FlightLog, FlightRecorder, ResourceId, DEFAULT_FLIGHT_CAPACITY,
};
use crate::report::{CausalityKind, CausalityRecord, Role};
use ldx_ir::{FuncId, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::{ProgressKey, SyscallCtx, ThreadKey, Value};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long any coupling wait may block before giving up (safety valve;
/// orders of magnitude above any legitimate wait in the test suite).
pub(crate) const MAX_WAIT: Duration = Duration::from_secs(30);

/// One master syscall outcome, queued for the slave.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub key: ProgressKey,
    /// The version of the master's world this syscall left behind (0 for
    /// control syscalls, which do not touch the world): once the slave
    /// consumes the entry, its clones see the master at least this far.
    pub version: u64,
    pub func: FuncId,
    pub site: SiteId,
    pub sys: Syscall,
    /// The arguments, inline (see [`Entry::args`]), so queueing an
    /// outcome allocates nothing per entry.
    args: [Value; MAX_ARITY],
    arity: u8,
    pub outcome: Value,
    pub is_sink: bool,
}

impl Entry {
    /// The outcome of the syscall `ctx` issued with `args` (at most
    /// [`MAX_ARITY`] of them: the compiler checks every syscall's arity).
    pub fn new(
        ctx: &SyscallCtx,
        args: &[Value],
        outcome: Value,
        version: u64,
        is_sink: bool,
    ) -> Self {
        assert!(
            args.len() <= MAX_ARITY,
            "more syscall arguments than MAX_ARITY"
        );
        Entry {
            key: ctx.key.clone(),
            version,
            func: ctx.func,
            site: ctx.site,
            sys: ctx.sys,
            args: std::array::from_fn(|i| args.get(i).cloned().unwrap_or(Value::Int(0))),
            arity: args.len() as u8,
            outcome,
            is_sink,
        }
    }

    pub fn args(&self) -> &[Value] {
        &self.args[..usize::from(self.arity)]
    }

    /// What an unmatched entry exposes: a sink is causality of `kind`,
    /// anything else a syscall difference.
    pub fn unmatched(&self, kind: CausalityKind) -> Diff {
        if self.is_sink {
            Diff::Sink(kind)
        } else {
            Diff::Syscall
        }
    }
}

/// The most arguments a syscall takes (the largest [`Syscall::arity`]).
pub(crate) const MAX_ARITY: usize = 2;

/// Entries per chunk of an [`EntryQueue`], and the size at which the
/// master hands its open batch over: 256 × 144 bytes is 36 KiB, well
/// below glibc's default 128 KiB mmap threshold.
const QUEUE_CHUNK: usize = 256;

/// The slave's queued entries, in chunks of [`QUEUE_CHUNK`]. A master
/// running far ahead can queue thousands of entries; one growing
/// `VecDeque` asked for blocks of hundreds of KiB, and once glibc frees
/// such a block it raises its mmap threshold, so later ones come from the
/// thread's arena and stay resident (peak RSS rose with queue depth).
/// Chunks are freed as the slave drains them; the last one is kept, so a
/// queue that empties and refills at every handoff allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct EntryQueue {
    /// Only the last chunk may be empty.
    chunks: VecDeque<VecDeque<Entry>>,
}

impl EntryQueue {
    pub fn push_back(&mut self, entry: Entry) {
        match self.chunks.back_mut() {
            Some(chunk) if chunk.len() < QUEUE_CHUNK => chunk.push_back(entry),
            _ => {
                let mut chunk = VecDeque::with_capacity(QUEUE_CHUNK);
                chunk.push_back(entry);
                self.chunks.push_back(chunk);
            }
        }
    }

    /// Moves every entry of `batch` to the back, in order. A full batch
    /// moves whole, as one chunk, and `batch` starts a fresh one; a
    /// shorter one is drained, so `batch` keeps its buffer.
    pub fn append(&mut self, batch: &mut VecDeque<Entry>) {
        if batch.len() < QUEUE_CHUNK {
            batch.drain(..).for_each(|entry| self.push_back(entry));
            return;
        }
        if self.chunks.back().is_some_and(VecDeque::is_empty) {
            self.chunks.pop_back();
        }
        let chunk = std::mem::replace(batch, VecDeque::with_capacity(QUEUE_CHUNK));
        self.chunks.push_back(chunk);
    }

    pub fn front(&self) -> Option<&Entry> {
        self.chunks.front()?.front()
    }

    pub fn pop_front(&mut self) -> Option<Entry> {
        let chunk = self.chunks.front_mut()?;
        let entry = chunk.pop_front();
        if chunk.is_empty() && self.chunks.len() > 1 {
            self.chunks.pop_front();
        }
        entry
    }

    /// Removes every entry, in order.
    fn drain(&mut self) -> Vec<Entry> {
        std::iter::from_fn(|| self.pop_front()).collect()
    }
}

/// Where a decision was made: the acting role's thread and progress key,
/// and the syscall site.
#[derive(Clone, Copy)]
pub(crate) struct At<'a> {
    pub thread: &'a ThreadKey,
    pub key: &'a ProgressKey,
    pub site: (FuncId, SiteId, Syscall),
}

impl<'a> At<'a> {
    /// The syscall `ctx` is issuing.
    pub fn ctx(ctx: &'a SyscallCtx) -> Self {
        At {
            thread: &ctx.thread,
            key: &ctx.key,
            site: (ctx.func, ctx.site, ctx.sys),
        }
    }

    /// The master syscall queued as `entry` on `thread`.
    pub fn entry(thread: &'a ThreadKey, entry: &'a Entry) -> Self {
        At {
            thread,
            key: &entry.key,
            site: (entry.func, entry.site, entry.sys),
        }
    }
}

/// A difference between the executions that a decision exposes.
pub(crate) enum Diff {
    /// A non-sink syscall difference (`DualReport::syscall_diffs`).
    Syscall,
    /// A sink difference: strong causality.
    Sink(CausalityKind),
}

/// How long one slave park lasts before the slave looks again.
pub(crate) const PARK_WAIT: Duration = Duration::from_millis(2);

/// Shared pair state (one per Lx thread pair): what the master handed
/// over, and how far it has published.
#[derive(Debug, Default)]
pub(crate) struct PairInner {
    /// The master's progress as last published. It may lag the master,
    /// which only ever makes the slave wait longer, never decouple early,
    /// and it never runs past an entry still in the open batch.
    pub master_ready: Option<ProgressKey>,
    pub queue: EntryQueue,
    pub master_done: bool,
}

impl PairInner {
    /// Moves `batch` to the back of the queue and publishes its last key
    /// as ready; returns whether anything moved.
    fn take(&mut self, batch: &mut VecDeque<Entry>) -> bool {
        let Some(last) = batch.back() else {
            return false;
        };
        self.master_ready = Some(last.key.clone());
        self.queue.append(batch);
        true
    }
}

/// The master's open batch: outcomes queued since its last handoff. It
/// sits on a cache line of its own, and the slave locks it only when its
/// queue runs dry, so while the slave is busy the master's lock is
/// uncontended.
#[derive(Debug, Default)]
#[repr(align(128))]
struct OpenBatch {
    entries: Mutex<Open>,
}

/// What the open-batch lock guards.
#[derive(Debug, Default)]
pub(crate) struct Open {
    batch: VecDeque<Entry>,
    /// A copy of every entry the master queued, when its run keeps a
    /// recording.
    log: Option<Vec<Entry>>,
}

/// What a slave that ran dry found ([`Pair::pull`]).
pub(crate) enum Pull<'a> {
    /// The queue holds entries again: pulled from the open batch when
    /// `pulled`, else handed over by the master in the meantime.
    Refilled { pulled: bool },
    /// Queue and open batch are both empty. Holds the batch lock, for
    /// [`Pair::park`].
    Dry(MutexGuard<'a, Open>),
}

/// A thread pair's synchronization cell. Lock order, on both sides: the
/// open batch, then `inner`.
#[derive(Debug, Default)]
pub(crate) struct Pair {
    open: OpenBatch,
    pub inner: Mutex<PairInner>,
    pub cv: Condvar,
    /// Set by the slave for a condvar wait, while it holds both locks,
    /// and cleared by whichever side ends the wait: the master when it
    /// notifies, so it wakes the slave once per park. The master hands
    /// over its batch on an enqueue that finds the flag set. A backedge
    /// publish reads the flag without a lock; one that misses it delays
    /// the slave until the master's next enqueue, backedge or thread
    /// exit, since a timed wait that returns finds the same empty batch
    /// and stale `master_ready` and parks again (`MAX_WAIT` is the
    /// backstop).
    pub slave_parked: AtomicBool,
}

impl Pair {
    /// A pair whose master logs every entry it queues.
    fn logging() -> Self {
        let pair = Pair::default();
        pair.open.entries.lock().log = Some(Vec::new());
        pair
    }

    /// A pair for a replay: `log` queued, and the master done.
    fn replayed(log: Vec<Entry>) -> Self {
        let pair = Pair::default();
        let mut inner = pair.inner.lock();
        log.into_iter()
            .for_each(|entry| inner.queue.push_back(entry));
        inner.master_done = true;
        inner.master_ready = Some(ProgressKey::top());
        drop(inner);
        pair
    }

    /// Master: appends an outcome to the open batch (and to the log, when
    /// kept), and hands the batch over (waking the slave) when it fills a
    /// chunk or the slave is parked. The slave parks under the batch lock,
    /// so the flag read here cannot miss a park that could miss this entry.
    pub fn enqueue(&self, entry: Entry) {
        let mut open = self.open.entries.lock();
        if let Some(log) = &mut open.log {
            log.push(entry.clone());
        }
        open.batch.push_back(entry);
        if open.batch.len() >= QUEUE_CHUNK || self.slave_parked.load(Ordering::SeqCst) {
            let inner = self.hand_over(open);
            self.wake_parked(inner);
        }
    }

    /// Master: hands over the open batch and publishes backedge progress
    /// to a parked slave, and wakes it. While the slave is not parked
    /// this neither locks nor clones: the slave reads `master_ready` only
    /// once queue and batch are empty, and then it parks before waiting.
    pub fn publish(&self, key: &ProgressKey) {
        if !self.slave_parked.load(Ordering::SeqCst) {
            return;
        }
        let mut inner = self.hand_over(self.open.entries.lock());
        inner.master_ready = Some(key.clone());
        self.wake_parked(inner);
    }

    /// Master: hands over the open batch and marks the master's thread as
    /// finished (terminal progress).
    pub fn finish(&self) {
        let mut inner = self.hand_over(self.open.entries.lock());
        inner.master_done = true;
        inner.master_ready = Some(ProgressKey::top());
        self.slave_parked.store(false, Ordering::SeqCst);
        drop(inner);
        self.cv.notify_all();
    }

    /// Moves the open batch (its lock taken first, the lock order) into
    /// the queue; releases the batch lock and returns the pair lock.
    fn hand_over(&self, mut open: MutexGuard<'_, Open>) -> MutexGuard<'_, PairInner> {
        let mut inner = self.inner.lock();
        inner.take(&mut open.batch);
        inner
    }

    /// The master's entries, in order: the log it kept, or, for a master
    /// that ran alone, everything it queued.
    fn take_log(&self) -> Vec<Entry> {
        let mut open = self.open.entries.lock();
        match open.log.take() {
            Some(log) => log,
            None => self.hand_over(open).queue.drain(),
        }
    }

    /// Releases the pair lock, then notifies if the slave is parked,
    /// clearing the flag so the next handoff does not notify again.
    fn wake_parked(&self, inner: MutexGuard<'_, PairInner>) {
        let parked = self.slave_parked.swap(false, Ordering::SeqCst);
        drop(inner);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Slave, having found its queue empty: pulls the master's open batch
    /// into the queue. Gives the pair lock up and retakes it after the
    /// batch lock (the lock order), and returns it with what it found.
    pub fn pull<'a>(
        &'a self,
        inner: MutexGuard<'a, PairInner>,
    ) -> (MutexGuard<'a, PairInner>, Pull<'a>) {
        drop(inner);
        let mut open = self.open.entries.lock();
        let mut inner = self.inner.lock();
        let pulled = inner.take(&mut open.batch);
        if pulled || inner.queue.front().is_some() {
            return (inner, Pull::Refilled { pulled });
        }
        (inner, Pull::Dry(open))
    }

    /// Slave, having found queue and batch empty ([`Pull::Dry`]): parks
    /// on the pair lock for up to `timeout`. The flag is set under the
    /// batch lock, so the master's next enqueue sees it. Returns whether
    /// the wait timed out rather than being notified.
    pub fn park(
        &self,
        open: MutexGuard<'_, Open>,
        inner: &mut MutexGuard<'_, PairInner>,
        timeout: Duration,
    ) -> bool {
        self.slave_parked.store(true, Ordering::SeqCst);
        drop(open);
        let timed_out = self.cv.wait_for(inner, timeout).timed_out();
        self.slave_parked.store(false, Ordering::SeqCst);
        timed_out
    }
}

/// Counters of one dual execution, written by [`Coupling::emit`] (the
/// slave's pull count by the slave itself).
/// Each role's counters sit on their own cache lines, so the master's and
/// the slave's increments never contend.
#[derive(Debug, Default)]
pub(crate) struct CouplingStats {
    pub master: MasterStats,
    pub slave: SlaveStats,
}

/// Counters the master writes while the executions run.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct MasterStats {
    /// Sink instances the master executed.
    pub sinks: AtomicU64,
}

/// Counters the slave writes while the executions run (and
/// [`Coupling::reconcile`] once both have finished).
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct SlaveStats {
    /// Outcomes shared master → slave.
    pub shared: AtomicU64,
    /// Slave syscalls executed decoupled.
    pub decoupled: AtomicU64,
    /// Non-sink syscall differences (master-only + slave-decoupled).
    pub diffs: AtomicU64,
    /// Waits released by the stop signal or `MAX_WAIT`.
    pub timeouts: AtomicU64,
    /// Open batches the slave pulled from the master when it ran dry.
    pub pulls: AtomicU64,
}

/// Source of [`Coupling`] ids. Ids are never reused, so a pair handle
/// cached for one dual execution is never returned to another, even one
/// whose `Coupling` lands at the same address.
static NEXT_COUPLING_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The pair this OS thread resolved last as a slave: `(coupling id,
    /// Lx thread, pair)`. Every Lx thread runs on its own OS thread, so
    /// after its first syscall a slave finds its pair here without
    /// touching the shared map or the pair's reference count.
    static CACHED_PAIR: RefCell<Option<(u64, ThreadKey, Arc<Pair>)>> =
        const { RefCell::new(None) };

    /// The same for a master: `(fan-out id, Lx thread, one pair per
    /// coupling)`, so a master driving several couplings resolves its
    /// thread's pairs once, not once per coupling and syscall.
    static CACHED_PAIRS: RefCell<Option<(u64, ThreadKey, Pairs)>> =
        const { RefCell::new(None) };
}

/// One thread's pair in each coupling of a [`Fanout`], in coupling order.
type Pairs = Box<[Arc<Pair>]>;

/// The couplings one master drives: one per live slave (or the single
/// one of a recording), each with its own pairs, counters, taint sets,
/// causality records and flight recorder. The master hands every one of
/// them each entry, backedge and thread exit.
pub(crate) struct Fanout {
    /// Never reused, like a [`Coupling`] id (from the same counter).
    id: u64,
    couplings: Vec<Arc<Coupling>>,
}

impl Fanout {
    pub fn new(couplings: Vec<Arc<Coupling>>) -> Self {
        assert!(
            !couplings.is_empty(),
            "a master drives at least one coupling"
        );
        Fanout {
            id: NEXT_COUPLING_ID.fetch_add(1, Ordering::Relaxed),
            couplings,
        }
    }

    pub fn couplings(&self) -> &[Arc<Coupling>] {
        &self.couplings
    }

    /// Runs `f` on thread `t`'s pair in every coupling, in coupling order,
    /// resolved once per Lx thread (see `CACHED_PAIRS`). `f` must not
    /// resolve other pairs.
    pub fn with_pairs<R>(&self, t: &ThreadKey, f: impl FnOnce(&[Arc<Pair>]) -> R) -> R {
        CACHED_PAIRS.with(|slot| {
            let hit = matches!(&*slot.borrow(), Some((id, key, _)) if *id == self.id && key == t);
            if !hit {
                let pairs = self.couplings.iter().map(|c| c.pair(t)).collect();
                slot.replace(Some((self.id, t.clone(), pairs)));
            }
            f(&slot.borrow().as_ref().expect("pairs cached above").2)
        })
    }

    /// Master: thread `t` finished. Hands every pair its last batch and
    /// terminal progress, and drops this OS thread's cached pairs.
    pub fn finish_thread(&self, t: &ThreadKey) {
        self.with_pairs(t, |pairs| pairs.iter().for_each(|pair| pair.finish()));
        CACHED_PAIRS.with(|slot| slot.replace(None));
    }

    /// Master: the whole execution finished, releasing every waiter.
    pub fn finish_execution(&self) {
        self.couplings.iter().for_each(|c| c.finish_execution());
    }
}

/// All shared state of one dual execution.
pub(crate) struct Coupling {
    id: u64,
    pairs: Mutex<HashMap<ThreadKey, Arc<Pair>>>,
    pub master_exec_done: AtomicBool,
    /// The slave starts only once the master has finished (a replay), so
    /// it must never wait for it.
    pub master_first: bool,
    /// Every pair logs its master's entries, for a recording.
    pub keep_logs: bool,
    pub records: Mutex<Vec<CausalityRecord>>,
    pub stats: CouplingStats,
    /// Paths with diverged state (paper §7 resource tainting).
    pub tainted_paths: Mutex<HashSet<String>>,
    /// Lock ids with diverged synchronization (paper §7).
    pub tainted_locks: Mutex<HashSet<i64>>,
    /// The divergence flight recorder (`None` when recording is off — the
    /// disabled probe is a single discriminant check, no atomics).
    pub recorder: Option<FlightRecorder>,
}

impl Coupling {
    /// Creates coupling state; `record` enables the flight recorder.
    pub fn new(record: bool) -> Self {
        Coupling {
            id: NEXT_COUPLING_ID.fetch_add(1, Ordering::Relaxed),
            pairs: Mutex::new(HashMap::new()),
            master_exec_done: AtomicBool::new(false),
            master_first: false,
            keep_logs: false,
            records: Mutex::new(Vec::new()),
            stats: CouplingStats::default(),
            tainted_paths: Mutex::new(HashSet::new()),
            tainted_locks: Mutex::new(HashSet::new()),
            recorder: record.then(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
        }
    }

    /// Coupling state for a slave replayed against a finished master: one
    /// pair per entry log, each done, and the flight recorder (when
    /// `record`) resumed from the master's `lane`.
    pub fn replaying(record: bool, lane: FlightLog, logs: Vec<(ThreadKey, Vec<Entry>)>) -> Self {
        let pairs = logs
            .into_iter()
            .map(|(thread, log)| (thread, Arc::new(Pair::replayed(log))))
            .collect();
        Coupling {
            pairs: Mutex::new(pairs),
            master_exec_done: AtomicBool::new(true),
            master_first: true,
            recorder: record.then(|| FlightRecorder::resume(DEFAULT_FLIGHT_CAPACITY, lane)),
            ..Coupling::new(false)
        }
    }

    /// Reports one protocol decision: bumps its counter, fires its
    /// `ldx-obs` instant, records the causality `diff` exposes, and
    /// appends the event to `role`'s lane when recording. With recording
    /// off nothing is cloned unless `diff` is a causality record.
    pub fn emit(
        &self,
        role: Role,
        decision: Decision,
        at: At<'_>,
        is_sink: bool,
        diff: Option<Diff>,
    ) {
        let stats = &self.stats;
        let (counter, instant) = match decision {
            Decision::Executed => (is_sink.then_some(&stats.master.sinks), None),
            Decision::Shared => (Some(&stats.slave.shared), Some("aligned-reuse")),
            // A sink that compared equal shares the outcome.
            Decision::Compared => (
                diff.is_none().then_some(&stats.slave.shared),
                Some("sink-compare"),
            ),
            Decision::Decoupled => (Some(&stats.slave.decoupled), Some("decoupled")),
            Decision::Timeout => (Some(&stats.slave.timeouts), Some("timeout")),
            Decision::MasterOnly | Decision::SlaveOnly => (None, None),
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
                stats.slave.diffs.fetch_add(1, Ordering::Relaxed);
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
    pub fn flight(&self, role: Role, event: impl FnOnce() -> FlightEvent) {
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

    /// A copy of the master lane so far (empty when recording is off).
    pub fn master_flight_log(&self) -> FlightLog {
        self.recorder
            .as_ref()
            .map(FlightRecorder::master_log)
            .unwrap_or_default()
    }

    /// Every pair's master entries ([`Pair::take_log`]), in `ThreadKey`
    /// order.
    pub fn take_logs(&self) -> Vec<(ThreadKey, Vec<Entry>)> {
        let pairs = self.pairs.lock();
        let mut logs: Vec<_> = pairs
            .iter()
            .map(|(thread, pair)| (thread.clone(), pair.take_log()))
            .collect();
        logs.sort_by(|a, b| a.0.cmp(&b.0));
        logs
    }

    /// Runs `f` on the pair cell for thread `t`. The calling OS thread
    /// caches the pair it resolved last, so a slave resolves its thread's
    /// pair once per run (a master goes through its [`Fanout`]). `f` must
    /// not resolve another pair.
    pub fn with_pair<R>(&self, t: &ThreadKey, f: impl FnOnce(&Pair) -> R) -> R {
        CACHED_PAIR.with(|slot| {
            let hit = matches!(&*slot.borrow(), Some((id, key, _)) if *id == self.id && key == t);
            if !hit {
                slot.replace(Some((self.id, t.clone(), self.pair(t))));
            }
            f(&slot.borrow().as_ref().expect("pair cached above").2)
        })
    }

    /// The pair cell for thread `t`, created on first use by either side.
    fn pair(&self, t: &ThreadKey) -> Arc<Pair> {
        let mut pairs = self.pairs.lock();
        if let Some(p) = pairs.get(t) {
            return Arc::clone(p);
        }
        let p = Arc::new(if self.keep_logs {
            Pair::logging()
        } else {
            Pair::default()
        });
        // If the master execution already finished, threads it never
        // spawned must not be waited for.
        if self.master_exec_done.load(Ordering::SeqCst) {
            p.finish();
        }
        pairs.insert(t.clone(), Arc::clone(&p));
        p
    }

    /// Marks the master execution as finished, releasing every waiter.
    pub fn finish_execution(&self) {
        self.master_exec_done.store(true, Ordering::SeqCst);
        for pair in self.pairs.lock().values() {
            pair.finish();
        }
    }

    /// Marks a filesystem path as tainted, recording the first divergence
    /// on each path as a flight event (in the slave lane: only the slave's
    /// decoupled execution taints).
    pub fn taint_path(&self, path: &str) {
        let normalized = ldx_vos::normalize_path(path).join("/");
        let first = self.tainted_paths.lock().insert(normalized.clone());
        if first {
            self.flight(Role::Slave, || FlightEvent::Taint {
                resource: ResourceId::Path(normalized),
            });
        }
    }

    /// Marks a lock id as tainted (grant order diverged), recording the
    /// first divergence as a flight event.
    pub fn taint_lock(&self, id: i64) {
        let first = self.tainted_locks.lock().insert(id);
        if first {
            self.flight(Role::Slave, || FlightEvent::Taint {
                resource: ResourceId::Lock(id),
            });
        }
    }

    /// Whether a path is tainted. Nothing is normalized or allocated
    /// while no path is.
    pub fn path_tainted(&self, path: &str) -> bool {
        let tainted = self.tainted_paths.lock();
        !tainted.is_empty() && tainted.contains(&ldx_vos::normalize_path(path).join("/"))
    }

    /// Drains every unconsumed master entry at the end of the run, queued
    /// or still in the open batch: master-only syscall differences,
    /// including master-only sinks.
    /// Pairs are drained in `ThreadKey` order so records and flight
    /// events land deterministically.
    pub fn reconcile(&self) {
        let pairs = self.pairs.lock();
        let mut ordered: Vec<(&ThreadKey, &Arc<Pair>)> = pairs.iter().collect();
        ordered.sort_by(|a, b| a.0.cmp(b.0));
        for (thread, pair) in ordered {
            let mut inner = pair.hand_over(pair.open.entries.lock());
            while let Some(entry) = inner.queue.pop_front() {
                self.emit(
                    Role::Master,
                    Decision::MasterOnly,
                    At::entry(thread, &entry),
                    entry.is_sink,
                    Some(entry.unmatched(CausalityKind::MasterOnlySink)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_runtime::{FrameKey, ProgressOrder};
    use std::sync::{mpsc, Barrier};

    /// A flat progress key at counter `cnt`: keys order by `cnt`.
    fn key(cnt: u64) -> ProgressKey {
        ProgressKey::from_frames(&[FrameKey { loops: vec![], cnt }])
    }

    /// A master entry at site `site`, keyed `key(2 * site)` so that a
    /// backedge key can fall between two entries.
    fn entry(site: u32, is_sink: bool) -> Entry {
        Entry {
            key: key(2 * u64::from(site)),
            version: 0,
            func: FuncId(0),
            site: SiteId(site),
            sys: if is_sink {
                Syscall::Send
            } else {
                Syscall::Read
            },
            args: [Value::Int(3), Value::Int(1)],
            arity: 2,
            outcome: Value::Int(0),
            is_sink,
        }
    }

    fn open_len(pair: &Pair) -> usize {
        pair.open.entries.lock().batch.len()
    }

    fn queued_sites(pair: &Pair) -> Vec<u32> {
        let inner = pair.inner.lock();
        let chunks = inner.queue.chunks.iter();
        chunks.flatten().map(|e| e.site.0).collect()
    }

    /// Consumes up to `n` entries the way a slave does: from the queue,
    /// pulling the open batch when the queue runs dry, never parking.
    /// Returns the sites consumed, in order.
    fn consume(pair: &Pair, n: usize) -> Vec<u32> {
        let mut sites = Vec::new();
        let mut inner = pair.inner.lock();
        while sites.len() < n {
            if let Some(e) = inner.queue.pop_front() {
                sites.push(e.site.0);
                continue;
            }
            let (guard, pull) = pair.pull(inner);
            inner = guard;
            if let Pull::Dry(_) = pull {
                break;
            }
        }
        sites
    }

    /// Waits on `pair` the way the slave does, pulling when its queue is
    /// dry and parking when the open batch is dry too, until `released`
    /// holds. Each park waits up to 5 s, so only a notification ends it
    /// in time. Returns how many parks timed out instead.
    fn wait_until(pair: &Pair, released: impl Fn(&PairInner) -> bool) -> u32 {
        let mut timeouts = 0;
        let mut inner = pair.inner.lock();
        loop {
            if released(&inner) {
                return timeouts;
            }
            let (guard, pull) = pair.pull(inner);
            inner = guard;
            if let Pull::Dry(open) = pull {
                if !released(&inner) {
                    timeouts += u32::from(pair.park(open, &mut inner, Duration::from_secs(5)));
                }
            }
        }
    }

    /// Parks a waiter on `pair` the way the slave does until `released`
    /// holds, and runs `wake` once it is parked; fails (instead of
    /// hanging) if the waiter is not released by a notification.
    fn released_by(
        what: &str,
        released: impl Fn(&PairInner) -> bool + Send + 'static,
        wake: impl FnOnce(&Pair),
    ) {
        let pair = Arc::new(Pair::default());
        let (tx, rx) = mpsc::channel();
        let waiter = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let timeouts = wait_until(&waiter, released);
            tx.send(timeouts).expect("test is waiting");
        });
        while !pair.slave_parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        wake(&pair);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(0),
            "{what} lost the wakeup of a parked slave"
        );
        waiter.join().expect("waiter thread");
        assert!(!pair.slave_parked.load(Ordering::SeqCst));
    }

    /// Whether the master has published progress at or past `key`.
    fn ready_at(inner: &PairInner, key: &ProgressKey) -> bool {
        let ready = inner.master_ready.as_ref();
        ready.is_some_and(|r| r.cmp_progress(key) != ProgressOrder::Behind)
    }

    #[test]
    fn every_master_update_wakes_a_parked_slave() {
        let queued = |inner: &PairInner| inner.queue.front().is_some();
        released_by("enqueue", queued, |p| p.enqueue(entry(0, false)));
        released_by("finish", |inner| inner.master_done, Pair::finish);
        // A backedge publish with nothing to hand over: the slave waits
        // out a syscall-free loop on `master_ready` alone.
        released_by(
            "empty publish",
            |inner| ready_at(inner, &key(1)),
            |p| {
                p.publish(&key(1));
            },
        );
        // A publish hands over whatever the open batch holds first.
        released_by(
            "publish",
            move |inner| queued(inner) && ready_at(inner, &key(1)),
            |p| {
                p.open.entries.lock().batch.push_back(entry(0, false));
                p.publish(&key(1));
            },
        );
    }

    #[test]
    fn entries_stay_fifo_across_handoffs_and_pulls() {
        let pair = Pair::default();
        let n = 3 * QUEUE_CHUNK as u32 + 10;
        let mut seen = Vec::new();
        for i in 0..n {
            pair.enqueue(entry(i, false));
            if i % 89 == 0 {
                // The slave parked: the next enqueue hands the batch over.
                pair.slave_parked.store(true, Ordering::SeqCst);
            }
            if i % 300 == 299 {
                seen.extend(consume(&pair, 40));
            }
        }
        assert!(open_len(&pair) > 0, "the last entries are still open");
        seen.extend(consume(&pair, usize::MAX));
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn a_full_batch_moves_to_the_queue_whole() {
        let pair = Pair::default();
        let last = QUEUE_CHUNK as u32 - 1;
        (0..last).for_each(|i| pair.enqueue(entry(i, false)));
        let buffer = pair.open.entries.lock().batch.as_slices().0.as_ptr();
        pair.enqueue(entry(last, false));
        assert_eq!(open_len(&pair), 0);
        let inner = pair.inner.lock();
        assert_eq!(inner.queue.chunks.len(), 1, "the empty chunk was replaced");
        assert_eq!(inner.queue.chunks[0].len(), QUEUE_CHUNK);
        let moved = inner.queue.chunks[0].as_slices().0.as_ptr();
        assert_eq!(moved, buffer, "the batch's buffer became the chunk");
        assert_eq!(inner.master_ready, Some(entry(last, false).key));
    }

    #[test]
    fn a_dry_slave_pulls_the_open_batch_without_a_master_step() {
        let pair = Pair::default();
        (0..3).for_each(|i| pair.enqueue(entry(i, false)));
        {
            let inner = pair.inner.lock();
            assert!(inner.queue.front().is_none() && inner.master_ready.is_none());
        }
        let (inner, pull) = pair.pull(pair.inner.lock());
        assert!(matches!(pull, Pull::Refilled { pulled: true }));
        assert_eq!(inner.master_ready, Some(entry(2, false).key));
        drop(inner);
        assert_eq!(queued_sites(&pair), [0, 1, 2]);
        assert_eq!(open_len(&pair), 0);
        assert_eq!(consume(&pair, usize::MAX), [0, 1, 2]);
        let (_, pull) = pair.pull(pair.inner.lock());
        assert!(matches!(pull, Pull::Dry(_)));
    }

    #[test]
    fn master_ready_never_passes_an_unseen_entry() {
        let pair = Pair::default();
        for i in 0..2 * QUEUE_CHUNK as u32 + 50 {
            match i % 11 {
                // The slave parks, so the master hands over at its next step.
                3 => pair.slave_parked.store(true, Ordering::SeqCst),
                // A backedge between entries `i` and `i + 1`.
                5 => pair.publish(&key(2 * u64::from(i) + 1)),
                7 => drop(consume(&pair, 4)),
                _ => {}
            }
            pair.enqueue(entry(i, false));
            let open = pair.open.entries.lock();
            let inner = pair.inner.lock();
            if let Some(ready) = &inner.master_ready {
                for e in open.batch.iter() {
                    assert_eq!(ready.cmp_progress(&e.key), ProgressOrder::Behind, "at {i}");
                }
            }
        }
    }

    #[test]
    fn the_master_wakes_a_parked_slave_once() {
        let pair = Pair::default();
        pair.slave_parked.store(true, Ordering::SeqCst);
        pair.enqueue(entry(0, false));
        // The notifying handoff cleared the flag: later steps neither hand
        // over nor notify until the slave parks again.
        assert!(!pair.slave_parked.load(Ordering::SeqCst));
        pair.enqueue(entry(1, false));
        pair.publish(&key(3));
        assert_eq!(queued_sites(&pair), [0]);
        assert_eq!(open_len(&pair), 1);
        assert_eq!(pair.inner.lock().master_ready, Some(entry(0, false).key));
    }

    #[test]
    fn a_slave_that_parks_while_the_master_enqueues_is_released() {
        for i in 0..200u32 {
            let pair = Arc::new(Pair::default());
            let start = Arc::new(Barrier::new(2));
            let master = {
                let (pair, start) = (Arc::clone(&pair), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    // Enqueue at a varied moment around the slave's park.
                    for _ in 0..(i % 20) * 50 {
                        std::hint::spin_loop();
                    }
                    pair.enqueue(entry(0, false));
                })
            };
            let (tx, rx) = mpsc::channel();
            let slave = {
                let pair = Arc::clone(&pair);
                std::thread::spawn(move || {
                    start.wait();
                    let timeouts = wait_until(&pair, |inner| inner.queue.front().is_some());
                    tx.send(timeouts).expect("test is waiting");
                })
            };
            let released = rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(
                released,
                Ok(0),
                "iteration {i}: slave not released by the enqueue"
            );
            master.join().expect("master thread");
            slave.join().expect("slave thread");
        }
    }

    #[test]
    fn a_fresh_coupling_never_sees_a_stale_pair() {
        let t = ThreadKey::root();
        for _ in 0..8 {
            let c = Coupling::new(false);
            c.with_pair(&t, |p| {
                let inner = p.inner.lock();
                assert!(!inner.master_done);
                assert!(inner.queue.front().is_none());
            });
            c.with_pair(&t, |p| p.enqueue(entry(0, false)));
            c.finish_execution();
            c.with_pair(&t, |p| assert!(p.inner.lock().master_done));
        }
    }

    #[test]
    fn the_entry_queue_is_fifo_across_chunks_and_keeps_one_chunk() {
        let mut q = EntryQueue::default();
        let n = 2 * QUEUE_CHUNK as u32 + 3;
        for _ in 0..2 {
            (0..n).for_each(|i| q.push_back(entry(i, false)));
            assert_eq!(q.chunks.len(), 3);
            assert!(q.chunks.iter().all(|c| c.capacity() < 2 * QUEUE_CHUNK));
            for i in 0..n {
                assert_eq!(q.front().map(|e| e.site), Some(SiteId(i)));
                assert_eq!(q.pop_front().map(|e| e.site), Some(SiteId(i)));
            }
            assert!(q.front().is_none() && q.pop_front().is_none());
            assert_eq!(q.chunks.len(), 1, "a drained queue keeps its last chunk");
        }
        // Emptying and refilling one entry at a time stays in that chunk.
        let capacity = q.chunks[0].capacity();
        for i in 0..3 * QUEUE_CHUNK as u32 {
            q.push_back(entry(i, false));
            assert_eq!(q.pop_front().map(|e| e.site), Some(SiteId(i)));
            assert_eq!(q.chunks.len(), 1);
        }
        assert_eq!(q.chunks[0].capacity(), capacity);
    }

    #[test]
    fn queued_entries_stay_small() {
        // Every entry stays queued until the slave pops it, and a master
        // running ahead can queue thousands. The arguments are inline
        // (`MAX_ARITY` values), so an entry owns no heap block of its own:
        // 48 bytes of key, 48 of arguments, 24 of outcome, 24 of the rest.
        assert!(std::mem::size_of::<ProgressKey>() <= 48);
        assert!(std::mem::size_of::<Value>() <= 24);
        assert!(std::mem::size_of::<Entry>() <= 144);
    }

    #[test]
    fn every_syscalls_arguments_fit_inline() {
        for sys in Syscall::ALL {
            assert!(
                sys.arity() <= MAX_ARITY,
                "{sys:?} takes {} arguments",
                sys.arity()
            );
        }
        assert!(Syscall::ALL.iter().any(|sys| sys.arity() == MAX_ARITY));
        let ctx = SyscallCtx {
            thread: ThreadKey::root(),
            key: key(0),
            func: FuncId(0),
            site: SiteId(0),
            sys: Syscall::Open,
            stop: ldx_runtime::StopSignal::new(),
        };
        let args = [Value::str("/a"), Value::Int(2)];
        let e = Entry::new(&ctx, &args, Value::Int(0), 0, false);
        assert_eq!(e.args(), args);
        assert_eq!(e.args.len(), MAX_ARITY);
        let e = Entry::new(&ctx, &args[..1], Value::Int(0), 0, false);
        assert_eq!(e.args(), &args[..1]);
    }

    #[test]
    fn role_counters_live_on_separate_cache_lines() {
        let stats = CouplingStats::default();
        let master = &stats.master as *const MasterStats as usize;
        let slave = &stats.slave as *const SlaveStats as usize;
        assert!(master.abs_diff(slave) >= 128);
        assert_eq!(std::mem::align_of::<MasterStats>(), 128);
        assert_eq!(std::mem::align_of::<SlaveStats>(), 128);
    }

    #[test]
    fn pair_publish_and_finish() {
        let c = Coupling::new(false);
        let t = ThreadKey::root();
        let p = c.pair(&t);
        // Only a parked slave reads backedge progress: without one, a
        // publish leaves the pair untouched.
        p.publish(&ProgressKey::start());
        assert!(p.inner.lock().master_ready.is_none());
        p.slave_parked.store(true, Ordering::SeqCst);
        p.publish(&ProgressKey::start());
        assert!(p.inner.lock().master_ready.is_some());
        p.finish();
        let inner = p.inner.lock();
        assert!(inner.master_done);
        assert!(inner.master_ready.as_ref().unwrap().is_top());
    }

    #[test]
    fn pair_created_after_execution_end_is_released() {
        let c = Coupling::new(false);
        c.finish_execution();
        let p = c.pair(&ThreadKey::root().child(3));
        assert!(p.inner.lock().master_done);
    }

    #[test]
    fn finish_execution_releases_existing_pairs() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        assert!(!p.inner.lock().master_done);
        c.finish_execution();
        assert!(p.inner.lock().master_done);
    }

    #[test]
    fn taint_normalizes_paths() {
        let c = Coupling::new(false);
        c.taint_path("/a//b/");
        assert!(c.path_tainted("a/b"));
        assert!(!c.path_tainted("/a"));
    }

    fn sites(log: &[Entry]) -> Vec<u32> {
        log.iter().map(|e| e.site.0).collect()
    }

    #[test]
    fn a_logging_pair_keeps_every_entry_it_hands_over() {
        let c = Coupling {
            keep_logs: true,
            ..Coupling::new(false)
        };
        let t = ThreadKey::root();
        let n = QUEUE_CHUNK as u32 + 5;
        let all: Vec<u32> = (0..n).collect();
        c.with_pair(&t, |p| {
            (0..n).for_each(|i| p.enqueue(entry(i, false)));
            assert_eq!(consume(p, usize::MAX), all);
        });
        let logs = c.take_logs();
        assert_eq!(logs.len(), 1);
        assert_eq!(sites(&logs[0].1), all);
    }

    #[test]
    fn a_master_that_ran_alone_leaves_its_queues_as_its_logs() {
        let c = Coupling::new(false);
        let (root, child) = (ThreadKey::root(), ThreadKey::root().child(0));
        let n = QUEUE_CHUNK as u32 + 5;
        for t in [&child, &root] {
            c.with_pair(t, |p| (0..n).for_each(|i| p.enqueue(entry(i, false))));
        }
        c.finish_execution();
        let logs = c.take_logs();
        let threads: Vec<&ThreadKey> = logs.iter().map(|(t, _)| t).collect();
        assert_eq!(threads, [&root, &child], "in ThreadKey order");
        assert!(logs
            .iter()
            .all(|(_, log)| sites(log) == (0..n).collect::<Vec<_>>()));
    }

    #[test]
    fn a_replaying_coupling_starts_with_finished_pairs() {
        let root = ThreadKey::root();
        let log = vec![entry(0, false), entry(1, true)];
        let c = Coupling::replaying(false, FlightLog::default(), vec![(root.clone(), log)]);
        assert!(c.master_first);
        c.with_pair(&root, |p| {
            let inner = p.inner.lock();
            assert!(inner.master_done);
            assert!(inner.master_ready.as_ref().is_some_and(ProgressKey::is_top));
        });
        assert_eq!(queued_sites(&c.pair(&root)), [0, 1]);
        // A thread the recorded master never ran is done too.
        assert!(c.pair(&root.child(0)).inner.lock().master_done);
    }

    #[test]
    fn reconcile_counts_master_only_entries() {
        let c = Coupling::new(false);
        let p = c.pair(&ThreadKey::root());
        p.enqueue(entry(0, false));
        p.enqueue(entry(1, true));
        c.reconcile();
        assert_eq!(c.stats.slave.diffs.load(Ordering::Relaxed), 1);
        assert_eq!(c.records.lock().len(), 1);
    }

    #[test]
    fn reconcile_drains_the_queue_then_the_open_batch() {
        let c = Coupling::new(true);
        let p = c.pair(&ThreadKey::root());
        p.enqueue(entry(0, false));
        p.slave_parked.store(true, Ordering::SeqCst);
        p.enqueue(entry(1, false));
        p.enqueue(entry(2, true));
        p.enqueue(entry(3, false));
        assert_eq!((queued_sites(&p), open_len(&p)), (vec![0, 1], 2));
        c.reconcile();
        assert_eq!(c.stats.slave.diffs.load(Ordering::Relaxed), 3);
        assert_eq!(c.records.lock().len(), 1);
        let log = c.take_flight_log();
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
        assert_eq!(sites, [0, 1, 2, 3]);
        assert_eq!(open_len(&p), 0);
    }
}
