//! Shared coupling state between the master and slave executions.
//!
//! This is the runtime realization of paper §4.2: per thread-pair, the
//! master appends its syscall outcomes to a queue and publishes a *ready*
//! progress key; the slave consumes aligned outcomes, skips (and counts)
//! master-only entries, and decouples when no alignment can exist. The
//! channel runs one way, master → slave: the master also publishes its
//! progress at loop backedges (§5) while the slave is parked, and a
//! terminal key on thread exit, so the slave never blocks forever, and it
//! never waits for the slave.
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
    pub args: Vec<Value>,
    pub outcome: Value,
    pub is_sink: bool,
}

impl Entry {
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

/// Entries per chunk of an [`EntryQueue`]: 256 × 120 bytes is 30 KiB, well
/// below glibc's default 128 KiB mmap threshold.
const QUEUE_CHUNK: usize = 256;

/// The master's queued entries, in chunks of [`QUEUE_CHUNK`]. A master
/// running far ahead can queue thousands of entries; one growing
/// `VecDeque` asked for blocks of hundreds of KiB, and once glibc frees
/// such a block it raises its mmap threshold, so later ones come from the
/// thread's arena and stay resident (peak RSS rose with queue depth).
/// Chunks are freed as the slave drains them; the last one is kept, so a
/// queue that empties and refills at every syscall allocates nothing.
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

/// Mutable pair state (one per Lx thread pair), written by the master and
/// read by the slave.
#[derive(Debug, Default)]
pub(crate) struct PairInner {
    /// The master's progress as last published. It may lag the master,
    /// which only ever makes the slave wait longer, never decouple early.
    pub master_ready: Option<ProgressKey>,
    pub queue: EntryQueue,
    pub master_done: bool,
}

/// A thread pair's synchronization cell.
#[derive(Debug, Default)]
pub(crate) struct Pair {
    pub inner: Mutex<PairInner>,
    pub cv: Condvar,
    /// Set by the slave, while it holds `inner`, for the duration of a
    /// condvar wait. The master publishes backedge progress and notifies
    /// only while it is set. The flag guards no data (the lock orders
    /// every `PairInner` access); a publish that misses it delays the
    /// slave until the master's next backedge, enqueue or thread exit,
    /// since a timed wait that returns re-reads the same stale
    /// `master_ready` and parks again (`MAX_WAIT` is the backstop).
    pub slave_parked: AtomicBool,
}

impl Pair {
    /// Queues a master outcome, publishes its key as ready, and wakes the
    /// slave if it is parked.
    pub fn enqueue(&self, entry: Entry) {
        let mut inner = self.inner.lock();
        inner.master_ready = Some(entry.key.clone());
        inner.queue.push_back(entry);
        self.wake_parked(inner);
    }

    /// Publishes the master's progress to a parked slave and wakes it.
    /// While the slave is not parked this neither locks nor clones: the
    /// slave reads `master_ready` only once its queue is empty, and then
    /// it parks before waiting.
    pub fn publish(&self, key: &ProgressKey) {
        if !self.slave_parked.load(Ordering::SeqCst) {
            return;
        }
        let mut inner = self.inner.lock();
        inner.master_ready = Some(key.clone());
        self.wake_parked(inner);
    }

    /// Releases the pair lock, then notifies if the slave was parked when
    /// the update was made. The slave sets the flag under the same lock
    /// before it waits, so a wakeup cannot be lost.
    fn wake_parked(&self, inner: MutexGuard<'_, PairInner>) {
        let parked = self.slave_parked.load(Ordering::SeqCst);
        drop(inner);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Marks the master's thread as finished (terminal progress).
    pub fn finish(&self) {
        let mut inner = self.inner.lock();
        inner.master_done = true;
        inner.master_ready = Some(ProgressKey::top());
        drop(inner);
        self.cv.notify_all();
    }
}

/// Counters of one dual execution, written only by [`Coupling::emit`].
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
}

/// Source of [`Coupling`] ids. Ids are never reused, so a pair handle
/// cached for one dual execution is never returned to another, even one
/// whose `Coupling` lands at the same address.
static NEXT_COUPLING_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The pair this OS thread resolved last: `(coupling id, Lx thread,
    /// pair)`. Every Lx thread runs on its own OS thread, so after its
    /// first syscall each role finds its pair here without touching the
    /// shared map or the pair's reference count.
    static CACHED_PAIR: RefCell<Option<(u64, ThreadKey, Arc<Pair>)>> =
        const { RefCell::new(None) };
}

/// All shared state of one dual execution.
pub(crate) struct Coupling {
    id: u64,
    pairs: Mutex<HashMap<ThreadKey, Arc<Pair>>>,
    pub master_exec_done: AtomicBool,
    /// The slave starts only once the master has finished (the one-thread
    /// schedule), so it must never wait for it.
    pub master_first: bool,
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
            records: Mutex::new(Vec::new()),
            stats: CouplingStats::default(),
            tainted_paths: Mutex::new(HashSet::new()),
            tainted_locks: Mutex::new(HashSet::new()),
            recorder: record.then(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
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

    /// Runs `f` on the pair cell for thread `t`. The calling OS thread
    /// caches the pair it resolved last, so a role resolves its thread's
    /// pair once per run. `f` must not resolve another pair.
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
        let p = Arc::new(Pair::default());
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

    /// Drains every unconsumed master entry at the end of the run:
    /// master-only syscall differences, including master-only sinks.
    /// Pairs are drained in `ThreadKey` order so records and flight
    /// events land deterministically.
    pub fn reconcile(&self) {
        let pairs = self.pairs.lock();
        let mut ordered: Vec<(&ThreadKey, &Arc<Pair>)> = pairs.iter().collect();
        ordered.sort_by(|a, b| a.0.cmp(b.0));
        for (thread, pair) in ordered {
            let mut inner = pair.inner.lock();
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
    use std::sync::mpsc;

    fn entry(site: u32, is_sink: bool) -> Entry {
        Entry {
            key: ProgressKey::start(),
            version: 0,
            func: FuncId(0),
            site: SiteId(site),
            sys: if is_sink {
                Syscall::Send
            } else {
                Syscall::Read
            },
            args: vec![],
            outcome: Value::Int(0),
            is_sink,
        }
    }

    /// Parks a waiter on `pair` the way the slave does, but without the
    /// timed wait, so only a notification can release it; runs `wake` once
    /// the waiter is parked and fails (instead of hanging) if the waiter
    /// is not released within 5 s.
    fn released_by(what: &str, wake: impl FnOnce(&Pair)) {
        let pair = Arc::new(Pair::default());
        let (tx, rx) = mpsc::channel();
        let waiter = Arc::clone(&pair);
        std::thread::spawn(move || {
            let mut inner = waiter.inner.lock();
            while inner.master_ready.is_none() {
                waiter.slave_parked.store(true, Ordering::SeqCst);
                waiter.cv.wait(&mut inner);
                waiter.slave_parked.store(false, Ordering::SeqCst);
            }
            tx.send(()).expect("test is waiting");
        });
        while !pair.slave_parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        wake(&pair);
        assert!(
            rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "{what} lost the wakeup of a parked slave"
        );
        assert!(!pair.slave_parked.load(Ordering::SeqCst));
    }

    #[test]
    fn every_master_update_wakes_a_parked_slave() {
        released_by("publish", |p| p.publish(&ProgressKey::start()));
        released_by("enqueue", |p| p.enqueue(entry(0, false)));
        released_by("finish", Pair::finish);
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
        // running ahead can queue thousands.
        assert!(std::mem::size_of::<ProgressKey>() <= 64);
        assert!(std::mem::size_of::<Entry>() <= 128);
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
}
