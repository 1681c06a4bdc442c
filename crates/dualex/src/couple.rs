//! The master → slave log protocol.
//!
//! This is the runtime realization of paper §4.2: the master records each
//! syscall outcome once, in an append-only log per Lx thread, and every
//! slave reads that log through a cursor of its own. A slave consumes
//! aligned outcomes, skips (and counts) master-only entries, and decouples
//! when no alignment can exist. The channel runs one way, master → slave:
//! the master also publishes its progress at loop backedges (§5) while a
//! slave is parked, and a terminal key on thread exit, so a slave never
//! blocks forever, and the master never waits for a slave.
//!
//! A log is a chain of chunks of [`CHUNK`] slots, each written once. The
//! master writes a slot, then reads every reader's `parked` flag; a slave at
//! the end of the log sets its flag, then reads the slot (a fence on each
//! side), so either the slave sees the entry or the master sees the slave
//! parked and wakes it. It wakes a parked slave once per park: it clears
//! the flags when it notifies, and a slave that does not wait (its re-check
//! found an entry, or its wait timed out) clears its own. A slave takes no
//! lock the master takes while entries are there. `master_ready` moves
//! only when the master wakes a slave (to the key of the entry or backedge
//! that woke it) or its thread exits, and a slave reads it under the log's
//! lock after the slots, so it never names a key past an entry the slave
//! cannot see.
//!
//! A chunk is freed once every cursor has passed it. A master run with no
//! slave is a recording: its logs have no cursor and keep their heads, so
//! no chunk is freed. A replay is a fresh set of cursors on those heads
//! ([`MasterLogs::replaying`]); no entry is copied.
//!
//! What a slave makes of the entries (its counters, taint sets, causality
//! records and flight recorder) is its own, in `dualex::slave`; the
//! master's own facts are in `dualex::master`.

use ldx_ir::{FuncId, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::{ProgressKey, SyscallCtx, ThreadKey, Value};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// One master syscall outcome, logged for the slaves.
#[derive(Debug)]
pub(crate) struct Entry {
    pub key: ProgressKey,
    /// The version of the master's world this syscall left behind (0 for
    /// control syscalls, which do not touch the world): once the slave
    /// consumes the entry, its clones see the master at least this far.
    pub version: u64,
    pub func: FuncId,
    pub site: SiteId,
    pub sys: Syscall,
    /// The arguments, inline (see [`Entry::args`]), so logging an
    /// outcome allocates nothing per entry.
    args: [Value; Syscall::MAX_ARITY],
    arity: u8,
    pub outcome: Value,
    pub is_sink: bool,
}

impl Entry {
    /// The outcome of the syscall `ctx` issued with `args` (at most
    /// [`Syscall::MAX_ARITY`] of them: the compiler checks every syscall's arity).
    pub fn new(
        ctx: &SyscallCtx,
        args: &[Value],
        outcome: Value,
        version: u64,
        is_sink: bool,
    ) -> Self {
        assert!(
            args.len() <= Syscall::MAX_ARITY,
            "more syscall arguments than Syscall::MAX_ARITY"
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

    /// The outcome, for a slave to own. A string is copied rather than
    /// shared: bumping the master's reference count from the slave's
    /// thread moves a cache line between the cores at every shared read.
    pub fn outcome(&self) -> Value {
        match &self.outcome {
            Value::Str(s) => Value::str(&**s),
            other => other.clone(),
        }
    }

    pub fn args(&self) -> &[Value] {
        &self.args[..usize::from(self.arity)]
    }
}

/// Slots per chunk of a [`ThreadLog`]: 256 × 152 bytes is 38 KiB, well
/// below glibc's default 128 KiB mmap threshold. A master running far ahead
/// logs thousands of entries; one growing buffer asked for blocks of
/// hundreds of KiB, and once glibc frees such a block it raises its mmap
/// threshold, so later ones come from the thread's arena and stay resident.
const CHUNK: usize = 256;

/// A run of log slots, each written once by the master, and the link to
/// the next run.
pub(crate) struct Chunk {
    slots: Box<[OnceLock<Entry>]>,
    next: OnceLock<Arc<Chunk>>,
}

impl Chunk {
    /// A chunk of `len` empty slots.
    fn new(len: usize) -> Arc<Self> {
        Arc::new(Chunk {
            slots: (0..len).map(|_| OnceLock::new()).collect(),
            next: OnceLock::new(),
        })
    }
}

impl Drop for Chunk {
    /// Unlinks the chunks behind this one in a loop, each while it held the
    /// only reference to the next: dropping `next` in place would recurse
    /// once per chunk, and a long log would overflow the stack.
    fn drop(&mut self) {
        let mut next = self.next.take();
        while let Some(mut chunk) = next.and_then(Arc::into_inner) {
            next = chunk.next.take();
        }
    }
}

/// A reader's position in a [`ThreadLog`]. Holding its chunk keeps that
/// chunk and every later one alive; passing a chunk frees it, unless
/// another cursor or a recording still holds it. Each cursor sits on cache
/// lines of its own, so k slaves reading one log never contend.
#[repr(align(128))]
pub(crate) struct Cursor {
    chunk: Arc<Chunk>,
    index: usize,
}

impl Cursor {
    /// The next entry, if the master has logged it.
    pub fn peek(&mut self) -> Option<&Entry> {
        if self.index == self.chunk.slots.len() {
            let next = Arc::clone(self.chunk.next.get()?);
            self.chunk = next;
            self.index = 0;
        }
        self.chunk.slots[self.index].get()
    }

    /// Takes the next entry, if the master has logged it.
    pub fn pop(&mut self) -> Option<&Entry> {
        self.peek()?;
        self.index += 1;
        self.chunk.slots[self.index - 1].get()
    }
}

/// What the master published to its slaves, under the log's lock.
#[derive(Debug, Default)]
pub(crate) struct Published {
    /// The master's progress as last published to a parked slave: the key
    /// of the entry or backedge that woke it (terminal at thread exit). It
    /// may lag the master, which only ever makes a slave wait longer, never
    /// decouple early.
    pub master_ready: Option<ProgressKey>,
    pub done: bool,
}

/// The position the master writes next in its log, on cache lines of its
/// own, so the master's appends touch no line a slave reads.
#[repr(align(128))]
struct Tail {
    chunk: Arc<Chunk>,
    len: usize,
}

/// One Lx thread's master log: its chunks, written only by the master, a
/// cursor and a park flag per reader, and what the master published.
pub(crate) struct ThreadLog {
    /// Locked only by the master (a replayed log's is never written).
    tail: Mutex<Tail>,
    /// One per reader: per live slave, or the one replayed slave.
    readers: Box<[Reader]>,
    pub published: Mutex<Published>,
    cv: Condvar,
}

/// One reader of a [`ThreadLog`]: its cursor, and its park flag, which
/// lies outside the cursor's cache lines so that the master's reads of it
/// never pull in the line a reading slave writes.
struct Reader {
    cursor: Mutex<Cursor>,
    /// Set by the slave at the end of the log before it waits, under the
    /// log's lock, and cleared by the master when it notifies, so it wakes
    /// a slave once per park. The slave clears it itself under the lock when
    /// it does not wait (its re-check found an entry) or its wait timed out,
    /// so the master's next step takes no lock for it. A backedge publish
    /// reads the flag without a lock; one that misses it delays the slave
    /// until the master's next append, backedge or thread exit, since a
    /// timed wait that returns finds no new entry and the same stale
    /// `master_ready` and parks again (`MAX_WAIT` is the backstop).
    parked: AtomicBool,
}

impl ThreadLog {
    /// A log starting at `head`, with `readers` cursors there.
    fn new(head: Arc<Chunk>, readers: usize) -> Self {
        let reader = || Reader {
            cursor: Mutex::new(Cursor {
                chunk: Arc::clone(&head),
                index: 0,
            }),
            parked: AtomicBool::new(false),
        };
        ThreadLog {
            readers: (0..readers).map(|_| reader()).collect(),
            tail: Mutex::new(Tail {
                chunk: Arc::clone(&head),
                len: 0,
            }),
            published: Mutex::default(),
            cv: Condvar::new(),
        }
    }

    /// Reader `reader`'s cursor. Only that reader's slave takes this lock
    /// while the run lasts, so it is never contended.
    pub fn cursor(&self, reader: usize) -> MutexGuard<'_, Cursor> {
        self.readers[reader].cursor.lock()
    }

    /// Whether any reader is parked.
    fn any_parked(&self, order: Ordering) -> bool {
        self.readers.iter().any(|r| r.parked.load(order))
    }

    /// Master: logs an outcome, and wakes a parked slave, publishing the
    /// outcome's key as its progress.
    pub fn append(&self, entry: Entry) {
        let mut tail = self.tail.lock();
        if tail.len == tail.chunk.slots.len() {
            let next = Chunk::new(CHUNK);
            assert!(tail.chunk.next.set(Arc::clone(&next)).is_ok());
            *tail = Tail {
                chunk: next,
                len: 0,
            };
        }
        let slot = &tail.chunk.slots[tail.len];
        assert!(slot.set(entry).is_ok(), "the master writes each slot once");
        // The slot write before the flag read. This SeqCst fence pairs with
        // the one in [`ThreadLog::park`], between a parking slave's flag
        // write and its slot read: one of the two sides sees the other's
        // write, so a parked slave is never left unwoken.
        fence(Ordering::SeqCst);
        if self.any_parked(Ordering::Relaxed) {
            let mut published = self.published.lock();
            published.master_ready = slot.get().map(|e| e.key.clone());
            self.wake(published);
        }
        tail.len += 1;
    }

    /// Master: publishes backedge progress to a parked slave, and wakes
    /// it. While no slave is parked this neither locks nor clones: a slave
    /// reads `master_ready` only at the end of the log, and then it parks
    /// before waiting.
    pub fn publish(&self, key: &ProgressKey) {
        if !self.any_parked(Ordering::SeqCst) {
            return;
        }
        let mut published = self.published.lock();
        published.master_ready = Some(key.clone());
        self.wake(published);
    }

    /// Master: its thread finished (terminal progress).
    pub fn finish(&self) {
        let mut published = self.published.lock();
        published.done = true;
        published.master_ready = Some(ProgressKey::top());
        for reader in &self.readers {
            reader.parked.store(false, Ordering::SeqCst);
        }
        drop(published);
        self.cv.notify_all();
    }

    /// Releases the log's lock, then notifies if a slave is parked,
    /// clearing every flag so the next append does not notify again.
    fn wake(&self, published: MutexGuard<'_, Published>) {
        let parked = self.readers.iter().fold(false, |any, reader| {
            reader.parked.swap(false, Ordering::SeqCst) | any
        });
        drop(published);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Slave `reader`, at the end of `cursor` and holding the log's lock:
    /// waits up to `timeout` unless an entry landed in the meantime.
    /// Returns whether the wait timed out rather than being notified. Its
    /// flag is clear on return.
    pub fn park(
        &self,
        reader: usize,
        published: &mut MutexGuard<'_, Published>,
        cursor: &mut Cursor,
        timeout: Duration,
    ) -> bool {
        let parked = &self.readers[reader].parked;
        parked.store(true, Ordering::Relaxed);
        // Pairs with the fence in [`ThreadLog::append`].
        fence(Ordering::SeqCst);
        let timed_out = cursor.peek().is_none() && self.cv.wait_for(published, timeout).timed_out();
        parked.store(false, Ordering::Relaxed);
        timed_out
    }
}

/// Source of [`MasterLogs`] ids. Ids are never reused, so a log cached for
/// one dual execution is never returned to another, even one whose logs
/// land at the same address.
static NEXT_LOGS_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The log this OS thread resolved last, as a master or as a slave:
    /// `(logs id, Lx thread, log)`. Every Lx thread runs on its own OS
    /// thread, so after its first syscall either role finds its log here
    /// without touching the shared map or the log's reference count.
    static CACHED_LOG: RefCell<Option<(u64, ThreadKey, Arc<ThreadLog>)>> =
        const { RefCell::new(None) };
}

/// A recorded master's logs: each Lx thread's first chunk, in `ThreadKey`
/// order.
pub(crate) type Heads = Vec<(ThreadKey, Arc<Chunk>)>;

/// Every Lx thread's log of one master run.
pub(crate) struct MasterLogs {
    id: u64,
    /// Cursors per log: one per live slave, or the one replayed slave.
    readers: usize,
    /// Each log's first chunk, when no slave reads the run (a recording).
    heads: Option<Mutex<Heads>>,
    logs: Mutex<HashMap<ThreadKey, Arc<ThreadLog>>>,
    /// The whole master execution finished.
    done: AtomicBool,
}

impl MasterLogs {
    /// Logs for `readers` slaves; with none, every log keeps its head, for
    /// a recording.
    pub fn new(readers: usize) -> Self {
        MasterLogs {
            id: NEXT_LOGS_ID.fetch_add(1, Ordering::Relaxed),
            readers,
            heads: (readers == 0).then(Mutex::default),
            logs: Mutex::default(),
            done: AtomicBool::new(false),
        }
    }

    /// Fresh cursors, for one slave, on a recorded master's logs.
    pub fn replaying(heads: &Heads) -> Self {
        let logs = heads.iter().map(|(thread, head)| {
            let log = ThreadLog::new(Arc::clone(head), 1);
            log.finish();
            (thread.clone(), Arc::new(log))
        });
        MasterLogs {
            logs: Mutex::new(logs.collect()),
            done: AtomicBool::new(true),
            ..MasterLogs::new(1)
        }
    }

    /// Runs `f` on thread `t`'s log, resolved once per Lx thread (see
    /// `CACHED_LOG`). `f` must not resolve another log.
    pub fn with_log<R>(&self, t: &ThreadKey, f: impl FnOnce(&ThreadLog) -> R) -> R {
        CACHED_LOG.with(|slot| {
            let hit = matches!(&*slot.borrow(), Some((id, key, _)) if *id == self.id && key == t);
            if !hit {
                slot.replace(Some((self.id, t.clone(), self.log(t))));
            }
            f(&slot.borrow().as_ref().expect("log cached above").2)
        })
    }

    /// Thread `t`'s log, created on first use by either side.
    fn log(&self, t: &ThreadKey) -> Arc<ThreadLog> {
        let mut logs = self.logs.lock();
        if let Some(log) = logs.get(t) {
            return Arc::clone(log);
        }
        let head = Chunk::new(CHUNK);
        if let Some(heads) = &self.heads {
            heads.lock().push((t.clone(), Arc::clone(&head)));
        }
        let log = Arc::new(ThreadLog::new(head, self.readers));
        // If the master execution already finished, threads it never
        // spawned must not be waited for.
        if self.done.load(Ordering::SeqCst) {
            log.finish();
        }
        logs.insert(t.clone(), Arc::clone(&log));
        log
    }

    /// Every log, in `ThreadKey` order.
    pub fn sorted(&self) -> Vec<(ThreadKey, Arc<ThreadLog>)> {
        let logs = self.logs.lock();
        let mut sorted: Vec<_> = logs
            .iter()
            .map(|(t, l)| (t.clone(), Arc::clone(l)))
            .collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        sorted
    }

    /// The kept heads, for a recording (empty if a slave read the logs).
    pub fn heads(&self) -> Heads {
        let mut heads = self
            .heads
            .as_ref()
            .map(|h| h.lock().clone())
            .unwrap_or_default();
        heads.sort_by(|a, b| a.0.cmp(&b.0));
        heads
    }

    /// Master: thread `t` finished. Publishes terminal progress and drops
    /// this OS thread's cached log.
    pub fn finish_thread(&self, t: &ThreadKey) {
        self.with_log(t, ThreadLog::finish);
        CACHED_LOG.with(|slot| slot.replace(None));
    }

    /// Master: the whole execution finished, releasing every waiter.
    pub fn finish_execution(&self) {
        self.done.store(true, Ordering::SeqCst);
        for log in self.logs.lock().values() {
            log.finish();
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

    /// A log of one reader.
    fn fresh_log() -> Arc<ThreadLog> {
        Arc::new(ThreadLog::new(Chunk::new(CHUNK), 1))
    }

    fn append_sites(log: &ThreadLog, sites: std::ops::Range<u32>) {
        sites.for_each(|i| log.append(entry(i, false)));
    }

    /// Reads up to `n` entries through reader 0's cursor, never parking.
    /// Returns the sites read, in order.
    fn consume(log: &ThreadLog, n: usize) -> Vec<u32> {
        let mut cursor = log.cursor(0);
        std::iter::from_fn(|| cursor.pop().map(|e| e.site.0))
            .take(n)
            .collect()
    }

    /// The sites a fresh cursor at `head` reads.
    fn sites_from(head: &Arc<Chunk>) -> Vec<u32> {
        let mut cursor = Cursor {
            chunk: Arc::clone(head),
            index: 0,
        };
        std::iter::from_fn(|| cursor.pop().map(|e| e.site.0)).collect()
    }

    /// Reads `log` through cursor `reader` the way a slave does: hands
    /// `each` every entry the cursor reaches, and parks at the end of the
    /// log, until `released` holds of what the master published and how
    /// many entries were read. Each park waits up to 5 s, so only a
    /// notification ends it in time. Returns how many parks timed out.
    fn read_until(
        log: &ThreadLog,
        reader: usize,
        released: impl Fn(&Published, usize) -> bool,
        mut each: impl FnMut(&Entry),
    ) -> u32 {
        let (mut timeouts, mut read) = (0, 0);
        let mut cursor = log.cursor(reader);
        loop {
            while let Some(e) = cursor.pop() {
                each(e);
                read += 1;
            }
            let mut published = log.published.lock();
            if cursor.peek().is_some() {
                continue;
            }
            if released(&published, read) {
                return timeouts;
            }
            let timed_out = log.park(reader, &mut published, &mut cursor, Duration::from_secs(5));
            timeouts += u32::from(timed_out);
        }
    }

    /// Parks a slave on `log` until `released` holds, and runs `wake` once
    /// it is parked; fails (instead of hanging) if the slave is not
    /// released by a notification.
    fn released_by(
        what: &str,
        log: Arc<ThreadLog>,
        released: impl Fn(&Published, usize) -> bool + Send + 'static,
        wake: impl FnOnce(&ThreadLog),
    ) {
        let (tx, rx) = mpsc::channel();
        let slave = Arc::clone(&log);
        let slave = std::thread::spawn(move || {
            let timeouts = read_until(&slave, 0, released, |_| {});
            tx.send(timeouts).expect("test is waiting");
        });
        wait_parked(&log, 0);
        wake(&log);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(0),
            "{what} lost the wakeup of a parked slave"
        );
        slave.join().expect("slave thread");
        assert!(!parked(&log, 0));
    }

    /// Whether reader `reader` of `log` is parked.
    fn parked(log: &ThreadLog, reader: usize) -> bool {
        log.readers[reader].parked.load(Ordering::SeqCst)
    }

    /// Marks reader `reader` of `log` parked, as a slave does before it
    /// waits.
    fn set_parked(log: &ThreadLog, reader: usize) {
        log.readers[reader].parked.store(true, Ordering::SeqCst);
    }

    /// Returns once reader `reader` of `log` is parked.
    fn wait_parked(log: &ThreadLog, reader: usize) {
        while !parked(log, reader) {
            std::thread::yield_now();
        }
    }

    /// Whether the master has published progress at or past `key`.
    fn ready_at(published: &Published, key: &ProgressKey) -> bool {
        let ready = published.master_ready.as_ref();
        ready.is_some_and(|r| r.cmp_progress(key) != ProgressOrder::Behind)
    }

    #[test]
    fn every_master_update_wakes_a_parked_slave() {
        released_by(
            "append",
            fresh_log(),
            |_, read| read > 0,
            |log| log.append(entry(0, false)),
        );
        released_by("finish", fresh_log(), |p, _| p.done, ThreadLog::finish);
        // A backedge publish with nothing logged: the slave waits out a
        // syscall-free loop on `master_ready` alone.
        released_by(
            "empty publish",
            fresh_log(),
            |p, _| ready_at(p, &key(1)),
            |log| log.publish(&key(1)),
        );
        // A slave that read the master's entries waits on the backedge
        // after them.
        let log = fresh_log();
        append_sites(&log, 0..3);
        released_by(
            "publish",
            log,
            |p, read| read == 3 && ready_at(p, &key(5)),
            |log| log.publish(&key(5)),
        );
    }

    #[test]
    fn entries_stay_fifo_across_chunks() {
        let log = fresh_log();
        let n = 3 * CHUNK as u32 + 10;
        let mut seen = Vec::new();
        for i in 0..n {
            log.append(entry(i, false));
            if i % 89 == 0 {
                // The slave parked: the next append wakes it.
                set_parked(&log, 0);
            }
            if i % 300 == 299 {
                seen.extend(consume(&log, 40));
            }
        }
        seen.extend(consume(&log, usize::MAX));
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn a_full_chunk_links_a_fresh_one() {
        let log = fresh_log();
        append_sites(&log, 0..CHUNK as u32);
        let first = Arc::clone(&log.tail.lock().chunk);
        assert!(first.next.get().is_none(), "a chunk fills before it links");
        log.append(entry(CHUNK as u32, false));
        let tail = log.tail.lock();
        assert!(Arc::ptr_eq(first.next.get().expect("linked"), &tail.chunk));
        assert_eq!(tail.len, 1);
        drop(tail);
        assert_eq!(consume(&log, usize::MAX).len(), CHUNK + 1);
    }

    #[test]
    fn a_slave_reads_each_entry_without_a_master_step() {
        let log = fresh_log();
        append_sites(&log, 0..3);
        assert!(log.published.lock().master_ready.is_none());
        assert_eq!(consume(&log, usize::MAX), [0, 1, 2]);
        assert!(log.cursor(0).peek().is_none());
    }

    #[test]
    fn master_ready_never_passes_an_unseen_entry() {
        // Reader 0 reads like a slave; reader 1 checks what a slave can see.
        let log = ThreadLog::new(Chunk::new(CHUNK), 2);
        let mut visible = 0;
        for i in 0..2 * CHUNK as u32 + 50 {
            match i % 11 {
                // A slave parks, and the master passes the backedge between
                // entries `i - 1` and `i`.
                5 => {
                    set_parked(&log, 0);
                    log.publish(&key(2 * u64::from(i) - 1));
                }
                7 => drop(consume(&log, 4)),
                _ => {}
            }
            log.append(entry(i, false));
            let mut cursor = log.cursor(1);
            while cursor.pop().is_some() {
                visible += 1;
            }
            assert_eq!(visible, i + 1, "entry {i} is visible once logged");
            if let Some(ready) = &log.published.lock().master_ready {
                // The next entry the master logs is still ahead of it.
                let unseen = key(2 * u64::from(i + 1));
                assert_eq!(ready.cmp_progress(&unseen), ProgressOrder::Behind, "at {i}");
            }
        }
    }

    #[test]
    fn the_master_wakes_a_parked_slave_once() {
        let log = fresh_log();
        set_parked(&log, 0);
        log.append(entry(0, false));
        // The notifying append cleared the flag: later steps neither lock
        // nor notify until a slave parks again.
        assert!(!parked(&log, 0));
        log.append(entry(1, false));
        log.publish(&key(3));
        assert_eq!(log.published.lock().master_ready, Some(entry(0, false).key));
        assert_eq!(consume(&log, usize::MAX), [0, 1]);
    }

    #[test]
    fn a_slave_that_parks_while_the_master_enqueues_is_released() {
        for i in 0..200u32 {
            let log = fresh_log();
            let start = Arc::new(Barrier::new(2));
            let master = {
                let (log, start) = (Arc::clone(&log), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    // Append at a varied moment around the slave's park.
                    for _ in 0..(i % 20) * 50 {
                        std::hint::spin_loop();
                    }
                    log.append(entry(0, false));
                })
            };
            let (tx, rx) = mpsc::channel();
            let slave = {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    start.wait();
                    let timeouts = read_until(&log, 0, |_, read| read > 0, |_| {});
                    tx.send(timeouts).expect("test is waiting");
                })
            };
            let released = rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(
                released,
                Ok(0),
                "iteration {i}: slave not released by the append"
            );
            master.join().expect("master thread");
            slave.join().expect("slave thread");
        }
    }

    #[test]
    fn a_slave_caught_up_at_every_append_is_woken_by_it() {
        // Ping-pong: the master appends one entry, then waits until the
        // slave has read it, so every round races the slave's park at the
        // end of the log against an append, at a varied moment. A lost
        // wakeup shows as a round the slave sleeps through: a later append
        // would hide it, so the master gives up instead.
        let log = fresh_log();
        let read = Arc::new(AtomicU64::new(0));
        let slave = {
            let (log, read) = (Arc::clone(&log), Arc::clone(&read));
            std::thread::spawn(move || {
                read_until(
                    &log,
                    0,
                    |p, _| p.done,
                    |_| {
                        read.fetch_add(1, Ordering::SeqCst);
                    },
                )
            })
        };
        let mut stalled = None;
        for i in 0..30_000u32 {
            for _ in 0..i % 32 {
                std::hint::spin_loop();
            }
            log.append(entry(i, false));
            let deadline = std::time::Instant::now() + Duration::from_secs(4);
            while read.load(Ordering::SeqCst) <= u64::from(i) {
                if std::time::Instant::now() > deadline {
                    stalled = Some(i);
                    break;
                }
                std::thread::yield_now();
            }
            if stalled.is_some() {
                break;
            }
        }
        log.finish();
        let timeouts = slave.join().expect("slave thread");
        assert_eq!(stalled, None, "the slave slept through an append");
        assert_eq!(timeouts, 0);
    }

    #[test]
    fn two_cursors_at_different_speeds_each_see_every_entry_in_order() {
        let logs = Arc::new(MasterLogs::new(2));
        let n = 3 * CHUNK as u32 + 7;
        let readers: Vec<_> = (0..2)
            .map(|reader| {
                let logs = Arc::clone(&logs);
                std::thread::spawn(move || {
                    let mut sites = Vec::new();
                    let timeouts = logs.with_log(&ThreadKey::root(), |log| {
                        let done = |p: &Published, _| p.done;
                        read_until(log, reader, done, |e| {
                            sites.push(e.site.0);
                            // Reader 1 lags, so the two part ways.
                            if reader == 1 && e.site.0 % 16 == 0 {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                        })
                    });
                    (sites, timeouts)
                })
            })
            .collect();
        logs.with_log(&ThreadKey::root(), |log| {
            for i in 0..n {
                log.append(entry(i, false));
                if i % 64 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        logs.finish_thread(&ThreadKey::root());
        for reader in readers {
            let (sites, timeouts) = reader.join().expect("reader thread");
            assert_eq!(sites, (0..n).collect::<Vec<_>>());
            assert_eq!(timeouts, 0);
        }
    }

    #[test]
    fn a_drained_chunk_is_freed_unless_a_recording_holds_the_head() {
        let logs = MasterLogs::new(1);
        let t = ThreadKey::root();
        let first = logs.with_log(&t, |log| {
            append_sites(log, 0..CHUNK as u32 + 1);
            Arc::downgrade(&log.cursor(0).chunk)
        });
        assert!(first.upgrade().is_some(), "unread, so held by the cursor");
        logs.with_log(&t, |log| consume(log, CHUNK + 1));
        assert!(first.upgrade().is_none(), "read, so freed");
        // Logs no slave reads are a recording's: their heads hold them.
        let logs = MasterLogs::new(0);
        let first = logs.with_log(&t, |log| {
            let first = Arc::downgrade(&log.tail.lock().chunk);
            append_sites(log, 0..CHUNK as u32 + 1);
            first
        });
        assert!(
            first.upgrade().is_some(),
            "passed by the tail, held by the head"
        );
    }

    #[test]
    fn a_long_chain_of_chunks_drops_on_a_small_stack() {
        let dropped = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let head = Chunk::new(0);
                let mut tail = Arc::clone(&head);
                for _ in 0..100_000 {
                    let next = Chunk::new(0);
                    assert!(tail.next.set(Arc::clone(&next)).is_ok());
                    tail = next;
                }
                let last = Arc::downgrade(&tail);
                drop(tail);
                drop(head);
                last.upgrade().is_none()
            })
            .expect("spawn a thread")
            .join();
        assert_eq!(dropped.ok(), Some(true));
    }

    #[test]
    fn fresh_logs_never_see_a_stale_log() {
        let t = ThreadKey::root();
        for _ in 0..8 {
            let logs = MasterLogs::new(1);
            logs.with_log(&t, |log| {
                assert!(!log.published.lock().done);
                assert!(log.cursor(0).peek().is_none());
            });
            logs.with_log(&t, |log| log.append(entry(0, false)));
            logs.finish_execution();
            logs.with_log(&t, |log| assert!(log.published.lock().done));
        }
    }

    #[test]
    fn logged_entries_stay_small() {
        // Every entry stays logged until the last cursor passes its chunk,
        // and a master running ahead can log thousands. The arguments are
        // inline (`Syscall::MAX_ARITY` values), so an entry owns no heap block of
        // its own: 48 bytes of key, 48 of arguments, 24 of outcome, 24 of
        // the rest, and a slot adds its 8-byte once-flag.
        assert!(std::mem::size_of::<ProgressKey>() <= 48);
        assert!(std::mem::size_of::<Value>() <= 24);
        assert!(std::mem::size_of::<Entry>() <= 144);
        assert!(std::mem::size_of::<OnceLock<Entry>>() <= 152);
    }

    #[test]
    fn a_park_flag_lies_off_its_cursors_cache_lines() {
        // The master reads every reader's flag at each append; a reading
        // slave writes its cursor at each entry.
        let log = fresh_log();
        let reader = &log.readers[0];
        let cursor = &reader.cursor as *const Mutex<Cursor> as usize;
        let flag = &reader.parked as *const AtomicBool as usize;
        let lines = cursor..cursor + std::mem::size_of::<Mutex<Cursor>>();
        assert!(!lines.contains(&flag));
        assert_eq!(cursor % 128, 0);
        assert_eq!(lines.len() % 128, 0);
    }

    #[test]
    fn every_syscalls_arguments_fit_inline() {
        let ctx = SyscallCtx {
            thread: &ThreadKey::root(),
            key: key(0),
            func: FuncId(0),
            site: SiteId(0),
            sys: Syscall::Open,
            stop: &ldx_runtime::StopSignal::new(),
        };
        let args = [Value::str("/a"), Value::Int(2)];
        let e = Entry::new(&ctx, &args, Value::Int(0), 0, false);
        assert_eq!(e.args(), args);
        assert_eq!(e.args.len(), Syscall::MAX_ARITY);
        let e = Entry::new(&ctx, &args[..1], Value::Int(0), 0, false);
        assert_eq!(e.args(), &args[..1]);
    }

    #[test]
    fn a_park_whose_recheck_finds_an_entry_leaves_its_flag_clear() {
        let log = fresh_log();
        log.append(entry(0, false));
        let mut cursor = log.cursor(0);
        let timed_out = log.park(
            0,
            &mut log.published.lock(),
            &mut cursor,
            Duration::from_secs(5),
        );
        assert!(!timed_out);
        assert!(!parked(&log, 0), "the next append would wake no one");
    }

    #[test]
    fn a_park_that_times_out_leaves_its_flag_clear() {
        let log = fresh_log();
        let mut cursor = log.cursor(0);
        let timeout = Duration::from_millis(1);
        assert!(log.park(0, &mut log.published.lock(), &mut cursor, timeout));
        assert!(!parked(&log, 0), "the next append would wake no one");
    }

    #[test]
    fn one_readers_early_return_leaves_anothers_park_standing() {
        let log = Arc::new(ThreadLog::new(Chunk::new(CHUNK), 2));
        log.append(entry(0, false));
        // Reader 1 reads the entry and parks for the next one.
        let (tx, rx) = mpsc::channel();
        let slave = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let timeouts = read_until(&log, 1, |_, read| read > 1, |_| {});
                tx.send(timeouts).expect("test is waiting");
            })
        };
        wait_parked(&log, 1);
        // Reader 0, behind, finds the entry on its re-check.
        let mut cursor = log.cursor(0);
        assert!(!log.park(
            0,
            &mut log.published.lock(),
            &mut cursor,
            Duration::from_secs(5)
        ));
        drop(cursor);
        assert!(!parked(&log, 0) && parked(&log, 1));
        log.append(entry(1, false));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(0),
            "the append after another reader's early return lost the wakeup"
        );
        slave.join().expect("slave thread");
    }

    #[test]
    fn log_publish_and_finish() {
        let log = fresh_log();
        // Only a parked slave reads backedge progress: without one, a
        // publish leaves the log untouched.
        log.publish(&ProgressKey::start());
        assert!(log.published.lock().master_ready.is_none());
        set_parked(&log, 0);
        log.publish(&ProgressKey::start());
        assert!(log.published.lock().master_ready.is_some());
        log.finish();
        let published = log.published.lock();
        assert!(published.done);
        assert!(published.master_ready.as_ref().unwrap().is_top());
    }

    #[test]
    fn a_log_created_after_execution_end_is_released() {
        let logs = MasterLogs::new(1);
        logs.finish_execution();
        let log = logs.log(&ThreadKey::root().child(3));
        assert!(log.published.lock().done);
    }

    #[test]
    fn finish_execution_releases_existing_logs() {
        let logs = MasterLogs::new(1);
        let log = logs.log(&ThreadKey::root());
        assert!(!log.published.lock().done);
        logs.finish_execution();
        assert!(log.published.lock().done);
    }

    #[test]
    fn a_recording_holds_every_entry() {
        let logs = MasterLogs::new(0);
        let t = ThreadKey::root();
        let n = CHUNK as u32 + 5;
        let all: Vec<u32> = (0..n).collect();
        logs.with_log(&t, |log| append_sites(log, 0..n));
        let heads = logs.heads();
        assert_eq!(heads.len(), 1);
        assert_eq!(sites_from(&heads[0].1), all);
    }

    #[test]
    fn two_replays_of_one_recording_read_the_same_chunks() {
        let logs = MasterLogs::new(0);
        let (root, child) = (ThreadKey::root(), ThreadKey::root().child(0));
        let n = CHUNK as u32 + 5;
        for t in [&child, &root] {
            logs.with_log(t, |log| append_sites(log, 0..n));
        }
        logs.finish_execution();
        let heads = logs.heads();
        let threads: Vec<&ThreadKey> = heads.iter().map(|(t, _)| t).collect();
        assert_eq!(threads, [&root, &child], "in ThreadKey order");
        let replays = [0, 1].map(|_| MasterLogs::replaying(&heads));
        for (t, head) in &heads {
            for replay in &replays {
                replay.with_log(t, |log| {
                    assert!(Arc::ptr_eq(&log.cursor(0).chunk, head));
                    assert_eq!(consume(log, usize::MAX), (0..n).collect::<Vec<_>>());
                });
            }
        }
        assert_eq!(
            sites_from(&heads[0].1).len(),
            n as usize,
            "replays copy nothing"
        );
    }

    #[test]
    fn replayed_logs_start_finished() {
        let logs = MasterLogs::new(0);
        let root = ThreadKey::root();
        logs.with_log(&root, |log| {
            log.append(entry(0, false));
            log.append(entry(1, true));
        });
        let replay = MasterLogs::replaying(&logs.heads());
        replay.with_log(&root, |log| {
            let published = log.published.lock();
            assert!(published.done);
            assert!(published
                .master_ready
                .as_ref()
                .is_some_and(ProgressKey::is_top));
            drop(published);
            assert_eq!(consume(log, usize::MAX), [0, 1]);
        });
        // A thread the recorded master never ran is done too.
        assert!(replay.log(&root.child(0)).published.lock().done);
    }
}
