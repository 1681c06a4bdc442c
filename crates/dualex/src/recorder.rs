//! The divergence flight recorder: the one event stream of a dual run.
//!
//! Every slave decision, and every master entry a slave left unread, goes
//! through a single emission point (`SlaveHooks::emit`), which bumps the
//! slave's counters, fires the `ldx-obs` instant, pushes the causality
//! record, and — when recording is on — appends a [`FlightEvent`] here.
//! The master records its executed syscalls and backedges once, in a lane
//! of its own, and each report continues that lane. The causality report
//! says *that* a (source, sink) pair is causal; the flight log keeps the
//! evidence trail of *why*: each syscall decision with the acting role's
//! progress key, every resource-taint / copy-on-write clone with the
//! resource id, every barrier release with the counter delta seen at
//! release, the source mutations applied, safety-valve timeouts, and at
//! diverging sinks a bounded byte-level diff of the payloads. The figure
//! traces (`DualReport::trace_lines`) and `ldx explain` are views of it.
//!
//! # Determinism
//!
//! Events are kept in two *lanes*, one per [`Role`]. Master events are
//! appended only by the master execution (then by its report, for the
//! entries the slave left unread) and slave events only by the slave, so
//! for single-threaded programs each lane's order is exactly
//! the (deterministic) execution order of that role — the property
//! `ldx explain` relies on for byte-identical output across runs.
//! Timing-dependent quantities (barrier deltas) are recorded for
//! forensics but carry no ordering weight.
//!
//! # Overflow policy
//!
//! Each lane is bounded. When full, *later* events are dropped and
//! counted (`keep-earliest`): the chain of provenance — the mutation,
//! the first decoupled syscall, the first diverging sink — lives at the
//! front of the log, so the earliest window is the valuable one (the
//! opposite of the `ldx-obs` trace ring, whose newest-window policy
//! suits profiling). Dropped counts surface in [`FlightLog::dropped`]
//! and the `recorder.dropped` metric.

use crate::report::Role;
use ldx_ir::{FuncId, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::{ProgressKey, ThreadKey};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default per-lane event capacity: generous for every corpus workload
/// while bounding a runaway run to a few MB.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1 << 14;

/// Bytes kept of each payload excerpt (hunks, mutation values).
pub const EXCERPT_BYTES: usize = 48;

/// Collapses a progress key to a scalar (sum of frame counters and loop
/// epochs): the coarse "progress counter value" `ldx explain` reports.
pub fn key_scalar(key: &ProgressKey) -> u64 {
    key.frame_refs()
        .map(|f| {
            f.loops()
                .fold(f.cnt, |acc, (_, epoch, _)| acc.saturating_add(epoch))
        })
        .fold(0u64, u64::saturating_add)
}

/// What the interposition layer decided for one syscall (Alg. 2 cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The master executed the syscall and logged its outcome.
    Executed,
    /// The slave copied the master's aligned outcome.
    Shared,
    /// The slave executed against its private overlay.
    Decoupled,
    /// An aligned sink was compared (equal payloads).
    Compared,
    /// A master-only syscall the slave skipped (no alignment).
    MasterOnly,
    /// A slave-only sink (the master is provably past this key).
    SlaveOnly,
    /// A coupling wait released by the stop signal or the `MAX_WAIT`
    /// safety valve instead of by the peer's progress.
    Timeout,
}

impl Decision {
    /// Stable lowercase name (used by the JSON export).
    pub fn name(self) -> &'static str {
        match self {
            Decision::Executed => "executed",
            Decision::Shared => "shared",
            Decision::Decoupled => "decoupled",
            Decision::Compared => "compared",
            Decision::MasterOnly => "master-only",
            Decision::SlaveOnly => "slave-only",
            Decision::Timeout => "timeout",
        }
    }
}

/// Identity of a diverged resource (paper §7 resource tainting).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ResourceId {
    /// A filesystem path (normalized).
    Path(String),
    /// A lock id whose grant order diverged.
    Lock(i64),
    /// An outbound peer connection.
    Peer(String),
    /// An accepted client on a listening port.
    Client(i64),
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceId::Path(p) => write!(f, "path:{p}"),
            ResourceId::Lock(id) => write!(f, "lock:{id}"),
            ResourceId::Peer(h) => write!(f, "peer:{h}"),
            ResourceId::Client(p) => write!(f, "client:{p}"),
        }
    }
}

/// A bounded byte-level diff of two sink payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteDiff {
    /// Byte offset of the first divergence (`None` when one payload is a
    /// strict prefix of the other — a pure length mismatch).
    pub first_diff: Option<usize>,
    /// Master payload length in bytes.
    pub master_len: usize,
    /// Slave payload length in bytes.
    pub slave_len: usize,
    /// Up to [`EXCERPT_BYTES`] of the master payload around the
    /// divergence point.
    pub master_hunk: String,
    /// The matching slave excerpt.
    pub slave_hunk: String,
}

impl ByteDiff {
    /// Computes the diff of two rendered payloads. The hunks start at the
    /// divergence point (or at the shorter length for pure length
    /// mismatches) and are clipped to [`EXCERPT_BYTES`] on a char
    /// boundary.
    pub fn compute(master: &str, slave: &str) -> ByteDiff {
        let mb = master.as_bytes();
        let sb = slave.as_bytes();
        let common = mb.iter().zip(sb).take_while(|(a, b)| a == b).count();
        let first_diff = if common < mb.len() && common < sb.len() {
            Some(common)
        } else {
            None
        };
        let start = first_diff.unwrap_or_else(|| mb.len().min(sb.len()));
        ByteDiff {
            first_diff,
            master_len: mb.len(),
            slave_len: sb.len(),
            master_hunk: excerpt_at(master, start),
            slave_hunk: excerpt_at(slave, start),
        }
    }
}

/// Up to [`EXCERPT_BYTES`] of `s` starting at byte `start`, snapped onto
/// char boundaries.
fn excerpt_at(s: &str, start: usize) -> String {
    let mut begin = start.min(s.len());
    while begin > 0 && !s.is_char_boundary(begin) {
        begin -= 1;
    }
    let mut end = (begin + EXCERPT_BYTES).min(s.len());
    while end < s.len() && !s.is_char_boundary(end) {
        end += 1;
    }
    s[begin..end].to_string()
}

/// Truncates a rendered value to [`EXCERPT_BYTES`].
pub fn excerpt(s: &str) -> String {
    excerpt_at(s, 0)
}

/// One flight-recorder event. The role is implied by the lane the event
/// sits in (see [`FlightLog`]); `key` is always that role's progress key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A syscall interposition decision. Master-only entries carry the
    /// master's key (the entry's); every other slave decision carries the
    /// slave's.
    Syscall {
        /// What was decided.
        decision: Decision,
        /// The Lx thread (pair).
        thread: ThreadKey,
        /// Progress key at the decision.
        key: ProgressKey,
        /// Function containing the site.
        func: FuncId,
        /// The static site.
        site: SiteId,
        /// The syscall.
        sys: Syscall,
        /// Whether the site is a sink under the spec.
        is_sink: bool,
    },
    /// A coupling wait released by the stop signal or `MAX_WAIT` (see
    /// [`Decision::Timeout`]); the lane's next event names what it guarded.
    Timeout {
        /// The waiting thread.
        thread: ThreadKey,
        /// Progress key of the wait.
        key: ProgressKey,
    },
    /// A resource entered the tainted set (first divergence on it).
    Taint {
        /// The diverged resource.
        resource: ResourceId,
    },
    /// The overlay reconstructed a descriptor for a resource created
    /// while coupled (clone + open + seek, paper §4.2).
    CowClone {
        /// The cloned resource.
        resource: ResourceId,
        /// The coupled read/seek position replayed into the clone.
        pos: u64,
    },
    /// A loop-backedge barrier release.
    Barrier {
        /// The releasing thread.
        thread: ThreadKey,
        /// Progress key at the barrier.
        key: ProgressKey,
        /// On the slave lane, how far the master's published counter was
        /// past the slave's at release (0 when unknown or behind).
        /// Timing-dependent; forensic only. Always 0 on the master lane:
        /// the slave publishes no progress for the master to compare with.
        delta: u64,
    },
    /// The mutation was applied to a matched source outcome.
    Mutated {
        /// The thread that consumed the source.
        thread: ThreadKey,
        /// Progress key at the mutation.
        key: ProgressKey,
        /// Function containing the source site.
        func: FuncId,
        /// The source site.
        site: SiteId,
        /// The source syscall.
        sys: Syscall,
        /// Bounded excerpt of the original outcome.
        original: String,
        /// Bounded excerpt of the mutated outcome.
        mutated: String,
    },
    /// An aligned sink compared *different* — the byte-level evidence.
    SinkDiff {
        /// The thread that reached the sink.
        thread: ThreadKey,
        /// Progress key at the sink.
        key: ProgressKey,
        /// Function containing the sink site.
        func: FuncId,
        /// The sink site.
        site: SiteId,
        /// The sink syscall.
        sys: Syscall,
        /// The bounded payload diff.
        diff: ByteDiff,
    },
}

impl FlightEvent {
    /// The static site the event is anchored at, if any.
    pub fn site(&self) -> Option<(FuncId, SiteId)> {
        match self {
            FlightEvent::Syscall { func, site, .. }
            | FlightEvent::Mutated { func, site, .. }
            | FlightEvent::SinkDiff { func, site, .. } => Some((*func, *site)),
            _ => None,
        }
    }
}

struct Lane {
    events: Mutex<Vec<FlightEvent>>,
    dropped: AtomicU64,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }
}

/// The per-run recorder. A master has one for its own lane and every
/// report one of its own (inside its `SlaveHooks`), so batch jobs can never
/// interleave events: there is no process-wide recorder state anywhere.
pub struct FlightRecorder {
    lanes: [Lane; 2],
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder with `capacity` events per lane.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            lanes: [Lane::new(), Lane::new()],
            capacity,
        }
    }

    fn lane(&self, role: Role) -> &Lane {
        match role {
            Role::Master => &self.lanes[0],
            Role::Slave => &self.lanes[1],
        }
    }

    /// Appends `event` to `role`'s lane (keep-earliest on overflow).
    pub fn record(&self, role: Role, event: FlightEvent) {
        let lane = self.lane(role);
        let mut events = lane.events.lock();
        if events.len() >= self.capacity {
            lane.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(event);
    }

    /// Starts the master lane with `log`'s master lane, dropped count
    /// included: each report continues the lane of the master it read.
    pub fn start_master(&self, log: FlightLog) {
        let lane = &self.lanes[0];
        *lane.events.lock() = log.master;
        lane.dropped.store(log.master_dropped, Ordering::Relaxed);
    }

    /// Drains the recorder into its final log, leaving it empty.
    pub fn drain(&self) -> FlightLog {
        FlightLog {
            master: std::mem::take(&mut *self.lanes[0].events.lock()),
            slave: std::mem::take(&mut *self.lanes[1].events.lock()),
            master_dropped: self.lanes[0].dropped.swap(0, Ordering::Relaxed),
            slave_dropped: self.lanes[1].dropped.swap(0, Ordering::Relaxed),
        }
    }
}

/// The drained flight log of one dual execution, carried on the
/// `DualReport`. Empty (and allocation-free) when recording was off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightLog {
    /// Master-lane events, in master execution order.
    pub master: Vec<FlightEvent>,
    /// Slave-lane events, in slave execution order.
    pub slave: Vec<FlightEvent>,
    /// Master-lane events dropped on overflow.
    pub master_dropped: u64,
    /// Slave-lane events dropped on overflow.
    pub slave_dropped: u64,
}

impl FlightLog {
    /// Total events recorded (both lanes).
    pub fn events(&self) -> u64 {
        (self.master.len() + self.slave.len()) as u64
    }

    /// Total events dropped on overflow (both lanes).
    pub fn dropped(&self) -> u64 {
        self.master_dropped + self.slave_dropped
    }

    /// Whether anything was recorded (false when recording was off).
    pub fn is_empty(&self) -> bool {
        self.master.is_empty() && self.slave.is_empty()
    }

    /// Events of `role`'s lane.
    pub fn lane(&self, role: Role) -> &[FlightEvent] {
        match role {
            Role::Master => &self.master,
            Role::Slave => &self.slave,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> FlightEvent {
        FlightEvent::Barrier {
            thread: ThreadKey::root(),
            key: ProgressKey::start(),
            delta: n,
        }
    }

    #[test]
    fn lanes_are_separate_and_bounded() {
        let r = FlightRecorder::new(2);
        r.record(Role::Master, ev(0));
        r.record(Role::Slave, ev(1));
        r.record(Role::Slave, ev(2));
        r.record(Role::Slave, ev(3)); // over capacity: dropped
        let log = r.drain();
        assert_eq!(log.master.len(), 1);
        assert_eq!(log.slave.len(), 2);
        assert_eq!(log.master_dropped, 0);
        assert_eq!(log.slave_dropped, 1);
        assert_eq!(log.events(), 3);
        assert_eq!(log.dropped(), 1);
        // Keep-earliest: the surviving slave events are the first two.
        assert_eq!(log.slave, vec![ev(1), ev(2)]);
    }

    #[test]
    fn byte_diff_finds_first_divergence() {
        let d = ByteDiff::compute("payload=123", "payload=903");
        assert_eq!(d.first_diff, Some(8));
        assert_eq!(d.master_len, 11);
        assert_eq!(d.slave_len, 11);
        assert_eq!(d.master_hunk, "123");
        assert_eq!(d.slave_hunk, "903");
    }

    #[test]
    fn byte_diff_length_mismatch_has_no_divergence_offset() {
        let d = ByteDiff::compute("abc", "abcdef");
        assert_eq!(d.first_diff, None);
        assert_eq!(d.master_len, 3);
        assert_eq!(d.slave_len, 6);
        assert_eq!(d.master_hunk, "");
        assert_eq!(d.slave_hunk, "def");
    }

    #[test]
    fn excerpts_respect_char_boundaries() {
        let s = "é".repeat(EXCERPT_BYTES); // 2 bytes per char
        let e = excerpt(&s);
        assert!(e.len() <= EXCERPT_BYTES + 1);
        assert!(s.starts_with(&e));
        // A diff offset landing mid-char must not panic.
        let d = ByteDiff::compute(&s, "x");
        assert_eq!(d.first_diff, Some(0));
    }

    #[test]
    fn key_scalar_sums_frames_and_loops() {
        let k = ProgressKey::start();
        let base = key_scalar(&k);
        let mut frames = k.frames();
        frames[0].cnt += 5;
        let k2 = ProgressKey::from_frames(&frames);
        assert_eq!(key_scalar(&k2), base + 5);
    }
}
