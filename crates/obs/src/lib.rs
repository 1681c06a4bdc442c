//! `ldx-obs`: the observability layer of the LDX pipeline.
//!
//! LDX's value proposition is *attribution*, so its own pipeline must not
//! be a black box. This crate provides the three lenses the rest of the
//! workspace instruments itself with:
//!
//! * a **span tracer** ([`span`], [`instant`]) writing into a bounded
//!   ring buffer of monotonic-timestamped events, exported as a Chrome
//!   `trace_event` JSON file (open in `chrome://tracing` or Perfetto);
//! * an **alignment-stall profiler** ([`stall_record`]) aggregating, per
//!   progress-counter barrier, how long the slave blocked and the counter
//!   delta observed at release;
//! * a process-wide **metrics registry** ([`counter_add`],
//!   [`histogram_record`]) of atomic counters and fixed-bucket (log2)
//!   histograms, exported as a flat JSON dump.
//!
//! # Cost model
//!
//! The layer is always compiled and *cheaply disabled*: every recording
//! entry point starts with a single relaxed [`AtomicBool`] load and
//! returns immediately when its level is off. Three levels nest:
//!
//! | level       | gate                  | cost when off          |
//! |-------------|-----------------------|------------------------|
//! | metrics     | [`metrics_enabled`]   | one atomic load        |
//! | profiling   | [`profiling_enabled`] | one atomic load        |
//! | tracing     | [`tracing_enabled`]   | one atomic load        |
//!
//! *Metrics* covers cold-path counters (compiles, cache hits, batch
//! jobs). *Profiling* additionally turns on hot-path timing (barrier
//! waits, stall aggregation) — two `Instant::now()` calls per barrier.
//! *Tracing* additionally records ring-buffer events. Enabling a level
//! enables the levels above it in the table ([`enable_tracing`] implies
//! profiling and metrics).
//!
//! The crate is std-only and holds all state in process-wide statics, so
//! any number of executions (including the batch engine's workers) feed
//! one registry. [`reset`] restores the pristine state for tests.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

mod export;
mod metrics;
mod stall;
mod trace;

pub use export::{
    chrome_trace_json, counters_json_line, json_string, metrics_json, write_chrome_trace,
    write_metrics,
};
pub use metrics::{
    counter_add, counter_max, counter_value, ensure_counters, histogram_record, metrics_snapshot,
    CounterSnapshot, HistogramSnapshot, MetricsSnapshot,
};
pub use stall::{stall_record, stalls_snapshot, StallSnapshot};
pub use trace::{
    flow_point, instant, record_complete, span, trace_dropped, trace_snapshot, Span,
    TraceEventSnapshot, DEFAULT_TRACE_CAPACITY,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Span categories: the taxonomy every instrumented phase files under
/// (documented in `docs/OBSERVABILITY.md`).
pub mod cat {
    /// Frontend compile + instrumentation passes.
    pub const COMPILE: &str = "compile";
    /// The master execution of a dual run.
    pub const MASTER: &str = "master";
    /// The slave execution of a dual run.
    pub const SLAVE: &str = "slave";
    /// Per-syscall interposition decisions (`aligned-reuse`,
    /// `decoupled`, `sink-compare`).
    pub const SYSCALL_DECISION: &str = "syscall-decision";
    /// Iteration-barrier and alignment waits.
    pub const BARRIER_WAIT: &str = "barrier-wait";
    /// Batch-engine job execution.
    pub const BATCH: &str = "batch";
    /// Static dependence analysis (PDG construction, reachability).
    pub const SDEP: &str = "sdep";
    /// Flow arrows linking related spans across threads (e.g. the
    /// master↔slave pair of one dual run).
    pub const FLOW: &str = "flow";
}

static METRICS_ON: AtomicBool = AtomicBool::new(false);
static PROFILING_ON: AtomicBool = AtomicBool::new(false);
static TRACING_ON: AtomicBool = AtomicBool::new(false);

/// Whether the metrics registry records (cheapest level).
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Whether hot-path timing (barrier waits, stall profiling) records.
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING_ON.load(Ordering::Relaxed)
}

/// Whether ring-buffer trace events record.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING_ON.load(Ordering::Relaxed)
}

/// The hot-path guard: true when any level needing per-event timing is
/// on. Callers that would pay `Instant::now()` check this one load.
#[inline]
pub fn enabled() -> bool {
    profiling_enabled() || tracing_enabled()
}

/// Turns on the metrics registry.
pub fn enable_metrics() {
    METRICS_ON.store(true, Ordering::Relaxed);
}

/// Turns on hot-path timing (implies metrics).
pub fn enable_profiling() {
    enable_metrics();
    PROFILING_ON.store(true, Ordering::Relaxed);
}

/// Turns on event tracing with a ring buffer of `capacity` events
/// (implies profiling and metrics). Re-enabling replaces the buffer.
pub fn enable_tracing(capacity: usize) {
    enable_profiling();
    trace::install_ring(capacity);
    TRACING_ON.store(true, Ordering::Relaxed);
}

/// Turns every level off. Recorded data is kept (export still works).
pub fn disable_all() {
    TRACING_ON.store(false, Ordering::Relaxed);
    PROFILING_ON.store(false, Ordering::Relaxed);
    METRICS_ON.store(false, Ordering::Relaxed);
}

/// Disables every level and clears all recorded state (test helper).
pub fn reset() {
    disable_all();
    trace::clear();
    metrics::clear();
    stall::clear();
}

/// Monotonic nanoseconds since the first observability call in this
/// process (the trace epoch). Public so instrumentation that measures a
/// duration before deciding to record (see [`record_complete`]) can
/// stamp events on the same clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// A fresh process-unique flow-arrow id. Both ends of one arrow (see
/// [`flow_point`]) must carry the same id, and distinct arrows in one
/// trace must not share ids.
pub fn next_flow_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A small dense per-thread id for trace `tid` fields (`ThreadId` has no
/// stable integer form).
pub(crate) fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that touch the process-wide observability state.
    pub fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_nest() {
        let _g = testutil::lock();
        reset();
        assert!(!metrics_enabled() && !profiling_enabled() && !tracing_enabled());
        enable_tracing(16);
        assert!(metrics_enabled() && profiling_enabled() && tracing_enabled());
        reset();
        enable_profiling();
        assert!(metrics_enabled() && profiling_enabled() && !tracing_enabled());
        reset();
    }

    #[test]
    fn disabled_path_records_nothing() {
        let _g = testutil::lock();
        reset();
        {
            let _s = span(cat::MASTER, "run");
            instant(cat::SYSCALL_DECISION, "decoupled");
        }
        counter_add("x.y", 3);
        histogram_record("h", 5);
        stall_record("b", 10, 1);
        assert!(trace_snapshot().is_empty());
        assert_eq!(counter_value("x.y"), 0);
        assert!(stalls_snapshot().is_empty());
        let snap = metrics_snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn disabled_span_is_branch_cheap() {
        let _g = testutil::lock();
        reset();
        // 1M disabled spans must be vastly cheaper than recording them:
        // the budget below is ~500ns per call, two orders of magnitude
        // above a relaxed atomic load, so this only fails if the
        // disabled path stops being a branch.
        let start = Instant::now();
        for _ in 0..1_000_000 {
            let _s = span(cat::BARRIER_WAIT, "loop-barrier");
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "disabled span path too slow: {:?}",
            start.elapsed()
        );
        assert!(trace_snapshot().is_empty());
    }

    #[test]
    fn thread_ids_are_distinct() {
        let a = thread_id();
        let b = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(a, b);
        assert_eq!(a, thread_id(), "stable within a thread");
    }
}
