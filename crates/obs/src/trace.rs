//! The span tracer: a bounded ring buffer of timestamped events.
//!
//! Events are recorded as *complete* spans (begin timestamp + duration)
//! or *instants* (zero-duration markers). The buffer is a classic ring:
//! when full, the oldest event is overwritten and counted as dropped, so
//! a long run keeps its most recent window and the export flags the
//! truncation instead of exhausting memory.

use crate::{now_ns, thread_id, tracing_enabled};
use std::borrow::Cow;
use std::sync::Mutex;

/// Default ring capacity used by the CLI entry points: enough for the
/// full trace of the evaluation workloads, bounded at ~.5M events.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 19;

/// One recorded event, as handed out by [`trace_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEventSnapshot {
    /// Category (one of [`crate::cat`]).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: Cow<'static, str>,
    /// Begin timestamp, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Dense per-thread id.
    pub tid: u64,
    /// Small key/value annotations (`delta`, `waits`, …).
    pub args: Vec<(&'static str, i64)>,
    /// Flow-arrow binding: `Some((id, is_start))` marks this event as a
    /// flow point (`ph:"s"` start / `ph:"f"` finish in the Chrome export)
    /// linking spans across threads under the shared `id`.
    pub flow: Option<(u64, bool)>,
}

struct Ring {
    buf: Vec<TraceEventSnapshot>,
    capacity: usize,
    /// Next write position (wraps).
    head: usize,
    /// Events overwritten after the buffer filled.
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEventSnapshot) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Events in recording order (oldest surviving first).
    fn ordered(&self) -> Vec<TraceEventSnapshot> {
        if self.buf.len() < self.capacity {
            return self.buf.clone();
        }
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

static RING: Mutex<Option<Ring>> = Mutex::new(None);

fn with_ring<R>(f: impl FnOnce(&mut Option<Ring>) -> R) -> R {
    let mut guard = RING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(&mut guard)
}

pub(crate) fn install_ring(capacity: usize) {
    with_ring(|r| {
        *r = Some(Ring {
            buf: Vec::with_capacity(capacity.min(1 << 22)),
            capacity,
            head: 0,
            dropped: 0,
        });
    });
}

pub(crate) fn clear() {
    with_ring(|r| *r = None);
}

/// Records a complete span with explicit timestamps. The building block
/// for instrumentation that measures a wait first and only then decides
/// whether the event is worth recording (e.g. align waits).
pub fn record_complete(
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    ts_ns: u64,
    dur_ns: u64,
    args: Vec<(&'static str, i64)>,
) {
    if !tracing_enabled() {
        return;
    }
    let ev = TraceEventSnapshot {
        cat,
        name: name.into(),
        ts_ns,
        dur_ns,
        tid: thread_id(),
        args,
        flow: None,
    };
    with_ring(|r| {
        if let Some(ring) = r.as_mut() {
            ring.push(ev);
        }
    });
}

/// Records a zero-duration marker event.
pub fn instant(cat: &'static str, name: impl Into<Cow<'static, str>>) {
    if !tracing_enabled() {
        return;
    }
    record_complete(cat, name, now_ns(), 0, Vec::new());
}

/// Records a flow point: the start (`is_start`) or finish of a flow arrow
/// identified by `id`. Chrome/Perfetto bind the two ends by matching
/// category, name, and id, drawing an arrow between the enclosing spans —
/// use the same `cat`/`name` on both ends (see [`crate::next_flow_id`]).
pub fn flow_point(cat: &'static str, name: impl Into<Cow<'static, str>>, id: u64, is_start: bool) {
    push_flow(flow_anchor(), cat, name.into(), id, is_start);
}

/// A moment on a thread where flow arrows may start: taken inside a span
/// ([`flow_anchor`]), it lets later work on any thread start its own
/// arrow from that span ([`flow_start_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowAnchor {
    ts_ns: u64,
    tid: u64,
}

/// The calling thread, now.
pub fn flow_anchor() -> FlowAnchor {
    FlowAnchor {
        ts_ns: now_ns(),
        tid: thread_id(),
    }
}

/// Records the start of flow `id` at `anchor`, as if [`flow_point`] had
/// been called there and then.
pub fn flow_start_at(
    anchor: FlowAnchor,
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    id: u64,
) {
    push_flow(anchor, cat, name.into(), id, true);
}

fn push_flow(at: FlowAnchor, cat: &'static str, name: Cow<'static, str>, id: u64, is_start: bool) {
    if !tracing_enabled() {
        return;
    }
    let ev = TraceEventSnapshot {
        cat,
        name,
        ts_ns: at.ts_ns,
        dur_ns: 0,
        tid: at.tid,
        args: Vec::new(),
        flow: Some((id, is_start)),
    };
    with_ring(|r| {
        if let Some(ring) = r.as_mut() {
            ring.push(ev);
        }
    });
}

/// An in-flight span: created by [`span`], recorded on drop.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    cat: &'static str,
    name: Cow<'static, str>,
    start_ns: u64,
    args: Vec<(&'static str, i64)>,
}

impl Span {
    /// Attaches a key/value annotation (no-op on a disabled span).
    pub fn arg(mut self, key: &'static str, value: i64) -> Self {
        if let Some(inner) = self.inner.as_mut() {
            inner.args.push((key, value));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur = now_ns().saturating_sub(inner.start_ns);
            record_complete(inner.cat, inner.name, inner.start_ns, dur, inner.args);
        }
    }
}

/// Opens a span; the guard records a complete event when dropped. When
/// tracing is disabled this is a single atomic load and a `None`.
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    if !tracing_enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            cat,
            name: name.into(),
            start_ns: now_ns(),
            args: Vec::new(),
        }),
    }
}

/// All surviving events, oldest first.
pub fn trace_snapshot() -> Vec<TraceEventSnapshot> {
    with_ring(|r| r.as_ref().map(Ring::ordered).unwrap_or_default())
}

/// How many events were overwritten after the ring filled. Nonzero means
/// the exported trace is truncated to its most recent window.
pub fn trace_dropped() -> u64 {
    with_ring(|r| r.as_ref().map_or(0, |ring| ring.dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cat, enable_tracing, reset, testutil};

    #[test]
    fn spans_and_instants_record_in_order() {
        let _g = testutil::lock();
        reset();
        enable_tracing(64);
        {
            let _s = span(cat::MASTER, "run").arg("jobs", 2);
        }
        instant(cat::SYSCALL_DECISION, "decoupled");
        let evs = trace_snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].cat, cat::MASTER);
        assert_eq!(evs[0].args, vec![("jobs", 2)]);
        assert_eq!(evs[1].name, "decoupled");
        assert_eq!(evs[1].dur_ns, 0);
        assert!(evs[1].ts_ns >= evs[0].ts_ns);
        assert_eq!(trace_dropped(), 0);
        reset();
    }

    #[test]
    fn overflow_keeps_newest_and_flags_truncation() {
        let _g = testutil::lock();
        reset();
        enable_tracing(8);
        for i in 0..100u64 {
            record_complete(cat::BATCH, format!("job{i}"), i, 1, Vec::new());
        }
        let evs = trace_snapshot();
        assert_eq!(evs.len(), 8);
        assert_eq!(trace_dropped(), 92);
        // The surviving window is the most recent one, in order.
        let names: Vec<String> = evs.iter().map(|e| e.name.to_string()).collect();
        let expect: Vec<String> = (92..100).map(|i| format!("job{i}")).collect();
        assert_eq!(names, expect);
        reset();
    }

    #[test]
    fn flow_points_carry_id_and_direction() {
        let _g = testutil::lock();
        reset();
        enable_tracing(16);
        flow_point(cat::FLOW, "dual-run", 7, true);
        flow_point(cat::FLOW, "dual-run", 7, false);
        let evs = trace_snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].flow, Some((7, true)));
        assert_eq!(evs[1].flow, Some((7, false)));
        assert_eq!(evs[0].cat, cat::FLOW);
        reset();
    }

    #[test]
    fn a_flow_started_at_an_anchor_keeps_its_moment_and_thread() {
        let _g = testutil::lock();
        reset();
        enable_tracing(16);
        let anchor = std::thread::spawn(flow_anchor).join().unwrap();
        flow_start_at(anchor, cat::FLOW, "dual-run", 9);
        flow_point(cat::FLOW, "dual-run", 9, false);
        let evs = trace_snapshot();
        assert_eq!(evs[0].flow, Some((9, true)));
        assert_eq!((evs[0].ts_ns, evs[0].tid), (anchor.ts_ns, anchor.tid));
        assert_ne!(
            evs[0].tid, evs[1].tid,
            "the start is on the anchor's thread"
        );
        assert!(evs[0].ts_ns <= evs[1].ts_ns);
        reset();
    }

    #[test]
    fn reenabling_replaces_the_buffer() {
        let _g = testutil::lock();
        reset();
        enable_tracing(4);
        instant(cat::BATCH, "a");
        enable_tracing(4);
        assert!(trace_snapshot().is_empty());
        reset();
    }
}
