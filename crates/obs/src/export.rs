//! Exporters: Chrome `trace_event` JSON (loadable in `chrome://tracing`
//! and Perfetto) and a flat JSON metrics dump. Hand-rolled serialization
//! keeps the crate zero-dep; the formats are small and fixed.

use crate::metrics::metrics_snapshot;
use crate::stall::stalls_snapshot;
use crate::trace::{trace_dropped, trace_snapshot, TraceEventSnapshot};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Escapes `s` into a JSON string literal (with quotes). The one escaper
/// behind every hand-rolled JSON writer in the workspace (obs exports,
/// `ldx analyze`, `ldx explain`).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Microseconds with nanosecond precision, as the trace_event `ts`/`dur`
/// fields expect.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn event_json(ev: &TraceEventSnapshot) -> String {
    let mut out = String::new();
    let ph = match ev.flow {
        Some((_, true)) => "s",
        Some((_, false)) => "f",
        None if ev.dur_ns == 0 && ev.cat == crate::cat::SYSCALL_DECISION => "i",
        None => "X",
    };
    let _ = write!(
        out,
        "{{\"name\":{},\"cat\":{},\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
        json_string(&ev.name),
        json_string(ev.cat),
        ph,
        micros(ev.ts_ns),
        ev.tid
    );
    match ph {
        "X" => {
            let _ = write!(out, ",\"dur\":{}", micros(ev.dur_ns));
        }
        "i" => {
            // Thread-scoped instant.
            out.push_str(",\"s\":\"t\"");
        }
        _ => {
            // Flow point: the shared arrow id; the finish end binds to the
            // *enclosing* slice (`bp:"e"`), the Chrome-convention pairing.
            let id = ev.flow.map(|(id, _)| id).unwrap_or(0);
            let _ = write!(out, ",\"id\":{id}");
            if ph == "f" {
                out.push_str(",\"bp\":\"e\"");
            }
        }
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(k), v);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The recorded trace as a Chrome `trace_event` JSON array. Spans are
/// complete (`ph:"X"`) events; syscall-decision markers are thread
/// instants (`ph:"i"`). If the ring overflowed, a metadata-like instant
/// named `trace-truncated` is prepended carrying the dropped count.
pub fn chrome_trace_json() -> String {
    let events = trace_snapshot();
    let dropped = trace_dropped();
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push('[');
    let mut first = true;
    if dropped > 0 {
        let _ = write!(
            out,
            "{{\"name\":\"trace-truncated\",\"cat\":\"meta\",\"ph\":\"i\",\"ts\":0,\
             \"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{{\"dropped\":{dropped}}}}}"
        );
        first = false;
    }
    for ev in &events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&event_json(ev));
    }
    out.push_str("]\n");
    out
}

/// The full metrics dump: counters, histograms, per-barrier stall
/// profiles, and the trace ring's occupancy/truncation state.
pub fn metrics_json() -> String {
    let snap = metrics_snapshot();
    let stalls = stalls_snapshot();
    let recorded = trace_snapshot().len();
    let dropped = trace_dropped();

    let mut out = String::from("{\n  \"counters\": {");
    for (i, c) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}: {}", json_string(c.name), c.value);
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
            json_string(h.name),
            h.count,
            h.sum,
            h.max
        );
        for (j, (bound, count)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{bound},{count}]");
        }
        out.push_str("]}");
    }
    out.push_str("\n  },\n  \"stalls\": {");
    for (i, s) in stalls.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"total_wait_ns\": {}, \"max_wait_ns\": {}, \
             \"total_delta\": {}, \"wait_buckets\": [",
            json_string(&s.barrier),
            s.count,
            s.total_wait_ns,
            s.max_wait_ns,
            s.total_delta
        );
        for (j, (bound, count)) in s.wait_buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{bound},{count}]");
        }
        out.push_str("]}");
    }
    let _ = write!(
        out,
        "\n  }},\n  \"trace\": {{\"recorded\": {recorded}, \"dropped\": {dropped}, \
         \"truncated\": {}}}\n}}\n",
        dropped > 0
    );
    out
}

/// A compact one-line `{"name": value, ...}` dump of all counters, for
/// stderr telemetry when no `--metrics` file was requested.
pub fn counters_json_line() -> String {
    let snap = metrics_snapshot();
    let mut out = String::from("{");
    for (i, c) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_string(c.name), c.value);
    }
    out.push('}');
    out
}

/// Writes [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

/// Writes [`metrics_json`] to `path`.
pub fn write_metrics(path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, metrics_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        cat, counter_add, enable_tracing, histogram_record, instant, record_complete, reset,
        stall_record, testutil,
    };

    #[test]
    fn chrome_trace_has_spans_and_instants() {
        let _g = testutil::lock();
        reset();
        enable_tracing(64);
        record_complete(cat::MASTER, "run", 1_500, 2_000, vec![("jobs", 3)]);
        instant(cat::SYSCALL_DECISION, "decoupled");
        let json = chrome_trace_json();
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"args\":{\"jobs\":3}"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(!json.contains("trace-truncated"));
        reset();
    }

    #[test]
    fn flow_points_export_as_s_and_f() {
        let _g = testutil::lock();
        reset();
        enable_tracing(16);
        crate::flow_point(cat::FLOW, "dual-run", 42, true);
        crate::flow_point(cat::FLOW, "dual-run", 42, false);
        let json = chrome_trace_json();
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert_eq!(json.matches("\"id\":42").count(), 2);
        // Only the finish end binds to the enclosing slice.
        assert_eq!(json.matches("\"bp\":\"e\"").count(), 1);
        assert!(json.contains("\"cat\":\"flow\""));
        reset();
    }

    #[test]
    fn truncated_trace_carries_marker() {
        let _g = testutil::lock();
        reset();
        enable_tracing(2);
        for i in 0..5u64 {
            record_complete(cat::BATCH, "job", i, 1, Vec::new());
        }
        let json = chrome_trace_json();
        assert!(json.contains("trace-truncated"));
        assert!(json.contains("\"dropped\":3"));
        reset();
    }

    #[test]
    fn metrics_json_contains_all_sections() {
        let _g = testutil::lock();
        reset();
        enable_tracing(16);
        counter_add("cache.hits", 4);
        histogram_record("batch.queue_latency_ns", 1234);
        stall_record("f0:s1", 500, 2);
        instant(cat::SYSCALL_DECISION, "aligned-reuse");
        let json = metrics_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"cache.hits\": 4"));
        assert!(json.contains("\"batch.queue_latency_ns\""));
        assert!(json.contains("\"f0:s1\""));
        assert!(json.contains("\"total_wait_ns\": 500"));
        assert!(json.contains("\"recorded\": 1"));
        assert!(json.contains("\"truncated\": false"));
        reset();
    }

    #[test]
    fn counters_line_is_single_line() {
        let _g = testutil::lock();
        reset();
        crate::enable_metrics();
        counter_add("a.b", 1);
        let line = counters_json_line();
        assert_eq!(line, "{\"a.b\": 1}");
        assert!(!line.contains('\n'));
        reset();
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
