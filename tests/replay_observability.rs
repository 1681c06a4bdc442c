//! Traces and counters of slaves replayed against a recorded master: each
//! replay's slave span is linked by a flow arrow to the recording's master
//! span, and the registry counts recordings, replays and reused reports.
//!
//! Observability state is process-wide, so the tests serialize on one
//! mutex and reset the state on entry and exit.

use ldx::obs::{self, TraceEventSnapshot};
use ldx::{Analysis, SinkSpec, SourceSpec};
use ldx_vos::{PeerBehavior, VosConfig};
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn leak_analysis() -> Analysis {
    Analysis::for_source(
        r#"fn main() {
            let s = read(open("/s", 0), 16);
            write(1, "tick");
            send(connect("out"), s);
        }"#,
    )
    .unwrap()
    .world(
        VosConfig::new()
            .file("/s", "secret")
            .peer("out", PeerBehavior::Echo),
    )
    .source(SourceSpec::file("/s"))
    .sinks(SinkSpec::NetworkOut)
}

/// Whether `point` lies inside the span `span` (same thread, within its
/// time range).
fn inside(point: &TraceEventSnapshot, span: &TraceEventSnapshot) -> bool {
    point.tid == span.tid && span.ts_ns <= point.ts_ns && point.ts_ns <= span.ts_ns + span.dur_ns
}

/// Runs `analyze` traced and checks the arrows: `masters` master spans,
/// `slaves` slave spans, and one arrow per slave span, each from inside a
/// master span to inside its own slave span.
fn check_arrows(analyze: impl FnOnce(&Analysis), masters: usize, slaves: usize) {
    obs::reset();
    obs::enable_tracing(obs::DEFAULT_TRACE_CAPACITY);
    obs::enable_metrics();
    analyze(&leak_analysis());
    let events = obs::trace_snapshot();
    let spans = |cat: &str| -> Vec<&TraceEventSnapshot> {
        let run = |e: &&TraceEventSnapshot| e.cat == cat && e.name == "run";
        events.iter().filter(run).collect()
    };
    let (master_spans, slave_spans) = (spans("master"), spans("slave"));
    assert_eq!(master_spans.len(), masters);
    assert_eq!(slave_spans.len(), slaves);
    let (starts, finishes): (Vec<_>, Vec<_>) = events
        .iter()
        .filter(|e| e.flow.is_some())
        .partition(|e| e.flow.is_some_and(|(_, start)| start));
    assert_eq!(starts.len(), slaves);
    assert_eq!(finishes.len(), slaves);
    for start in &starts {
        assert!(
            master_spans.iter().any(|m| inside(start, m)),
            "an arrow starts outside every master"
        );
        let id = start.flow.map(|(id, _)| id);
        let finish = finishes.iter().find(|f| f.flow.map(|(id, _)| id) == id);
        let finish = finish.expect("every arrow finishes");
        assert!(slave_spans.iter().any(|s| inside(finish, s)));
    }
}

#[test]
fn replayed_slaves_are_linked_to_the_recorded_master() {
    let _g = lock();
    // The run is a two-thread dual execution and records nothing; the
    // attribution reuses its report, and the strength battery records
    // the master alone and replays its two other probes.
    check_arrows(
        |a| {
            assert!(a.run().leaked());
            assert!(a.attribute_sources()[0].causal);
            assert!(a.causal_strength(&[]).is_strong());
        },
        2,
        3,
    );
    assert_eq!(obs::counter_value("dualex.recordings"), 1);
    assert_eq!(obs::counter_value("dualex.replays"), 2);
    assert_eq!(obs::counter_value("dualex.reports_reused"), 2);
    assert_eq!(obs::counter_value("dualex.runs"), 3);
    assert_eq!(obs::counter_value("batch.jobs"), 2);
    // Without a run first, the attribution records the master alone and
    // replays it.
    check_arrows(
        |a| {
            assert!(a.attribute_sources()[0].causal);
        },
        1,
        1,
    );
    assert_eq!(obs::counter_value("dualex.recordings"), 1);
    assert_eq!(obs::counter_value("dualex.replays"), 1);
    assert_eq!(obs::counter_value("dualex.reports_reused"), 0);
    obs::reset();
}

#[test]
fn repeated_runs_and_an_attribution_make_one_master() {
    let _g = lock();
    // The second run reuses the first's report, and the attribution (of
    // the one source) reuses it again: one master, one slave, and nothing
    // recorded.
    check_arrows(
        |a| {
            assert!(a.run().leaked());
            assert!(a.run().leaked());
            assert!(a.attribute_sources()[0].causal);
        },
        1,
        1,
    );
    assert_eq!(obs::counter_value("dualex.recordings"), 0);
    assert_eq!(obs::counter_value("dualex.replays"), 0);
    assert_eq!(obs::counter_value("dualex.reports_reused"), 2);
    assert_eq!(obs::counter_value("dualex.runs"), 1);
    obs::reset();
}

#[test]
fn a_run_after_an_attribution_replays_against_its_recording() {
    let _g = lock();
    // With a second source no attribution has the combined spec, so the
    // run replays against the recording the attribution made, after one
    // replay per source.
    check_arrows(
        |a| {
            let a = a.clone().source(SourceSpec::file("/absent"));
            assert!(a.attribute_sources()[0].causal);
            assert!(a.run().leaked());
        },
        1,
        3,
    );
    assert_eq!(obs::counter_value("dualex.recordings"), 1);
    assert_eq!(obs::counter_value("dualex.replays"), 3);
    assert_eq!(obs::counter_value("dualex.reports_reused"), 0);
    assert_eq!(obs::counter_value("dualex.runs"), 3);
    obs::reset();
}
