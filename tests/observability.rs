//! Integration tests for the `ldx-obs` observability layer threaded
//! through the pipeline: trace determinism, overflow truncation,
//! registry consistency under the batch engine, and the disabled path.
//!
//! Observability state is process-wide, so every test serializes on one
//! mutex and resets the state on entry and exit.

use ldx::obs;
use ldx::{Analysis, BatchEngine, BatchJob, InstrumentCache, SinkSpec, SourceSpec};
use ldx_vos::{PeerBehavior, VosConfig};
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const LEAK_SRC: &str = r#"fn main() {
    let i = 0;
    let s = read(open("/s", 0), 16);
    while (i < 3) {
        write(1, "tick");
        i = i + 1;
    }
    send(connect("out"), s);
}"#;

fn leak_analysis() -> Analysis {
    Analysis::for_source(LEAK_SRC)
        .unwrap()
        .world(
            VosConfig::new()
                .file("/s", "secret")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/s"))
        .sinks(SinkSpec::NetworkOut)
}

/// The span-tree *shape* of a trace: every (category, name) pair, sorted,
/// timestamps and durations discarded. Alignment waits are excluded —
/// whether the slave ever blocks is a scheduling accident, which is
/// exactly why only their count/duration (not their presence) is
/// meaningful telemetry.
fn shape(events: &[obs::TraceEventSnapshot]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = events
        .iter()
        .filter(|e| e.name != "align-wait")
        .map(|e| (e.cat.to_string(), e.name.to_string()))
        .collect();
    out.sort();
    out
}

#[test]
fn trace_shape_is_deterministic_across_runs() {
    let _g = lock();
    let mut shapes = Vec::new();
    for _ in 0..2 {
        obs::reset();
        obs::enable_tracing(obs::DEFAULT_TRACE_CAPACITY);
        let report = leak_analysis().run();
        assert!(report.leaked());
        let events = obs::trace_snapshot();
        assert_eq!(obs::trace_dropped(), 0);
        shapes.push(shape(&events));
        obs::reset();
    }
    assert!(!shapes[0].is_empty());
    assert_eq!(shapes[0], shapes[1], "span tree shape must be reproducible");

    // The taxonomy promised by the acceptance criteria is present
    // (`barrier-wait` holds only alignment waits, which are excluded).
    let cats: Vec<&str> = shapes[0].iter().map(|(c, _)| c.as_str()).collect();
    for required in ["compile", "master", "slave", "syscall-decision"] {
        assert!(cats.contains(&required), "missing category {required}");
    }
}

#[test]
fn overflowed_ring_keeps_newest_and_reports_truncation() {
    let _g = lock();
    obs::reset();
    obs::enable_tracing(8);
    let _ = leak_analysis().run();
    let _ = leak_analysis().run();
    assert!(obs::trace_dropped() > 0, "tiny ring must overflow");
    let events = obs::trace_snapshot();
    assert_eq!(events.len(), 8);
    let json = obs::chrome_trace_json();
    assert!(json.contains("trace-truncated"));
    obs::reset();
}

/// Every traced dual execution links its master and slave spans with a
/// flow arrow: a start point on the master thread and a finish point on
/// the slave thread sharing one id, exported as Chrome `ph:"s"`/`ph:"f"`
/// events under the `flow` category.
#[test]
fn dual_run_spans_are_linked_by_flow_arrows() {
    let _g = lock();
    obs::reset();
    obs::enable_tracing(obs::DEFAULT_TRACE_CAPACITY);
    let report = leak_analysis().run();
    assert!(report.leaked());
    let events = obs::trace_snapshot();

    let mut starts = std::collections::BTreeMap::new();
    let mut finishes = std::collections::BTreeMap::new();
    for e in &events {
        if let Some((id, is_start)) = e.flow {
            assert_eq!(e.cat, "flow", "flow points live in the flow category");
            assert_eq!(e.name, "dual-run");
            let side = if is_start { &mut starts } else { &mut finishes };
            side.insert(id, e.tid);
        }
    }
    assert_eq!(starts.len(), 1, "one dual execution, one arrow start");
    assert_eq!(finishes.len(), 1);
    let (&id, &master_tid) = starts.iter().next().unwrap();
    let slave_tid = finishes[&id];
    assert_ne!(
        master_tid, slave_tid,
        "the arrow must cross from the master thread to the slave thread"
    );

    // The Chrome export renders both ends with the pairing fields the
    // schema (and Perfetto) require.
    let json = obs::chrome_trace_json();
    assert!(json.contains("\"ph\":\"s\""), "missing flow start event");
    assert!(json.contains("\"ph\":\"f\""), "missing flow finish event");
    assert!(json.contains("\"bp\":\"e\""), "flow finish without bp:e");
    obs::reset();
}

/// A wide pool on a multi-CPU host runs each job's master and then its
/// slave on one thread: every job still emits both `run` spans and its
/// flow arrow, and the slave never reaches a coupling wait.
#[test]
fn one_thread_batch_jobs_emit_both_spans_without_timeouts() {
    let _g = lock();
    obs::reset();
    obs::enable_tracing(obs::DEFAULT_TRACE_CAPACITY);
    let engine = BatchEngine::auto();
    let analysis = leak_analysis();
    let jobs = 6;
    let batch: Vec<BatchJob> = (0..jobs)
        .map(|i| analysis.batch_job(format!("job{i}")))
        .collect();
    let multi_cpu = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    let report = engine.run(batch);
    assert_eq!(report.workers >= 2, multi_cpu);
    assert!(report
        .results
        .iter()
        .all(|r| r.report.leaked() && r.report.timeouts == 0));
    assert_eq!(obs::counter_value("dualex.timeouts"), 0);

    let events = obs::trace_snapshot();
    assert_eq!(obs::trace_dropped(), 0);
    let count = |cat: &str, name: &str| {
        events
            .iter()
            .filter(|e| e.cat == cat && e.name == name)
            .count()
    };
    assert_eq!(count("master", "run"), jobs);
    assert_eq!(count("slave", "run"), jobs);
    if multi_cpu {
        assert_eq!(count("barrier-wait", "align-wait"), 0, "a slave waited");
    }
    let flows: Vec<bool> = events
        .iter()
        .filter_map(|e| e.flow.map(|(_, start)| start))
        .collect();
    assert_eq!(flows.iter().filter(|start| **start).count(), jobs);
    assert_eq!(flows.iter().filter(|start| !**start).count(), jobs);
    obs::reset();
}

/// `n` jobs of `analysis`' program and world whose specs differ in their
/// sources' mutations only.
fn mutated_jobs(analysis: &Analysis, n: usize) -> Vec<BatchJob> {
    let mutations = [
        ldx::Mutation::OffByOne,
        ldx::Mutation::Zero,
        ldx::Mutation::BitFlip,
    ];
    mutations[..n]
        .iter()
        .map(|mutation| {
            let mut job = analysis.batch_job(format!("{mutation:?}"));
            for source in &mut job.spec.sources {
                source.mutation = mutation.clone();
            }
            job
        })
        .collect()
}

/// Jobs of one program and world whose specs differ in their sources
/// only share one master: on one worker, one master span starts a flow
/// arrow to each live slave's own thread. On two workers every job runs
/// its own master. A program with a `spawn` site never shares.
#[test]
fn batch_jobs_share_masters_except_with_a_spawn_site() {
    let _g = lock();
    let multi_cpu = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    let count = |events: &[obs::TraceEventSnapshot], cat: &str| {
        events
            .iter()
            .filter(|e| e.cat == cat && e.name == "run")
            .count()
    };

    obs::reset();
    obs::enable_tracing(obs::DEFAULT_TRACE_CAPACITY);
    obs::enable_metrics();
    let report = BatchEngine::sequential().run(mutated_jobs(&leak_analysis(), 2));
    assert!(report
        .results
        .iter()
        .all(|r| r.report.leaked() && r.report.timeouts == 0));
    let events = obs::trace_snapshot();
    let masters = if multi_cpu { 1 } else { 2 };
    assert_eq!(
        obs::counter_value("batch.shared_masters"),
        2 - masters as u64
    );
    assert_eq!(obs::counter_value("batch.jobs"), 2);
    assert_eq!(obs::counter_value("dualex.runs"), 2);
    assert_eq!(
        (count(&events, "master"), count(&events, "slave")),
        (masters, 2)
    );
    let starts: Vec<u64> = events
        .iter()
        .filter(|e| e.flow.is_some_and(|f| f.1))
        .map(|e| e.tid)
        .collect();
    let finishes: Vec<u64> = events
        .iter()
        .filter(|e| e.flow.is_some_and(|f| !f.1))
        .map(|e| e.tid)
        .collect();
    assert_eq!(
        (starts.len(), finishes.len()),
        (2, 2),
        "one arrow per slave"
    );
    assert!(finishes.iter().all(|tid| !starts.contains(tid)));
    assert_ne!(
        finishes[0], finishes[1],
        "each live slave runs on a thread of its own"
    );
    let shared_walls: std::time::Duration = report.results.iter().map(|r| r.wall).sum();
    assert!(
        shared_walls <= report.worker_busy[0],
        "a shared master is charged once"
    );

    // Two workers (or one CPU, so one slave at a time): a master per job.
    obs::reset();
    obs::enable_metrics();
    let report = BatchEngine::new(2).run(mutated_jobs(&leak_analysis(), 2));
    assert!(report.results.iter().all(|r| r.report.leaked()));
    assert_eq!(obs::counter_value("batch.shared_masters"), 0);
    assert_eq!(obs::counter_value("dualex.runs"), 2);

    let threaded = Analysis::for_source(
        r#"fn work(s) { send(connect("out"), s); }
        fn main() { join(spawn(&work, read(open("/s", 0), 16))); }"#,
    )
    .unwrap()
    .world(
        VosConfig::new()
            .file("/s", "secret")
            .peer("out", PeerBehavior::Echo),
    )
    .source(SourceSpec::file("/s"))
    .sinks(SinkSpec::NetworkOut);
    for engine in [BatchEngine::sequential(), BatchEngine::new(2)] {
        obs::reset();
        obs::enable_tracing(obs::DEFAULT_TRACE_CAPACITY);
        obs::enable_metrics();
        let report = engine.run(mutated_jobs(&threaded, 2));
        assert!(report.results.iter().all(|r| r.report.leaked()));
        assert_eq!(obs::counter_value("batch.shared_masters"), 0);
        assert_eq!(count(&obs::trace_snapshot(), "master"), 2);
    }
    obs::reset();
}

#[test]
fn metrics_registry_is_consistent_under_batch_engine() {
    let _g = lock();
    obs::reset();
    obs::enable_metrics();

    let cache = InstrumentCache::new();
    let jobs: Vec<BatchJob> = (0..12)
        .map(|i| {
            let analysis = leak_analysis();
            let program = cache.program(LEAK_SRC).expect("compiles");
            BatchJob::new(
                format!("job{i}"),
                program,
                analysis.world_ref().clone(),
                analysis.spec().clone(),
            )
        })
        .collect();
    let report = BatchEngine::new(4).run(jobs);
    assert_eq!(report.results.len(), 12);

    assert_eq!(obs::counter_value("batch.jobs"), 12);
    assert_eq!(obs::counter_value("dualex.runs"), 12);
    assert_eq!(obs::counter_value("batch.workers"), report.workers as u64);
    // The cache mirror agrees with the cache's own counters.
    assert_eq!(obs::counter_value("cache.compiles"), cache.compiles());
    assert_eq!(obs::counter_value("cache.hits"), cache.hits());
    assert_eq!(cache.compiles(), 1, "one distinct source");
    // Every dual execution shares outcomes; the mirror saw all of them.
    let shared: u64 = report.results.iter().map(|r| r.report.shared).sum();
    assert_eq!(obs::counter_value("dualex.shared"), shared);
    obs::reset();
}

#[test]
fn disabled_path_records_no_spans_and_no_counters() {
    let _g = lock();
    obs::reset();
    let report = leak_analysis().run();
    assert!(report.leaked());
    assert!(obs::trace_snapshot().is_empty(), "zero spans when disabled");
    assert!(obs::stalls_snapshot().is_empty());
    let snap = obs::metrics_snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

#[test]
fn exported_metrics_carry_required_keys() {
    let _g = lock();
    obs::reset();
    obs::init(&obs::ObsArgs {
        trace: None,
        metrics: None,
    });
    let _ = leak_analysis().run();
    let json = obs::metrics_json();
    for key in [
        "cache.hits",
        "cache.compiles",
        "batch.jobs",
        "dualex.runs",
        "dualex.shared",
    ] {
        assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
    }
    obs::reset();
}
