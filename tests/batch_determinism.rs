//! Batch-parallel corpus runs must be indistinguishable from sequential
//! `Analysis::run` loops: same verdicts, same causality records, same
//! table rows — under a 1-worker pool and under an oversubscribed pool.
//!
//! Concurrent-suite workloads are excluded from the equality checks: their
//! run-to-run variance comes from Lx-level races inside a single dual
//! execution (that is Table 4's subject), not from the batch schedule.

use ldx::{BatchEngine, BatchJob, InstrumentCache};
use ldx_dualex::{dual_execute, record, DualReport, DualSpec, Mutation};
use ldx_workloads::{Suite, Workload};
use std::sync::Arc;

fn deterministic_corpus() -> Vec<Workload> {
    ldx_workloads::corpus()
        .into_iter()
        .filter(|w| w.suite != Suite::Concurrent)
        .collect()
}

fn jobs_for(workloads: &[Workload]) -> Vec<BatchJob> {
    workloads
        .iter()
        .map(|w| BatchJob::new(w.name, w.program(), w.world.clone(), w.dual_spec()))
        .collect()
}

/// The fields a table row is built from; everything observable must match.
fn row(name: &str, r: &DualReport) -> String {
    format!(
        "{name} leaked={} sinks={} records={:?} shared={} diffs={} decoupled={}",
        r.leaked(),
        r.tainted_sinks(),
        r.causality,
        r.shared,
        r.syscall_diffs,
        r.decoupled,
    )
}

#[test]
fn batch_matches_sequential_under_one_worker_and_oversubscription() {
    let workloads = deterministic_corpus();
    assert!(workloads.len() >= 20, "corpus unexpectedly small");

    let sequential: Vec<String> = workloads
        .iter()
        .map(|w| {
            let r = dual_execute(w.program(), &w.world, &w.dual_spec());
            row(w.name, &r)
        })
        .collect();

    for engine in [BatchEngine::sequential(), BatchEngine::new(usize::MAX)] {
        let batch = engine.run(jobs_for(&workloads));
        assert_eq!(batch.results.len(), workloads.len());
        let rows: Vec<String> = batch
            .results
            .iter()
            .map(|jr| row(&jr.label, &jr.report))
            .collect();
        assert_eq!(
            rows,
            sequential,
            "batch output diverged with {} worker(s)",
            engine.workers()
        );
    }
}

/// Per-job flight recorders are private to their dual execution: under an
/// oversubscribed pool every job's flight log matches the log the same
/// job produces on a sequential pool — co-running jobs never interleave
/// events into each other's recorders. The only field allowed to differ
/// is the barrier release `delta`, which the recorder documents as
/// timing-dependent (how far the peer's published counter had advanced).
#[test]
fn flight_logs_never_interleave_across_batch_jobs() {
    use ldx_dualex::FlightEvent;

    fn stable(lane: &[FlightEvent]) -> Vec<String> {
        lane.iter()
            .map(|ev| match ev {
                FlightEvent::Barrier { thread, key, .. } => {
                    format!("Barrier {{ thread: {thread:?}, key: {key} }}")
                }
                other => format!("{other:?}"),
            })
            .collect()
    }

    let workloads = deterministic_corpus();
    let recording_jobs = || -> Vec<BatchJob> {
        workloads
            .iter()
            .map(|w| {
                let mut spec = w.dual_spec();
                spec.record = true;
                BatchJob::new(w.name, w.program(), w.world.clone(), spec)
            })
            .collect()
    };
    let sequential = BatchEngine::sequential().run(recording_jobs());
    let parallel = BatchEngine::new(usize::MAX).run(recording_jobs());
    for (s, p) in sequential.results.iter().zip(&parallel.results) {
        assert!(
            s.report.flight.master.len() + s.report.flight.slave.len() > 0,
            "{}: recorder enabled but empty",
            s.label
        );
        for (lane, sl, pl) in [
            ("master", &s.report.flight.master, &p.report.flight.master),
            ("slave", &s.report.flight.slave, &p.report.flight.slave),
        ] {
            assert_eq!(
                stable(sl),
                stable(pl),
                "{}: {lane} flight lane differs under the parallel schedule",
                s.label
            );
        }
        assert_eq!(
            s.report.flight.dropped(),
            p.report.flight.dropped(),
            "{}",
            s.label
        );
    }
}

/// `spec` with every source under `mutation`.
fn mutated(spec: &DualSpec, mutation: &Mutation) -> DualSpec {
    let mut spec = spec.clone();
    for source in &mut spec.sources {
        source.mutation = mutation.clone();
    }
    spec
}

/// A batch that mixes jobs sharing a master, single jobs, a program with
/// a `spawn` site (never shared) and a replay job reports, job by job,
/// what a dedicated dual execution of each job's spec reports, under one
/// worker and an oversubscribed pool, in submission order.
#[test]
fn a_mixed_batch_matches_dedicated_runs() {
    let workloads = deterministic_corpus();
    let mut jobs = Vec::new();
    // Shared: three programs, each under three mutations, interleaved.
    let shared: Vec<_> = workloads[..3].iter().map(|w| (w, w.program())).collect();
    for mutation in [Mutation::OffByOne, Mutation::Identity, Mutation::Zero] {
        for (w, program) in &shared {
            let spec = mutated(&w.dual_spec(), &mutation);
            jobs.push(BatchJob::new(
                w.name,
                Arc::clone(program),
                w.world.clone(),
                spec,
            ));
        }
    }
    // Single: a program of its own, and a repeat of a shared job's spec.
    let single = &workloads[3];
    jobs.push(BatchJob::new(
        single.name,
        single.program(),
        single.world.clone(),
        single.dual_spec(),
    ));
    jobs.push(jobs[0].clone());
    // One program in two worlds, which never share a master.
    let leak =
        ldx::Analysis::for_source(r#"fn main() { send(connect("out"), read(open("/s", 0), 8)); }"#)
            .unwrap()
            .source(ldx::SourceSpec::file("/s"))
            .sinks(ldx::SinkSpec::NetworkOut);
    for (secret, mutation) in [("a", Mutation::OffByOne), ("b", Mutation::Zero)] {
        let world = ldx::vos::VosConfig::new()
            .file("/s", secret)
            .peer("out", ldx::vos::PeerBehavior::Echo);
        let mut job = leak.clone().world(world).batch_job("worlds");
        job.spec = mutated(&job.spec, &mutation);
        jobs.push(job);
    }
    // A spawn site, under two mutations.
    let threaded = ldx::Analysis::for_source(
        r#"fn work(n) { send(connect("out"), str(n)); }
        fn main() { join(spawn(&work, int(read(open("/s", 0), 8)))); }"#,
    )
    .unwrap()
    .world(
        ldx::vos::VosConfig::new()
            .file("/s", "7")
            .peer("out", ldx::vos::PeerBehavior::Echo),
    )
    .source(ldx::SourceSpec::file("/s"))
    .sinks(ldx::SinkSpec::NetworkOut);
    for mutation in [Mutation::OffByOne, Mutation::Identity] {
        let mut job = threaded.batch_job("threaded");
        job.spec = mutated(&job.spec, &mutation);
        jobs.push(job);
    }
    // A replay job against a recording of another program.
    let replayed = &workloads[4];
    let recording = record(replayed.program(), &replayed.world, &replayed.dual_spec());
    let spec = mutated(&replayed.dual_spec(), &Mutation::BitFlip);
    jobs.push(BatchJob::replay(replayed.name, Arc::new(recording), spec));

    let dedicated: Vec<String> = jobs
        .iter()
        .map(|job| {
            row(
                &job.label,
                &dual_execute(Arc::clone(&job.program), &job.world, &job.spec),
            )
        })
        .collect();
    for engine in [BatchEngine::sequential(), BatchEngine::new(usize::MAX)] {
        let batch = engine.run(jobs.clone());
        let rows: Vec<String> = batch
            .results
            .iter()
            .map(|r| row(&r.label, &r.report))
            .collect();
        assert_eq!(rows, dedicated, "{} worker(s)", batch.workers);
        assert!(batch.results.iter().all(|r| r.report.timeouts == 0));
    }
}

#[test]
fn results_come_back_in_submission_order_regardless_of_job_size() {
    // Interleave heavy and trivial workloads so completion order differs
    // from submission order on any parallel schedule.
    let workloads = deterministic_corpus();
    let batch = BatchEngine::new(usize::MAX).run(jobs_for(&workloads));
    let labels: Vec<&str> = batch.results.iter().map(|r| r.label.as_str()).collect();
    let expected: Vec<&str> = workloads.iter().map(|w| w.name).collect();
    assert_eq!(labels, expected);
}

#[test]
fn facade_run_agrees_with_batch_job_for_the_same_analysis() {
    let analysis = ldx::Analysis::for_source(
        r#"fn main() {
            let s = read(open("/s", 0), 8);
            send(connect("out"), s);
        }"#,
    )
    .unwrap()
    .world(
        ldx::vos::VosConfig::new()
            .file("/s", "abc")
            .peer("out", ldx::vos::PeerBehavior::Echo),
    )
    .source(ldx::SourceSpec::file("/s"));

    let direct = analysis.run();
    let batch = BatchEngine::sequential().run(vec![analysis.batch_job("job")]);
    let via_batch = &batch.results[0].report;
    assert_eq!(direct.leaked(), via_batch.leaked());
    assert_eq!(direct.causality, via_batch.causality);
    assert_eq!(direct.shared, via_batch.shared);
}

#[test]
fn extension_fanout_matches_across_pool_sizes() {
    let analysis = ldx::Analysis::for_source(
        r#"fn main() {
            let a = read(open("/a", 0), 8);
            let b = read(open("/b", 0), 8);
            send(connect("out"), "payload=" + a);
        }"#,
    )
    .unwrap()
    .world(
        ldx::vos::VosConfig::new()
            .file("/a", "used")
            .file("/b", "unused")
            .peer("out", ldx::vos::PeerBehavior::Echo),
    )
    .source(ldx::SourceSpec::file("/a"))
    .source(ldx::SourceSpec::file("/b"))
    .sinks(ldx::SinkSpec::NetworkOut);

    let seq = analysis.attribute_sources_with(&BatchEngine::sequential());
    let par = analysis.attribute_sources_with(&BatchEngine::new(usize::MAX));
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.causal, p.causal);
        assert_eq!(s.report.causality, p.report.causality);
    }
    assert!(seq[0].causal && !seq[1].causal);

    let strength_seq = analysis.causal_strength_with(&BatchEngine::sequential(), &[]);
    let strength_par = analysis.causal_strength_with(&BatchEngine::new(usize::MAX), &[]);
    assert_eq!(strength_seq.flipped, strength_par.flipped);
    assert_eq!(strength_seq.probed, strength_par.probed);
}

#[test]
fn cache_compiles_each_distinct_source_exactly_once() {
    let workloads = ldx_workloads::corpus();
    let distinct: std::collections::HashSet<u64> = workloads
        .iter()
        .map(|w| ldx_instrument::source_fingerprint(&w.source))
        .collect();
    let cache = InstrumentCache::new();
    for _ in 0..3 {
        for w in &workloads {
            cache.program(&w.source).unwrap();
        }
    }
    assert_eq!(
        cache.compiles(),
        distinct.len() as u64,
        "exactly one compile per distinct source"
    );
    assert_eq!(
        cache.hits(),
        (workloads.len() * 3) as u64 - distinct.len() as u64
    );
}

#[test]
fn cached_programs_produce_identical_reports() {
    // A batch built from cached programs behaves exactly like one built
    // from per-workload compiles.
    let workloads = deterministic_corpus();
    let cache = InstrumentCache::new();
    let cached_jobs: Vec<BatchJob> = workloads
        .iter()
        .map(|w| {
            BatchJob::new(
                w.name,
                cache.program(&w.source).unwrap(),
                w.world.clone(),
                w.dual_spec(),
            )
        })
        .collect();
    let fresh = BatchEngine::sequential().run(jobs_for(&workloads));
    let cached = BatchEngine::sequential().run(cached_jobs);
    for (f, c) in fresh.results.iter().zip(&cached.results) {
        assert_eq!(f.report.leaked(), c.report.leaked(), "{}", f.label);
        assert_eq!(f.report.causality, c.report.causality, "{}", f.label);
    }
}
