//! Parallel batch execution: a bounded pool of workers for corpora of dual
//! executions.
//!
//! The engine accepts [`BatchJob`]s — (instrumented program, world, spec)
//! triples — and runs them concurrently on a pool of OS threads. These
//! properties drive the design:
//!
//! * **Bounded fan-out, one thread per job where others fill the CPUs.**
//!   A batch gets `min(width, available_parallelism(), jobs)` workers.
//!   When that is two or more, every job runs on one thread,
//!   `replay(&record(..))` (the master to completion, then the slave, on
//!   the worker's own thread): the other workers keep the CPUs busy, so
//!   overlapping a job's two interpreters would only add thread handoffs.
//!   With one worker (a width-1 pool such as [`BatchEngine::sequential`],
//!   a one-CPU host, or a one-job batch) each job runs on two threads,
//!   [`dual_execute`], so a lone job still overlaps its master and slave.
//!   A batch with a program that spawns Lx threads keeps
//!   [`dual_execute`] and budgets two CPUs per job, because its
//!   slave's threads are paced by the running master. The calling thread
//!   is one of the workers, so a pool with one worker spawns no worker
//!   thread.
//! * **One master per group of jobs that differ only in their sources.**
//!   Jobs with the same program (by `Arc`), an equal world and specs that
//!   differ in their sources at most see the same master (paper §3). On
//!   one worker they share one: one master with a live slave per job
//!   ([`dual_execute_shared`], at most `available_parallelism()` slaves).
//!   On wider pools every job runs its own master, as the other workers
//!   already fill the CPUs. A program with a `spawn` site, a replay job,
//!   and a job whose spec repeats one already in the group never share.
//!   Each shared job's [`JobResult::wall`] is its share of the master's
//!   run, and the `batch.shared_masters` counter counts the masters not
//!   run.
//! * **Replay jobs.** A job made by [`BatchJob::replay`] carries a
//!   [`Recording`] of its master: it runs only the slave, against that
//!   recording, on its worker's thread, whatever the worker count. So a
//!   one-job batch of a replay spawns no thread, and the many probes of
//!   one analysis share one master run (see [`Analysis::attribute_sources`]).
//! * **One job cursor.** Workers take the next job index from one shared
//!   counter until none is left, so jobs start in submission order and a
//!   long job (e.g. `minhmm` next to `minzip`) holds up only its own
//!   worker while the others drain the rest.
//! * **Determinism.** Each result lands in the slot of its job's
//!   submission index, so
//!   [`BatchReport::results`] is in submission order regardless of the
//!   schedule. Dual execution itself is deterministic per job (for
//!   single-Lx-thread programs), and a slave's report does not depend on
//!   which other slaves share its master, so a batch run and a sequential
//!   [`Analysis::run`] loop produce identical verdicts, causality
//!   records, and table rows — `tests/batch_determinism.rs` locks this
//!   in under 1-worker and oversubscribed pools.
//!
//! [`Analysis::run`]: crate::Analysis::run
//! [`Analysis::attribute_sources`]: crate::Analysis::attribute_sources

use ldx_dualex::{
    dual_execute, dual_execute_shared, record, replay, DualReport, DualSpec, Recording,
};
use ldx_ir::IrProgram;
use ldx_vos::VosConfig;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of batch work: a dual execution of an instrumented program
/// against a world under a spec.
///
/// The program is shared by `Arc` — submitting the same compiled program
/// under many specs (source attribution, mutation batteries, corpora with
/// repeated sources) costs no copies.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display label carried through to [`JobResult::label`].
    pub label: String,
    /// The instrumented program to dual-execute.
    pub program: Arc<IrProgram>,
    /// The virtual world both executions run against.
    pub world: VosConfig,
    /// Sources, sinks, and execution limits.
    pub spec: DualSpec,
    /// A recording of this job's master: when set, the job replays only
    /// the slave against it.
    pub recording: Option<Arc<Recording>>,
}

impl BatchJob {
    /// Creates a job.
    pub fn new(
        label: impl Into<String>,
        program: Arc<IrProgram>,
        world: VosConfig,
        spec: DualSpec,
    ) -> Self {
        BatchJob {
            label: label.into(),
            program,
            world,
            spec,
            recording: None,
        }
    }

    /// A job that replays a slave under `spec` against `recording`.
    ///
    /// # Panics
    ///
    /// If the recording does not [accept](Recording::accepts) `spec`.
    pub fn replay(label: impl Into<String>, recording: Arc<Recording>, spec: DualSpec) -> Self {
        assert!(
            recording.accepts(&spec),
            "a replay may change only the recorded spec's sources"
        );
        BatchJob {
            recording: Some(Arc::clone(&recording)),
            ..BatchJob::new(label, recording.program(), recording.config().clone(), spec)
        }
    }
}

impl BatchJob {
    /// Whether this job may run as another slave of `first`'s master: no
    /// recording of either, the same program (by `Arc`), an equal world,
    /// and specs that differ in their sources at most. A program with a
    /// `spawn` site never shares: [`dual_execute_shared`] runs one slave
    /// of it at a time.
    fn joins(&self, first: &BatchJob) -> bool {
        self.recording.is_none()
            && first.recording.is_none()
            && Arc::ptr_eq(&self.program, &first.program)
            && self.spec.shares_master_with(&first.spec)
            && self.world == first.world
            && !self.program.spawns_threads()
    }
}

/// The outcome of one [`BatchJob`], with scheduler telemetry.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The submitting job's label.
    pub label: String,
    /// The dual-execution causality report.
    pub report: DualReport,
    /// Wall-clock time of the dual execution itself. A job that shared
    /// its master with others of its batch is charged an equal share of
    /// that master's run, so the walls of a batch sum to its busy time.
    pub wall: Duration,
    /// Which worker ran the job.
    pub worker: usize,
}

/// Aggregate result of a batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job results, **in submission order** (not completion order).
    pub results: Vec<JobResult>,
    /// Worker threads the pool actually used.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Per-worker busy time (time spent executing jobs).
    pub worker_busy: Vec<Duration>,
}

impl BatchReport {
    /// Sum of per-job execution wall times (the sequential-equivalent
    /// cost; compare against [`BatchReport::wall`] for the speedup).
    pub fn busy_total(&self) -> Duration {
        self.results.iter().map(|r| r.wall).sum()
    }
}

/// A bounded pool of workers for dual-execution jobs.
///
/// Construction picks the pool's width; [`BatchEngine::run`] executes one
/// batch (workers are scoped to the call — the engine holds no threads
/// between runs, so it is cheap to create and freely shareable).
#[derive(Debug, Clone, Copy)]
pub struct BatchEngine {
    /// The requested width, at least 1.
    width: usize,
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl BatchEngine {
    /// A pool of width `requested` (floored at 1): a batch runs on at
    /// most `min(requested, available_parallelism())` workers (see
    /// [`BatchEngine::plan`]).
    pub fn new(requested: usize) -> Self {
        BatchEngine {
            width: requested.max(1),
        }
    }

    /// The widest pool the sizing rule allows on this host.
    pub fn auto() -> Self {
        Self::new(usize::MAX)
    }

    /// A width-1 pool: same code path, one group of jobs sharing a master
    /// at a time, on the calling thread: the master there and each job's
    /// slave on a thread of its own, so a lone job runs on two threads,
    /// like [`dual_execute`]. The determinism baseline.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The most workers [`BatchEngine::run`] uses (fewer when the batch
    /// has fewer jobs or spawns Lx threads).
    pub fn workers(&self) -> usize {
        self.width.min(available_parallelism())
    }

    /// How many workers [`BatchEngine::run`] gives `jobs`: a batch whose
    /// programs spawn no Lx threads gets
    /// `min(width, available_parallelism(), jobs)`, and a batch with Lx
    /// threads budgets two CPUs per job, with
    /// `min(width, available_parallelism() / 2, jobs)` (at least 1).
    pub fn plan(&self, jobs: &[BatchJob]) -> usize {
        let cpus_per_job = if spawns_threads(jobs) { 2 } else { 1 };
        self.width
            .min(available_parallelism() / cpus_per_job)
            .min(jobs.len())
            .max(1)
    }

    /// Runs every job and returns the submission-ordered report.
    ///
    /// On one worker, jobs that can share a master (the same program
    /// `Arc`, an equal world, specs that differ in their sources only, no
    /// recording and no `spawn` site) run one master between them, with a
    /// live slave per job ([`dual_execute_shared`]), at most
    /// `available_parallelism()` of them; a repeated spec runs again,
    /// master included. On wider pools every job is a task of its own, and
    /// unless a program of the batch spawns Lx threads it runs on one
    /// thread: `replay(&record(..))`. Otherwise a job runs on two threads,
    /// [`dual_execute`]. Replay jobs run on one thread at any width.
    pub fn run(&self, jobs: Vec<BatchJob>) -> BatchReport {
        let started = Instant::now();
        let workers = self.plan(&jobs);
        let one_thread = workers >= 2 && !spawns_threads(&jobs);
        ldx_obs::counter_add("batch.jobs", jobs.len() as u64);
        let n = jobs.len();
        let groups: Vec<Vec<(usize, BatchJob)>> = if workers == 1 {
            share_masters(jobs, available_parallelism())
        } else {
            jobs.into_iter().enumerate().map(|job| vec![job]).collect()
        };
        let shared = n - groups.len();
        ldx_obs::counter_add("batch.shared_masters", shared as u64);
        let (done, worker_busy) = Self::dispatch(workers, groups, |worker, group| {
            Self::run_group(worker, group, one_thread)
        });
        let mut slots: Vec<Option<JobResult>> = (0..n).map(|_| None).collect();
        for (index, result) in done.into_iter().flatten() {
            slots[index] = Some(result);
        }
        BatchReport {
            results: slots
                .into_iter()
                .map(|slot| slot.expect("every submitted job completed"))
                .collect(),
            workers,
            wall: started.elapsed(),
            worker_busy,
        }
    }

    /// Runs jobs that share one live master (one job: a plain dual
    /// execution, on one thread if `one_thread`, or its replay) on worker
    /// `worker`; each is charged an equal share of the run.
    fn run_group(
        worker: usize,
        group: Vec<(usize, BatchJob)>,
        one_thread: bool,
    ) -> Vec<(usize, JobResult)> {
        let t0 = Instant::now();
        let (_, first) = &group[0];
        let span = ldx_obs::span(ldx_obs::cat::BATCH, first.label.clone())
            .arg("worker", worker as i64)
            .arg("jobs", group.len() as i64);
        let reports = if let [(_, job)] = &group[..] {
            vec![match &job.recording {
                Some(recording) => replay(recording, &job.spec),
                None if one_thread => replay(
                    &record(Arc::clone(&job.program), &job.world, &job.spec),
                    &job.spec,
                ),
                None => dual_execute(Arc::clone(&job.program), &job.world, &job.spec),
            }]
        } else {
            let specs: Vec<DualSpec> = group.iter().map(|(_, job)| job.spec.clone()).collect();
            dual_execute_shared(Arc::clone(&first.program), &first.world, &specs)
        };
        drop(span);
        let wall = t0.elapsed() / group.len() as u32;
        group
            .into_iter()
            .zip(reports)
            .map(|((index, job), report)| {
                let result = JobResult {
                    label: job.label,
                    report,
                    wall,
                    worker,
                };
                (index, result)
            })
            .collect()
    }

    /// Applies `f` to every item on the pool and returns the results in
    /// input order. The general-purpose sibling of [`BatchEngine::run`]:
    /// bench binaries use it to parallelize whole table rows (which mix
    /// dual executions with taint baselines and native runs). Items start
    /// their own two-thread dual executions, so the pool has at most
    /// `available_parallelism() / 2` workers (at least 1).
    pub fn map_ordered<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let workers = self.width.min(available_parallelism() / 2).max(1);
        ldx_obs::counter_add("batch.jobs", items.len() as u64);
        Self::dispatch(workers, items, |_worker, item| f(item)).0
    }

    /// The scheduler core: workers take the next item index from one
    /// shared cursor until none is left, and each result lands in its
    /// item's slot. `f` gets the worker's index and the item. Worker 0 is
    /// the calling thread, so a one-worker pool spawns nothing.
    fn dispatch<T, R, F>(workers: usize, items: Vec<T>, f: F) -> (Vec<R>, Vec<Duration>)
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        ldx_obs::counter_max("batch.workers", workers as u64);
        let enqueued = Instant::now();
        let n = items.len();
        let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        let work = |worker: usize| {
            let mut busy = Duration::ZERO;
            loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    return busy;
                };
                let item = item.lock().take().expect("each index is taken once");
                ldx_obs::histogram_record(
                    "batch.queue_latency_ns",
                    enqueued.elapsed().as_nanos() as u64,
                );
                let t0 = Instant::now();
                let result = f(worker, item);
                busy += t0.elapsed();
                *slots[index].lock() = Some(result);
            }
        };
        // The calling thread is worker 0; only the others are spawned.
        let worker_busy = std::thread::scope(|scope| {
            let others: Vec<_> = (1..workers)
                .map(|worker| scope.spawn(move || work(worker)))
                .collect();
            let mut busy = vec![work(0)];
            busy.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("batch worker panicked")),
            );
            busy
        });

        let results = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every submitted job completed"))
            .collect();
        (results, worker_busy)
    }
}

/// Groups `jobs` (in submission order, tagged with their indices) by the
/// master they can share: each job joins the first group whose first job
/// it [joins](BatchJob::joins), unless that group holds `cap` jobs or a
/// job with an equal spec, and otherwise starts a group of its own. An
/// equal spec is a repeated run, asked for to run again, master included.
fn share_masters(jobs: Vec<BatchJob>, cap: usize) -> Vec<Vec<(usize, BatchJob)>> {
    let mut groups: Vec<Vec<(usize, BatchJob)>> = Vec::new();
    for (index, job) in jobs.into_iter().enumerate() {
        let open = groups.iter().position(|group| {
            group.len() < cap
                && job.joins(&group[0].1)
                && group.iter().all(|(_, member)| member.spec != job.spec)
        });
        match open {
            Some(g) => groups[g].push((index, job)),
            None => groups.push(vec![(index, job)]),
        }
    }
    groups
}

/// Whether a program of `jobs` has a `spawn` site.
fn spawns_threads(jobs: &[BatchJob]) -> bool {
    jobs.iter().any(|job| job.program.spawns_threads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analysis, SinkSpec, SourceSpec};
    use ldx_vos::PeerBehavior;

    fn leak_job(label: &str, payload: &str) -> BatchJob {
        let analysis = Analysis::for_source(&format!(
            r#"fn main() {{
                let s = read(open("/s", 0), 16);
                send(connect("out"), "{payload}:" + s);
            }}"#
        ))
        .unwrap()
        .world(
            VosConfig::new()
                .file("/s", "secret")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/s"))
        .sinks(SinkSpec::NetworkOut);
        BatchJob::new(
            label,
            analysis.program(),
            analysis.world_ref().clone(),
            analysis.spec().clone(),
        )
    }

    fn threaded_job() -> BatchJob {
        let analysis = Analysis::for_source(
            r#"fn work(n) { send(connect("out"), str(n)); }
            fn main() {
                let s = read(open("/s", 0), 16);
                join(spawn(&work, int(s)));
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/s", "7")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/s"))
        .sinks(SinkSpec::NetworkOut);
        BatchJob::new(
            "threaded",
            analysis.program(),
            analysis.world_ref().clone(),
            analysis.spec().clone(),
        )
    }

    #[test]
    fn the_worker_count_picks_the_schedule() {
        let avail = available_parallelism();
        let jobs = |n: usize| -> Vec<BatchJob> { (0..n).map(|_| leak_job("j", "x")).collect() };
        let wide = BatchEngine::auto();
        assert_eq!(wide.workers(), avail);
        // Jobs without Lx threads: one thread each once two workers run.
        assert_eq!(wide.plan(&jobs(avail + 3)), avail);
        assert_eq!(BatchEngine::new(2).workers(), avail.min(2));
        // One worker: a one-job batch, or a width-1 pool.
        assert_eq!(wide.plan(&jobs(1)), 1);
        assert_eq!(wide.plan(&[]), 1);
        for narrow in [
            BatchEngine::new(0),
            BatchEngine::new(1),
            BatchEngine::sequential(),
        ] {
            assert_eq!(narrow.workers(), 1);
            assert_eq!(narrow.plan(&jobs(4)), 1);
        }
        // Lx threads: two threads and two CPUs per job.
        let mut mixed = jobs(avail + 3);
        mixed.push(threaded_job());
        assert!(spawns_threads(&mixed) && !spawns_threads(&jobs(2)));
        assert_eq!(wide.plan(&mixed), (avail / 2).max(1));
        assert_eq!(BatchEngine::new(2).plan(&mixed), (avail / 2).clamp(1, 2));
        assert_eq!(BatchEngine::auto().run(vec![leak_job("a", "x")]).workers, 1);
        let report = BatchEngine::auto().run(mixed);
        assert_eq!(report.workers, (avail / 2).max(1));
        assert!(report.results.iter().all(|r| r.report.timeouts == 0));
    }

    #[test]
    fn replay_jobs_report_what_dual_executions_do() {
        let job = leak_job("fresh", "x");
        let recording = ldx_dualex::record(Arc::clone(&job.program), &job.world, &job.spec);
        let recording = Arc::new(recording);
        let replays = (0..3)
            .map(|i| BatchJob::replay(format!("r{i}"), Arc::clone(&recording), job.spec.clone()))
            .collect();
        let replayed = BatchEngine::auto().run(replays);
        let fresh = BatchEngine::auto().run(vec![job]);
        for r in &replayed.results {
            assert_eq!(r.report.causality, fresh.results[0].report.causality);
            assert_eq!(r.report.shared, fresh.results[0].report.shared);
        }
    }

    #[test]
    #[should_panic(expected = "only the recorded spec's sources")]
    fn a_replay_job_keeps_the_recorded_sinks() {
        let job = leak_job("fresh", "x");
        let recording = ldx_dualex::record(Arc::clone(&job.program), &job.world, &job.spec);
        let spec = DualSpec {
            sinks: SinkSpec::Outputs,
            ..job.spec
        };
        BatchJob::replay("r", Arc::new(recording), spec);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<BatchJob> = (0..8).map(|i| leak_job(&format!("job{i}"), "p")).collect();
        let report = BatchEngine::auto().run(jobs);
        assert_eq!(report.results.len(), 8);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.label, format!("job{i}"));
            assert!(r.report.leaked());
        }
        assert!(report.results.iter().map(|r| r.report.shared).sum::<u64>() > 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = BatchEngine::auto().run(Vec::new());
        assert!(report.results.is_empty());
        assert_eq!(report.workers, 1);
        assert_eq!(report.worker_busy, [Duration::ZERO]);
    }

    #[test]
    fn map_ordered_preserves_input_order_under_oversubscription() {
        // More conceptual workers than items and vice versa.
        let items: Vec<usize> = (0..50).collect();
        let out = BatchEngine::new(64).map_ordered(items, |i| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_runs_every_item_once_and_keeps_input_order() {
        // Uneven costs: every seventh item sleeps, the others return at once.
        let calls: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let (out, busy) = BatchEngine::dispatch(4, (0..1000).collect(), |_worker, i: usize| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            if i.is_multiple_of(7) {
                std::thread::sleep(Duration::from_micros(200));
            }
            i
        });
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
        assert_eq!(busy.len(), 4);
        for (i, n) in calls.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn one_worker_sees_items_in_submission_order() {
        let seen = Mutex::new(Vec::new());
        let (out, _) = BatchEngine::dispatch(1, (0..9).collect(), |worker, i: usize| {
            assert_eq!(worker, 0);
            seen.lock().push(i);
            i
        });
        assert_eq!(out, (0..9).collect::<Vec<_>>());
        assert_eq!(seen.into_inner(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn telemetry_is_populated() {
        let jobs = vec![leak_job("a", "x"), leak_job("b", "y")];
        let report = BatchEngine::sequential().run(jobs);
        assert_eq!(report.workers, 1);
        assert_eq!(report.worker_busy.len(), 1);
        assert!(report.wall >= report.results[0].wall);
        assert!(report.busy_total() >= report.results[0].wall);
        for r in &report.results {
            assert_eq!(r.worker, 0);
        }
        assert!(report.worker_busy[0] <= report.wall);
    }
}
