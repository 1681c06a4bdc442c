//! The dual-execution orchestrator.
//!
//! A dual run has two halves. The master runs against a fresh versioned
//! world and logs its syscall outcomes once per Lx thread; the slave reads
//! them through cursors of its own. Every entry point is one live run of a
//! master with k ≥ 0 slaves, each on a thread of its own with a cursor per
//! log of its own: [`dual_execute`] has one slave, [`dual_execute_shared`]
//! several, and [`record`] none. A recording is a master alone: a run with
//! no slave keeps its logs, its own facts (outcome, sink count, flight
//! lane) and world as a [`Recording`], and [`replay`] runs only a slave
//! against one, on fresh cursors: the master's work is paid once however
//! many slaves, each perturbing different sources, run against it. A dual
//! run on one thread is exactly [`record`] then a replay. Every report,
//! live or replayed, is built by the same tail from the slave's hooks and
//! the master's facts: master lane, reconcile, end diff, counters.

use crate::couple::{Heads, MasterLogs};
use crate::master::{MasterHooks, MasterRun};
use crate::recorder::{FlightLog, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::report::{CausalityKind, CausalityRecord, DualReport};
use crate::resolved::ResolvedSinks;
use crate::slave::SlaveHooks;
use crate::spec::DualSpec;
use ldx_ir::{FuncId, IrProgram, SiteId};
use ldx_lang::Syscall;
use ldx_obs::FlowAnchor;
use ldx_runtime::{run_program, LockTable, ProgressKey, RunOutcome, ThreadKey, Trap};
use ldx_vos::{SlaveVos, Vos, VosConfig};
use std::fmt;
use std::mem;
use std::slice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Runs the master and the slave concurrently (each on its own OS thread,
/// like the paper's "two separate CPUs") and returns the causality report.
/// The master runs on the calling thread and the slave on a spawned one,
/// waiting where the master is behind. `replay(&record(..))` gives the
/// same report on one thread for a program without Lx threads: the
/// slave's decisions depend only on the master's log, and its clones of
/// the master's world are taken as of the cut (see `ldx_vos::SlaveVos`),
/// not at the moment it gets there.
///
/// The master executes against a fresh world built from `config`; the
/// slave shares the master's aligned syscall outcomes, perturbs the
/// configured sources, and falls back to a private copy-on-divergence
/// overlay when the executions diverge.
///
/// # Reentrancy
///
/// This entry point is **reentrant and `Send`-safe**: every piece of
/// coupling state — the master's logs, both worlds, lock tables, fd
/// maps — is allocated per call and shared only between the threads
/// this call runs on. The engine has one `static` and one thread-local,
/// both in `couple.rs`: a counter that gives every master's set of logs a
/// fresh id, and a per-OS-thread cache of the last log resolved, by a
/// master or a slave, keyed by such an id and the Lx thread. A cached log
/// is only ever returned for the run that created it, so any number of
/// `dual_execute` calls may run concurrently from different threads, or
/// one after another on the same thread — the contract the batch
/// scheduler in `ldx::batch` relies on. A call keeps **two** OS threads
/// busy (plus one per Lx thread the program spawns); a [`replay`] of a
/// [`record`] runs on the calling thread. Schedulers should budget
/// accordingly.
pub fn dual_execute(program: Arc<IrProgram>, config: &VosConfig, spec: &DualSpec) -> DualReport {
    live(program, config, spec, slice::from_ref(spec))
        .0
        .remove(0)
}

/// Runs one master and, concurrently, a live slave per spec, and returns
/// their reports in spec order: each equals the report of a
/// [`dual_execute`] under that spec. The master runs once, on the calling
/// thread, and every slave on a thread of its own, so a call keeps
/// `specs.len() + 1` OS threads busy (plus one per Lx thread the program
/// spawns, per role). The slaves share the master, not their state: each
/// has its own overlay, counters, taint sets, causality records and
/// flight recorder. [`dual_execute`] is this with one spec.
///
/// # Panics
///
/// If `specs` is empty, if two specs differ in more than their sources
/// ([`DualSpec::shares_master_with`]), or if there are two or more specs
/// and the program has a `spawn` site: the slaves' threads are paced by
/// the master's, and that pacing is checked for one slave only.
pub fn dual_execute_shared(
    program: Arc<IrProgram>,
    config: &VosConfig,
    specs: &[DualSpec],
) -> Vec<DualReport> {
    assert!(
        specs.len() <= 1 || !program.spawns_threads(),
        "one master shares its run with several slaves only without a spawn site"
    );
    let spec = specs.first().expect("at least one slave");
    live(program, config, spec, specs).0
}

/// A finished master execution of a program against a world, under a
/// spec's sinks, limits and recording flag: each Lx thread's log, held
/// from its head, the master's outcome, sink count and flight lane, and its
/// versioned world with the whole history. Any number of slaves perturbing
/// other sources can [`replay`] against it, concurrently too: each reads
/// the logs through fresh cursors, and none copies an entry.
pub struct Recording {
    program: Arc<IrProgram>,
    config: VosConfig,
    /// The spec the master ran under; replays may change its sources.
    spec: DualSpec,
    sinks: ResolvedSinks,
    /// The master's world after its run, history kept.
    world: Arc<Vos>,
    /// Where replays' flow arrows start: in the master's span, when traced.
    anchor: Option<FlowAnchor>,
    logs: Heads,
    master: MasterRun,
}

impl Recording {
    /// The recorded program.
    pub fn program(&self) -> Arc<IrProgram> {
        Arc::clone(&self.program)
    }

    /// The world the master started from.
    pub fn config(&self) -> &VosConfig {
        &self.config
    }

    /// Whether `spec` may be replayed against this recording: it differs
    /// from the recorded spec in its sources at most.
    pub fn accepts(&self, spec: &DualSpec) -> bool {
        self.spec.shares_master_with(spec)
    }
}

impl fmt::Debug for Recording {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recording")
            .field("spec", &self.spec)
            .field("master", &self.master.outcome)
            .field("logs", &self.logs.len())
            .finish_non_exhaustive()
    }
}

/// Runs the master of `spec` alone, to completion, on the calling thread,
/// and keeps it as a [`Recording`]: a live run with no slave.
pub fn record(program: Arc<IrProgram>, config: &VosConfig, spec: &DualSpec) -> Recording {
    live(program, config, spec, &[])
        .1
        .expect("a run with no slave is a recording")
}

/// Runs a slave under `spec` against `recording`, on the calling thread,
/// and returns the report a dual execution under `spec` gives. The slave
/// reads the recorded logs through fresh cursors and finds every one done,
/// so it never waits. Its span gets a flow arrow of its own from the
/// recorded master's span (when both are traced).
///
/// # Panics
///
/// If the recording does not [accept](Recording::accepts) `spec`.
pub fn replay(recording: &Recording, spec: &DualSpec) -> DualReport {
    assert!(
        recording.accepts(spec),
        "a replay may change only the recorded spec's sources"
    );
    let flow_id = recording
        .anchor
        .filter(|_| ldx_obs::tracing_enabled())
        .map(|anchor| {
            let id = ldx_obs::next_flow_id();
            ldx_obs::flow_start_at(anchor, ldx_obs::cat::FLOW, "dual-run", id);
            id
        });
    let overlay = SlaveVos::keeping_history(Arc::clone(&recording.world), &recording.config);
    let program = &recording.program;
    let sinks = recording.sinks.clone();
    let slave = SlaveHooks::replaying(&recording.logs, overlay, sinks, spec, program);
    let slave = Arc::new(slave);
    let slave_result = run_slave(program, &slave, spec, flow_id);
    ldx_obs::counter_add("dualex.replays", 1);
    let lane = recording.master.lane.clone();
    report(&slave, &recording.master, lane, slave_result)
}

/// Runs the master of `spec` on the calling thread and a live slave per
/// spec of `slaves`, each on a spawned thread with a cursor per log of its
/// own. The slaves' specs differ from `spec` in their sources at most. A
/// run with no slave keeps its logs' heads and returns its recording. With
/// several slaves every overlay keeps the master's whole history: one
/// slave trimming it could drop what a slower one still reads.
fn live(
    program: Arc<IrProgram>,
    config: &VosConfig,
    spec: &DualSpec,
    slaves: &[DualSpec],
) -> (Vec<DualReport>, Option<Recording>) {
    // Compile-time audit that the inputs cross thread boundaries safely
    // (the scoped spawns below require it, but spell the contract out).
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Arc<IrProgram>>();
    assert_send_sync::<VosConfig>();
    assert_send_sync::<DualSpec>();
    assert!(
        slaves.iter().all(|s| s.shares_master_with(spec)),
        "slaves sharing a master may differ in their sources only"
    );
    let logs = Arc::new(MasterLogs::new(slaves.len()));
    let world = Arc::new(Vos::versioned(config));
    let sinks = ResolvedSinks::resolve(spec, &program);
    let slave_hooks: Vec<Arc<SlaveHooks>> = slaves
        .iter()
        .enumerate()
        .map(|(reader, s)| {
            let overlay = if slaves.len() > 1 {
                SlaveVos::keeping_history(Arc::clone(&world), config)
            } else {
                SlaveVos::new(Arc::clone(&world), config)
            };
            let logs = Arc::clone(&logs);
            let sinks = sinks.clone();
            Arc::new(SlaveHooks::live(logs, reader, overlay, sinks, s, &program))
        })
        .collect();
    let master = MasterHooks {
        logs: Arc::clone(&logs),
        vos: Arc::clone(&world),
        locks: LockTable::new(),
        sinks: sinks.clone(),
        sink_count: AtomicU64::new(0),
        lane: spec
            .record
            .then(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
    };
    // A flow arrow per slave links the master's span to that slave's in
    // the Chrome trace (ph "s" in the master's span, ph "f" in the slave's).
    let flow_ids: Vec<Option<u64>> = slaves
        .iter()
        .map(|_| ldx_obs::tracing_enabled().then(ldx_obs::next_flow_id))
        .collect();
    // Each slave gets a thread of its own; the master runs on the calling
    // thread, so a run with k slaves spawns k threads.
    let program_ref = &program;
    let ((mut master, anchor), slave_results) = std::thread::scope(|s| {
        let handles: Vec<_> = slave_hooks
            .iter()
            .zip(slaves)
            .zip(&flow_ids)
            .map(|((slave, spec), &flow_id)| {
                s.spawn(move || run_slave(program_ref, slave, spec, flow_id))
            })
            .collect();
        let master = run_master(program_ref, master, spec, &flow_ids);
        let slaves: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("slave thread"))
            .collect();
        (master, slaves)
    });
    // Every report continues the master's lane: the last one takes it,
    // the others take copies.
    let mut reports = Vec::with_capacity(slaves.len());
    for (i, (slave, slave_result)) in slave_hooks.iter().zip(slave_results).enumerate() {
        let lane = if i + 1 == slaves.len() {
            mem::take(&mut master.lane)
        } else {
            master.lane.clone()
        };
        reports.push(report(slave, &master, lane, slave_result));
    }
    let recording = slaves.is_empty().then(|| {
        ldx_obs::counter_add("dualex.recordings", 1);
        Recording {
            program,
            config: config.clone(),
            spec: spec.clone(),
            sinks,
            world,
            anchor,
            logs: logs.heads(),
            master,
        }
    });
    (reports, recording)
}

/// Runs the master to completion and marks it finished, starting every
/// flow arrow of `flow_ids` in its span; returns what it did and, when
/// tracing, where in its span arrows start.
fn run_master(
    program: &Arc<IrProgram>,
    hooks: MasterHooks,
    spec: &DualSpec,
    flow_ids: &[Option<u64>],
) -> (MasterRun, Option<FlowAnchor>) {
    let _s = ldx_obs::span(ldx_obs::cat::MASTER, "run");
    let anchor = ldx_obs::tracing_enabled().then(ldx_obs::flow_anchor);
    if let Some(anchor) = anchor {
        for id in flow_ids.iter().flatten() {
            ldx_obs::flow_start_at(anchor, ldx_obs::cat::FLOW, "dual-run", *id);
        }
    }
    let hooks = Arc::new(hooks);
    let outcome = run_program(Arc::clone(program), Arc::clone(&hooks) as _, spec.exec);
    hooks.logs.finish_execution();
    let master = MasterRun {
        outcome,
        sinks: hooks.sink_count.load(Ordering::Relaxed),
        lane: hooks
            .lane
            .as_ref()
            .map(FlightRecorder::drain)
            .unwrap_or_default(),
    };
    (master, anchor)
}

/// Runs the slave to completion, finishing flow arrow `flow_id`.
fn run_slave(
    program: &Arc<IrProgram>,
    hooks: &Arc<SlaveHooks>,
    spec: &DualSpec,
    flow_id: Option<u64>,
) -> Result<RunOutcome, Trap> {
    let _s = ldx_obs::span(ldx_obs::cat::SLAVE, "run");
    if let Some(id) = flow_id {
        ldx_obs::flow_point(ldx_obs::cat::FLOW, "dual-run", id, false);
    }
    run_program(Arc::clone(program), Arc::clone(hooks) as _, spec.exec)
}

/// The report of a finished slave against a finished `master`, live or
/// replayed: continues `lane`, the master's lane, with its leftovers,
/// records an end-state difference, drains the flight log, and mirrors the
/// counters into the registry. `master.lane` is not read: the caller hands
/// over the lane, moved or copied.
fn report(
    slave: &SlaveHooks,
    master: &MasterRun,
    lane: FlightLog,
    slave_result: Result<RunOutcome, Trap>,
) -> DualReport {
    // The master's lane, then its leftovers (syscalls the slave never
    // reached), under the same keep-earliest capacity.
    if let Some(recorder) = &slave.recorder {
        recorder.start_master(lane);
    }
    slave.reconcile();

    // The implicit whole-execution sink: different end states (crash vs
    // normal exit, different exit codes) indicate causality too — this is
    // how exploit-induced crashes surface in attack detection.
    if let Some((m, s)) = end_diff(&master.outcome, &slave_result) {
        slave.records.lock().push(CausalityRecord {
            kind: CausalityKind::EndDiff {
                master: m,
                slave: s,
            },
            thread: ThreadKey::root(),
            key: ProgressKey::top(),
            func: FuncId(0),
            site: SiteId(0),
            sys: Syscall::Exit,
        });
    }

    // Drain the flight recorder after reconcile so master-only leftovers
    // are included; this is per slave (hence per job under the batch
    // engine), so logs can never interleave across jobs.
    let flight = slave.take_flight_log();

    let stats = &slave.stats;
    let report = DualReport {
        causality: std::mem::take(&mut *slave.records.lock()),
        master: master.outcome.clone(),
        slave: slave_result,
        syscall_diffs: stats.diffs.load(Ordering::Relaxed),
        shared: stats.shared.load(Ordering::Relaxed),
        decoupled: stats.decoupled.load(Ordering::Relaxed),
        master_sinks: master.sinks,
        timeouts: stats.timeouts.load(Ordering::Relaxed),
        flight,
    };

    // Mirror the slave's counters into the process-wide registry (the
    // registry sums across batch jobs).
    if ldx_obs::metrics_enabled() {
        for (name, value) in [
            ("dualex.runs", 1),
            ("dualex.shared", report.shared),
            ("dualex.decoupled", report.decoupled),
            ("dualex.syscall_diffs", report.syscall_diffs),
            ("dualex.master_sinks", report.master_sinks),
            ("dualex.timeouts", report.timeouts),
            ("recorder.events", report.flight.events()),
            ("recorder.dropped", report.flight.dropped()),
        ] {
            ldx_obs::counter_add(name, value);
        }
    }
    report
}

fn end_diff(
    master: &Result<RunOutcome, Trap>,
    slave: &Result<RunOutcome, Trap>,
) -> Option<(String, String)> {
    let render = |r: &Result<RunOutcome, Trap>| match r {
        Ok(out) => format!("exit {}", out.exit_code),
        Err(trap) => format!("trap: {trap}"),
    };
    let differs = match (master, slave) {
        (Ok(m), Ok(s)) => m.exit_code != s.exit_code,
        (Err(_), Err(_)) => false,
        _ => true,
    };
    differs.then(|| (render(master), render(slave)))
}
