//! The dual-execution orchestrator.

use crate::couple::Coupling;
use crate::master::MasterHooks;
use crate::report::{CausalityKind, CausalityRecord, DualReport};
use crate::resolved::{ResolvedSinks, ResolvedSources};
use crate::slave::SlaveHooks;
use crate::spec::DualSpec;
use ldx_ir::{FuncId, IrProgram, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::{run_program, LockTable, ProgressKey, RunOutcome, SyscallHooks, ThreadKey, Trap};
use ldx_vos::{SlaveVos, Vos, VosConfig};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How a dual execution places its two executions on OS threads. Both
/// schedules give the same report for a program without Lx threads: the
/// slave's decisions depend only on the master's queue, and its clones
/// of the master's world are taken as of the cut (see `ldx_vos::SlaveVos`),
/// not at the moment it gets there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The master and the slave run concurrently, each on its own OS
    /// thread (the paper's "two separate CPUs"): the master on the
    /// calling thread, the slave on a spawned one. The slave waits where
    /// the master is behind. One long run overlaps its two interpreters.
    TwoThreads,
    /// The master runs to completion, then the slave, both on the calling
    /// thread. The slave finds the whole queue and every pair done, so it
    /// never waits and no thread is spawned or woken: the cheaper choice
    /// when other jobs already keep the CPUs busy.
    OneThread,
}

/// Runs the master and the slave concurrently (each on its own OS thread,
/// like the paper's "two separate CPUs") and returns the causality report:
/// [`dual_execute_with`] on [`Schedule::TwoThreads`].
///
/// The master executes against a fresh world built from `config`; the
/// slave shares the master's aligned syscall outcomes, perturbs the
/// configured sources, and falls back to a private copy-on-divergence
/// overlay when the executions diverge.
///
/// # Reentrancy
///
/// This entry point is **reentrant and `Send`-safe**: every piece of
/// coupling state — the `Coupling` channel, both worlds, lock tables,
/// fd maps — is allocated per call and shared only between the threads
/// this call runs on. The engine has one `static` and one thread-local,
/// both in `couple.rs`: a counter that gives every `Coupling` a fresh
/// id, and a per-OS-thread cache of the last thread pair resolved,
/// keyed by that id and the Lx thread. A cached pair is only ever
/// returned for the `Coupling` that created it, so any number of
/// `dual_execute` calls may run concurrently from different threads, or
/// one after another on the same thread — the contract the batch
/// scheduler in `ldx::batch` relies on. A call on
/// [`Schedule::TwoThreads`] keeps **two** OS threads busy (plus one per
/// Lx thread the program spawns); one on [`Schedule::OneThread`] runs on
/// the calling thread. Schedulers should budget accordingly.
pub fn dual_execute(program: Arc<IrProgram>, config: &VosConfig, spec: &DualSpec) -> DualReport {
    dual_execute_with(program, config, spec, Schedule::TwoThreads)
}

/// [`dual_execute`] on the given schedule.
pub fn dual_execute_with(
    program: Arc<IrProgram>,
    config: &VosConfig,
    spec: &DualSpec,
    schedule: Schedule,
) -> DualReport {
    // Compile-time audit that the inputs cross thread boundaries safely
    // (the scoped spawns below require it, but spell the contract out).
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Arc<IrProgram>>();
    assert_send_sync::<VosConfig>();
    assert_send_sync::<DualSpec>();
    let mut coupling = Coupling::new(spec.record);
    coupling.master_first = schedule == Schedule::OneThread;
    let coupling = Arc::new(coupling);
    let master_vos = Arc::new(Vos::versioned(config));

    let sinks = ResolvedSinks::resolve(spec, &program);
    let sources = ResolvedSources::resolve(&spec.sources, &program);

    let master_hooks: Arc<dyn SyscallHooks> = Arc::new(MasterHooks {
        coupling: Arc::clone(&coupling),
        vos: Arc::clone(&master_vos),
        locks: LockTable::new(),
        sinks: sinks.clone(),
    });
    let slave_hooks: Arc<dyn SyscallHooks> = Arc::new(SlaveHooks {
        coupling: Arc::clone(&coupling),
        overlay: SlaveVos::new(Arc::clone(&master_vos), config),
        locks: LockTable::new(),
        sinks,
        sources,
        fdmap: Mutex::new(Default::default()),
        decoupled_threads: Mutex::new(HashSet::new()),
        spawn_counts: Mutex::new(HashMap::new()),
    });

    let exec = spec.exec;
    // A flow arrow links the master and slave spans of this run in the
    // Chrome trace (ph "s" in the master's span, ph "f" in the slave's).
    let flow_id = ldx_obs::tracing_enabled().then(ldx_obs::next_flow_id);
    let mc = Arc::clone(&coupling);
    let mp = Arc::clone(&program);
    let master = move || {
        let _s = ldx_obs::span(ldx_obs::cat::MASTER, "run");
        if let Some(id) = flow_id {
            ldx_obs::flow_point(ldx_obs::cat::FLOW, "dual-run", id, true);
        }
        let r = run_program(mp, master_hooks, exec);
        mc.finish_execution();
        r
    };
    let sp = Arc::clone(&program);
    let slave = move || {
        let _s = ldx_obs::span(ldx_obs::cat::SLAVE, "run");
        if let Some(id) = flow_id {
            ldx_obs::flow_point(ldx_obs::cat::FLOW, "dual-run", id, false);
        }
        run_program(sp, slave_hooks, exec)
    };
    let (master_result, slave_result) = match schedule {
        // The slave gets a thread of its own; the master runs on the
        // calling thread, so a run spawns one thread, not two.
        Schedule::TwoThreads => std::thread::scope(|s| {
            let slave = s.spawn(slave);
            let master_result = master();
            (master_result, slave.join().expect("slave thread"))
        }),
        Schedule::OneThread => {
            let master_result = master();
            (master_result, slave())
        }
    };

    // Master-only leftovers (syscalls the slave never reached).
    coupling.reconcile();

    // The implicit whole-execution sink: different end states (crash vs
    // normal exit, different exit codes) indicate causality too — this is
    // how exploit-induced crashes surface in attack detection.
    if let Some((m, s)) = end_diff(&master_result, &slave_result) {
        coupling.records.lock().push(CausalityRecord {
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
    // are included; this is per-Coupling (hence per-job under the batch
    // engine), so logs can never interleave across jobs.
    let flight = coupling.take_flight_log();

    let stats = &coupling.stats;
    let report = DualReport {
        causality: std::mem::take(&mut *coupling.records.lock()),
        master: master_result,
        slave: slave_result,
        syscall_diffs: stats.slave.diffs.load(Ordering::Relaxed),
        shared: stats.slave.shared.load(Ordering::Relaxed),
        decoupled: stats.slave.decoupled.load(Ordering::Relaxed),
        master_sinks: stats.master.sinks.load(Ordering::Relaxed),
        timeouts: stats.slave.timeouts.load(Ordering::Relaxed),
        flight,
    };

    // Mirror the coupling counters into the process-wide registry (the
    // registry sums across batch jobs). Batch pulls are a cost of the
    // schedule, not of the verdict, so they are left out of the report.
    if ldx_obs::metrics_enabled() {
        for (name, value) in [
            ("dualex.runs", 1),
            (
                "dualex.batch_pulls",
                stats.slave.pulls.load(Ordering::Relaxed),
            ),
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
