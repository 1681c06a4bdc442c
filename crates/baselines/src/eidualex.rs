//! An execution-indexing DualEx baseline (Kim et al., CGO'15).
//!
//! DualEx aligns a master and a slave through **execution indexing** (Xin
//! et al.): both executions stream their executed instructions to a
//! monitor, which builds tree-structured indices and aligns the executions
//! in lockstep. The alignment is precise but the cost is instruction-level
//! monitoring — the paper reports *three orders of magnitude* slowdown,
//! versus LDX's counters-plus-spinning at ~6%.
//!
//! The reproduction keeps the cost model honest: every interpreter step
//! appends to a per-thread index trace (the instruction stream the monitor
//! would consume); at every syscall the execution ships its full index to
//! the monitor rendezvous and blocks until the peer's matching syscall
//! arrives, where the two indices are compared element-wise. Divergence is
//! reported as a difference (like TightLip, DualEx-style alignment is used
//! here for overhead comparison, not to re-derive LDX's tolerance).

use crate::config_mutate::mutate_config;
use ldx_dualex::{SinkSpec, SourceSpec};
use ldx_ir::FuncId;
use ldx_lang::Syscall;
use ldx_runtime::{
    run_program, ExecConfig, NativeHooks, RunOutcome, SysOutcome, SyscallCtx, SyscallHooks,
    ThreadKey, Trap, Value,
};
use ldx_vos::{Vos, VosConfig};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Result of an EI dual execution.
#[derive(Debug, Clone)]
pub struct EiReport {
    /// Whether any difference (index divergence or sink payload) was found.
    pub reported: bool,
    /// Syscalls aligned by the monitor.
    pub aligned: u64,
    /// Outcomes.
    pub master: Result<RunOutcome, Trap>,
    /// See [`EiReport::master`].
    pub slave: Result<RunOutcome, Trap>,
}

/// Cap on the retained index trace per thread (memory guard; the cost of
/// maintaining and comparing indices is what the benchmark measures).
const INDEX_CAP: usize = 1 << 20;

#[derive(Default)]
struct Rendezvous {
    /// Per-thread pending master syscall: (index digest, sys, args).
    master_event: Option<(Vec<u64>, Syscall, Vec<Value>)>,
    master_finished: bool,
    slave_finished: bool,
    diverged: bool,
    aligned: u64,
    sink_diff: bool,
}

/// One thread-pair's rendezvous cell.
type Cell = Arc<(Mutex<Rendezvous>, Condvar)>;

struct Monitor {
    cells: Mutex<HashMap<ThreadKey, Cell>>,
    /// The monitor's instruction intake: every step of both executions is
    /// "sent" to the monitor (a shared, contended structure), modeling the
    /// per-instruction communication that makes DualEx three orders of
    /// magnitude slower than LDX's counters.
    intake: Mutex<MonitorIntake>,
    master_finished: std::sync::atomic::AtomicBool,
    slave_finished: std::sync::atomic::AtomicBool,
}

#[derive(Default)]
struct MonitorIntake {
    master_steps: u64,
    slave_steps: u64,
    digest: u64,
    /// The serialized instruction stream both executions ship to the
    /// monitor (bounded; models the execution-index construction).
    stream: Vec<u64>,
}

impl Monitor {
    fn cell(&self, t: &ThreadKey) -> Cell {
        let mut map = self.cells.lock();
        Arc::clone(
            map.entry(t.clone())
                .or_insert_with(|| Arc::new((Mutex::new(Rendezvous::default()), Condvar::new()))),
        )
    }

    fn peer_flags(&self) -> (bool, bool) {
        (
            self.master_finished
                .load(std::sync::atomic::Ordering::Relaxed),
            self.slave_finished
                .load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    fn finish(&self, master: bool) {
        if master {
            self.master_finished
                .store(true, std::sync::atomic::Ordering::Relaxed);
        } else {
            self.slave_finished
                .store(true, std::sync::atomic::Ordering::Relaxed);
        }
        for cell in self.cells.lock().values() {
            let mut r = cell.0.lock();
            if master {
                r.master_finished = true;
            } else {
                r.slave_finished = true;
            }
            cell.1.notify_all();
        }
    }
}

struct EiHooks {
    native: NativeHooks,
    monitor: Arc<Monitor>,
    is_master: bool,
    sinks: SinkSpec,
    /// Per-thread instruction index traces.
    traces: Mutex<HashMap<ThreadKey, Vec<u64>>>,
}

impl EiHooks {
    fn peer_done(&self) -> bool {
        if self.is_master {
            self.monitor.peer_flags().1
        } else {
            self.monitor.peer_flags().0
        }
    }

    fn digest(&self, thread: &ThreadKey) -> Vec<u64> {
        self.traces.lock().get(thread).cloned().unwrap_or_default()
    }
}

impl SyscallHooks for EiHooks {
    fn observes_steps(&self) -> bool {
        true
    }

    fn on_step(&self, thread: &ThreadKey, func: FuncId, block: u32, idx: usize) {
        // The instruction stream the DualEx monitor consumes: every step
        // goes through the shared monitor intake (lock + index update),
        // and the faster execution is throttled to stay within a window of
        // its peer — the lockstep synchronization of the original system.
        let code = (u64::from(func.0) << 40) ^ (u64::from(block) << 16) ^ (idx as u64);
        {
            let mut intake = self.monitor.intake.lock();
            if self.is_master {
                intake.master_steps += 1;
            } else {
                intake.slave_steps += 1;
            }
            // Execution-index maintenance: mix the event into the index
            // digest (several rounds, like hashing a tree path) and append
            // it to the monitor's stream buffer.
            let mut d = intake.digest ^ code;
            for _ in 0..8 {
                d = d.rotate_left(13).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                d ^= d >> 29;
            }
            intake.digest = d;
            if intake.stream.len() < (INDEX_CAP * 2) {
                intake.stream.push(code ^ d);
            }
        }
        const WINDOW: u64 = 16;
        loop {
            let intake = self.monitor.intake.lock();
            let (mine, theirs) = if self.is_master {
                (intake.master_steps, intake.slave_steps)
            } else {
                (intake.slave_steps, intake.master_steps)
            };
            drop(intake);
            if mine <= theirs + WINDOW || self.peer_done() {
                break;
            }
            std::thread::yield_now();
        }
        let mut traces = self.traces.lock();
        let trace = traces.entry(thread.clone()).or_default();
        if trace.len() < INDEX_CAP {
            trace.push(code);
        }
    }

    fn syscall(&self, ctx: &SyscallCtx<'_>, args: &[Value]) -> Result<SysOutcome, Trap> {
        let outcome = self.native.syscall(ctx, args)?;
        let cell = self.monitor.cell(ctx.thread);
        let digest = self.digest(ctx.thread);
        let is_sink = match &self.sinks {
            SinkSpec::NetworkOut => ctx.sys == Syscall::Send,
            SinkSpec::FileOut => {
                ctx.sys == Syscall::Write
                    && matches!(args.first(), Some(Value::Int(fd)) if *fd >= 3)
            }
            _ => ctx.sys.is_output(),
        };

        if self.is_master {
            // Publish the event and wait for the slave to consume it
            // (lockstep, like the monitor-mediated DualEx protocol).
            let (lock, cv) = &*cell;
            let mut r = lock.lock();
            if !r.diverged {
                r.master_event = Some((digest, ctx.sys, args.to_vec()));
                cv.notify_all();
                while r.master_event.is_some() && !r.slave_finished && !r.diverged {
                    if ctx.stop.should_stop() {
                        break;
                    }
                    cv.wait_for(&mut r, Duration::from_millis(2));
                }
            }
        } else {
            let (lock, cv) = &*cell;
            let mut r = lock.lock();
            if !r.diverged {
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                while r.master_event.is_none() && !r.master_finished && !r.diverged {
                    if ctx.stop.should_stop() || std::time::Instant::now() > deadline {
                        break;
                    }
                    cv.wait_for(&mut r, Duration::from_millis(2));
                }
                match r.master_event.take() {
                    Some((mdigest, msys, margs)) => {
                        // Element-wise index comparison: the expensive part.
                        if mdigest != digest || msys != ctx.sys {
                            r.diverged = true;
                        } else {
                            r.aligned += 1;
                            if is_sink && margs != args {
                                r.sink_diff = true;
                            }
                        }
                    }
                    None => r.diverged = true,
                }
                cv.notify_all();
            }
        }
        Ok(outcome)
    }

    fn thread_finished(&self, thread: &ThreadKey) {
        let cell = self.monitor.cell(thread);
        let mut r = cell.0.lock();
        if self.is_master {
            r.master_finished = true;
        } else {
            r.slave_finished = true;
        }
        cell.1.notify_all();
    }
}

/// Runs the EI-aligned dual execution (overhead-comparison baseline).
pub fn ei_dual_execute(
    program: Arc<ldx_ir::IrProgram>,
    config: &VosConfig,
    sources: &[SourceSpec],
    sinks: &SinkSpec,
    exec: ExecConfig,
) -> EiReport {
    let monitor = Arc::new(Monitor {
        cells: Mutex::new(HashMap::new()),
        intake: Mutex::new(MonitorIntake::default()),
        master_finished: std::sync::atomic::AtomicBool::new(false),
        slave_finished: std::sync::atomic::AtomicBool::new(false),
    });
    let mutated = mutate_config(config, sources);

    let master_hooks: Arc<dyn SyscallHooks> = Arc::new(EiHooks {
        native: NativeHooks::new(Arc::new(Vos::new(config))),
        monitor: Arc::clone(&monitor),
        is_master: true,
        sinks: sinks.clone(),
        traces: Mutex::new(HashMap::new()),
    });
    let slave_hooks: Arc<dyn SyscallHooks> = Arc::new(EiHooks {
        native: NativeHooks::new(Arc::new(Vos::new(&mutated))),
        monitor: Arc::clone(&monitor),
        is_master: false,
        sinks: sinks.clone(),
        traces: Mutex::new(HashMap::new()),
    });

    let (master, slave) = std::thread::scope(|s| {
        let mp = Arc::clone(&program);
        let mm = Arc::clone(&monitor);
        let m = s.spawn(move || {
            let r = run_program(mp, master_hooks, exec);
            mm.finish(true);
            r
        });
        let sm = Arc::clone(&monitor);
        let sl = s.spawn(move || {
            let r = run_program(program, slave_hooks, exec);
            sm.finish(false);
            r
        });
        (m.join().expect("master"), sl.join().expect("slave"))
    });

    let mut reported = false;
    let mut aligned = 0;
    for cell in monitor.cells.lock().values() {
        let r = cell.0.lock();
        reported |= r.diverged || r.sink_diff;
        aligned += r.aligned;
    }
    EiReport {
        reported,
        aligned,
        master,
        slave,
    }
}
