//! A TightLip-like baseline (Yumerefendi et al., NSDI'07).
//!
//! TightLip runs a "doppelganger" of the original process with scrubbed
//! secrets and compares syscall streams *positionally*, tolerating only a
//! small window of reordering. It has no execution alignment: when the
//! perturbation changes which syscalls run (different branch, extra
//! reads), TightLip cannot tell a harmless path difference from a leak and
//! reports/terminates. Paper Table 2 contrasts this with LDX, which aligns
//! through the divergence and only reports when *sinks* differ.
//!
//! The reproduction runs both executions to completion (master on the
//! original world, doppelganger on a source-mutated world), records their
//! per-thread syscall streams, and compares them with a sliding window.

use crate::config_mutate::mutate_config;
use ldx_dualex::{SinkSpec, SourceSpec};
use ldx_runtime::{
    run_program, ExecConfig, NativeHooks, RecordingHooks, RunOutcome, SyscallEvent, ThreadKey,
    Trap, Value,
};
use ldx_vos::{Vos, VosConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The TightLip verdict for one program + mutation.
#[derive(Debug, Clone)]
pub struct TightLipReport {
    /// Whether TightLip reports a (potential) leak.
    pub reported: bool,
    /// Index of the first syscall mismatch, if any.
    pub first_divergence: Option<usize>,
    /// Why it reported.
    pub reason: Option<String>,
    /// Syscalls compared before the verdict.
    pub compared: usize,
    /// Outcomes of the two runs.
    pub master: Result<RunOutcome, Trap>,
    /// See [`TightLipReport::master`].
    pub doppelganger: Result<RunOutcome, Trap>,
}

/// The tolerance window: how far ahead TightLip searches for a matching
/// syscall before declaring divergence ("it uses a window to tolerate
/// syscall differences. The simple approach can hardly handle nontrivial
/// differences" — paper §9).
pub const WINDOW: usize = 4;

/// Runs the TightLip-like analysis.
pub fn tightlip_execute(
    program: Arc<ldx_ir::IrProgram>,
    config: &VosConfig,
    sources: &[SourceSpec],
    sinks: &SinkSpec,
    exec: ExecConfig,
) -> TightLipReport {
    let (master_events, master_out) = record_run(Arc::clone(&program), config, exec);
    let mutated = mutate_config(config, sources);
    let (dg_events, dg_out) = record_run(program, &mutated, exec);

    // Compare per thread, positionally with a small window.
    let by_thread = |events: Vec<SyscallEvent>| {
        let mut map: BTreeMap<ThreadKey, Vec<SyscallEvent>> = BTreeMap::new();
        for e in events {
            map.entry(e.thread.clone()).or_default().push(e);
        }
        map
    };
    let master_by = by_thread(master_events);
    let dg_by = by_thread(dg_events);

    let mut compared = 0usize;
    let mut first_divergence = None;
    let mut reason = None;

    let mut threads: Vec<&ThreadKey> = master_by.keys().collect();
    for t in dg_by.keys() {
        if !master_by.contains_key(t) {
            threads.push(t);
        }
    }
    'outer: for thread in threads {
        let empty = Vec::new();
        let m = master_by.get(thread).unwrap_or(&empty);
        let d = dg_by.get(thread).unwrap_or(&empty);
        let mut di = 0usize;
        for (mi, me) in m.iter().enumerate() {
            compared += 1;
            // Search for a match within the window.
            let found = (di..(di + WINDOW).min(d.len())).find(|&j| events_match(me, &d[j]));
            match found {
                Some(j) => {
                    // Events skipped inside the window are tolerated unless
                    // one of them is an *output* the master never performed
                    // (the doppelganger compares all outputs).
                    if d[di..j].iter().any(|e| e.sys.is_output()) {
                        first_divergence = Some(mi);
                        reason = Some("doppelganger-only output".to_string());
                        break 'outer;
                    }
                    di = j + 1;
                    if (me.sys.is_output() || is_sink(sinks, me)) && me.args != d[j].args {
                        first_divergence = Some(mi);
                        reason = Some("output arguments differ".to_string());
                        break 'outer;
                    }
                }
                None => {
                    first_divergence = Some(mi);
                    reason = Some(format!(
                        "syscall mismatch beyond window at {} ({})",
                        mi, me.sys
                    ));
                    break 'outer;
                }
            }
        }
        if first_divergence.is_none() && d.len() > m.len() + WINDOW {
            first_divergence = Some(m.len());
            reason = Some("doppelganger issued extra syscalls".to_string());
            break 'outer;
        }
    }

    TightLipReport {
        reported: first_divergence.is_some(),
        first_divergence,
        reason,
        compared,
        master: master_out,
        doppelganger: dg_out,
    }
}

fn events_match(a: &SyscallEvent, b: &SyscallEvent) -> bool {
    // TightLip compares syscall numbers and non-payload arguments; we
    // compare kind + site (the "PC") but not payloads, which are checked
    // separately at sinks.
    a.sys == b.sys && a.func == b.func && a.site == b.site
}

fn is_sink(sinks: &SinkSpec, e: &SyscallEvent) -> bool {
    match sinks {
        SinkSpec::Outputs => e.sys.is_output(),
        SinkSpec::NetworkOut => e.sys == ldx_lang::Syscall::Send,
        SinkSpec::FileOut => {
            e.sys == ldx_lang::Syscall::Write
                && matches!(e.args.first(), Some(Value::Int(fd)) if *fd >= 3)
        }
        // Site sinks are an LDX-spec concept; TightLip treats outputs.
        SinkSpec::Sites(_) => e.sys.is_output(),
    }
}

fn record_run(
    program: Arc<ldx_ir::IrProgram>,
    config: &VosConfig,
    exec: ExecConfig,
) -> (Vec<SyscallEvent>, Result<RunOutcome, Trap>) {
    let vos = Arc::new(Vos::new(config));
    let hooks = Arc::new(RecordingHooks::new(NativeHooks::new(vos)));
    let events = hooks.events_handle();
    let out = run_program(program, hooks, exec);
    let events = events.lock().clone();
    (events, out)
}
