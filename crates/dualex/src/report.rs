//! Causality reports and dual-execution outcome types.

use crate::recorder::{Decision, FlightEvent, FlightLog};
use ldx_ir::{FuncId, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::{ProgressKey, RunOutcome, ThreadKey, Trap};
use std::collections::BTreeSet;
use std::fmt;

/// Why a causality was reported at a sink (the cases of paper Alg. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalityKind {
    /// Aligned sinks with different arguments (case 3).
    ArgDiff {
        /// The master's sink payload.
        master: String,
        /// The slave's sink payload.
        slave: String,
    },
    /// A sink the master executed that has no aligned slave sink (cases
    /// 1–2: the perturbation made it disappear).
    MasterOnlySink,
    /// A sink only the slave executed (the perturbation made it appear).
    SlaveOnlySink,
    /// Same progress key but a different site/syscall (case 2: path
    /// difference at a sink).
    PathDiffAtSink,
    /// The executions ended differently (one trapped / different exit
    /// codes) — the implicit whole-execution sink, used by attack
    /// detection when the exploit crashes one run.
    EndDiff {
        /// Rendered master end state.
        master: String,
        /// Rendered slave end state.
        slave: String,
    },
}

/// One detected strong causality between the sources and a sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalityRecord {
    /// Which kind of difference was observed.
    pub kind: CausalityKind,
    /// The Lx thread (pair) that reached the sink.
    pub thread: ThreadKey,
    /// Progress key of the sink.
    pub key: ProgressKey,
    /// Function containing the sink site.
    pub func: FuncId,
    /// The sink site.
    pub site: SiteId,
    /// The sink syscall.
    pub sys: Syscall,
}

impl fmt::Display for CausalityRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.kind {
            CausalityKind::ArgDiff { master, slave } => {
                format!("argument difference ({master:?} vs {slave:?})")
            }
            CausalityKind::MasterOnlySink => "sink missing in slave".to_string(),
            CausalityKind::SlaveOnlySink => "sink only in slave".to_string(),
            CausalityKind::PathDiffAtSink => "path difference at sink".to_string(),
            CausalityKind::EndDiff { master, slave } => {
                format!("execution end difference ({master} vs {slave})")
            }
        };
        write!(
            f,
            "causality at {}:{} ({}) on {} [key {}]: {kind}",
            self.func, self.site, self.sys, self.thread, self.key
        )
    }
}

/// Master or slave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The original execution.
    Master,
    /// The perturbed execution.
    Slave,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Master => write!(f, "M"),
            Role::Slave => write!(f, "S"),
        }
    }
}

/// The result of one dual execution.
#[derive(Debug, Clone)]
pub struct DualReport {
    /// All detected causality records.
    pub causality: Vec<CausalityRecord>,
    /// Master's run outcome.
    pub master: Result<RunOutcome, Trap>,
    /// Slave's run outcome.
    pub slave: Result<RunOutcome, Trap>,
    /// Syscall differences observed before/around sinks (paper Table 2):
    /// master-only entries plus slave decoupled executions, sinks excluded.
    pub syscall_diffs: u64,
    /// Outcomes shared master → slave.
    pub shared: u64,
    /// Slave syscalls executed decoupled.
    pub decoupled: u64,
    /// Total sink *instances* the master encountered.
    pub master_sinks: u64,
    /// Coupling waits released by the stop signal or the `MAX_WAIT` safety
    /// valve rather than by the peer (0 on a healthy run).
    pub timeouts: u64,
    /// The run's event stream, when `DualSpec::record` was set (empty
    /// otherwise).
    pub flight: FlightLog,
}

impl DualReport {
    /// Whether any causality (leak / attack evidence) was detected.
    pub fn leaked(&self) -> bool {
        !self.causality.is_empty()
    }

    /// Number of *dynamic* sink instances with causality.
    pub fn tainted_sinks(&self) -> usize {
        self.causality
            .iter()
            .filter(|c| !matches!(c.kind, CausalityKind::EndDiff { .. }))
            .count()
    }

    /// Distinct static sink sites with causality.
    pub fn tainted_sites(&self) -> usize {
        self.causality
            .iter()
            .filter(|c| !matches!(c.kind, CausalityKind::EndDiff { .. }))
            .map(|c| (c.func, c.site))
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Renders the flight log like the paper's alignment figures (3 and
    /// 5), one `role thread cnt=key syscall action` line per event: the
    /// master lane, then the slave lane (per-role order is the only
    /// deterministic one). Taint and CoW events carry no key and are left
    /// out; the log is empty unless `DualSpec::record` was set.
    pub fn trace_lines(&self) -> Vec<String> {
        [Role::Master, Role::Slave]
            .into_iter()
            .flat_map(|role| self.flight.lane(role).iter().map(move |ev| (role, ev)))
            .filter_map(|(role, ev)| {
                let (thread, key, sys, action) = match ev {
                    FlightEvent::Syscall {
                        decision,
                        thread,
                        key,
                        sys,
                        ..
                    } => {
                        let action = match decision {
                            Decision::Executed => "exec",
                            Decision::Shared => "copy",
                            Decision::Compared => "compare",
                            other => other.name(),
                        };
                        (thread, key, Some(*sys), action)
                    }
                    FlightEvent::Timeout { thread, key } => (thread, key, None, "timeout"),
                    FlightEvent::Barrier { thread, key, .. } => (thread, key, None, "barrier"),
                    FlightEvent::Mutated {
                        thread, key, sys, ..
                    } => (thread, key, Some(*sys), "copy+mutate"),
                    FlightEvent::SinkDiff {
                        thread, key, sys, ..
                    } => (thread, key, Some(*sys), "sink!"),
                    FlightEvent::Taint { .. } | FlightEvent::CowClone { .. } => return None,
                };
                let sys = sys.map_or_else(|| "-".to_string(), |s| s.to_string());
                Some(format!("{role} {thread} cnt={key} {sys} {action}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: CausalityKind, site: u32) -> CausalityRecord {
        CausalityRecord {
            kind,
            thread: ThreadKey::root(),
            key: ProgressKey::start(),
            func: FuncId(0),
            site: SiteId(site),
            sys: Syscall::Send,
        }
    }

    fn empty_report() -> DualReport {
        DualReport {
            causality: vec![],
            master: Err(Trap::DivisionByZero),
            slave: Err(Trap::DivisionByZero),
            syscall_diffs: 0,
            shared: 0,
            decoupled: 0,
            master_sinks: 0,
            timeouts: 0,
            flight: FlightLog::default(),
        }
    }

    #[test]
    fn tainted_counts() {
        let mut r = empty_report();
        assert!(!r.leaked());
        r.causality.push(record(CausalityKind::MasterOnlySink, 1));
        r.causality.push(record(
            CausalityKind::ArgDiff {
                master: "a".into(),
                slave: "b".into(),
            },
            1,
        ));
        r.causality.push(record(CausalityKind::SlaveOnlySink, 2));
        r.causality.push(record(
            CausalityKind::EndDiff {
                master: "ok".into(),
                slave: "trap".into(),
            },
            0,
        ));
        assert!(r.leaked());
        assert_eq!(r.tainted_sinks(), 3, "EndDiff not a sink instance");
        assert_eq!(r.tainted_sites(), 2);
    }

    #[test]
    fn displays_are_informative() {
        let c = record(
            CausalityKind::ArgDiff {
                master: "x".into(),
                slave: "y".into(),
            },
            3,
        );
        let text = c.to_string();
        assert!(text.contains("send"));
        assert!(text.contains("argument difference"));
    }

    #[test]
    fn trace_lines_render() {
        let mut r = empty_report();
        let shared = |decision| FlightEvent::Syscall {
            decision,
            thread: ThreadKey::root(),
            key: ProgressKey::start(),
            func: FuncId(0),
            site: SiteId(0),
            sys: Syscall::Read,
            is_sink: false,
        };
        r.flight.slave.push(shared(Decision::Shared));
        r.flight.master.push(shared(Decision::Executed));
        let lines = r.trace_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("M t0"), "master lane first");
        assert!(lines[0].ends_with("read exec"));
        assert!(lines[1].starts_with("S t0"));
        assert!(lines[1].ends_with("read copy"));
    }
}
