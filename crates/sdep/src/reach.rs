//! Static reachability: which sinks can a source possibly influence?
//!
//! [`StaticAnalysis`] is the crate's main entry point. It builds the
//! whole-program [`Pdg`] once, then runs one forward reachability pass per
//! syscall site. The result answers, entirely statically:
//!
//! - **candidate sites** — which syscall sites a [`SourceMatcher`] can
//!   match at runtime (descriptor matchers use the abstract fd values);
//! - **[`may_cause`]** — can mutating this source possibly produce *any*
//!   causality record under a given sink spec? `false` is a proof of
//!   independence (`ldx explain`'s `statically_independent`);
//! - **the soundness oracle** — every dynamically reported causal pair
//!   must be inside the static map; a violation means a bug in either the
//!   engine or the analysis.
//!
//! [`may_cause`]: StaticAnalysis::may_cause

use crate::graph::{Node, Pdg, SiteInfo};
use crate::resource::{may_alias, Chan};
use ldx_dualex::{
    CausalityKind, CausalityRecord, DualReport, Mutation, SinkSpec, SourceMatcher, SourceSpec,
};
use ldx_ir::{FuncId, IrProgram, SiteId};
use ldx_lang::Syscall;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A syscall site, keyed the way causality records are.
pub type SiteRef = (FuncId, SiteId);

/// What one source syscall site can statically influence.
#[derive(Debug, Clone, Default)]
pub struct SiteReach {
    /// Every syscall site whose behavior the source may influence
    /// (including the source itself).
    pub sinks: BTreeSet<SiteRef>,
    /// The source may change the process end state (exit code, or
    /// trapping vs. finishing normally).
    pub affects_end: bool,
    /// The source's value flows anywhere at all beyond the site itself.
    pub touches_anything: bool,
}

/// The full static dependence analysis of one program.
#[derive(Debug)]
pub struct StaticAnalysis {
    pdg: Pdg,
    func_names: BTreeMap<String, FuncId>,
    reach: BTreeMap<SiteRef, SiteReach>,
    /// Union of the reach of every `spawn` site, or `None` for
    /// single-threaded programs. Thread scheduling is a nondeterminism
    /// source the mutation does not control: anything a spawned thread
    /// touches can differ between master and slave runs regardless of the
    /// source, so `may_cause` and the oracle must both treat it as always
    /// live (the paper's §7 caveat about racy programs).
    spawn_reach: Option<SiteReach>,
}

impl StaticAnalysis {
    /// Analyzes `program`: builds the PDG and the per-site reachability
    /// map. Run this on the *instrumented* program so site ids line up
    /// with the ids in causality records.
    pub fn analyze(program: &IrProgram) -> Self {
        let _span = ldx_obs::span(ldx_obs::cat::SDEP, "sdep.analyze");
        let pdg = Pdg::build(program);
        let func_names = program
            .iter_funcs()
            .map(|(fid, f)| (f.name.clone(), fid))
            .collect();
        let mut reach = BTreeMap::new();
        let site_nodes: Vec<(SiteRef, u32)> = pdg
            .sites
            .iter()
            .map(|(&key, info)| (key, info.node))
            .collect();
        for &(key, node) in &site_nodes {
            let seen = pdg.reachable([node]);
            let mut r = SiteReach::default();
            for &(other, other_node) in &site_nodes {
                if seen[other_node as usize] {
                    r.sinks.insert(other);
                }
            }
            for (i, flag) in seen.iter().enumerate() {
                if !flag || i == node as usize {
                    continue;
                }
                if matches!(pdg.nodes()[i], Node::End) {
                    r.affects_end = true;
                }
                r.touches_anything = true;
            }
            reach.insert(key, r);
        }
        let mut spawn_reach: Option<SiteReach> = None;
        for (key, info) in &pdg.sites {
            if info.sys != Syscall::Spawn {
                continue;
            }
            let r = &reach[key];
            let acc = spawn_reach.get_or_insert_with(SiteReach::default);
            acc.sinks.extend(r.sinks.iter().copied());
            acc.affects_end |= r.affects_end;
            acc.touches_anything |= r.touches_anything;
        }
        ldx_obs::counter_add("sdep.nodes", pdg.nodes().len() as u64);
        ldx_obs::counter_add("sdep.edges", pdg.edge_count() as u64);
        ldx_obs::counter_add("sdep.sites", reach.len() as u64);
        StaticAnalysis {
            pdg,
            func_names,
            reach,
            spawn_reach,
        }
    }

    /// The underlying dependence graph.
    pub fn pdg(&self) -> &Pdg {
        &self.pdg
    }

    /// The per-site reachability map.
    pub fn reach(&self) -> &BTreeMap<SiteRef, SiteReach> {
        &self.reach
    }

    /// The syscall-site table.
    pub fn sites(&self) -> &BTreeMap<SiteRef, SiteInfo> {
        &self.pdg.sites
    }

    /// The syscall sites `matcher` can possibly match at runtime.
    pub fn candidate_sites(&self, matcher: &SourceMatcher) -> Vec<SiteRef> {
        let reads_may =
            |info: &SiteInfo, chan: &Chan| info.effects.reads.iter().any(|r| may_alias(r, chan));
        self.pdg
            .sites
            .iter()
            .filter(|(_, info)| match matcher {
                SourceMatcher::FileRead(path) => {
                    info.sys == Syscall::Read && reads_may(info, &Chan::file(path))
                }
                SourceMatcher::NetRecv(host) => {
                    matches!(info.sys, Syscall::Recv | Syscall::Read)
                        && reads_may(info, &Chan::Peer(host.clone()))
                }
                SourceMatcher::ClientRecv(port) => {
                    matches!(info.sys, Syscall::Recv | Syscall::Read)
                        && reads_may(info, &Chan::Client(*port))
                }
                SourceMatcher::SyscallKind(sys) => info.sys == *sys,
                SourceMatcher::Site(fname, site) => {
                    self.func_names.get(fname) == Some(&info.func) && info.site == SiteId(*site)
                }
            })
            .map(|(&key, _)| key)
            .collect()
    }

    /// The syscall sites that can be sinks under `sinks`.
    pub fn sink_sites(&self, sinks: &SinkSpec) -> BTreeSet<SiteRef> {
        self.pdg
            .sites
            .iter()
            .filter(|(_, info)| match sinks {
                SinkSpec::Outputs => info.sys.is_output(),
                SinkSpec::NetworkOut => info.sys == Syscall::Send,
                SinkSpec::FileOut => {
                    // `write` to fd >= 3: exclude sites whose fd is a known
                    // stdio constant.
                    info.sys == Syscall::Write
                        && !matches!(info.args.first().and_then(|v| v.only_int()), Some(0..=2))
                }
                SinkSpec::Sites(list) => list.iter().any(|(fname, site)| {
                    self.func_names.get(fname) == Some(&info.func) && info.site == SiteId(*site)
                }),
            })
            .map(|(&key, _)| key)
            .collect()
    }

    /// Can mutating `source` possibly produce any causality record under
    /// `sinks`? `false` is a static proof of independence.
    ///
    /// A source with no candidate site can never be mutated, so it is
    /// independent even in a threaded program. With candidates, a
    /// threaded program is never independent: a scheduling race can surface
    /// at the sinks of any individual run, and that run's records would
    /// be attributed to whatever source it mutated.
    pub fn may_cause(&self, source: &SourceSpec, sinks: &SinkSpec) -> bool {
        let candidates = self.candidate_sites(&source.matcher);
        if candidates.is_empty() {
            return false;
        }
        if self.spawn_reach.is_some() {
            return true;
        }
        let sink_sites = self.sink_sites(sinks);
        let preserving = type_preserving(&source.mutation);
        candidates.iter().any(|c| {
            let Some(r) = self.reach.get(c) else {
                return true;
            };
            if !preserving && r.touches_anything {
                // A type-changing mutation can raise a TypeError anywhere
                // the value is used.
                return true;
            }
            r.affects_end || r.sinks.iter().any(|s| sink_sites.contains(s))
        })
    }

    /// A shortest PDG path from `from` to `to`, rendered as the sequence
    /// of syscall sites it passes through (both endpoints included when
    /// they are sites). `None` when either site is unknown or no path
    /// exists. Deterministic: BFS over the PDG's fixed successor order.
    ///
    /// This is the *static witness* behind a dynamic causal pair: the
    /// dependence edges along which the mutation could have propagated.
    pub fn path_witness(&self, from: SiteRef, to: SiteRef) -> Option<Vec<SiteRef>> {
        let start = self.pdg.sites.get(&from)?.node;
        let goal = self.pdg.sites.get(&to)?.node;
        self.site_path(start, goal)
    }

    /// A shortest PDG path from `from` to the end-state node — the static
    /// witness for an `EndDiff` record (exit code / trap differences).
    pub fn path_to_end(&self, from: SiteRef) -> Option<Vec<SiteRef>> {
        let start = self.pdg.sites.get(&from)?.node;
        let goal = self.pdg.node_id(&Node::End)?;
        self.site_path(start, goal)
    }

    /// BFS with parent tracking from `start` to `goal`, projected onto
    /// syscall sites (consecutive duplicates collapsed).
    fn site_path(&self, start: u32, goal: u32) -> Option<Vec<SiteRef>> {
        let n = self.pdg.nodes().len();
        let mut parent: Vec<Option<u32>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[start as usize] = true;
        let mut found = start == goal;
        let mut queue = std::collections::VecDeque::from([start]);
        'bfs: while let Some(u) = queue.pop_front() {
            if found {
                break;
            }
            for &v in self.pdg.succs(u) {
                if seen[v as usize] {
                    continue;
                }
                seen[v as usize] = true;
                parent[v as usize] = Some(u);
                if v == goal {
                    found = true;
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
        if !found {
            return None;
        }
        let mut node_path = vec![goal];
        while let Some(p) = parent[*node_path.last().expect("nonempty") as usize] {
            node_path.push(p);
        }
        node_path.reverse();
        let site_of: BTreeMap<u32, SiteRef> = self
            .pdg
            .sites
            .iter()
            .map(|(&key, info)| (info.node, key))
            .collect();
        let mut out: Vec<SiteRef> = Vec::new();
        for nid in node_path {
            if let Some(&s) = site_of.get(&nid) {
                if out.last() != Some(&s) {
                    out.push(s);
                }
            }
        }
        Some(out)
    }

    /// The soundness oracle: every causality record in `report` must be
    /// explained by the static map for at least one source in `sources`.
    pub fn check_report(
        &self,
        sources: &[SourceSpec],
        report: &DualReport,
    ) -> Result<(), OracleViolation> {
        for record in &report.causality {
            self.check_record(sources, record)?;
        }
        Ok(())
    }

    fn check_record(
        &self,
        sources: &[SourceSpec],
        record: &CausalityRecord,
    ) -> Result<(), OracleViolation> {
        // In a threaded program, a record at anything a spawned thread
        // reaches may be race-induced rather than source-induced; the
        // oracle cannot attribute it to the mutation.
        if let Some(race) = &self.spawn_reach {
            let race_explained = match record.kind {
                CausalityKind::EndDiff { .. } => race.affects_end,
                _ => race.sinks.contains(&(record.func, record.site)),
            };
            if race_explained {
                return Ok(());
            }
        }
        let explained = sources.iter().any(|source| {
            let candidates = self.candidate_sites(&source.matcher);
            let preserving = type_preserving(&source.mutation);
            candidates.iter().any(|c| {
                let Some(r) = self.reach.get(c) else {
                    return true;
                };
                if !preserving && r.touches_anything {
                    return true;
                }
                match record.kind {
                    CausalityKind::EndDiff { .. } => r.affects_end,
                    _ => r.sinks.contains(&(record.func, record.site)),
                }
            })
        });
        if explained {
            Ok(())
        } else {
            Err(OracleViolation {
                record: Box::new(record.clone()),
            })
        }
    }
}

/// Whether a mutation can never change a value's runtime type.
pub fn type_preserving(m: &Mutation) -> bool {
    match m {
        Mutation::OffByOne | Mutation::BitFlip | Mutation::Zero | Mutation::Identity => true,
        Mutation::Replace(_) | Mutation::SetInt(_) => false,
    }
}

/// A dynamically reported causal pair missing from the static map — a
/// soundness bug in the analysis or the engine.
#[derive(Debug, Clone)]
pub struct OracleViolation {
    /// The unexplained record (boxed: a record is large, and the error
    /// travels in every `check_report` result).
    pub record: Box<CausalityRecord>,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "causality record not in static reachability map: {:?} at {}:{} ({:?})",
            self.record.kind, self.record.func, self.record.site, self.record.sys
        )
    }
}

impl std::error::Error for OracleViolation {}
