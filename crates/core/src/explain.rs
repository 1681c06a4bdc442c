//! `ldx explain`: causal provenance reports, a view of the attribution
//! run's flight logs.
//!
//! [`Analysis::attribute_sources`] answers *which* sources are causal;
//! this module reconstructs *why* from the same runs: for each causal
//! (source, sink) pair it assembles the provenance chain — the mutated
//! source value, the first decoupled syscall, every tainted resource, and
//! the first diverging sink with its byte-level diff — and
//! cross-references it against the
//! static dependence analysis: the `ldx-sdep` PDG path from the source
//! site to the sink site, each step annotated with whether a dynamic
//! flight-recorder event witnessed it, plus the "static-predicted but
//! dynamically quiet" residue.
//!
//! # Determinism
//!
//! [`ExplainReport::to_json`] is byte-identical across runs of the same
//! (single-threaded) program and spec, and across `--no-prune`: chains
//! are built only from *causal* attributions (identical either way),
//! lane order is each role's deterministic execution order, resources
//! are sorted, and timing-dependent recorder facts (barrier deltas) are
//! never serialized. The format is `schemas/explain_schema.json`.

use crate::{Analysis, SourceAttribution};
use ldx_dualex::{
    key_scalar, ByteDiff, CausalityKind, Decision, FlightEvent, Mutation, SourceMatcher,
};
use ldx_ir::IrProgram;
use ldx_obs::json_string;
use ldx_sdep::{SiteRef, StaticAnalysis};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A human-readable description of a source matcher (`file:/a`,
/// `net:host`, `client:7`, `syscall:random`, `site:main:3`).
pub fn matcher_desc(matcher: &SourceMatcher) -> String {
    match matcher {
        SourceMatcher::FileRead(path) => format!("file:{path}"),
        SourceMatcher::NetRecv(host) => format!("net:{host}"),
        SourceMatcher::ClientRecv(port) => format!("client:{port}"),
        SourceMatcher::SyscallKind(sys) => format!("syscall:{sys}"),
        SourceMatcher::Site(func, site) => format!("site:{func}:{site}"),
    }
}

/// The stable lowercase name of a mutation kind.
pub fn mutation_name(mutation: &Mutation) -> &'static str {
    match mutation {
        Mutation::OffByOne => "off-by-one",
        Mutation::BitFlip => "bit-flip",
        Mutation::Zero => "zero",
        Mutation::Replace(_) => "replace",
        Mutation::SetInt(_) => "set-int",
        Mutation::Identity => "identity",
    }
}

/// The stable lowercase name of a causality kind.
fn kind_name(kind: &CausalityKind) -> &'static str {
    match kind {
        CausalityKind::ArgDiff { .. } => "arg-diff",
        CausalityKind::MasterOnlySink => "master-only-sink",
        CausalityKind::SlaveOnlySink => "slave-only-sink",
        CausalityKind::PathDiffAtSink => "path-diff",
        CausalityKind::EndDiff { .. } => "end-diff",
    }
}

/// One per-source verdict line of the report header.
#[derive(Debug, Clone)]
pub struct SourceSummary {
    /// Index into the analysis' source list.
    pub index: usize,
    /// Matcher description ([`matcher_desc`]).
    pub matcher: String,
    /// Mutation name ([`mutation_name`]).
    pub mutation: &'static str,
    /// Whether mutating only this source produced causality.
    pub causal: bool,
    /// `ldx-sdep` proves the (source, sinks) pair independent. Reported
    /// instead of the runtime "was pruned" fact so the JSON stays
    /// byte-identical under `--no-prune` (which runs pairs the static
    /// analysis would have skipped, without changing any verdict).
    pub statically_independent: bool,
}

/// A syscall interposition event referenced from a chain, with both
/// progress-counter values at the point alignment was resolved.
#[derive(Debug, Clone)]
pub struct ChainSyscall {
    /// The interposition decision name (`decoupled`, `compared`, …).
    pub decision: &'static str,
    /// Function name containing the site.
    pub func: String,
    /// The static site index.
    pub site: u32,
    /// The syscall name.
    pub sys: String,
    /// Master progress-counter scalar.
    pub master_cnt: u64,
    /// Slave progress-counter scalar.
    pub slave_cnt: u64,
    /// Whether the site is a sink under the spec.
    pub is_sink: bool,
}

/// The recorded application of the mutation to the source outcome.
#[derive(Debug, Clone)]
pub struct ChainMutation {
    /// Function name containing the source site.
    pub func: String,
    /// The source site index.
    pub site: u32,
    /// The source syscall name.
    pub sys: String,
    /// Progress-counter scalar at the mutation.
    pub cnt: u64,
    /// Bounded excerpt of the original outcome.
    pub original: String,
    /// Bounded excerpt of the mutated outcome.
    pub mutated: String,
}

/// The diverging sink terminating a chain.
#[derive(Debug, Clone)]
pub struct ChainSink {
    /// Function name containing the sink site.
    pub func: String,
    /// The sink site index.
    pub site: u32,
    /// The sink syscall name.
    pub sys: String,
    /// The causality kind name (`arg-diff`, `master-only-sink`, …).
    pub kind: &'static str,
    /// The byte-level payload diff, when both payloads exist.
    pub diff: Option<ByteDiff>,
}

/// One step of the static PDG witness path, annotated with whether any
/// dynamic flight-recorder event anchored at the site.
#[derive(Debug, Clone)]
pub struct StaticStep {
    /// Function name containing the site.
    pub func: String,
    /// The site index.
    pub site: u32,
    /// A dynamic event witnessed this site.
    pub witnessed: bool,
}

/// The provenance chain of one causal (source, sink) pair.
#[derive(Debug, Clone)]
pub struct CausalChain {
    /// Index of the causal source.
    pub source_index: usize,
    /// Matcher description of the source.
    pub source: String,
    /// The recorded mutation application (first in slave order).
    pub mutation: Option<ChainMutation>,
    /// The first syscall the slave executed decoupled.
    pub first_decoupled: Option<ChainSyscall>,
    /// The first aligned sink comparison.
    pub first_compared: Option<ChainSyscall>,
    /// Every tainted resource id, sorted (`path:…`, `lock:…`, …).
    pub tainted_resources: Vec<String>,
    /// Copy-on-write clones, `(resource, replayed position)`, in slave
    /// execution order.
    pub cow_clones: Vec<(String, u64)>,
    /// The first diverging sink.
    pub sink: ChainSink,
    /// The static PDG path from a source candidate site to the sink
    /// (empty when no candidate reaches the sink statically — e.g. a
    /// race-induced record in a threaded program).
    pub static_path: Vec<StaticStep>,
}

impl CausalChain {
    /// Static-path steps no dynamic event witnessed: the
    /// "static-predicted but dynamically quiet" residue.
    pub fn static_quiet(&self) -> Vec<&StaticStep> {
        self.static_path.iter().filter(|s| !s.witnessed).collect()
    }
}

/// The full `ldx explain` report: per-source verdicts, one provenance
/// chain per causal source, and the recorder totals over causal runs.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// A label for the analyzed program (path or name).
    pub program: String,
    /// Per-source verdicts, in source order.
    pub sources: Vec<SourceSummary>,
    /// One chain per causal source, in source order.
    pub chains: Vec<CausalChain>,
    /// Master-lane events recorded across the causal runs.
    pub master_events: u64,
    /// Slave-lane events recorded across the causal runs.
    pub slave_events: u64,
    /// Events dropped on lane overflow across the causal runs.
    pub dropped: u64,
}

fn syscall_json(ev: &ChainSyscall) -> String {
    format!(
        "{{\"decision\": {}, \"func\": {}, \"site\": {}, \"sys\": {}, \
         \"master_cnt\": {}, \"slave_cnt\": {}, \"is_sink\": {}}}",
        json_string(ev.decision),
        json_string(&ev.func),
        ev.site,
        json_string(&ev.sys),
        ev.master_cnt,
        ev.slave_cnt,
        ev.is_sink
    )
}

fn diff_json(d: &ByteDiff) -> String {
    let first = d
        .first_diff
        .map_or_else(|| "null".to_string(), |o| o.to_string());
    format!(
        "{{\"first_diff\": {first}, \"master_len\": {}, \"slave_len\": {}, \
         \"master_hunk\": {}, \"slave_hunk\": {}}}",
        d.master_len,
        d.slave_len,
        json_string(&d.master_hunk),
        json_string(&d.slave_hunk)
    )
}

impl ExplainReport {
    /// Whether any chain was reconstructed (i.e. any source is causal).
    pub fn any_causal(&self) -> bool {
        !self.chains.is_empty()
    }

    /// The report as deterministic JSON (`schemas/explain_schema.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"ldx-explain-v1\",");
        let _ = writeln!(out, "  \"program\": {},", json_string(&self.program));
        out.push_str("  \"sources\": [");
        for (i, s) in self.sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"index\": {}, \"matcher\": {}, \"mutation\": {}, \
                 \"causal\": {}, \"statically_independent\": {}}}",
                s.index,
                json_string(&s.matcher),
                json_string(s.mutation),
                s.causal,
                s.statically_independent
            );
        }
        out.push_str("\n  ],\n  \"chains\": [");
        for (i, c) in self.chains.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let _ = writeln!(out, "      \"source_index\": {},", c.source_index);
            let _ = writeln!(out, "      \"source\": {},", json_string(&c.source));
            match &c.mutation {
                Some(m) => {
                    let _ = writeln!(
                        out,
                        "      \"mutation\": {{\"func\": {}, \"site\": {}, \"sys\": {}, \
                         \"cnt\": {}, \"original\": {}, \"mutated\": {}}},",
                        json_string(&m.func),
                        m.site,
                        json_string(&m.sys),
                        m.cnt,
                        json_string(&m.original),
                        json_string(&m.mutated)
                    );
                }
                None => out.push_str("      \"mutation\": null,\n"),
            }
            for (key, ev) in [
                ("first_decoupled", &c.first_decoupled),
                ("first_compared", &c.first_compared),
            ] {
                match ev {
                    Some(ev) => {
                        let _ = writeln!(out, "      \"{key}\": {},", syscall_json(ev));
                    }
                    None => {
                        let _ = writeln!(out, "      \"{key}\": null,");
                    }
                }
            }
            out.push_str("      \"tainted_resources\": [");
            for (j, r) in c.tainted_resources.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(r));
            }
            out.push_str("],\n      \"cow_clones\": [");
            for (j, (r, pos)) in c.cow_clones.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"resource\": {}, \"pos\": {pos}}}", json_string(r));
            }
            out.push_str("],\n");
            let diff = c
                .sink
                .diff
                .as_ref()
                .map_or_else(|| "null".to_string(), diff_json);
            let _ = writeln!(
                out,
                "      \"sink\": {{\"func\": {}, \"site\": {}, \"sys\": {}, \
                 \"kind\": {}, \"diff\": {diff}}},",
                json_string(&c.sink.func),
                c.sink.site,
                json_string(&c.sink.sys),
                json_string(c.sink.kind)
            );
            out.push_str("      \"static_path\": [");
            for (j, s) in c.static_path.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"func\": {}, \"site\": {}, \"witnessed\": {}}}",
                    json_string(&s.func),
                    s.site,
                    s.witnessed
                );
            }
            out.push_str("],\n      \"static_quiet\": [");
            for (j, s) in c.static_quiet().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"func\": {}, \"site\": {}}}",
                    json_string(&s.func),
                    s.site
                );
            }
            out.push_str("]\n    }");
        }
        let _ = write!(
            out,
            "\n  ],\n  \"recorder\": {{\"master_events\": {}, \"slave_events\": {}, \
             \"dropped\": {}}}\n}}\n",
            self.master_events, self.slave_events, self.dropped
        );
        out
    }

    /// A terminal-friendly rendering of the report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let causal = self.sources.iter().filter(|s| s.causal).count();
        let _ = writeln!(
            out,
            "explain {}: {} sources, {causal} causal",
            self.program,
            self.sources.len()
        );
        for s in &self.sources {
            let verdict = if s.statically_independent {
                "inert (statically independent)"
            } else if s.causal {
                "CAUSAL"
            } else {
                "inert"
            };
            let _ = writeln!(
                out,
                "  source #{} {} ({}): {verdict}",
                s.index, s.matcher, s.mutation
            );
        }
        for c in &self.chains {
            let _ = writeln!(out, "chain for source #{} {}:", c.source_index, c.source);
            match &c.mutation {
                Some(m) => {
                    let _ = writeln!(
                        out,
                        "  mutated   @ {}:s{} {} cnt={}: {:?} -> {:?}",
                        m.func, m.site, m.sys, m.cnt, m.original, m.mutated
                    );
                }
                None => out.push_str("  mutated   : (no recorded mutation)\n"),
            }
            for (label, ev) in [
                ("decoupled", &c.first_decoupled),
                ("compared ", &c.first_compared),
            ] {
                if let Some(ev) = ev {
                    let _ = writeln!(
                        out,
                        "  {label} @ {}:s{} {} cnt={}/{}{}",
                        ev.func,
                        ev.site,
                        ev.sys,
                        ev.master_cnt,
                        ev.slave_cnt,
                        if ev.is_sink { " (sink)" } else { "" }
                    );
                }
            }
            if !c.tainted_resources.is_empty() {
                let _ = writeln!(out, "  tainted   : {}", c.tainted_resources.join(", "));
            }
            for (r, pos) in &c.cow_clones {
                let _ = writeln!(out, "  cow-clone : {r} @ pos {pos}");
            }
            let _ = write!(
                out,
                "  sink      @ {}:s{} {} [{}]",
                c.sink.func, c.sink.site, c.sink.sys, c.sink.kind
            );
            match &c.sink.diff {
                Some(d) => {
                    let at = d
                        .first_diff
                        .map_or_else(|| "length mismatch".to_string(), |o| format!("byte {o}"));
                    let _ = writeln!(
                        out,
                        ": diverges at {at} ({:?} vs {:?}, {} vs {} bytes)",
                        d.master_hunk, d.slave_hunk, d.master_len, d.slave_len
                    );
                }
                None => out.push('\n'),
            }
            if c.static_path.is_empty() {
                out.push_str("  static    : no PDG witness path\n");
            } else {
                let steps: Vec<String> = c
                    .static_path
                    .iter()
                    .map(|s| {
                        format!(
                            "{}:s{}{}",
                            s.func,
                            s.site,
                            if s.witnessed { "" } else { "?" }
                        )
                    })
                    .collect();
                let quiet = c.static_quiet().len();
                let _ = writeln!(
                    out,
                    "  static    : {}{}",
                    steps.join(" -> "),
                    if quiet == 0 {
                        " (all witnessed)".to_string()
                    } else {
                        format!(" ({quiet} quiet)")
                    }
                );
            }
        }
        let _ = writeln!(
            out,
            "recorder: {} master + {} slave events, {} dropped",
            self.master_events, self.slave_events, self.dropped
        );
        out
    }
}

fn func_name(program: &IrProgram, func: ldx_ir::FuncId) -> String {
    program.func(func).name.clone()
}

fn chain_syscall(program: &IrProgram, ev: &FlightEvent) -> Option<ChainSyscall> {
    if let FlightEvent::Syscall {
        decision,
        key,
        func,
        site,
        sys,
        is_sink,
        ..
    } = ev
    {
        // Chains cite decoupled and compared slave decisions only: the
        // master is at the slave's key (compared) or its position is
        // unknown and the slave's is the deterministic lower bound.
        let cnt = key_scalar(key);
        Some(ChainSyscall {
            decision: decision.name(),
            func: func_name(program, *func),
            site: site.0,
            sys: sys.to_string(),
            master_cnt: cnt,
            slave_cnt: cnt,
            is_sink: *is_sink,
        })
    } else {
        None
    }
}

/// Builds the provenance chain for one causal attribution.
fn build_chain(
    program: &IrProgram,
    sdep: &StaticAnalysis,
    attr: &SourceAttribution,
) -> Option<CausalChain> {
    let record = attr.report.causality.first()?;
    let flight = &attr.report.flight;

    let mutation = flight.slave.iter().find_map(|ev| {
        if let FlightEvent::Mutated {
            key,
            func,
            site,
            sys,
            original,
            mutated,
            ..
        } = ev
        {
            Some(ChainMutation {
                func: func_name(program, *func),
                site: site.0,
                sys: sys.to_string(),
                cnt: key_scalar(key),
                original: original.clone(),
                mutated: mutated.clone(),
            })
        } else {
            None
        }
    });

    let first_with = |want: Decision| {
        flight.slave.iter().find_map(|ev| {
            matches!(ev, FlightEvent::Syscall { decision, .. } if *decision == want)
                .then(|| chain_syscall(program, ev))
                .flatten()
        })
    };
    let first_decoupled = first_with(Decision::Decoupled);
    let first_compared = first_with(Decision::Compared);

    let tainted: BTreeSet<String> = flight
        .slave
        .iter()
        .chain(&flight.master)
        .filter_map(|ev| match ev {
            FlightEvent::Taint { resource } => Some(resource.to_string()),
            _ => None,
        })
        .collect();
    let cow_clones: Vec<(String, u64)> = flight
        .slave
        .iter()
        .filter_map(|ev| match ev {
            FlightEvent::CowClone { resource, pos } => Some((resource.to_string(), *pos)),
            _ => None,
        })
        .collect();

    let sink_site: SiteRef = (record.func, record.site);
    let diff = flight
        .slave
        .iter()
        .find_map(|ev| match ev {
            FlightEvent::SinkDiff {
                func, site, diff, ..
            } if (*func, *site) == sink_site => Some(diff.clone()),
            _ => None,
        })
        .or_else(|| match &record.kind {
            CausalityKind::ArgDiff { master, slave } | CausalityKind::EndDiff { master, slave } => {
                Some(ByteDiff::compute(master, slave))
            }
            _ => None,
        });
    let sink = ChainSink {
        func: func_name(program, record.func),
        site: record.site.0,
        sys: record.sys.to_string(),
        kind: kind_name(&record.kind),
        diff,
    };

    // The static witness: the first source candidate site (deterministic
    // BTreeMap order) with a PDG path to the sink (to the end-state node
    // for EndDiff records).
    let is_end = matches!(record.kind, CausalityKind::EndDiff { .. });
    let path: Vec<SiteRef> = sdep
        .candidate_sites(&attr.source.matcher)
        .into_iter()
        .find_map(|candidate| {
            if is_end {
                sdep.path_to_end(candidate)
            } else {
                sdep.path_witness(candidate, sink_site)
            }
        })
        .unwrap_or_default();
    let witnessed: BTreeSet<SiteRef> = flight
        .master
        .iter()
        .chain(&flight.slave)
        .filter_map(FlightEvent::site)
        .collect();
    let static_path = path
        .into_iter()
        .map(|step| StaticStep {
            func: func_name(program, step.0),
            site: step.1 .0,
            witnessed: witnessed.contains(&step),
        })
        .collect();

    Some(CausalChain {
        source_index: attr.index,
        source: matcher_desc(&attr.source.matcher),
        mutation,
        first_decoupled,
        first_compared,
        tainted_resources: tainted.into_iter().collect(),
        cow_clones,
        sink,
        static_path,
    })
}

impl Analysis {
    /// Runs the per-source attribution with flight recording enabled (on
    /// an auto-sized [`BatchEngine`](crate::BatchEngine)) and reconstructs
    /// the provenance chain of every causal source:
    /// [`Analysis::explain_attributions`] over that one attribution.
    pub fn explain(&self, program_label: &str) -> ExplainReport {
        let attributions = self.clone().recorded().attribute_sources();
        self.explain_attributions(&attributions, program_label)
    }

    /// Builds the report from `attributions` (run with recording on) —
    /// no execution, so every chain explains the verdict beside it.
    ///
    /// Recorder totals are summed over the *causal* runs only, so the
    /// JSON is byte-identical whether or not static pruning skipped the
    /// inert sources.
    pub fn explain_attributions(
        &self,
        attributions: &[SourceAttribution],
        program_label: &str,
    ) -> ExplainReport {
        let _span = ldx_obs::span(ldx_obs::cat::BATCH, "explain");
        let program = self.program();
        let sdep = self.static_analysis();
        let sinks = &self.spec().sinks;
        let sources = attributions
            .iter()
            .map(|attr| SourceSummary {
                index: attr.index,
                matcher: matcher_desc(&attr.source.matcher),
                mutation: mutation_name(&attr.source.mutation),
                causal: attr.causal,
                statically_independent: !sdep.may_cause(&attr.source, sinks),
            })
            .collect();
        let causal: Vec<&SourceAttribution> = attributions.iter().filter(|a| a.causal).collect();
        let flights = || causal.iter().map(|attr| &attr.report.flight);
        ExplainReport {
            program: program_label.to_string(),
            sources,
            chains: causal
                .iter()
                .filter_map(|attr| build_chain(&program, &sdep, attr))
                .collect(),
            master_events: flights().map(|f| f.master.len() as u64).sum(),
            slave_events: flights().map(|f| f.slave.len() as u64).sum(),
            dropped: flights().map(|f| f.dropped()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SinkSpec, SourceSpec};
    use ldx_vos::{PeerBehavior, VosConfig};

    fn leaky_analysis() -> Analysis {
        Analysis::for_source(
            r#"fn main() {
                let a = read(open("/a", 0), 8);
                let b = read(open("/b", 0), 8);
                send(connect("out"), "payload=" + a);
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/a", "used")
                .file("/b", "unused")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/a"))
        .source(SourceSpec::file("/b"))
        .sinks(SinkSpec::NetworkOut)
    }

    #[test]
    fn explain_builds_a_complete_chain() {
        let report = leaky_analysis().explain("test.lx");
        assert!(report.any_causal());
        assert_eq!(report.chains.len(), 1);
        let chain = &report.chains[0];
        assert_eq!(chain.source_index, 0);
        assert_eq!(chain.source, "file:/a");
        let m = chain.mutation.as_ref().expect("mutation recorded");
        assert_eq!(m.sys, "read");
        assert_eq!(m.original, "used");
        assert_ne!(m.mutated, "used");
        let compared = chain.first_compared.as_ref().expect("sink compared");
        assert!(compared.is_sink);
        assert_eq!(compared.sys, "send");
        assert_eq!(chain.sink.kind, "arg-diff");
        let diff = chain.sink.diff.as_ref().expect("payload diff");
        assert!(diff.first_diff.is_some(), "{diff:?}");
        assert_ne!(diff.master_hunk, diff.slave_hunk);
        assert!(!chain.static_path.is_empty(), "PDG witness path exists");
        assert!(chain.static_path.iter().any(|s| s.witnessed));
        assert!(report.slave_events > 0);
    }

    #[test]
    fn explain_json_is_deterministic_and_prune_invariant() {
        let a = leaky_analysis().explain("test.lx").to_json();
        let b = leaky_analysis().explain("test.lx").to_json();
        assert_eq!(a, b, "same program+spec must explain identically");
        let c = leaky_analysis().no_prune().explain("test.lx").to_json();
        assert_eq!(a, c, "--no-prune must not change the explanation");
        assert!(a.contains("\"schema\": \"ldx-explain-v1\""));
        assert!(a.contains("\"causal\": true"));
        assert!(
            a.contains("\"statically_independent\": true"),
            "/b is provably independent"
        );
    }

    #[test]
    fn explain_text_renders_the_chain() {
        let text = leaky_analysis().explain("test.lx").render_text();
        assert!(text.contains("2 sources, 1 causal"));
        assert!(text.contains("chain for source #0 file:/a"));
        assert!(text.contains("mutated"));
        assert!(text.contains("sink"));
        assert!(text.contains("recorder:"));
    }

    #[test]
    fn explain_without_causality_has_no_chains() {
        let report = Analysis::for_source(
            r#"fn main() {
                let a = read(open("/a", 0), 8);
                send(connect("out"), "constant");
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/a", "x")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/a"))
        .sinks(SinkSpec::NetworkOut)
        .explain("quiet.lx");
        assert!(!report.any_causal());
        assert!(report.chains.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"chains\": [\n  ]") || json.contains("\"chains\": []"));
    }
}
