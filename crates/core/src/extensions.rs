//! Analysis extensions beyond the paper's core engine.
//!
//! * [`Analysis::attribute_sources`] — the paper runs *all* sources mutated
//!   at once ("It does not require running multiple times for individual
//!   sources", §3) and reports that *some* source is causal. When an
//!   analyst needs to know **which**, this extension runs a slave once per
//!   source and returns the per-source verdicts.
//! * [`Analysis::causal_strength`] — §2 defines causal *strength*: a strong
//!   cause is a one-to-one mapping from source values to sink values; weak
//!   causes are many-to-one. The engine's single off-by-one run detects
//!   strong causality; this extension probes with a battery of distinct
//!   mutations and reports the fraction that flipped a sink — an empirical
//!   strength score (1.0 = every perturbation observable = strong;
//!   near 0.0 = most perturbations absorbed = weak).
//!
//! Every one of these runs, and [`Analysis::run`]'s own, has the same
//! master: only the sources the slave perturbs differ (§3). So an analysis
//! records its master once, alone, at the first attribution or probe that
//! needs it, and runs each spec as a slave replayed against that
//! recording. A spec already run is not run again: its report is reused
//! (the combined run and a one-source attribution have the same spec, and
//! so has the off-by-one strength probe for an off-by-one source).
//! [`Analysis::run`] makes no recording: before there is one, it is a
//! two-thread dual execution, so a lone run overlaps its master and slave.
//! A program with a `spawn` site takes no recording, since its slave's
//! threads are paced by a running master: its specs run as full dual
//! executions.

use crate::{Analysis, BatchEngine, BatchJob};
use ldx_dualex::{
    dual_execute, record, replay, DualReport, DualSpec, Mutation, Recording, SourceSpec,
};
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// An analysis' master recording and the reports run against it, keyed
/// by their whole spec.
#[derive(Debug, Default)]
pub(crate) struct Replays {
    recording: OnceLock<Arc<Recording>>,
    reports: Mutex<Vec<(DualSpec, DualReport)>>,
}

impl Replays {
    /// The report of a spec equal to `spec` run before, if any.
    fn reused(&self, spec: &DualSpec) -> Option<DualReport> {
        let reports = self.reports.lock();
        let report = reports.iter().find(|(s, _)| s == spec)?.1.clone();
        crate::obs::counter_add("dualex.reports_reused", 1);
        Some(report)
    }
}

/// Verdict for one source (see [`Analysis::attribute_sources`]).
#[derive(Debug, Clone)]
pub struct SourceAttribution {
    /// Index into the analysis' source list.
    pub index: usize,
    /// The source specification.
    pub source: SourceSpec,
    /// Whether mutating *only* this source produced causality.
    pub causal: bool,
    /// Always `false`: every source runs. Kept only because ldxperf's
    /// `attribution` workload (`ldxperf/src/cases.rs`) still filters on it.
    pub pruned: bool,
    /// The per-source dual-execution report.
    pub report: DualReport,
}

/// Empirical causal-strength estimate (see [`Analysis::causal_strength`]).
#[derive(Debug, Clone)]
pub struct StrengthReport {
    /// Mutations that produced a sink difference.
    pub flipped: usize,
    /// Mutations probed.
    pub probed: usize,
}

impl StrengthReport {
    /// The strength score in `[0, 1]`: 1.0 means every probe was observable
    /// at the sinks (a one-to-one, *strong* causality in §2's terms).
    pub fn score(&self) -> f64 {
        if self.probed == 0 {
            0.0
        } else {
            self.flipped as f64 / self.probed as f64
        }
    }

    /// Whether the causality behaves as a strong (one-to-one) cause.
    pub fn is_strong(&self) -> bool {
        self.probed > 0 && self.flipped == self.probed
    }
}

impl Analysis {
    /// Runs the dual execution once per configured source, mutating only
    /// that source, and reports which of them are individually causal.
    /// Each run is a slave replayed against this analysis' recording, or
    /// the report of an equal spec already run (see the module docs).
    ///
    /// The per-source runs are independent, so they fan out on an
    /// auto-sized [`BatchEngine`]; use [`Analysis::attribute_sources_with`]
    /// to control (or share) the pool.
    pub fn attribute_sources(&self) -> Vec<SourceAttribution> {
        self.attribute_sources_with(&BatchEngine::auto())
    }

    /// [`Analysis::attribute_sources`] on a caller-provided pool. Results
    /// are in source order regardless of the schedule.
    ///
    /// In debug builds every report is checked against the `ldx-sdep`
    /// static map (the soundness oracle).
    pub fn attribute_sources_with(&self, engine: &BatchEngine) -> Vec<SourceAttribution> {
        let spec = self.spec();
        let sdep = cfg!(debug_assertions).then(|| self.static_analysis());
        let specs = spec
            .sources
            .iter()
            .enumerate()
            .map(|(index, source)| {
                (
                    format!("source#{index}"),
                    self.single_source(source.clone()),
                )
            })
            .collect();
        let reports = self.run_specs(engine, specs);
        spec.sources
            .iter()
            .zip(reports)
            .enumerate()
            .map(|(index, (source, report))| {
                if let Some(analysis) = &sdep {
                    debug_assert!(
                        analysis
                            .check_report(std::slice::from_ref(source), &report)
                            .is_ok(),
                        "soundness oracle: causality record outside the static map \
                         for source #{index} ({source:?})"
                    );
                }
                SourceAttribution {
                    index,
                    source: source.clone(),
                    causal: report.leaked(),
                    pruned: false,
                    report,
                }
            })
            .collect()
    }

    /// This analysis' spec with `source` as its only source.
    fn single_source(&self, source: SourceSpec) -> DualSpec {
        DualSpec {
            sources: vec![source],
            ..self.spec().clone()
        }
    }

    /// Runs the dual execution and returns the causality report: the
    /// report of an equal spec run before if there is one, else a slave
    /// replayed against this analysis' recording if an attribution or
    /// strength probe has made one, else a two-thread [`dual_execute`],
    /// which records nothing, so a lone run overlaps its master and slave.
    /// Unless the program has a `spawn` site, the report is kept for
    /// reuse.
    pub fn run(&self) -> DualReport {
        let spec = self.spec();
        if let Some(report) = self.replays.reused(spec) {
            return report;
        }
        let report = match self.replays.recording.get() {
            Some(recording) => replay(recording, spec),
            None => dual_execute(self.program(), self.world_ref(), spec),
        };
        if !self.program().spawns_threads() {
            let kept = (spec.clone(), report.clone());
            self.replays.reports.lock().push(kept);
        }
        report
    }

    /// The reports of `specs` (labelled jobs), in order: reused where an
    /// equal spec ran before, else replayed on `engine` against this
    /// analysis' recording, which is made first if there is none yet and
    /// some spec is not reused. Without a recording (a program with a
    /// `spawn` site) each spec runs as a dual execution.
    fn run_specs(&self, engine: &BatchEngine, specs: Vec<(String, DualSpec)>) -> Vec<DualReport> {
        let mut reports: Vec<Option<DualReport>> = specs
            .iter()
            .map(|(_, spec)| self.replays.reused(spec))
            .collect();
        let unrun = reports.iter().any(Option::is_none);
        let recording = if unrun { self.recording() } else { None };
        let job = |label: &String, spec: &DualSpec| match &recording {
            Some(recording) => BatchJob::replay(label.clone(), Arc::clone(recording), spec.clone()),
            None => BatchJob::new(
                label.clone(),
                self.program(),
                self.world_ref().clone(),
                spec.clone(),
            ),
        };
        let jobs = specs
            .iter()
            .zip(&reports)
            .filter(|(_, report)| report.is_none())
            .map(|((label, spec), _)| job(label, spec))
            .collect();
        let mut fresh = engine.run(jobs).results.into_iter().map(|r| r.report);
        let mut kept = self.replays.reports.lock();
        for ((_, spec), slot) in specs.into_iter().zip(&mut reports) {
            if slot.is_none() {
                let report = fresh.next().expect("one result per scheduled job");
                if recording.is_some() {
                    kept.push((spec, report.clone()));
                }
                *slot = Some(report);
            }
        }
        reports.into_iter().flatten().collect()
    }

    /// This analysis' recording, made now (the master alone, on the
    /// calling thread) if there is none yet; `None` for a program with a
    /// `spawn` site.
    fn recording(&self) -> Option<Arc<Recording>> {
        if self.program().spawns_threads() {
            return None;
        }
        let recording = self
            .replays
            .recording
            .get_or_init(|| Arc::new(record(self.program(), self.world_ref(), self.spec())));
        Some(Arc::clone(recording))
    }

    /// Probes the first source with a battery of distinct mutations and
    /// reports how many were observable at the sinks.
    ///
    /// The default battery holds the off-by-one family plus bit-flip and
    /// zeroing; pass extra `probes` to extend it (e.g. domain-specific
    /// replacements).
    pub fn causal_strength(&self, probes: &[Mutation]) -> StrengthReport {
        self.causal_strength_with(&BatchEngine::auto(), probes)
    }

    /// [`Analysis::causal_strength`] on a caller-provided pool: the whole
    /// battery runs as one batch (of replays, less any probe already run).
    pub fn causal_strength_with(
        &self,
        engine: &BatchEngine,
        probes: &[Mutation],
    ) -> StrengthReport {
        let spec = self.spec();
        let Some(base) = spec.sources.first() else {
            return StrengthReport {
                flipped: 0,
                probed: 0,
            };
        };
        let mut battery = vec![Mutation::OffByOne, Mutation::BitFlip, Mutation::Zero];
        battery.extend(probes.iter().cloned());
        let probe = |mutation: &Mutation| SourceSpec {
            matcher: base.matcher.clone(),
            mutation: mutation.clone(),
        };
        let specs = battery
            .iter()
            .enumerate()
            .map(|(index, mutation)| {
                (
                    format!("probe#{index}"),
                    self.single_source(probe(mutation)),
                )
            })
            .collect();
        let reports = self.run_specs(engine, specs);
        StrengthReport {
            flipped: reports.iter().filter(|r| r.leaked()).count(),
            probed: battery.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SinkSpec;
    use ldx_vos::{PeerBehavior, VosConfig};

    fn two_source_analysis() -> Analysis {
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
    fn attribution_separates_causal_from_inert_sources() {
        let analysis = two_source_analysis();
        // The combined run reports causality...
        assert!(analysis.run().leaked());
        // ...and attribution pins it on /a alone.
        let attributions = analysis.attribute_sources();
        assert_eq!(attributions.len(), 2);
        assert!(attributions[0].causal, "/a flows to the sink");
        assert!(!attributions[1].causal, "/b does not");
    }

    /// The argument difference of the first sink record: (master, slave).
    fn arg_diff(report: &DualReport) -> (String, String) {
        report
            .causality
            .iter()
            .find_map(|c| match &c.kind {
                crate::CausalityKind::ArgDiff { master, slave } => {
                    Some((master.clone(), slave.clone()))
                }
                _ => None,
            })
            .expect("a sink argument difference")
    }

    #[test]
    fn a_clone_that_changes_its_world_never_sees_the_original_recording() {
        let original = two_source_analysis();
        original.attribute_sources();
        assert!(original.replays.recording.get().is_some());
        let moved = original.clone().world(
            VosConfig::new()
                .file("/a", "other")
                .file("/b", "unused")
                .peer("out", PeerBehavior::Echo),
        );
        assert!(moved.replays.recording.get().is_none());
        let attributed = |a: &Analysis| arg_diff(&a.attribute_sources()[0].report).0;
        assert!(attributed(&moved).contains("payload=other"));
        assert!(attributed(&original).contains("payload=used"));
        // A clone shares the recording until a builder changes what its
        // master sees; sources do not.
        let shares = |a: &Analysis| Arc::ptr_eq(&a.replays, &original.replays);
        assert!(shares(&original.clone().source(SourceSpec::file("/c"))));
        let exec = ldx_runtime::ExecConfig::default();
        for fresh in [
            original.clone().sinks(SinkSpec::Outputs),
            original.clone().recorded(),
            original.clone().exec_config(exec),
        ] {
            assert!(!shares(&fresh) && fresh.replays.recording.get().is_none());
        }
    }

    #[test]
    fn a_reused_report_comes_only_from_an_equal_spec() {
        let both = Analysis::for_source(
            r#"fn main() {
                let a = read(open("/a", 0), 8);
                let b = read(open("/b", 0), 8);
                send(connect("out"), a + "|" + b);
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/a", "a1")
                .file("/b", "b1")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/a"))
        .source(SourceSpec::file("/b"))
        .sinks(SinkSpec::NetworkOut);
        let combined = both.run();
        assert_eq!(arg_diff(&combined).1, "5, a2|b2");
        // Each attribution perturbs one source: no spec equals the
        // combined one, so each is replayed.
        let attributions = both.attribute_sources();
        assert_eq!(arg_diff(&attributions[0].report).1, "5, a2|b1");
        assert_eq!(arg_diff(&attributions[1].report).1, "5, a1|b2");
        // The strength battery probes /a: its off-by-one probe is the /a
        // attribution's spec, so 3 specs plus 2 probes were run in all.
        assert!(both.causal_strength(&[]).is_strong());
        let kept = both.replays.reports.lock();
        assert_eq!(kept.len(), 5);
        for (i, (spec, _)) in kept.iter().enumerate() {
            assert!(kept[..i].iter().all(|(other, _)| other != spec));
        }
        drop(kept);
        let again = both.attribute_sources();
        assert_eq!(again[0].report.causality, attributions[0].report.causality);
    }

    #[test]
    fn a_lone_run_records_nothing_and_a_later_run_replays() {
        let lone = two_source_analysis();
        let live = lone.run();
        assert!(lone.replays.recording.get().is_none());
        assert_eq!(lone.replays.reports.lock().len(), 1);
        let later = two_source_analysis();
        later.attribute_sources();
        let recording = later.replays.recording.get().map(Arc::clone);
        let recording = recording.expect("the attribution records the master");
        let replayed = later.run();
        assert_eq!(replayed.causality, live.causality);
        assert_eq!(replayed.syscall_diffs, live.syscall_diffs);
        let kept = later.replays.reports.lock();
        assert_eq!(kept.last().map(|(spec, _)| spec), Some(later.spec()));
        let current = later.replays.recording.get();
        assert!(current.is_some_and(|r| Arc::ptr_eq(r, &recording)));
    }

    #[test]
    fn a_program_with_a_spawn_site_never_records() {
        let analysis = Analysis::for_source(
            r#"fn work(v) { send(connect("out"), v); }
            fn main() {
                let v = read(open("/a", 0), 8);
                join(spawn(&work, v));
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/a", "value")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/a"))
        .sinks(SinkSpec::NetworkOut);
        assert!(analysis.run().leaked());
        assert!(analysis.attribute_sources()[0].causal);
        assert!(analysis.causal_strength(&[]).is_strong());
        assert!(analysis.replays.recording.get().is_none());
        assert!(analysis.replays.reports.lock().is_empty());
    }

    #[test]
    fn strength_strong_for_one_to_one() {
        let analysis = Analysis::for_source(
            r#"fn main() {
                let v = read(open("/a", 0), 8);
                send(connect("out"), v);
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/a", "value")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/a"))
        .sinks(SinkSpec::NetworkOut);
        let strength = analysis.causal_strength(&[]);
        assert!(strength.is_strong(), "{strength:?}");
        assert_eq!(strength.score(), 1.0);
    }

    #[test]
    fn strength_weak_for_many_to_one() {
        // Sink reveals only `len(v) > 100`: absorbed by every mutation in
        // the battery (a weak cause in the paper's §2 sense).
        let analysis = Analysis::for_source(
            r#"fn main() {
                let v = read(open("/a", 0), 200);
                let big = 0;
                if (len(v) > 100) { big = 1; }
                send(connect("out"), str(big));
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/a", "short")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/a"))
        .sinks(SinkSpec::NetworkOut);
        let strength = analysis.causal_strength(&[]);
        assert_eq!(strength.flipped, 0, "{strength:?}");
        assert!(!strength.is_strong());
    }

    #[test]
    fn strength_partial_for_threshold_predicates() {
        // Sink reveals v >= 10 at v=10: off-by-one (11) keeps it, zeroing
        // flips it — a partially observable cause.
        let analysis = Analysis::for_source(
            r#"fn main() {
                let v = int(read(open("/a", 0), 8));
                let c = 0;
                if (v >= 10) { c = 1; }
                send(connect("out"), str(c));
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/a", "10")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/a"))
        .sinks(SinkSpec::NetworkOut);
        let strength = analysis.causal_strength(&[]);
        assert!(strength.flipped > 0 && strength.flipped < strength.probed);
        assert!(strength.score() > 0.0 && strength.score() < 1.0);
    }
}
