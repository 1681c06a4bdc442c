//! Analysis extensions beyond the paper's core engine.
//!
//! * [`Analysis::attribute_sources`] — the paper runs *all* sources mutated
//!   at once ("It does not require running multiple times for individual
//!   sources", §3) and reports that *some* source is causal. When an
//!   analyst needs to know **which**, this extension re-runs the dual
//!   execution once per source and returns the per-source verdicts.
//! * [`Analysis::causal_strength`] — §2 defines causal *strength*: a strong
//!   cause is a one-to-one mapping from source values to sink values; weak
//!   causes are many-to-one. The engine's single off-by-one run detects
//!   strong causality; this extension probes with a battery of distinct
//!   mutations and reports the fraction that flipped a sink — an empirical
//!   strength score (1.0 = every perturbation observable = strong;
//!   near 0.0 = most perturbations absorbed = weak).

use crate::{Analysis, BatchEngine, BatchJob};
use ldx_dualex::{DualReport, DualSpec, Mutation, SourceSpec};
use ldx_runtime::{RunOutcome, RunStats, Value};

/// Verdict for one source (see [`Analysis::attribute_sources`]).
#[derive(Debug, Clone)]
pub struct SourceAttribution {
    /// Index into the analysis' source list.
    pub index: usize,
    /// The source specification.
    pub source: SourceSpec,
    /// Whether mutating *only* this source produced causality.
    pub causal: bool,
    /// The dual execution was skipped because `ldx-sdep` proved the
    /// (source, sinks) pair statically independent. Implies `!causal`,
    /// and `report` is an empty placeholder.
    pub pruned: bool,
    /// The per-source dual-execution report.
    pub report: DualReport,
}

/// The placeholder report attached to statically pruned pairs: no runs
/// happened, so every field is the "nothing observed" value.
fn pruned_report() -> DualReport {
    let outcome = || RunOutcome {
        exit_code: 0,
        result: Value::Int(0),
        stats: RunStats::default(),
    };
    DualReport {
        causality: vec![],
        master: Ok(outcome()),
        slave: Ok(outcome()),
        syscall_diffs: 0,
        shared: 0,
        decoupled: 0,
        master_sinks: 0,
        timeouts: 0,
        flight: ldx_dualex::FlightLog::default(),
    }
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
    /// Re-runs the dual execution once per configured source, mutating only
    /// that source, and reports which of them are individually causal.
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
    /// With pruning enabled (the default), sources `ldx-sdep` proves
    /// statically independent of the sinks skip their dual execution
    /// entirely and come back with [`SourceAttribution::pruned`] set; the
    /// skips are counted in the `sdep.pruned_pairs` metric. Every report
    /// that *does* run is checked against the static map (the soundness
    /// oracle) in debug builds.
    pub fn attribute_sources_with(&self, engine: &BatchEngine) -> Vec<SourceAttribution> {
        let spec = self.spec();
        let sdep = self.prune_enabled().then(|| self.static_analysis());
        let should_run = self.prune_mask(spec.sources.iter().cloned());
        let jobs = spec
            .sources
            .iter()
            .enumerate()
            .filter(|&(index, _)| should_run[index])
            .map(|(index, source)| {
                self.single_source_job(format!("source#{index}"), source.clone())
            })
            .collect();
        let mut results = engine.run(jobs).results.into_iter();
        spec.sources
            .iter()
            .enumerate()
            .map(|(index, source)| {
                if !should_run[index] {
                    return SourceAttribution {
                        index,
                        source: source.clone(),
                        causal: false,
                        pruned: true,
                        report: pruned_report(),
                    };
                }
                let report = results.next().expect("one result per scheduled job").report;
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

    /// Which of `sources` may reach the sinks, so their dual execution
    /// must run: all of them unless pruning is on, in which case the skips
    /// are counted in the `sdep.pruned_pairs` metric.
    fn prune_mask(&self, sources: impl Iterator<Item = SourceSpec>) -> Vec<bool> {
        let sdep = self.prune_enabled().then(|| self.static_analysis());
        let mask: Vec<bool> = sources
            .map(|source| {
                sdep.as_ref()
                    .is_none_or(|a| a.may_cause(&source, &self.spec().sinks))
            })
            .collect();
        let pruned = mask.iter().filter(|run| !**run).count();
        if pruned > 0 {
            crate::obs::counter_add("sdep.pruned_pairs", pruned as u64);
        }
        mask
    }

    /// A batch job running this analysis with `source` as its only
    /// source (recording as configured).
    fn single_source_job(&self, label: String, source: SourceSpec) -> BatchJob {
        let spec = self.spec();
        let single = DualSpec {
            sources: vec![source],
            sinks: spec.sinks.clone(),
            record: spec.record,
            exec: spec.exec,
        };
        BatchJob::new(label, self.program(), self.world_ref().clone(), single)
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
    /// battery runs as one batch.
    ///
    /// With pruning enabled, probes whose (mutated source, sinks) pair is
    /// statically independent never run — they count as probed but not
    /// flipped, exactly what the dual execution would have concluded.
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
        let should_run = self.prune_mask(battery.iter().map(probe));
        let jobs = battery
            .iter()
            .enumerate()
            .filter(|&(index, _)| should_run[index])
            .map(|(index, mutation)| {
                self.single_source_job(format!("probe#{index}"), probe(mutation))
            })
            .collect();
        let batch = engine.run(jobs);
        StrengthReport {
            flipped: batch.leaks(),
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

    #[test]
    fn pruning_skips_inert_sources_without_changing_verdicts() {
        let pruned = two_source_analysis().attribute_sources();
        let full = two_source_analysis().no_prune().attribute_sources();
        assert!(pruned[1].pruned, "/b is statically independent");
        assert!(!pruned[0].pruned, "/a must still run");
        assert!(full.iter().all(|a| !a.pruned), "--no-prune runs everything");
        for (p, f) in pruned.iter().zip(&full) {
            assert_eq!(p.causal, f.causal, "pruning must not change verdicts");
        }
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
