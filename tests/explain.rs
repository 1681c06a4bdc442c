//! Integration tests for divergence forensics: the `ldx explain`
//! provenance reports over the workload corpus.
//!
//! Two families of properties:
//!
//! * **Determinism.** A report is byte-identical across repeated runs of
//!   the same analysis — the flight recorder and the chain builder may
//!   only serialize schedule-independent facts.
//! * **Truthfulness.** Every chain is grounded in both engines: its sink
//!   is a causality record of the very run it explains, and its static
//!   path walks sites the `ldx-sdep` PDG actually holds, with a
//!   reachability witness between its endpoints.
//!
//! Concurrent-suite runs depend on the OS schedule (Table 4's subject):
//! there a leak may be observed without the mutation ever applying, and
//! the completeness check names that case instead of skipping the suite.

use ldx::sdep::StaticAnalysis;
use ldx::{Analysis, ExplainReport, FlightEvent, SourceAttribution};
use ldx_ir::IrProgram;
use ldx_workloads::{corpus, Suite, Workload};

fn workload_analysis(w: &Workload) -> Analysis {
    let mut analysis = Analysis::for_source(&w.source)
        .expect("corpus workload compiles")
        .world(w.world.clone())
        .sinks(w.sinks.clone());
    for s in &w.sources {
        analysis = analysis.source(s.clone());
    }
    analysis
}

fn explain(w: &Workload) -> ExplainReport {
    workload_analysis(w).explain(w.name)
}

/// An expected leak outside the concurrent suite, whose reports are
/// schedule-independent.
fn deterministic_leak(w: &Workload) -> bool {
    w.expect_leak && w.suite != Suite::Concurrent
}

/// A causal run whose slave never saw the perturbed source: the
/// difference came from the schedule, which only threads can do.
fn schedule_induced(w: &Workload, attr: &SourceAttribution) -> bool {
    w.suite == Suite::Concurrent
        && !attr
            .report
            .flight
            .slave
            .iter()
            .any(|e| matches!(e, FlightEvent::Mutated { .. }))
}

/// Maps a chain step's function name back to the program's `FuncId`.
fn func_id(program: &IrProgram, name: &str) -> ldx_ir::FuncId {
    program
        .func_id(name)
        .unwrap_or_else(|| panic!("chain names unknown function {name}"))
}

#[test]
fn explain_is_byte_identical_across_runs() {
    // Concurrent-suite workloads carry Lx-level races inside a single
    // dual execution (Table 4's subject); like the batch-determinism
    // equality checks, byte-identity is only promised outside that suite.
    let deterministic = corpus().into_iter().filter(deterministic_leak);
    for w in deterministic.collect::<Vec<_>>().iter() {
        let a = explain(w).to_json();
        let b = explain(w).to_json();
        assert_eq!(a, b, "workload `{}`: explain not reproducible", w.name);
    }
}

/// Every chain's sink is a record of the run it explains: same source,
/// same function, same site, same syscall. The chain is a *view* of the
/// attribution's dual execution, not a second opinion.
#[test]
fn chain_sinks_appear_in_the_dynamic_causality_report() {
    for w in &corpus() {
        let analysis = workload_analysis(w);
        let attrs = analysis.clone().recorded().attribute_sources();
        let report = analysis.explain_attributions(&attrs, w.name);
        let causal = attrs.iter().filter(|a| a.causal).count();
        assert_eq!(
            report.chains.len(),
            causal,
            "`{}`: one chain per causal source",
            w.name
        );
        if w.expect_leak {
            assert!(report.any_causal(), "workload `{}` must leak", w.name);
            assert!(!report.chains.is_empty(), "workload `{}`: no chain", w.name);
        }
        let program = w.program();
        for chain in &report.chains {
            let attr = attrs
                .iter()
                .find(|a| a.index == chain.source_index)
                .expect("chain names a probed source");
            assert!(
                attr.causal,
                "workload `{}`: chain for non-causal source",
                w.name
            );
            let grounded = attr.report.causality.iter().any(|r| {
                program.func(r.func).name == chain.sink.func
                    && r.site.0 == chain.sink.site
                    && r.sys.to_string() == chain.sink.sys
            });
            assert!(
                grounded,
                "workload `{}`: chain sink {}:{} ({}) not in the dynamic report",
                w.name, chain.sink.func, chain.sink.site, chain.sink.sys
            );
        }
    }
}

/// Every chain's static path lives inside the freshly-computed PDG: each
/// step is a known syscall site, and the analysis can witness
/// reachability between the path's endpoints.
#[test]
fn chain_static_paths_are_inside_the_pdg() {
    for w in &corpus() {
        let program = w.program();
        let sdep = StaticAnalysis::analyze(&program);
        for chain in &explain(w).chains {
            for step in &chain.static_path {
                let site = (func_id(&program, &step.func), ldx_ir::SiteId(step.site));
                assert!(
                    sdep.sites().contains_key(&site),
                    "workload `{}`: static step {}:{} is not a PDG site",
                    w.name,
                    step.func,
                    step.site
                );
            }
            if let (Some(first), Some(last)) = (chain.static_path.first(), chain.static_path.last())
            {
                let from = (func_id(&program, &first.func), ldx_ir::SiteId(first.site));
                let to = (func_id(&program, &last.func), ldx_ir::SiteId(last.site));
                assert!(
                    from == to || sdep.path_witness(from, to).is_some(),
                    "workload `{}`: no PDG witness from {}:{} to {}:{}",
                    w.name,
                    first.func,
                    first.site,
                    last.func,
                    last.site
                );
            }
        }
    }
}

/// A chain carries the recorder-observed mutation — unless its leak was
/// schedule-induced — and a named sink syscall.
#[test]
fn corpus_chains_are_complete() {
    for w in corpus().iter().filter(|w| w.expect_leak) {
        let analysis = workload_analysis(w);
        let attrs = analysis.clone().recorded().attribute_sources();
        let report = analysis.explain_attributions(&attrs, w.name);
        assert!(report.master_events + report.slave_events > 0, "{}", w.name);
        for chain in &report.chains {
            let attr = &attrs[chain.source_index];
            assert!(
                chain.mutation.is_some() || schedule_induced(w, attr),
                "workload `{}`: chain without the recorded mutation",
                w.name
            );
            assert!(!chain.sink.sys.is_empty(), "{}", w.name);
        }
    }
}
