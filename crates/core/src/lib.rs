//! **LDX: causality inference by lightweight dual execution** — the public
//! facade of the ASPLOS'16 reproduction.
//!
//! LDX decides whether a *sink* event (a network send, a file write, a
//! critical execution point) is **causally dependent** on a *source* event
//! (a secret file, an untrusted network input) — counterfactually: it runs
//! the program twice, perturbs the source in the second execution, and
//! watches whether anything changes at the sinks. A compiler pass
//! instruments the program with a progress counter so the two executions
//! stay aligned even when the perturbation changes which path (and which
//! syscalls) execute.
//!
//! This crate wires the pipeline together:
//!
//! ```text
//! Lx source ──compile──▶ IR ──instrument──▶ counters ──dual execute──▶ report
//!  (ldx-lang)        (ldx-ir)          (ldx-instrument)     (ldx-dualex)
//! ```
//!
//! # Quickstart
//!
//! ```
//! use ldx::{Analysis, SourceSpec};
//! use ldx::vos::{PeerBehavior, VosConfig};
//!
//! let report = Analysis::for_source(r#"
//!     fn main() {
//!         let secret = read(open("/etc/token", 0), 16);
//!         let msg = "ping";
//!         if (secret == "hunter2") { msg = "pong"; }   // control dep only
//!         send(connect("api.example"), msg);
//!     }
//! "#)?
//! .world(
//!     VosConfig::new()
//!         .file("/etc/token", "hunter2")
//!         .peer("api.example", PeerBehavior::Echo),
//! )
//! .source(SourceSpec::file("/etc/token"))
//! .run();
//!
//! assert!(report.leaked(), "the control-dependence leak is caught");
//! # Ok::<(), ldx::Error>(())
//! ```

pub mod batch;
pub mod cache;
mod explain;
mod extensions;
pub mod obs;
pub mod specfile;

pub use batch::{BatchEngine, BatchJob, BatchReport, JobResult};
pub use cache::{CachedInstrumented, InstrumentCache};
pub use explain::{
    matcher_desc, mutation_name, CausalChain, ChainMutation, ChainSink, ChainSyscall,
    ExplainReport, SourceSummary, StaticStep,
};
pub use extensions::{SourceAttribution, StrengthReport};

use extensions::Replays;
use ldx_instrument::InstrumentedProgram;
use ldx_ir::IrProgram;
use ldx_vos::VosConfig;
use std::sync::{Arc, OnceLock};

pub use ldx_dualex::{
    ByteDiff, CausalityKind, CausalityRecord, Decision, DualReport, DualSpec, FlightEvent,
    FlightLog, Mutation, Recording, ResourceId, SinkSpec, SourceMatcher, SourceSpec,
};
pub use ldx_instrument::{instrument, InstrumentationReport};
pub use ldx_lang::LangError as Error;
pub use ldx_runtime::{ExecConfig, RunOutcome, RunStats, Trap, Value};
pub use ldx_taint::{TaintPolicy, TaintReport};

/// Re-export of the static program-dependence analysis (`ldx-sdep`):
/// PDG construction, sink reachability, and the soundness oracle.
pub use ldx_sdep as sdep;

/// Re-export of the virtual OS types used to describe worlds.
pub mod vos {
    pub use ldx_vos::{PeerBehavior, SlaveVos, Vos, VosConfig, VosError};
}

/// Re-export of the frontend/IR layers for advanced users.
pub mod compiler {
    pub use ldx_instrument::{
        check_counter_consistency, check_counter_consistency_all, instrument, CounterAnalysis,
        InstrumentedProgram,
    };
    pub use ldx_ir::{lower, IrProgram};
    pub use ldx_lang::{compile, parse, ResolvedProgram};
}

/// A fluent, end-to-end causality analysis.
///
/// Wraps compile → instrument → dual-execute. See the crate-level example.
///
/// Clones share two caches by `Arc`: the static analysis, which depends
/// on the program alone, and the master recording with the reports of the
/// specs run so far ([`Analysis::run`], [`Analysis::attribute_sources`]). A
/// builder that changes what the master sees ([`Analysis::world`],
/// [`Analysis::sinks`], [`Analysis::recorded`], [`Analysis::exec_config`])
/// starts a fresh recording cache.
#[derive(Debug, Clone)]
pub struct Analysis {
    program: Arc<IrProgram>,
    report: InstrumentationReport,
    world: VosConfig,
    spec: DualSpec,
    sdep_cache: Arc<OnceLock<Arc<sdep::StaticAnalysis>>>,
    replays: Arc<Replays>,
}

impl Analysis {
    /// Compiles and instruments Lx source.
    ///
    /// # Errors
    ///
    /// Returns the frontend [`Error`] on invalid source.
    pub fn for_source(source: &str) -> Result<Self, Error> {
        let _s = ldx_obs::span(ldx_obs::cat::COMPILE, "compile+instrument");
        let resolved = ldx_lang::compile(source)?;
        let instrumented = ldx_instrument::instrument(&ldx_ir::lower(&resolved));
        Ok(Self::for_instrumented(instrumented))
    }

    /// Starts from an already instrumented program.
    pub fn for_instrumented(instrumented: InstrumentedProgram) -> Self {
        let report = instrumented.report().clone();
        Analysis {
            program: Arc::new(instrumented.into_program()),
            report,
            world: VosConfig::new(),
            spec: DualSpec::default(),
            sdep_cache: Arc::new(OnceLock::new()),
            replays: Arc::default(),
        }
    }

    /// Sets the virtual world the program runs against.
    pub fn world(mut self, world: VosConfig) -> Self {
        self.world = world;
        self.replays = Arc::default();
        self
    }

    /// Adds a source to mutate.
    pub fn source(mut self, source: SourceSpec) -> Self {
        self.spec.sources.push(source);
        self
    }

    /// Sets the sink specification (default: all output syscalls).
    pub fn sinks(mut self, sinks: SinkSpec) -> Self {
        self.spec.sinks = sinks;
        self.replays = Arc::default();
        self
    }

    /// Enables the flight recorder: the run's event stream, behind
    /// [`DualReport::trace_lines`] and [`Analysis::explain`].
    pub fn recorded(mut self) -> Self {
        self.spec.record = true;
        self.replays = Arc::default();
        self
    }

    /// Overrides interpreter limits.
    pub fn exec_config(mut self, exec: ExecConfig) -> Self {
        self.spec.exec = exec;
        self.replays = Arc::default();
        self
    }

    /// The static dependence analysis of the instrumented program,
    /// computed on first use and cached (shared across clones).
    pub fn static_analysis(&self) -> Arc<sdep::StaticAnalysis> {
        Arc::clone(
            self.sdep_cache
                .get_or_init(|| Arc::new(sdep::StaticAnalysis::analyze(&self.program))),
        )
    }

    /// The static instrumentation report (paper Table 1 columns).
    pub fn instrumentation_report(&self) -> &InstrumentationReport {
        &self.report
    }

    /// The instrumented program (e.g. for running baselines on it).
    pub fn program(&self) -> Arc<IrProgram> {
        Arc::clone(&self.program)
    }

    /// Packages this analysis as a [`BatchJob`] for the parallel engine.
    /// The program is shared by `Arc`; world and spec are cloned.
    pub fn batch_job(&self, label: impl Into<String>) -> BatchJob {
        BatchJob::new(label, self.program(), self.world.clone(), self.spec.clone())
    }

    /// Runs one of the dynamic taint-tracking baselines on the same
    /// program, world, sources, and sinks — for side-by-side comparison
    /// with [`Analysis::run`] (the paper's Table 3).
    pub fn run_taint(&self, policy: TaintPolicy) -> TaintReport {
        ldx_taint::taint_execute(
            &self.program,
            &self.world,
            &self.spec.sources,
            &self.spec.sinks,
            policy,
        )
    }

    /// The configured spec (used by the analysis extensions).
    pub fn spec(&self) -> &DualSpec {
        &self.spec
    }

    /// The configured world (used by the analysis extensions).
    pub fn world_ref(&self) -> &VosConfig {
        &self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_vos::PeerBehavior;

    #[test]
    fn facade_pipeline_detects_leak() {
        let report = Analysis::for_source(
            r#"fn main() {
                let s = read(open("/s", 0), 8);
                send(connect("out"), s);
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/s", "abc")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/s"))
        .run();
        assert!(report.leaked());
    }

    #[test]
    fn facade_reports_instrumentation_stats() {
        let analysis = Analysis::for_source(
            r#"fn main() {
                if (getpid() > 0) { write(1, "a"); write(1, "b"); }
                close(1);
            }"#,
        )
        .unwrap();
        let rep = analysis.instrumentation_report();
        assert!(rep.total_added_instrs() > 0);
        assert!(rep.max_cnt >= 3);
    }

    #[test]
    fn facade_rejects_bad_source() {
        assert!(Analysis::for_source("fn main( {").is_err());
    }

    #[test]
    fn taint_comparison_shows_the_papers_gap() {
        // The control-dependence leak: LDX reports, data tainting cannot.
        let analysis = Analysis::for_source(
            r#"fn main() {
                let s = trim(read(open("/s", 0), 8));
                let msg = "lo";
                if (s == "A") { msg = "hi"; }
                send(connect("out"), msg);
            }"#,
        )
        .unwrap()
        .world(
            VosConfig::new()
                .file("/s", "A")
                .peer("out", PeerBehavior::Echo),
        )
        .source(SourceSpec::file("/s"))
        .sinks(SinkSpec::NetworkOut);
        assert!(analysis.run().leaked());
        let tg = analysis.run_taint(TaintPolicy::TaintGrindLike);
        assert!(!tg.any_tainted(), "data tainting misses the control dep");
        let ctl = analysis.run_taint(TaintPolicy::DataAndControl);
        assert!(ctl.any_tainted());
    }

    #[test]
    fn recorded_run_produces_trace() {
        let report = Analysis::for_source(
            r#"fn main() {
                let s = read(open("/s", 0), 4);
                write(1, s);
            }"#,
        )
        .unwrap()
        .world(VosConfig::new().file("/s", "data"))
        .source(SourceSpec::file("/s"))
        .sinks(SinkSpec::Outputs)
        .recorded()
        .run();
        assert!(!report.trace_lines().is_empty());
    }
}
