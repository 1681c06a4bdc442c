//! The benchmark corpus: 28 Lx programs mirroring the paper's Table 1.
//!
//! The paper evaluates on four suites we cannot redistribute — 12
//! SPECINT2006 programs, 5 network/system programs (Firefox, lynx, nginx,
//! tnftp, sysstat), 6 vulnerable programs (gif2png, mp3info, prozilla,
//! yops, ngircd, gcc), and 5 concurrent programs (apache, pbzip2, pigz,
//! axel, x264). Each is replaced by an Lx program that preserves the
//! *property the suite exercises* (see DESIGN.md):
//!
//! * **SPEC-like**: compute-heavy kernels with real control-flow variety
//!   (recursion, indirect dispatch, nested loops) — they measure counter
//!   maintenance overhead;
//! * **net/system**: syscall-heavy programs with secrets — information
//!   leak detection;
//! * **vulnerable**: untrusted-input parsers whose "critical execution
//!   point" (a return-address or allocation-size stand-in) is a site sink
//!   — attack detection;
//! * **concurrent**: multi-threaded programs with locked *and* racy shared
//!   state — schedule sharing and the race-induced variance of Table 4.
//!
//! Every [`Workload`] carries its world ([`ldx_vos::VosConfig`]), its
//! source/sink specification, and — for the paper's Table 2 — a pair of
//! mutations: one expected to leak and one expected to be benign.

mod case_studies;
mod concurrent;
mod figures;
mod generator;
mod netsys;
mod spec_like;
mod vuln;

pub use case_studies::{preprocessor_case_study, showip_case_study};
pub use figures::{figure1_programs, figure2_employee, figure4_loops, FigureCase};
pub use generator::{random_program_source, GeneratorConfig};

use ldx_dualex::{DualSpec, SinkSpec, SourceSpec};
use ldx_ir::IrProgram;
use ldx_vos::VosConfig;
use std::sync::Arc;

/// Which of the paper's four suites a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECINT2006 stand-ins (12 programs).
    SpecLike,
    /// Network & system programs (5).
    NetSys,
    /// Vulnerable programs for attack detection (6).
    Vulnerable,
    /// Concurrent programs (5).
    Concurrent,
}

impl Suite {
    /// Display name matching the paper's grouping.
    pub fn name(self) -> &'static str {
        match self {
            Suite::SpecLike => "SPEC-like",
            Suite::NetSys => "network/system",
            Suite::Vulnerable => "vulnerable",
            Suite::Concurrent => "concurrent",
        }
    }
}

/// One benchmark program with its experiment configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name (the paper-program it stands in for is in `stands_for`).
    pub name: &'static str,
    /// The paper program this replaces.
    pub stands_for: &'static str,
    /// Which suite.
    pub suite: Suite,
    /// The Lx source.
    pub source: String,
    /// The initial world.
    pub world: VosConfig,
    /// The default (leak-expected) sources.
    pub sources: Vec<SourceSpec>,
    /// The sink specification.
    pub sinks: SinkSpec,
    /// A second mutation expected to be *benign* (paper Table 2's "Input
    /// 2"); `None` for numerical programs where every mutation leaks
    /// (the paper's last four rows).
    pub benign_sources: Option<Vec<SourceSpec>>,
    /// Whether the default sources are expected to produce causality.
    pub expect_leak: bool,
}

impl Workload {
    /// Lines of Lx source (the corpus' "LOC" column).
    pub fn loc(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }

    /// Compiles and instruments the program.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to compile — a corpus bug, and
    /// covered by tests.
    pub fn instrumented(&self) -> ldx_instrument::InstrumentedProgram {
        let resolved = ldx_lang::compile(&self.source)
            .unwrap_or_else(|e| panic!("workload `{}` does not compile: {e}", self.name));
        ldx_instrument::instrument(&ldx_ir::lower(&resolved))
    }

    /// Compiles and instruments, returning the bare program.
    pub fn program(&self) -> Arc<IrProgram> {
        Arc::new(self.instrumented().into_program())
    }

    /// Compiles without instrumentation (native baseline / taint runs).
    pub fn program_uninstrumented(&self) -> Arc<IrProgram> {
        let resolved = ldx_lang::compile(&self.source)
            .unwrap_or_else(|e| panic!("workload `{}` does not compile: {e}", self.name));
        Arc::new(ldx_ir::lower(&resolved))
    }

    /// The dual-execution spec using the default (leaking) sources.
    pub fn dual_spec(&self) -> DualSpec {
        DualSpec {
            sources: self.sources.clone(),
            sinks: self.sinks.clone(),
            ..DualSpec::default()
        }
    }

    /// The dual-execution spec using the benign mutation, if one exists.
    pub fn benign_spec(&self) -> Option<DualSpec> {
        self.benign_sources.as_ref().map(|sources| DualSpec {
            sources: sources.clone(),
            sinks: self.sinks.clone(),
            ..DualSpec::default()
        })
    }
}

/// The full 28-program corpus, in the paper's Table 1 order.
pub fn corpus() -> Vec<Workload> {
    let mut all = Vec::with_capacity(28);
    all.extend(spec_like::workloads());
    all.extend(netsys::workloads());
    all.extend(vuln::workloads());
    all.extend(concurrent::workloads());
    all
}

/// Workloads of one suite.
pub fn by_suite(suite: Suite) -> Vec<Workload> {
    corpus().into_iter().filter(|w| w.suite == suite).collect()
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    corpus().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_28_programs_in_suite_order() {
        let all = corpus();
        assert_eq!(all.len(), 28);
        assert_eq!(by_suite(Suite::SpecLike).len(), 12);
        assert_eq!(by_suite(Suite::NetSys).len(), 5);
        assert_eq!(by_suite(Suite::Vulnerable).len(), 6);
        assert_eq!(by_suite(Suite::Concurrent).len(), 5);
    }

    #[test]
    fn names_are_unique() {
        let all = corpus();
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn every_workload_compiles_and_instruments() {
        for w in corpus() {
            let ip = w.instrumented();
            ldx_instrument::check_counter_consistency(&ip)
                .unwrap_or_else(|e| panic!("workload `{}`: {e}", w.name));
        }
    }

    #[test]
    fn every_workload_has_sources_and_positive_loc() {
        for w in corpus() {
            assert!(!w.sources.is_empty(), "{} has no sources", w.name);
            assert!(w.loc() > 10, "{} is trivially small", w.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("minzip").is_some());
        assert!(by_name("nope").is_none());
    }
}
