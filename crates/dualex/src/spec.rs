//! Analysis specification: sources, sinks, and engine options.

use crate::mutation::Mutation;
use ldx_lang::Syscall;
use ldx_runtime::ExecConfig;

/// Which syscall outcomes are *sources* (mutated in the slave).
///
/// Matching happens in the slave's syscall wrapper; descriptor-based
/// matchers (`FileRead`, `NetRecv`, `ClientRecv`) use the engine's fd →
/// resource tracking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceMatcher {
    /// `read` results from the file at this path.
    FileRead(String),
    /// `recv` results from this peer host.
    NetRecv(String),
    /// `recv` results from clients accepted on this port.
    ClientRecv(i64),
    /// Every outcome of one syscall kind (e.g. all `random()`).
    SyscallKind(Syscall),
    /// A specific static call site, `(function name, site index)`.
    Site(String, u32),
}

/// One source: a matcher plus the mutation applied to matched outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpec {
    /// What to match.
    pub matcher: SourceMatcher,
    /// How to perturb it.
    pub mutation: Mutation,
}

impl SourceSpec {
    /// Convenience constructor: off-by-one mutation of a file's reads.
    pub fn file(path: impl Into<String>) -> Self {
        SourceSpec {
            matcher: SourceMatcher::FileRead(path.into()),
            mutation: Mutation::OffByOne,
        }
    }

    /// Convenience constructor: off-by-one mutation of a peer's data.
    pub fn net(host: impl Into<String>) -> Self {
        SourceSpec {
            matcher: SourceMatcher::NetRecv(host.into()),
            mutation: Mutation::OffByOne,
        }
    }

    /// Convenience constructor: off-by-one mutation of client requests.
    pub fn client(port: i64) -> Self {
        SourceSpec {
            matcher: SourceMatcher::ClientRecv(port),
            mutation: Mutation::OffByOne,
        }
    }

    /// Replaces the mutation (builder style).
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = mutation;
        self
    }
}

/// Which syscalls are *sinks* (compared across the executions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkSpec {
    /// All output syscalls (`write` + `send`) — the paper's default.
    Outputs,
    /// Network output only (`send`), as the paper uses for programs with
    /// network connections.
    NetworkOut,
    /// Local file output only (`write` to fd >= 3, i.e. not stdio).
    FileOut,
    /// Specific static call sites, `(function name, site index)` — how the
    /// vulnerable-program suite marks its critical execution points
    /// (return addresses, allocation sizes).
    Sites(Vec<(String, u32)>),
}

impl SinkSpec {
    /// Whether a syscall kind can ever be a sink under this spec (site
    /// matching is done by the engine, which knows the site).
    pub fn matches_kind(&self, sys: Syscall) -> bool {
        match self {
            SinkSpec::Outputs => sys.is_output(),
            SinkSpec::NetworkOut => sys == Syscall::Send,
            SinkSpec::FileOut => sys == Syscall::Write,
            SinkSpec::Sites(_) => true,
        }
    }
}

/// The full dual-execution specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DualSpec {
    /// Sources to mutate in the slave.
    pub sources: Vec<SourceSpec>,
    /// Sinks to compare.
    pub sinks: SinkSpec,
    /// Record the run's event stream (every interposition decision,
    /// taint/CoW event, barrier release, and byte-level sink diff) on the
    /// report: the alignment trace of paper Figures 3 and 5 and the
    /// evidence behind `ldx explain`.
    pub record: bool,
    /// Interpreter limits for both executions.
    pub exec: ExecConfig,
}

impl Default for DualSpec {
    fn default() -> Self {
        DualSpec {
            sources: Vec::new(),
            sinks: SinkSpec::Outputs,
            record: false,
            exec: ExecConfig::default(),
        }
    }
}

impl DualSpec {
    /// A spec with one source and default (output) sinks.
    pub fn with_source(source: SourceSpec) -> Self {
        DualSpec {
            sources: vec![source],
            ..DualSpec::default()
        }
    }

    /// Adds a source (builder style).
    pub fn source(mut self, source: SourceSpec) -> Self {
        self.sources.push(source);
        self
    }

    /// Sets the sink spec (builder style).
    pub fn sinks(mut self, sinks: SinkSpec) -> Self {
        self.sinks = sinks;
        self
    }

    /// Enables the flight recorder (builder style).
    pub fn recorded(mut self) -> Self {
        self.record = true;
        self
    }

    /// Whether a master run under this spec serves a slave under `other`
    /// too: the two differ in their sources at most. Sinks, limits and the
    /// recording flag all shape what the master logs; the
    /// sources only shape what the slave perturbs.
    pub fn shares_master_with(&self, other: &DualSpec) -> bool {
        self.sinks == other.sinks && self.exec == other.exec && self.record == other.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_kind_matching() {
        assert!(SinkSpec::Outputs.matches_kind(Syscall::Write));
        assert!(SinkSpec::Outputs.matches_kind(Syscall::Send));
        assert!(!SinkSpec::Outputs.matches_kind(Syscall::Read));
        assert!(SinkSpec::NetworkOut.matches_kind(Syscall::Send));
        assert!(!SinkSpec::NetworkOut.matches_kind(Syscall::Write));
        assert!(SinkSpec::FileOut.matches_kind(Syscall::Write));
        assert!(SinkSpec::Sites(vec![]).matches_kind(Syscall::Close));
    }

    #[test]
    fn builders_compose() {
        let spec = DualSpec::with_source(SourceSpec::file("/secret"))
            .source(SourceSpec::net("upstream").with_mutation(Mutation::Zero))
            .sinks(SinkSpec::NetworkOut)
            .recorded();
        assert_eq!(spec.sources.len(), 2);
        assert_eq!(spec.sources[1].mutation, Mutation::Zero);
        assert_eq!(spec.sinks, SinkSpec::NetworkOut);
        assert!(spec.record);
    }

    #[test]
    fn only_the_sources_may_differ_under_one_master() {
        let base = DualSpec::with_source(SourceSpec::file("/a"));
        let other = DualSpec::with_source(SourceSpec::file("/b").with_mutation(Mutation::Zero));
        assert!(base.shares_master_with(&other));
        assert!(base.shares_master_with(&DualSpec::default()));
        assert!(!base.shares_master_with(&other.clone().sinks(SinkSpec::FileOut)));
        assert!(!base.shares_master_with(&other.clone().recorded()));
        let mut limited = other;
        limited.exec.max_steps = 10;
        assert!(!base.shares_master_with(&limited));
    }

    #[test]
    fn default_spec_has_output_sinks() {
        let spec = DualSpec::default();
        assert!(spec.sources.is_empty());
        assert_eq!(spec.sinks, SinkSpec::Outputs);
        assert!(!spec.record);
    }
}
