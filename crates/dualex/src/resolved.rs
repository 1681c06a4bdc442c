//! Source/sink specs resolved against a concrete program.

use crate::mutation::Mutation;
use crate::spec::{DualSpec, SinkSpec, SourceMatcher, SourceSpec};
use ldx_ir::{FuncId, IrProgram, SiteId};
use ldx_lang::Syscall;
use ldx_runtime::Value;
use std::collections::HashSet;

/// A source matcher with names resolved to ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ResolvedMatcher {
    FileRead(Vec<String>),
    NetRecv(String),
    ClientRecv(i64),
    SyscallKind(Syscall),
    Site(FuncId, SiteId),
}

/// A resolved source.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedSource {
    pub matcher: ResolvedMatcher,
    pub mutation: Mutation,
}

/// All resolved sources.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResolvedSources {
    pub sources: Vec<ResolvedSource>,
}

impl ResolvedSources {
    pub fn resolve(spec: &[SourceSpec], program: &IrProgram) -> Self {
        let sources = spec
            .iter()
            .filter_map(|s| {
                let matcher = match &s.matcher {
                    SourceMatcher::FileRead(path) => ResolvedMatcher::FileRead(
                        ldx_vos::normalize_path(path).map(str::to_string).collect(),
                    ),
                    SourceMatcher::NetRecv(host) => ResolvedMatcher::NetRecv(host.clone()),
                    SourceMatcher::ClientRecv(port) => ResolvedMatcher::ClientRecv(*port),
                    SourceMatcher::SyscallKind(sys) => ResolvedMatcher::SyscallKind(*sys),
                    SourceMatcher::Site(func, site) => {
                        let fid = program.func_id(func)?;
                        ResolvedMatcher::Site(fid, SiteId(*site))
                    }
                };
                Some(ResolvedSource {
                    matcher,
                    mutation: s.mutation.clone(),
                })
            })
            .collect();
        ResolvedSources { sources }
    }
}

/// Sink spec resolved against a program.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedSinks {
    spec: SinkSpec,
    sites: HashSet<(FuncId, SiteId)>,
}

impl ResolvedSinks {
    pub fn resolve(spec: &DualSpec, program: &IrProgram) -> Self {
        let sites = match &spec.sinks {
            SinkSpec::Sites(list) => list
                .iter()
                .filter_map(|(func, site)| program.func_id(func).map(|fid| (fid, SiteId(*site))))
                .collect(),
            _ => HashSet::new(),
        };
        ResolvedSinks {
            spec: spec.sinks.clone(),
            sites,
        }
    }

    /// Whether a syscall instance is a sink.
    pub fn is_sink(&self, func: FuncId, site: SiteId, sys: Syscall, args: &[Value]) -> bool {
        match &self.spec {
            SinkSpec::Outputs => sys.is_output(),
            SinkSpec::NetworkOut => sys == Syscall::Send,
            SinkSpec::FileOut => {
                sys == Syscall::Write && matches!(args.first(), Some(Value::Int(fd)) if *fd >= 3)
            }
            SinkSpec::Sites(_) => self.sites.contains(&(func, site)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DualSpec;
    use ldx_ir::lower;
    use ldx_lang::compile;

    fn program() -> IrProgram {
        lower(
            &compile(
                r#"
                fn helper(x) { write(1, str(x)); return 0; }
                fn main() { helper(1); send(connect("h"), "x"); }
                "#,
            )
            .unwrap(),
        )
    }

    #[test]
    fn resolves_site_sinks() {
        let p = program();
        let spec = DualSpec::default().sinks(SinkSpec::Sites(vec![("helper".into(), 0)]));
        let sinks = ResolvedSinks::resolve(&spec, &p);
        let helper = p.func_id("helper").unwrap();
        assert!(sinks.is_sink(helper, SiteId(0), Syscall::Write, &[]));
        assert!(!sinks.is_sink(p.main(), SiteId(0), Syscall::Write, &[]));
    }

    #[test]
    fn file_out_excludes_stdio() {
        let p = program();
        let spec = DualSpec::default().sinks(SinkSpec::FileOut);
        let sinks = ResolvedSinks::resolve(&spec, &p);
        assert!(!sinks.is_sink(p.main(), SiteId(0), Syscall::Write, &[Value::Int(1)]));
        assert!(sinks.is_sink(p.main(), SiteId(0), Syscall::Write, &[Value::Int(4)]));
        assert!(!sinks.is_sink(p.main(), SiteId(0), Syscall::Send, &[Value::Int(4)]));
    }

    #[test]
    fn unknown_function_site_sources_are_dropped() {
        let p = program();
        let sources = ResolvedSources::resolve(
            &[SourceSpec {
                matcher: SourceMatcher::Site("nope".into(), 0),
                mutation: Mutation::OffByOne,
            }],
            &p,
        );
        assert!(sources.sources.is_empty());
    }

    #[test]
    fn file_paths_normalized() {
        let p = program();
        let sources = ResolvedSources::resolve(&[SourceSpec::file("//etc//x/")], &p);
        let ResolvedMatcher::FileRead(segs) = &sources.sources[0].matcher else {
            panic!()
        };
        assert_eq!(segs, &["etc", "x"]);
    }
}
