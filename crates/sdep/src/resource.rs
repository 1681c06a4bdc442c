//! Abstract resolution of syscall arguments and vOS resource channels.
//!
//! Dual execution compares runs through the virtual OS, so data also flows
//! *around* the program: a tainted write to `/data/x` taints a later read
//! of `/data/x`, a tainted `send` taints the peer's next `recv`, a tainted
//! `read` length shifts the file position seen by the next read on the
//! same file. We model each shared vOS resource as a [`Chan`] and give
//! every syscall site a set of channels it may read and may write.
//!
//! Channel membership needs the *values* of fd/path arguments, so we run a
//! small intraprocedural abstract interpretation over the reaching-def
//! chains: constants fold, copies forward, `open`/`connect`/`accept`
//! results become typed descriptors carrying their possible paths / hosts /
//! ports. Anything else (call results, arithmetic, parameters, globals) is
//! `Unknown` and widens to the `FsAny`/`NetAny` hubs. Aliasing between a
//! writer's and a reader's channel sets is decided pairwise — hub channels
//! alias every concrete channel of their kind, but concrete channels never
//! alias each other through a hub, which keeps write-only and read-only
//! files statically independent.

use crate::reachdef::{DefSite, ReachingDefs, UsePos};
use ldx_ir::{FuncBody, Instr, LocalId};
use ldx_lang::Syscall;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// A shared vOS resource through which data can flow between syscall
/// sites.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Chan {
    /// A file with a statically known path (includes `/dev/stdout` and
    /// `/dev/stderr` for stdio writes).
    File(String),
    /// A network peer with a statically known host name.
    Peer(String),
    /// A scripted client queue on a statically known port.
    Client(i64),
    /// Some file — path not statically known.
    FsAny,
    /// Some network resource — peer or client not statically known.
    NetAny,
    /// The virtual clock (`time` advances it).
    Clock,
    /// The deterministic RNG state (`random` advances it).
    Rng,
}

impl Chan {
    /// A file channel with vOS path normalization applied, so
    /// `/out/../data/x` and `/data/x` land on the same channel.
    pub fn file(path: &str) -> Chan {
        Chan::File(format!("/{}", ldx_vos::normalize_path(path).joined()))
    }
}

impl fmt::Display for Chan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Chan::File(p) => write!(f, "file:{p}"),
            Chan::Peer(h) => write!(f, "peer:{h}"),
            Chan::Client(p) => write!(f, "client:{p}"),
            Chan::FsAny => write!(f, "fs:*"),
            Chan::NetAny => write!(f, "net:*"),
            Chan::Clock => write!(f, "clock"),
            Chan::Rng => write!(f, "rng"),
        }
    }
}

/// May a write to `a` be observed by a read of `b`?
pub fn may_alias(a: &Chan, b: &Chan) -> bool {
    use Chan::*;
    match (a, b) {
        (File(p), File(q)) => p == q,
        (File(_), FsAny) | (FsAny, File(_)) | (FsAny, FsAny) => true,
        (Peer(h), Peer(k)) => h == k,
        (Client(p), Client(q)) => p == q,
        (Peer(_) | Client(_), NetAny) | (NetAny, Peer(_) | Client(_)) | (NetAny, NetAny) => true,
        (Clock, Clock) | (Rng, Rng) => true,
        _ => false,
    }
}

/// The abstract value set a local may hold at a use position.
#[derive(Debug, Clone, Default)]
pub struct ValSet {
    /// Possible integer constants.
    pub ints: BTreeSet<i64>,
    /// Possible string constants.
    pub strs: BTreeSet<String>,
    /// Possible file descriptors from `open(path, _)` with known paths.
    pub file_fds: BTreeSet<String>,
    /// Possible descriptors from `connect(host)` with known hosts.
    pub peer_fds: BTreeSet<String>,
    /// Possible descriptors from `accept(port)` with known ports.
    pub client_fds: BTreeSet<i64>,
    /// Some reaching `open` had a non-constant path.
    pub fd_unknown_file: bool,
    /// Some reaching `connect`/`accept` had a non-constant argument.
    pub fd_unknown_net: bool,
    /// Some reaching value is completely unconstrained (parameter, call
    /// result, arithmetic, global, ...).
    pub unknown: bool,
}

impl ValSet {
    fn merge(&mut self, other: ValSet) {
        self.ints.extend(other.ints);
        self.strs.extend(other.strs);
        self.file_fds.extend(other.file_fds);
        self.peer_fds.extend(other.peer_fds);
        self.client_fds.extend(other.client_fds);
        self.fd_unknown_file |= other.fd_unknown_file;
        self.fd_unknown_net |= other.fd_unknown_net;
        self.unknown |= other.unknown;
    }

    fn unknown() -> ValSet {
        ValSet {
            unknown: true,
            ..ValSet::default()
        }
    }

    /// The channels behind this value when used as a file descriptor.
    pub fn fd_chans(&self) -> BTreeSet<Chan> {
        let mut out: BTreeSet<Chan> = BTreeSet::new();
        out.extend(self.file_fds.iter().map(|p| Chan::file(p)));
        out.extend(self.peer_fds.iter().cloned().map(Chan::Peer));
        out.extend(self.client_fds.iter().copied().map(Chan::Client));
        if self.fd_unknown_file {
            out.insert(Chan::FsAny);
        }
        if self.fd_unknown_net {
            out.insert(Chan::NetAny);
        }
        for &i in &self.ints {
            // Integer literals 0..=2 are stdio; >= 3 may coincide with an
            // fd allocated by some open/connect/accept elsewhere.
            if i >= 3 {
                out.insert(Chan::FsAny);
                out.insert(Chan::NetAny);
            }
        }
        if self.unknown {
            out.insert(Chan::FsAny);
            out.insert(Chan::NetAny);
        }
        out
    }

    /// The channels behind this value when used as a path argument.
    pub fn path_chans(&self) -> BTreeSet<Chan> {
        let mut out: BTreeSet<Chan> = self.strs.iter().map(|p| Chan::file(p)).collect();
        if self.unknown || !self.ints.is_empty() || self.fd_unknown_file {
            out.insert(Chan::FsAny);
        }
        out
    }

    /// True when this value is exactly one known integer.
    pub fn only_int(&self) -> Option<i64> {
        if self.unknown
            || self.fd_unknown_file
            || self.fd_unknown_net
            || !self.strs.is_empty()
            || !self.file_fds.is_empty()
            || !self.peer_fds.is_empty()
            || !self.client_fds.is_empty()
            || self.ints.len() != 1
        {
            return None;
        }
        self.ints.iter().next().copied()
    }

    /// True when the value may be a stdio descriptor (constant 0..=2, or
    /// unconstrained).
    pub fn may_be_stdio(&self) -> bool {
        self.unknown || self.ints.iter().any(|&i| (0..=2).contains(&i))
    }
}

/// Memoizing abstract-value resolver for one function.
pub struct Resolver<'f> {
    func: &'f FuncBody,
    rd: &'f ReachingDefs,
    memo: HashMap<(UsePos, LocalId), ValSet>,
}

impl<'f> Resolver<'f> {
    /// Creates a resolver over `func` with its reaching definitions.
    pub fn new(func: &'f FuncBody, rd: &'f ReachingDefs) -> Self {
        Resolver {
            func,
            rd,
            memo: HashMap::new(),
        }
    }

    /// Resolves the possible values of `local` at `pos`.
    pub fn resolve(&mut self, pos: UsePos, local: LocalId) -> ValSet {
        let mut visiting = HashSet::new();
        self.resolve_inner(pos, local, &mut visiting)
    }

    fn resolve_inner(
        &mut self,
        pos: UsePos,
        local: LocalId,
        visiting: &mut HashSet<(UsePos, LocalId)>,
    ) -> ValSet {
        if let Some(v) = self.memo.get(&(pos, local)) {
            return v.clone();
        }
        if !visiting.insert((pos, local)) {
            // A copy cycle: the in-progress query contributes nothing new
            // to its own least fixpoint.
            return ValSet::default();
        }
        let mut out = ValSet::default();
        for &d in self.rd.reaching(pos, local) {
            let def = *self.rd.def(d);
            let v = match def.site {
                DefSite::Param(_) => ValSet::unknown(),
                DefSite::Instr(b, idx) => {
                    let at = UsePos { block: b, idx };
                    match &self.func.block(b).instrs[idx] {
                        Instr::Const { value, .. } => match value {
                            ldx_ir::Const::Int(i) => ValSet {
                                ints: BTreeSet::from([*i]),
                                ..ValSet::default()
                            },
                            ldx_ir::Const::Str(s) => ValSet {
                                strs: BTreeSet::from([s.clone()]),
                                ..ValSet::default()
                            },
                            ldx_ir::Const::Array(_) => ValSet::unknown(),
                        },
                        Instr::Copy { src, .. } => self.resolve_inner(at, *src, visiting),
                        Instr::Syscall { sys, args, .. } => match sys {
                            Syscall::Open => {
                                let path = args
                                    .first()
                                    .map(|&a| self.resolve_inner(at, a, visiting))
                                    .unwrap_or_else(ValSet::unknown);
                                ValSet {
                                    file_fds: path.strs.clone(),
                                    fd_unknown_file: path.unknown
                                        || path.fd_unknown_file
                                        || !path.ints.is_empty(),
                                    ..ValSet::default()
                                }
                            }
                            Syscall::Connect => {
                                let host = args
                                    .first()
                                    .map(|&a| self.resolve_inner(at, a, visiting))
                                    .unwrap_or_else(ValSet::unknown);
                                ValSet {
                                    peer_fds: host.strs.clone(),
                                    fd_unknown_net: host.unknown || host.strs.is_empty(),
                                    ..ValSet::default()
                                }
                            }
                            Syscall::Accept => {
                                let port = args
                                    .first()
                                    .map(|&a| self.resolve_inner(at, a, visiting))
                                    .unwrap_or_else(ValSet::unknown);
                                ValSet {
                                    client_fds: port.ints.clone(),
                                    fd_unknown_net: port.unknown || port.ints.is_empty(),
                                    ..ValSet::default()
                                }
                            }
                            _ => ValSet::unknown(),
                        },
                        _ => ValSet::unknown(),
                    }
                }
            };
            out.merge(v);
        }
        visiting.remove(&(pos, local));
        self.memo.insert((pos, local), out.clone());
        out
    }
}

/// The channels a syscall site may read from and write to.
#[derive(Debug, Clone, Default)]
pub struct SiteEffects {
    /// Channels whose state may influence this site's result.
    pub reads: BTreeSet<Chan>,
    /// Channels whose state this site may change.
    pub writes: BTreeSet<Chan>,
}

/// Classifies the channel effects of one syscall site.
///
/// `args` are the abstract values of the call's operands in order.
pub fn site_effects(sys: Syscall, args: &[ValSet]) -> SiteEffects {
    let mut eff = SiteEffects::default();
    let fd_chans = |i: usize| args.get(i).map(ValSet::fd_chans).unwrap_or_default();
    let path_chans = |i: usize| args.get(i).map(ValSet::path_chans).unwrap_or_default();
    match sys {
        Syscall::Open => {
            // Result depends on file existence; a writable mode creates or
            // truncates the file.
            let chans = path_chans(0);
            eff.reads.extend(chans.iter().cloned());
            let mode = args.get(1).and_then(ValSet::only_int);
            if mode != Some(0) {
                eff.writes.extend(chans);
            }
        }
        Syscall::Read | Syscall::Recv => {
            // Reads both observe the resource and advance its cursor /
            // consume its queue, affecting the next read on the same fd.
            let chans = fd_chans(0);
            // Stdio reads always return "" — no channel.
            eff.reads.extend(chans.iter().cloned());
            eff.writes.extend(chans);
        }
        Syscall::Write | Syscall::Send => {
            let mut chans = fd_chans(0);
            if let Some(v) = args.first() {
                if v.may_be_stdio() {
                    let explicit_stderr = v.only_int() == Some(2);
                    if explicit_stderr {
                        chans.insert(Chan::File("/dev/stderr".into()));
                    } else {
                        chans.insert(Chan::File("/dev/stdout".into()));
                        if v.unknown || v.ints.contains(&2) {
                            chans.insert(Chan::File("/dev/stderr".into()));
                        }
                    }
                }
            }
            eff.writes.extend(chans);
        }
        Syscall::Seek | Syscall::Close => {
            // Repositioning / closing changes what later reads observe.
            eff.writes.extend(fd_chans(0));
        }
        Syscall::Stat => {
            eff.reads.extend(path_chans(0));
        }
        Syscall::Readdir => {
            // Directory listings observe creations/deletions anywhere.
            eff.reads.insert(Chan::FsAny);
        }
        Syscall::Mkdir | Syscall::Unlink => {
            eff.writes.extend(path_chans(0));
        }
        Syscall::Rename => {
            eff.writes.extend(path_chans(0));
            eff.writes.extend(path_chans(1));
        }
        Syscall::Accept => {
            // Consumes the next scripted client on the port.
            let port = args.first().cloned().unwrap_or_else(ValSet::unknown);
            let chans: BTreeSet<Chan> = if port.ints.is_empty() || port.unknown {
                BTreeSet::from([Chan::NetAny])
            } else {
                port.ints.iter().copied().map(Chan::Client).collect()
            };
            eff.reads.extend(chans.iter().cloned());
            eff.writes.extend(chans);
        }
        Syscall::Connect => {
            // Peer existence is fixed world configuration — never written
            // at runtime, so connect has no channel effects.
        }
        Syscall::Time => {
            eff.reads.insert(Chan::Clock);
            eff.writes.insert(Chan::Clock);
        }
        Syscall::Random => {
            eff.reads.insert(Chan::Rng);
            eff.writes.insert(Chan::Rng);
        }
        Syscall::Sleep => {
            // Sleep advances the virtual clock by its argument.
            eff.writes.insert(Chan::Clock);
        }
        Syscall::GetPid
        | Syscall::Lock
        | Syscall::Unlock
        | Syscall::Spawn
        | Syscall::Join
        | Syscall::Exit
        | Syscall::Setjmp
        | Syscall::Longjmp => {}
    }
    eff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachdef::{ReachingDefs, TERM_IDX};
    use ldx_ir::lower;
    use ldx_lang::compile;

    fn syscall_args(src: &str, sys: Syscall) -> Vec<ValSet> {
        let p = lower(&compile(src).unwrap());
        let f = p.func(p.main()).clone();
        let rd = ReachingDefs::compute(&f);
        let mut res = Resolver::new(&f, &rd);
        for b in f.block_ids() {
            for (idx, instr) in f.block(b).instrs.iter().enumerate() {
                if let Instr::Syscall { sys: s, args, .. } = instr {
                    if *s == sys {
                        let pos = UsePos { block: b, idx };
                        assert_ne!(pos.idx, TERM_IDX);
                        return args.iter().map(|&a| res.resolve(pos, a)).collect();
                    }
                }
            }
        }
        panic!("no {sys:?} site in program");
    }

    #[test]
    fn open_path_constant_folds_through_copy() {
        let args = syscall_args(
            r#"fn main() { let p = "/data/in"; let q = p; let fd = open(q, 0); read(fd, 8); }"#,
            Syscall::Read,
        );
        assert_eq!(
            args[0].file_fds,
            BTreeSet::from(["/data/in".to_string()]),
            "fd resolves to its open path"
        );
        assert!(!args[0].fd_unknown_file);
        let eff = site_effects(Syscall::Read, &args);
        assert!(eff.reads.contains(&Chan::File("/data/in".into())));
        assert!(!eff.reads.contains(&Chan::FsAny));
    }

    #[test]
    fn branch_merges_open_paths() {
        let args = syscall_args(
            r#"fn main() {
                let fd = 0;
                if (time()) { fd = open("/a", 0); } else { fd = open("/b", 0); }
                read(fd, 8);
            }"#,
            Syscall::Read,
        );
        assert_eq!(
            args[0].file_fds,
            BTreeSet::from(["/a".to_string(), "/b".to_string()])
        );
    }

    #[test]
    fn unknown_fd_widens_to_hubs() {
        let args = syscall_args(
            r#"fn helper() { return open("/x", 0); }
               fn main() { let fd = helper(); read(fd, 8); }"#,
            Syscall::Read,
        );
        assert!(args[0].unknown, "call results are unconstrained");
        let eff = site_effects(Syscall::Read, &args);
        assert!(eff.reads.contains(&Chan::FsAny));
        assert!(eff.reads.contains(&Chan::NetAny));
    }

    #[test]
    fn stdio_write_targets_dev_stdout() {
        let args = syscall_args(r#"fn main() { write(1, "hi"); }"#, Syscall::Write);
        let eff = site_effects(Syscall::Write, &args);
        assert_eq!(
            eff.writes,
            BTreeSet::from([Chan::File("/dev/stdout".into())])
        );
    }

    #[test]
    fn alias_is_pairwise_not_transitive() {
        let a = Chan::File("/a".into());
        let b = Chan::File("/b".into());
        assert!(!may_alias(&a, &b));
        assert!(may_alias(&a, &Chan::FsAny));
        assert!(may_alias(&Chan::FsAny, &b));
        assert!(!may_alias(&a, &Chan::NetAny));
        assert!(may_alias(&Chan::Peer("h".into()), &Chan::NetAny));
        assert!(!may_alias(&Chan::Peer("h".into()), &Chan::Peer("k".into())));
    }
}
