//! The mutable state of a virtual world and its syscall operations.

use crate::config::VosConfig;
use crate::error::VosError;
use crate::fs::{normalize_path, Fs, Node};
use crate::net::{Net, PeerState};
use ldx_lang::Syscall;
use std::collections::VecDeque;
use std::sync::Arc;

/// A syscall argument as seen by the virtual OS, its string borrowed from
/// the caller: the world copies only what it keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysArg<'a> {
    /// An integer argument (fd, size, flags, port…).
    Int(i64),
    /// A string argument (path, data, host…).
    Str(&'a str),
}

impl<'a> SysArg<'a> {
    fn as_int(&self, syscall: &'static str) -> Result<i64, VosError> {
        match self {
            SysArg::Int(v) => Ok(*v),
            SysArg::Str(s) => Err(VosError::BadArgument {
                syscall,
                detail: format!("expected integer, got string {s:?}"),
            }),
        }
    }

    fn as_str(&self, syscall: &'static str) -> Result<&'a str, VosError> {
        match self {
            SysArg::Str(s) => Ok(s),
            SysArg::Int(v) => Err(VosError::BadArgument {
                syscall,
                detail: format!("expected string, got integer {v}"),
            }),
        }
    }
}

/// A syscall result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysRet {
    /// An integer result (`-1` conventionally signals failure).
    Int(i64),
    /// A string result (`""` conventionally signals end-of-stream).
    Str(String),
}

/// The resource a file descriptor names. Its path or host is shared, so
/// a syscall through the descriptor can hold it while it changes the
/// world without copying it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FdEntry {
    File {
        path: Arc<str>,
        pos: usize,
        writable: bool,
    },
    Peer {
        host: Arc<str>,
    },
    Client {
        index: usize,
    },
}

/// One descriptor. A closed one keeps its resource, so the undo log can
/// name files and peers by their never-reused descriptor numbers.
#[derive(Debug, Clone)]
struct FdSlot {
    entry: FdEntry,
    open: bool,
}

/// How to revert one change a syscall made to a file or a peer, the only
/// resources the slave's overlay clones.
#[derive(Debug, Clone)]
enum Undo {
    /// A write through descriptor `fd` appended to a file `len` bytes long.
    Append { fd: i64, len: usize },
    /// A structural change at a path, and the node there before it (`None`:
    /// absent; a change that created parent directories names the
    /// shallowest one it created).
    Node(Box<(String, Option<Node>)>),
    /// A send through descriptor `fd` to a peer with `pending` bytes queued.
    Send { fd: i64, pending: usize },
    /// A recv through descriptor `fd` from a peer.
    Recv(Box<RecvUndo>),
}

#[derive(Debug, Clone)]
struct RecvUndo {
    fd: i64,
    taken: String,
    advanced: bool,
}

/// The complete state of one virtual world.
///
/// Usually owned by a [`crate::Vos`] (thread-safe wrapper); exposed so the
/// slave overlay can hold its own private copy.
#[derive(Debug, Clone)]
pub struct VosState {
    fs: Fs,
    net: Net,
    fds: Vec<FdSlot>,
    /// First descriptor number this world hands out (3 by default; the
    /// slave overlay uses a disjoint high range so its descriptors never
    /// collide with master-issued ones the program still holds).
    fd_start: i64,
    clock: i64,
    clock_step: i64,
    rng: u64,
    pid: i64,
    /// Total syscalls executed against this world. It also numbers the
    /// world's versions: the state right after a syscall is version
    /// `syscall_count`.
    pub syscall_count: u64,
    /// Undo records tagged with the version they lead to, oldest first
    /// (`None`: the world keeps no history). See [`VosState::node_as_of`].
    history: Option<VecDeque<(u64, Undo)>>,
}

impl VosState {
    /// Builds the initial world described by `config`.
    pub fn build(config: &VosConfig) -> Self {
        Self::build_with_fd_start(config, 3)
    }

    /// Like [`VosState::build`], with a custom first descriptor number.
    pub fn build_with_fd_start(config: &VosConfig, fd_start: i64) -> Self {
        let mut fs = Fs::new();
        for dir in &config.dirs {
            fs.mkdir(dir);
        }
        for (path, contents) in &config.files {
            fs.insert(path, Node::File(contents.clone()));
        }
        let mut net = Net::default();
        for (host, behavior) in &config.peers {
            net.peers
                .insert(host.clone(), PeerState::new(behavior.clone()));
        }
        for (port, requests) in &config.listen {
            net.backlog.insert(*port, requests.clone());
        }
        VosState {
            fs,
            net,
            fds: Vec::new(),
            fd_start: fd_start.max(3),
            clock: config.clock_start,
            clock_step: config.clock_step,
            rng: config.rng_seed | 1,
            pid: config.pid,
            syscall_count: 0,
            history: None,
        }
    }

    /// Like [`VosState::build`], keeping the history that
    /// [`VosState::node_as_of`] and [`VosState::peer_as_of`] read.
    pub fn build_versioned(config: &VosConfig) -> Self {
        VosState {
            history: Some(VecDeque::new()),
            ..Self::build(config)
        }
    }

    /// Hands out the next descriptor number. Closed numbers are never
    /// reused, so within one run a descriptor names one resource: the
    /// slave's descriptor shadow, which replays shared outcomes in its own
    /// thread interleaving, cannot confuse one thread's closed descriptor
    /// with another thread's new one.
    fn alloc_fd(&mut self, entry: FdEntry) -> i64 {
        self.fds.push(FdSlot { entry, open: true });
        self.fds.len() as i64 + self.fd_start - 1
    }

    fn fd_slot(&self, fd: i64) -> Option<&FdSlot> {
        self.fds.get(usize::try_from(fd - self.fd_start).ok()?)
    }

    /// The slot of an open descriptor.
    fn open_slot(&mut self, fd: i64) -> Option<&mut FdSlot> {
        let idx = usize::try_from(fd - self.fd_start).ok()?;
        self.fds.get_mut(idx).filter(|slot| slot.open)
    }

    fn fd_entry(&mut self, fd: i64) -> Option<&mut FdEntry> {
        self.open_slot(fd).map(|slot| &mut slot.entry)
    }

    /// The file a write through `fd` appends to, open or closed.
    fn fd_path(&self, fd: i64) -> Option<&str> {
        match fd {
            0 | 1 => Some("/dev/stdout"),
            2 => Some("/dev/stderr"),
            _ => match &self.fd_slot(fd)?.entry {
                FdEntry::File { path, .. } => Some(path),
                _ => None,
            },
        }
    }

    /// The peer a descriptor is connected to, open or closed.
    fn fd_host(&self, fd: i64) -> Option<&str> {
        match &self.fd_slot(fd)?.entry {
            FdEntry::Peer { host } => Some(host),
            _ => None,
        }
    }

    /// Appends an undo record for the running syscall, if the world keeps
    /// history.
    fn log(&mut self, undo: impl FnOnce() -> Undo) {
        if let Some(history) = &mut self.history {
            history.push_back((self.syscall_count, undo()));
        }
    }

    /// Logs the node a structural change at `path` is about to replace.
    fn log_node(&mut self, path: &str) {
        if let Some(history) = &mut self.history {
            let record = match self.fs.first_missing(path) {
                Some(created) => (created, None),
                None => (path.to_string(), self.fs.get(path).cloned()),
            };
            history.push_back((self.syscall_count, Undo::Node(Box::new(record))));
        }
    }

    /// Executes a syscall against this world.
    ///
    /// Descriptors 0–2 behave like stdio: writes succeed (content is
    /// captured in the `/dev/std{out,err}` pseudo-files), reads return `""`.
    ///
    /// # Errors
    ///
    /// Returns [`VosError`] only on argument-type misuse or when asked to
    /// run a syscall the virtual OS does not own (`spawn`, `join`, `lock`,
    /// `unlock`, `exit`, `setjmp`, `longjmp` — those belong to the
    /// runtime).
    pub fn syscall(&mut self, sys: Syscall, args: &[SysArg]) -> Result<SysRet, VosError> {
        self.syscall_count += 1;
        match sys {
            Syscall::Open => {
                let path = args[0].as_str("open")?;
                let flags = args[1].as_int("open")?;
                Ok(SysRet::Int(self.open(path, flags)))
            }
            Syscall::Read | Syscall::Recv => self.read(args),
            Syscall::Write | Syscall::Send => self.write(args),
            Syscall::Close => {
                let fd = args[0].as_int("close")?;
                if let Some(slot) = self.open_slot(fd) {
                    slot.open = false;
                    Ok(SysRet::Int(0))
                } else {
                    Ok(SysRet::Int(-1))
                }
            }
            Syscall::Seek => {
                let fd = args[0].as_int("seek")?;
                let to = args[1].as_int("seek")?.max(0) as usize;
                match self.fd_entry(fd) {
                    Some(FdEntry::File { pos, .. }) => {
                        *pos = to;
                        Ok(SysRet::Int(0))
                    }
                    _ => Ok(SysRet::Int(-1)),
                }
            }
            Syscall::Stat => {
                let path = args[0].as_str("stat")?;
                match self.fs.get(path) {
                    Some(Node::File(data)) => Ok(SysRet::Int(data.chars().count() as i64)),
                    Some(Node::Dir(_)) => Ok(SysRet::Int(0)),
                    None => Ok(SysRet::Int(-1)),
                }
            }
            Syscall::Mkdir => {
                let path = args[0].as_str("mkdir")?;
                if self.fs.get(path).is_none() {
                    self.log_node(path);
                }
                Ok(SysRet::Int(if self.fs.mkdir(path) { 0 } else { -1 }))
            }
            Syscall::Unlink => {
                let path = args[0].as_str("unlink")?;
                match self.fs.remove(path) {
                    Some(node) => {
                        self.log(|| Undo::Node(Box::new((path.to_string(), Some(node)))));
                        Ok(SysRet::Int(0))
                    }
                    None => Ok(SysRet::Int(-1)),
                }
            }
            Syscall::Rename => {
                let from = args[0].as_str("rename")?;
                let to = args[1].as_str("rename")?;
                if self.fs.get(from).is_some() {
                    // Undone in reverse: `to` is restored first, then `from`.
                    self.log_node(from);
                    self.log_node(to);
                }
                Ok(SysRet::Int(if self.fs.rename(from, to) { 0 } else { -1 }))
            }
            Syscall::Readdir => {
                let path = args[0].as_str("readdir")?;
                match self.fs.readdir(path) {
                    Some(names) => Ok(SysRet::Str(names.join("\n"))),
                    None => Ok(SysRet::Str(String::new())),
                }
            }
            Syscall::Connect => {
                let host = args[0].as_str("connect")?;
                if self.net.peers.contains_key(host) {
                    let host = host.into();
                    Ok(SysRet::Int(self.alloc_fd(FdEntry::Peer { host })))
                } else {
                    Ok(SysRet::Int(-1))
                }
            }
            Syscall::Accept => {
                let port = args[0].as_int("accept")?;
                match self.net.accept(port) {
                    Some(index) => Ok(SysRet::Int(self.alloc_fd(FdEntry::Client { index }))),
                    None => Ok(SysRet::Int(-1)),
                }
            }
            Syscall::GetPid => Ok(SysRet::Int(self.pid)),
            Syscall::Time => {
                let now = self.clock;
                self.clock += self.clock_step;
                Ok(SysRet::Int(now))
            }
            Syscall::Random => {
                // xorshift64*.
                let mut x = self.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng = x;
                Ok(SysRet::Int(
                    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 1) as i64,
                ))
            }
            Syscall::Sleep => {
                let n = args[0].as_int("sleep")?;
                self.clock += n.max(0);
                Ok(SysRet::Int(0))
            }
            Syscall::Lock
            | Syscall::Unlock
            | Syscall::Spawn
            | Syscall::Join
            | Syscall::Exit
            | Syscall::Setjmp
            | Syscall::Longjmp => Err(VosError::Unsupported {
                syscall: sys.name(),
            }),
        }
    }

    /// Opens the file at `path` (`flags`: 0 read, 1 write and truncate, 2
    /// append; a writer creates a missing file): its descriptor, or -1.
    fn open(&mut self, path: &str, flags: i64) -> i64 {
        let (pos, writable) = match flags {
            0 => {
                // Read-only: file must exist.
                if !matches!(self.fs.get(path), Some(Node::File(_))) {
                    return -1;
                }
                (0, false)
            }
            1 | 2 => {
                // Write (truncate) or append: create if missing.
                let existing = self.fs.get(path);
                if matches!(existing, Some(Node::Dir(_))) {
                    return -1;
                }
                if flags == 1 || existing.is_none() {
                    self.log_node(path);
                    if !self.fs.insert(path, Node::File(String::new())) {
                        return -1;
                    }
                }
                let pos = self
                    .fs
                    .get(path)
                    .and_then(Node::as_file)
                    .map_or(0, |d| d.chars().count());
                (pos, true)
            }
            _ => return -1,
        };
        self.alloc_fd(FdEntry::File {
            path: path.into(),
            pos,
            writable,
        })
    }

    /// `read` and `recv`: up to `n` characters from a file, peer or client.
    fn read(&mut self, args: &[SysArg]) -> Result<SysRet, VosError> {
        let fd = args[0].as_int("read")?;
        let n = args[1].as_int("read")?.max(0) as usize;
        if (0..=2).contains(&fd) {
            return Ok(SysRet::Str(String::new()));
        }
        let Some(entry) = self.fd_entry(fd) else {
            return Ok(SysRet::Str(String::new()));
        };
        match entry {
            FdEntry::File { path, pos, .. } => {
                let path = Arc::clone(path);
                let start = *pos;
                let chunk = match self.fs.get(&path) {
                    Some(Node::File(data)) => read_chars(data, start, n),
                    _ => String::new(),
                };
                let advanced = chunk.chars().count();
                if let Some(FdEntry::File { pos, .. }) = self.fd_entry(fd) {
                    *pos = start + advanced;
                }
                Ok(SysRet::Str(chunk))
            }
            FdEntry::Peer { host } => {
                let host = Arc::clone(host);
                let Some(peer) = self.net.peers.get_mut(&*host) else {
                    return Ok(SysRet::Str(String::new()));
                };
                let (out, advanced) = peer.on_recv(n);
                if advanced || !out.is_empty() {
                    self.log(|| {
                        Undo::Recv(Box::new(RecvUndo {
                            fd,
                            taken: out.clone(),
                            advanced,
                        }))
                    });
                }
                Ok(SysRet::Str(out))
            }
            FdEntry::Client { index } => {
                let index = *index;
                let conn = &mut self.net.clients[index];
                let chunk = take_chars(&mut conn.pending, n);
                Ok(SysRet::Str(chunk))
            }
        }
    }

    /// `write` and `send`: appends `data` to a file, sends it to a peer, or
    /// answers a client. Descriptors 0–2 write the stdio pseudo-files.
    fn write(&mut self, args: &[SysArg]) -> Result<SysRet, VosError> {
        let fd = args[0].as_int("write")?;
        let data = args[1].as_str("write")?;
        if (0..=2).contains(&fd) {
            let path = if fd == 2 {
                "/dev/stderr"
            } else {
                "/dev/stdout"
            };
            self.append_file(fd, path, data);
            return Ok(SysRet::Int(data.chars().count() as i64));
        }
        let Some(entry) = self.fd_entry(fd) else {
            return Ok(SysRet::Int(-1));
        };
        match entry {
            FdEntry::File { path, writable, .. } => {
                if !*writable {
                    return Ok(SysRet::Int(-1));
                }
                let path = Arc::clone(path);
                self.append_file(fd, &path, data);
            }
            FdEntry::Peer { host } => {
                let host = Arc::clone(host);
                let Some(p) = self.net.peers.get_mut(&*host) else {
                    return Ok(SysRet::Int(-1));
                };
                let pending = p.pending_len();
                p.on_send(data);
                self.log(|| Undo::Send { fd, pending });
            }
            FdEntry::Client { index } => {
                let index = *index;
                self.net.clients[index].responses.push(data.to_string());
            }
        }
        Ok(SysRet::Int(data.chars().count() as i64))
    }

    /// Appends `data`, written through `fd`, to the file at `path`.
    fn append_file(&mut self, fd: i64, path: &str, data: &str) {
        match self.fs.get_mut(path) {
            Some(Node::File(existing)) => {
                let len = existing.len();
                existing.push_str(data);
                self.log(|| Undo::Append { fd, len });
            }
            _ => {
                self.log_node(path);
                self.fs.insert(path, Node::File(data.to_string()));
            }
        }
    }

    /// History records that lead past version `cut`, oldest first.
    fn newer_than(&self, cut: u64) -> impl DoubleEndedIterator<Item = &Undo> {
        self.history
            .iter()
            .flat_map(move |h| h.range(h.partition_point(|(seq, _)| *seq <= cut)..))
            .map(|(_, undo)| undo)
    }

    #[cfg(test)]
    pub(crate) fn history_len(&self) -> usize {
        self.history.as_ref().map_or(0, VecDeque::len)
    }

    /// Drops the history records no cut at or after `cut` needs.
    pub fn forget_until(&mut self, cut: u64) {
        if let Some(history) = &mut self.history {
            while history.front().is_some_and(|(seq, _)| *seq <= cut) {
                history.pop_front();
            }
        }
    }

    // ------- Inspection and cloning APIs (used by the overlay, the
    // dual-execution engine's resource tainting, and tests).

    /// The contents of the file at `path`, if it exists.
    pub fn file_contents(&self, path: &str) -> Option<String> {
        match self.fs.get(path) {
            Some(Node::File(data)) => Some(data.clone()),
            _ => None,
        }
    }

    /// The node at `path` (file or whole directory) as of version `cut`:
    /// the world right after its syscall number `cut`. Without history, or
    /// once `cut` is the current version, that is the node as it is now.
    ///
    /// Copies only the node at `path`, then undoes, newest first, the
    /// changes recorded after `cut` that touch it: writes to a file in
    /// it, structural changes inside it, and structural changes to an
    /// ancestor (which replace it by the part of the old ancestor at
    /// `path`). Other files are neither copied nor replayed.
    pub fn node_as_of(&self, path: &str, cut: u64) -> Option<Node> {
        let mut newer = self.newer_than(cut).peekable();
        if newer.peek().is_none() {
            return self.fs.get(path).cloned();
        }
        let target: Vec<&str> = normalize_path(path).collect();
        let mut sub = if target.is_empty() {
            self.fs.clone()
        } else {
            let mut sub = Fs::new();
            if let Some(node) = self.fs.get(path) {
                sub.insert(path, node.clone());
            }
            sub
        };
        // A write loop logs one descriptor many times: decide it once.
        let mut last_fd: Option<(i64, bool)> = None;
        for undo in newer.rev() {
            match undo {
                Undo::Append { fd, len } => {
                    let Some(file) = self.fd_path(*fd) else {
                        continue;
                    };
                    let inside = match last_fd {
                        Some((seen, inside)) if seen == *fd => inside,
                        _ => normalize_path(file)
                            .take(target.len())
                            .eq(target.iter().copied()),
                    };
                    last_fd = Some((*fd, inside));
                    if !inside {
                        continue;
                    }
                    if let Some(Node::File(data)) = sub.get_mut(file) {
                        data.truncate(*len);
                    }
                }
                Undo::Node(record) => {
                    let (at, prev) = record.as_ref();
                    let at_segs: Vec<&str> = normalize_path(at).collect();
                    if at_segs.starts_with(&target) {
                        match prev {
                            Some(node) => sub.insert(at, node.clone()),
                            None => sub.remove(at).is_some(),
                        };
                    } else if target.starts_with(&at_segs) {
                        sub.remove(path);
                        let below = target[at_segs.len()..].iter().copied();
                        if let Some(node) = prev.as_ref().and_then(|n| n.descendant(below)) {
                            sub.insert(path, node.clone());
                        }
                    }
                }
                Undo::Send { .. } | Undo::Recv(_) => {}
            }
        }
        sub.get(path).cloned()
    }

    /// Installs `node` at `path` (the overlay's copy-on-divergence hook).
    pub fn install_node(&mut self, path: &str, node: Node) -> bool {
        self.fs.insert(path, node)
    }

    /// Removes the node at `path` (tombstone support for the overlay).
    pub fn remove_node(&mut self, path: &str) -> bool {
        self.fs.remove(path).is_some()
    }

    /// Everything the program has sent to `host`, in order.
    pub fn sent_to(&self, host: &str) -> Vec<String> {
        self.net
            .peers
            .get(host)
            .map(|p| p.sent.clone())
            .unwrap_or_default()
    }

    /// A peer's full state as of version `cut` (see
    /// [`VosState::node_as_of`]).
    pub fn peer_as_of(&self, host: &str, cut: u64) -> Option<PeerState> {
        let mut peer = self.net.peers.get(host)?.clone();
        for undo in self.newer_than(cut).rev() {
            match undo {
                Undo::Send { fd, pending } if self.fd_host(*fd) == Some(host) => {
                    peer.undo_send(*pending);
                }
                Undo::Recv(recv) if self.fd_host(recv.fd) == Some(host) => {
                    peer.undo_recv(&recv.taken, recv.advanced);
                }
                _ => {}
            }
        }
        Some(peer)
    }

    /// Replaces a peer's state (overlay hook).
    pub fn install_peer(&mut self, host: &str, state: PeerState) {
        self.net.peers.insert(host.to_string(), state);
    }

    /// Responses the server sent to accepted client `i` (accept order).
    pub fn client_responses(&self, i: usize) -> Vec<String> {
        self.net
            .clients
            .get(i)
            .map(|c| c.responses.clone())
            .unwrap_or_default()
    }

    /// Number of accepted client connections so far.
    pub fn accepted_clients(&self) -> usize {
        self.net.clients.len()
    }

    /// Current virtual clock value (without advancing it).
    pub fn clock(&self) -> i64 {
        self.clock
    }
}

/// Reads up to `n` characters of `data` starting at char offset `start`.
fn read_chars(data: &str, start: usize, n: usize) -> String {
    data.chars().skip(start).take(n).collect()
}

/// Removes and returns up to `n` characters from the front of `s`.
fn take_chars(s: &mut String, n: usize) -> String {
    let end = s.char_indices().nth(n).map(|(i, _)| i).unwrap_or(s.len());
    let head = s[..end].to_string();
    s.drain(..end);
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeerBehavior;

    fn world() -> VosState {
        VosState::build(
            &VosConfig::new()
                .file("/data/input.txt", "hello world")
                .dir("/out")
                .peer("remote", PeerBehavior::Echo)
                .listen(80, vec!["GET /index".into()]),
        )
    }

    fn s(v: &str) -> SysArg<'_> {
        SysArg::Str(v)
    }
    fn i(v: i64) -> SysArg<'static> {
        SysArg::Int(v)
    }

    #[test]
    fn open_read_close_roundtrip() {
        let mut w = world();
        let SysRet::Int(fd) = w
            .syscall(Syscall::Open, &[s("/data/input.txt"), i(0)])
            .unwrap()
        else {
            panic!()
        };
        assert!(fd >= 3);
        let SysRet::Str(data) = w.syscall(Syscall::Read, &[i(fd), i(5)]).unwrap() else {
            panic!()
        };
        assert_eq!(data, "hello");
        let SysRet::Str(rest) = w.syscall(Syscall::Read, &[i(fd), i(100)]).unwrap() else {
            panic!()
        };
        assert_eq!(rest, " world");
        assert_eq!(w.syscall(Syscall::Close, &[i(fd)]).unwrap(), SysRet::Int(0));
        assert_eq!(
            w.syscall(Syscall::Close, &[i(fd)]).unwrap(),
            SysRet::Int(-1),
            "double close fails"
        );
    }

    #[test]
    fn open_missing_file_fails() {
        let mut w = world();
        assert_eq!(
            w.syscall(Syscall::Open, &[s("/nope"), i(0)]).unwrap(),
            SysRet::Int(-1)
        );
    }

    #[test]
    fn write_creates_and_appends() {
        let mut w = world();
        let SysRet::Int(fd) = w.syscall(Syscall::Open, &[s("/out/log"), i(1)]).unwrap() else {
            panic!()
        };
        w.syscall(Syscall::Write, &[i(fd), s("one")]).unwrap();
        w.syscall(Syscall::Write, &[i(fd), s("two")]).unwrap();
        assert_eq!(w.file_contents("/out/log").unwrap(), "onetwo");
        // Reopen with truncate.
        let SysRet::Int(fd2) = w.syscall(Syscall::Open, &[s("/out/log"), i(1)]).unwrap() else {
            panic!()
        };
        w.syscall(Syscall::Write, &[i(fd2), s("fresh")]).unwrap();
        assert_eq!(w.file_contents("/out/log").unwrap(), "fresh");
    }

    #[test]
    fn append_mode_keeps_existing() {
        let mut w = world();
        let SysRet::Int(fd) = w
            .syscall(Syscall::Open, &[s("/data/input.txt"), i(2)])
            .unwrap()
        else {
            panic!()
        };
        w.syscall(Syscall::Write, &[i(fd), s("!")]).unwrap();
        assert_eq!(w.file_contents("/data/input.txt").unwrap(), "hello world!");
    }

    #[test]
    fn reading_from_readonly_write_fails() {
        let mut w = world();
        let SysRet::Int(fd) = w
            .syscall(Syscall::Open, &[s("/data/input.txt"), i(0)])
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(
            w.syscall(Syscall::Write, &[i(fd), s("x")]).unwrap(),
            SysRet::Int(-1)
        );
    }

    #[test]
    fn stdio_writes_are_captured() {
        let mut w = world();
        w.syscall(Syscall::Write, &[i(1), s("out")]).unwrap();
        w.syscall(Syscall::Write, &[i(2), s("err")]).unwrap();
        assert_eq!(w.file_contents("/dev/stdout").unwrap(), "out");
        assert_eq!(w.file_contents("/dev/stderr").unwrap(), "err");
        // stdin reads are empty.
        assert_eq!(
            w.syscall(Syscall::Read, &[i(0), i(4)]).unwrap(),
            SysRet::Str(String::new())
        );
    }

    #[test]
    fn seek_repositions() {
        let mut w = world();
        let SysRet::Int(fd) = w
            .syscall(Syscall::Open, &[s("/data/input.txt"), i(0)])
            .unwrap()
        else {
            panic!()
        };
        w.syscall(Syscall::Seek, &[i(fd), i(6)]).unwrap();
        let SysRet::Str(data) = w.syscall(Syscall::Read, &[i(fd), i(5)]).unwrap() else {
            panic!()
        };
        assert_eq!(data, "world");
    }

    #[test]
    fn stat_mkdir_unlink_rename_readdir() {
        let mut w = world();
        assert_eq!(
            w.syscall(Syscall::Stat, &[s("/data/input.txt")]).unwrap(),
            SysRet::Int(11)
        );
        assert_eq!(
            w.syscall(Syscall::Stat, &[s("/out")]).unwrap(),
            SysRet::Int(0)
        );
        assert_eq!(
            w.syscall(Syscall::Stat, &[s("/gone")]).unwrap(),
            SysRet::Int(-1)
        );
        assert_eq!(
            w.syscall(Syscall::Mkdir, &[s("/tmp2")]).unwrap(),
            SysRet::Int(0)
        );
        assert_eq!(
            w.syscall(Syscall::Rename, &[s("/data/input.txt"), s("/tmp2/in")])
                .unwrap(),
            SysRet::Int(0)
        );
        assert_eq!(
            w.syscall(Syscall::Readdir, &[s("/tmp2")]).unwrap(),
            SysRet::Str("in".into())
        );
        assert_eq!(
            w.syscall(Syscall::Unlink, &[s("/tmp2/in")]).unwrap(),
            SysRet::Int(0)
        );
        assert_eq!(
            w.syscall(Syscall::Unlink, &[s("/tmp2/in")]).unwrap(),
            SysRet::Int(-1)
        );
    }

    #[test]
    fn connect_send_recv_echo() {
        let mut w = world();
        let SysRet::Int(sock) = w.syscall(Syscall::Connect, &[s("remote")]).unwrap() else {
            panic!()
        };
        assert!(sock >= 3);
        w.syscall(Syscall::Send, &[i(sock), s("ping")]).unwrap();
        assert_eq!(
            w.syscall(Syscall::Recv, &[i(sock), i(10)]).unwrap(),
            SysRet::Str("ping".into())
        );
        assert_eq!(w.sent_to("remote"), vec!["ping"]);
        assert_eq!(
            w.syscall(Syscall::Connect, &[s("unknown-host")]).unwrap(),
            SysRet::Int(-1)
        );
    }

    #[test]
    fn accept_serves_scripted_clients() {
        let mut w = world();
        let SysRet::Int(conn) = w.syscall(Syscall::Accept, &[i(80)]).unwrap() else {
            panic!()
        };
        assert!(conn >= 3);
        let SysRet::Str(req) = w.syscall(Syscall::Recv, &[i(conn), i(64)]).unwrap() else {
            panic!()
        };
        assert_eq!(req, "GET /index");
        w.syscall(Syscall::Send, &[i(conn), s("200 OK")]).unwrap();
        assert_eq!(w.client_responses(0), vec!["200 OK"]);
        assert_eq!(
            w.syscall(Syscall::Accept, &[i(80)]).unwrap(),
            SysRet::Int(-1)
        );
    }

    #[test]
    fn time_advances_and_random_is_deterministic() {
        let mut w1 = world();
        let mut w2 = world();
        let t1 = w1.syscall(Syscall::Time, &[]).unwrap();
        let t2 = w1.syscall(Syscall::Time, &[]).unwrap();
        assert_ne!(t1, t2);
        let r1 = w1.syscall(Syscall::Random, &[]).unwrap();
        w2.syscall(Syscall::Time, &[]).unwrap();
        w2.syscall(Syscall::Time, &[]).unwrap();
        let r2 = w2.syscall(Syscall::Random, &[]).unwrap();
        assert_eq!(r1, r2, "same seed, same stream");
        w1.syscall(Syscall::Sleep, &[i(100)]).unwrap();
        assert!(w1.clock() > w2.clock());
    }

    #[test]
    fn getpid_is_stable() {
        let mut w = world();
        assert_eq!(w.syscall(Syscall::GetPid, &[]).unwrap(), SysRet::Int(4242));
    }

    #[test]
    fn type_misuse_is_an_error() {
        let mut w = world();
        assert!(w.syscall(Syscall::Open, &[i(1), i(0)]).is_err());
        assert!(w.syscall(Syscall::Read, &[s("x"), i(1)]).is_err());
    }

    #[test]
    fn runtime_owned_syscalls_rejected() {
        let mut w = world();
        assert!(matches!(
            w.syscall(Syscall::Spawn, &[]),
            Err(VosError::Unsupported { .. })
        ));
        assert!(w.syscall(Syscall::Lock, &[i(0)]).is_err());
    }

    #[test]
    fn closed_descriptors_are_not_reused() {
        let mut w = world();
        let SysRet::Int(fd1) = w
            .syscall(Syscall::Open, &[s("/data/input.txt"), i(0)])
            .unwrap()
        else {
            panic!()
        };
        w.syscall(Syscall::Close, &[i(fd1)]).unwrap();
        let SysRet::Int(fd2) = w
            .syscall(Syscall::Open, &[s("/data/input.txt"), i(0)])
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(fd2, fd1 + 1, "closed descriptor number is not reused");
    }

    #[test]
    fn every_past_version_is_reconstructed_exactly() {
        let cfg = VosConfig::new()
            .file("/d/a", "seed")
            .dir("/e")
            .peer("echo", PeerBehavior::Echo)
            .peer(
                "script",
                PeerBehavior::Script(vec!["one".into(), "two".into(), "three".into()]),
            );
        let paths = ["/d/a", "/d/b", "/e/x/y", "/d", "/f"];
        for seed in 1..=60u64 {
            let mut rng = seed;
            let mut next = |n: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % n as u64) as usize
            };
            let mut w = VosState::build_versioned(&cfg);
            let snapshot = |w: &VosState| (w.fs.clone(), w.net.peers.clone());
            let mut versions = vec![(0, snapshot(&w))];
            let mut fds = vec![1i64, 2];
            for _ in 0..60 {
                let (path, other) = (paths[next(5)], paths[next(5)]);
                let fd = fds[next(fds.len())];
                let host = ["echo", "script"][next(2)];
                let (sys, args) = match next(10) {
                    0 => (Syscall::Open, vec![s(path), i(next(3) as i64)]),
                    1 | 2 => (Syscall::Write, vec![i(fd), s("w")]),
                    3 => (Syscall::Read, vec![i(fd), i(2)]),
                    4 => (Syscall::Connect, vec![s(host)]),
                    5 => (Syscall::Close, vec![i(fd)]),
                    6 => (Syscall::Unlink, vec![s(path)]),
                    7 => (Syscall::Rename, vec![s(path), s(other)]),
                    8 => (Syscall::Mkdir, vec![s(path)]),
                    _ => (Syscall::Send, vec![i(fd), s("ping")]),
                };
                match w.syscall(sys, &args).unwrap() {
                    SysRet::Int(new)
                        if new >= 3 && matches!(sys, Syscall::Open | Syscall::Connect) =>
                    {
                        fds.push(new);
                    }
                    _ => {}
                }
                versions.push((w.syscall_count, snapshot(&w)));
            }
            let check = |w: &VosState, from: usize| {
                for (version, (fs, peers)) in &versions[from..] {
                    let at = |what| format!("seed {seed}, version {version}: {what}");
                    for path in ["/", "/d", "/d/a", "/d/b", "/e", "/e/x", "/e/x/y", "/f"] {
                        assert_eq!(
                            w.node_as_of(path, *version).as_ref(),
                            fs.get(path),
                            "{}",
                            at(path)
                        );
                    }
                    for host in ["echo", "script"] {
                        assert_eq!(
                            w.peer_as_of(host, *version).as_ref(),
                            peers.get(host),
                            "{}",
                            at(host)
                        );
                    }
                }
            };
            check(&w, 0);
            // Forgetting the history up to a version keeps every later one.
            let mid = versions.len() / 2;
            w.forget_until(versions[mid].0);
            check(&w, mid);
        }
    }

    #[test]
    fn a_world_without_history_answers_with_its_current_state() {
        let mut w = world();
        let SysRet::Int(fd) = w.syscall(Syscall::Open, &[s("/out/log"), i(1)]).unwrap() else {
            panic!()
        };
        w.syscall(Syscall::Write, &[i(fd), s("now")]).unwrap();
        assert_eq!(w.node_as_of("/out/log", 0), Some(Node::File("now".into())));
    }

    /// The descriptor's position, in chars.
    fn pos(w: &VosState, fd: i64) -> usize {
        match &w.fd_slot(fd).unwrap().entry {
            FdEntry::File { pos, .. } => *pos,
            _ => panic!("not a file"),
        }
    }

    #[test]
    fn reads_multibyte_text_by_char() {
        let text = "aé日本€x";
        let mut w = VosState::build(&VosConfig::new().file("/u", text));
        let SysRet::Int(fd) = w.syscall(Syscall::Open, &[s("/u"), i(0)]).unwrap() else {
            panic!()
        };
        // Reads 1-char chunks to the end, checking the position after each.
        let read_rest = |w: &mut VosState, from: usize| {
            let mut chunks = Vec::new();
            loop {
                let SysRet::Str(chunk) = w.syscall(Syscall::Read, &[i(fd), i(1)]).unwrap() else {
                    panic!()
                };
                if chunk.is_empty() {
                    return chunks;
                }
                chunks.push(chunk);
                assert_eq!(pos(w, fd), from + chunks.len());
            }
        };
        let chars = |skip| {
            text.chars()
                .skip(skip)
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(read_rest(&mut w, 0), chars(0));
        assert_eq!(pos(&w, fd), 6);
        w.syscall(Syscall::Seek, &[i(fd), i(2)]).unwrap();
        assert_eq!(read_rest(&mut w, 2), chars(2));
        assert_eq!(pos(&w, fd), 6);
        assert_eq!(w.file_contents("/u").unwrap(), text);
    }

    #[test]
    fn syscall_count_increments() {
        let mut w = world();
        let before = w.syscall_count;
        w.syscall(Syscall::GetPid, &[]).unwrap();
        w.syscall(Syscall::Time, &[]).unwrap();
        assert_eq!(w.syscall_count, before + 2);
    }
}
