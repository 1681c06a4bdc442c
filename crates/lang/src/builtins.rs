//! Builtin functions: virtual **syscalls** and pure **library functions**.
//!
//! The distinction matters for the LDX instrumentation: the progress counter
//! counts *syscalls* (paper §4.1), so every [`Syscall`] call site contributes
//! `+1` to the static counter analysis, while [`LibFn`] calls are ordinary
//! computation. At runtime, syscalls are routed through the dual-execution
//! wrappers (paper Algorithm 2) and the virtual OS; library functions are
//! evaluated in-process.

use std::fmt;

/// Virtual syscalls understood by the Lx runtime.
///
/// These mirror the classes of Linux syscalls the paper's evaluation
/// exercises: file I/O, directory manipulation, networking, identity/time/
/// randomness, pthread-style synchronization (which LDX treats as syscalls,
/// paper §7), process control, and setjmp/longjmp (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Syscall {
    /// `open(path, flags) -> fd` — flags: 0 read, 1 write/truncate, 2 append.
    Open = 0,
    /// `read(fd, n) -> str` — reads up to `n` bytes.
    Read,
    /// `write(fd, data) -> n` — writes `data`, returns bytes written.
    Write,
    /// `close(fd) -> 0`
    Close,
    /// `seek(fd, pos) -> 0`
    Seek,
    /// `stat(path) -> size | -1`
    Stat,
    /// `mkdir(path) -> 0 | -1`
    Mkdir,
    /// `unlink(path) -> 0 | -1`
    Unlink,
    /// `rename(old, new) -> 0 | -1`
    Rename,
    /// `readdir(path) -> str` — newline-joined entry names.
    Readdir,
    /// `connect(host) -> sock`
    Connect,
    /// `send(sock, data) -> n`
    Send,
    /// `recv(sock, n) -> str`
    Recv,
    /// `accept(port) -> sock | -1` — accepts the next scripted client.
    Accept,
    /// `getpid() -> int`
    GetPid,
    /// `time() -> int` — virtual nanosecond clock (nondeterministic input,
    /// like `rdtsc` in the paper: the slave reuses the master's outcome).
    Time,
    /// `random() -> int` — virtual entropy (slave reuses master's outcome).
    Random,
    /// `lock(id) -> 0` — pthread-mutex-like acquire; outcome (grant order)
    /// is shared master→slave per paper §7.
    Lock,
    /// `unlock(id) -> 0`
    Unlock,
    /// `spawn(&f, arg) -> tid` — starts an Lx thread.
    Spawn,
    /// `join(tid) -> int` — waits for a thread, returns its result.
    Join,
    /// `sleep(n) -> 0` — advances the virtual clock.
    Sleep,
    /// `exit(code)` — terminates the Lx program.
    Exit,
    /// `setjmp() -> int` — saves a continuation, returns 0 (or the longjmp
    /// value on re-entry). Counter stack is saved per paper §6.
    Setjmp,
    /// `longjmp(val)` — jumps to the most recent `setjmp`; an artificial
    /// sink precedes it per paper §6.
    Longjmp,
}

/// The number of distinct [`Syscall`] variants (for dense tables).
pub const SYSCALL_COUNT: usize = 25;

impl Syscall {
    /// All syscalls, in numeric order.
    pub const ALL: [Syscall; SYSCALL_COUNT] = [
        Syscall::Open,
        Syscall::Read,
        Syscall::Write,
        Syscall::Close,
        Syscall::Seek,
        Syscall::Stat,
        Syscall::Mkdir,
        Syscall::Unlink,
        Syscall::Rename,
        Syscall::Readdir,
        Syscall::Connect,
        Syscall::Send,
        Syscall::Recv,
        Syscall::Accept,
        Syscall::GetPid,
        Syscall::Time,
        Syscall::Random,
        Syscall::Lock,
        Syscall::Unlock,
        Syscall::Spawn,
        Syscall::Join,
        Syscall::Sleep,
        Syscall::Exit,
        Syscall::Setjmp,
        Syscall::Longjmp,
    ];

    /// The syscall's stable numeric id.
    pub fn number(self) -> u8 {
        self as u8
    }

    /// The Lx-visible name.
    pub fn name(self) -> &'static str {
        match self {
            Syscall::Open => "open",
            Syscall::Read => "read",
            Syscall::Write => "write",
            Syscall::Close => "close",
            Syscall::Seek => "seek",
            Syscall::Stat => "stat",
            Syscall::Mkdir => "mkdir",
            Syscall::Unlink => "unlink",
            Syscall::Rename => "rename",
            Syscall::Readdir => "readdir",
            Syscall::Connect => "connect",
            Syscall::Send => "send",
            Syscall::Recv => "recv",
            Syscall::Accept => "accept",
            Syscall::GetPid => "getpid",
            Syscall::Time => "time",
            Syscall::Random => "random",
            Syscall::Lock => "lock",
            Syscall::Unlock => "unlock",
            Syscall::Spawn => "spawn",
            Syscall::Join => "join",
            Syscall::Sleep => "sleep",
            Syscall::Exit => "exit",
            Syscall::Setjmp => "setjmp",
            Syscall::Longjmp => "longjmp",
        }
    }

    /// Whether this syscall produces data *into* the program (an input in
    /// the paper's source/sink terminology). Input syscall outcomes are the
    /// ones the slave reuses from the master when aligned.
    pub fn is_input(self) -> bool {
        matches!(
            self,
            Syscall::Read
                | Syscall::Recv
                | Syscall::Accept
                | Syscall::Readdir
                | Syscall::Stat
                | Syscall::GetPid
                | Syscall::Time
                | Syscall::Random
        )
    }

    /// Whether this syscall emits data *out of* the program — a candidate
    /// sink for causality inference (file writes, network sends).
    pub fn is_output(self) -> bool {
        matches!(self, Syscall::Write | Syscall::Send)
    }

    /// Whether this syscall is always executed independently by both
    /// executions rather than shared (paper §4.2 "some special syscalls are
    /// always executed independently such as process creation").
    pub fn always_independent(self) -> bool {
        matches!(self, Syscall::Spawn | Syscall::Join | Syscall::Exit)
    }

    /// The largest [`Syscall::arity`].
    pub const MAX_ARITY: usize = 2;

    /// Fixed number of arguments.
    pub fn arity(self) -> usize {
        match self {
            Syscall::GetPid | Syscall::Time | Syscall::Random | Syscall::Setjmp => 0,
            Syscall::Close
            | Syscall::Stat
            | Syscall::Mkdir
            | Syscall::Unlink
            | Syscall::Readdir
            | Syscall::Connect
            | Syscall::Accept
            | Syscall::Lock
            | Syscall::Unlock
            | Syscall::Join
            | Syscall::Sleep
            | Syscall::Exit
            | Syscall::Longjmp => 1,
            Syscall::Open
            | Syscall::Read
            | Syscall::Write
            | Syscall::Seek
            | Syscall::Send
            | Syscall::Recv
            | Syscall::Rename
            | Syscall::Spawn => 2,
        }
    }

    /// Looks a syscall up by its numeric id.
    pub fn from_number(n: u8) -> Option<Syscall> {
        Syscall::ALL.get(n as usize).copied()
    }
}

impl fmt::Display for Syscall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Pure library functions evaluated in-process (no counter effect).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibFn {
    /// `len(x)` — string or array length.
    Len,
    /// `str(x)` — convert to string.
    Str,
    /// `int(x)` — parse/convert to integer (0 on failure).
    Int,
    /// `substr(s, start, len)` — substring (clamped).
    Substr,
    /// `find(s, needle)` — first index or -1.
    Find,
    /// `ord(s, i)` — byte value at index (clamped to 0 when out of range).
    Ord,
    /// `chr(i)` — one-character string from a byte value.
    Chr,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `abs(a)`
    Abs,
    /// `array(n, init)` — array of `n` copies of `init`.
    ArrayNew,
    /// `push(arr, v)` — returns a new array with `v` appended.
    Push,
    /// `set(arr, i, v)` — returns a new array with element `i` replaced.
    Set,
    /// `sort(arr)` — returns a sorted copy.
    Sort,
    /// `hash(x)` — deterministic FNV-1a style hash.
    Hash,
    /// `repeat(s, n)` — string repetition.
    Repeat,
    /// `split(s, sep)` — array of pieces.
    Split,
    /// `join(arr, sep)` — concatenation with separator. (Named `strjoin` in
    /// Lx to avoid clashing with the thread `join` syscall.)
    StrJoin,
    /// `trim(s)` — strips ASCII whitespace.
    Trim,
    /// `upper(s)` / `lower(s)` — ASCII case conversion.
    Upper,
    /// See [`LibFn::Upper`].
    Lower,
}

impl LibFn {
    /// The Lx-visible name.
    pub fn name(self) -> &'static str {
        match self {
            LibFn::Len => "len",
            LibFn::Str => "str",
            LibFn::Int => "int",
            LibFn::Substr => "substr",
            LibFn::Find => "find",
            LibFn::Ord => "ord",
            LibFn::Chr => "chr",
            LibFn::Min => "min",
            LibFn::Max => "max",
            LibFn::Abs => "abs",
            LibFn::ArrayNew => "array",
            LibFn::Push => "push",
            LibFn::Set => "set",
            LibFn::Sort => "sort",
            LibFn::Hash => "hash",
            LibFn::Repeat => "repeat",
            LibFn::Split => "split",
            LibFn::StrJoin => "strjoin",
            LibFn::Trim => "trim",
            LibFn::Upper => "upper",
            LibFn::Lower => "lower",
        }
    }

    /// The largest [`LibFn::arity`].
    pub const MAX_ARITY: usize = 3;

    /// Fixed number of arguments.
    pub fn arity(self) -> usize {
        match self {
            LibFn::Len
            | LibFn::Str
            | LibFn::Int
            | LibFn::Abs
            | LibFn::Chr
            | LibFn::Sort
            | LibFn::Hash
            | LibFn::Trim
            | LibFn::Upper
            | LibFn::Lower => 1,
            LibFn::Find
            | LibFn::Ord
            | LibFn::Min
            | LibFn::Max
            | LibFn::ArrayNew
            | LibFn::Push
            | LibFn::Repeat
            | LibFn::Split
            | LibFn::StrJoin => 2,
            LibFn::Substr | LibFn::Set => 3,
        }
    }

    /// Whether the LIBDFT-like taint policy *fails* to model propagation
    /// through this function.
    ///
    /// The paper (§8.3) observes that LIBDFT's tainted sinks are a strict
    /// subset of TaintGrind's because LIBDFT "does not correctly model taint
    /// propagation for some library calls". We reproduce that gap by marking
    /// a handful of string-library functions as unmodeled.
    pub fn libdft_unmodeled(self) -> bool {
        matches!(
            self,
            LibFn::Substr | LibFn::Ord | LibFn::Chr | LibFn::Repeat | LibFn::Split
        )
    }

    /// All library functions.
    pub const ALL: [LibFn; 21] = [
        LibFn::Len,
        LibFn::Str,
        LibFn::Int,
        LibFn::Substr,
        LibFn::Find,
        LibFn::Ord,
        LibFn::Chr,
        LibFn::Min,
        LibFn::Max,
        LibFn::Abs,
        LibFn::ArrayNew,
        LibFn::Push,
        LibFn::Set,
        LibFn::Sort,
        LibFn::Hash,
        LibFn::Repeat,
        LibFn::Split,
        LibFn::StrJoin,
        LibFn::Trim,
        LibFn::Upper,
        LibFn::Lower,
    ];
}

impl fmt::Display for LibFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// What kind of builtin a name denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinKind {
    /// A virtual syscall (counts toward the progress counter).
    Syscall(Syscall),
    /// A pure library function.
    Lib(LibFn),
}

/// A builtin's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Builtin {
    /// Which builtin this is.
    pub kind: BuiltinKind,
    /// Its fixed arity.
    pub arity: usize,
}

/// Looks up a builtin by its Lx-visible name.
pub fn builtin(name: &str) -> Option<Builtin> {
    for sys in Syscall::ALL {
        if sys.name() == name {
            return Some(Builtin {
                kind: BuiltinKind::Syscall(sys),
                arity: sys.arity(),
            });
        }
    }
    for lib in LibFn::ALL {
        if lib.name() == name {
            return Some(Builtin {
                kind: BuiltinKind::Lib(lib),
                arity: lib.arity(),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn syscall_count_matches_all() {
        assert_eq!(Syscall::ALL.len(), SYSCALL_COUNT);
    }

    #[test]
    fn syscall_numbers_are_dense_and_roundtrip() {
        for (i, sys) in Syscall::ALL.iter().enumerate() {
            assert_eq!(sys.number() as usize, i);
            assert_eq!(Syscall::from_number(sys.number()), Some(*sys));
        }
        assert_eq!(Syscall::from_number(SYSCALL_COUNT as u8), None);
    }

    #[test]
    fn max_arities_are_tight() {
        let sys = Syscall::ALL.iter().map(|s| s.arity()).max();
        let lib = LibFn::ALL.iter().map(|l| l.arity()).max();
        assert_eq!(sys, Some(Syscall::MAX_ARITY));
        assert_eq!(lib, Some(LibFn::MAX_ARITY));
    }

    #[test]
    fn builtin_names_are_unique() {
        let mut seen = HashSet::new();
        for sys in Syscall::ALL {
            assert!(seen.insert(sys.name()), "duplicate name {}", sys.name());
        }
        for lib in LibFn::ALL {
            assert!(seen.insert(lib.name()), "duplicate name {}", lib.name());
        }
    }

    #[test]
    fn lookup_by_name() {
        let open = builtin("open").unwrap();
        assert_eq!(open.kind, BuiltinKind::Syscall(Syscall::Open));
        assert_eq!(open.arity, 2);

        let len = builtin("len").unwrap();
        assert_eq!(len.kind, BuiltinKind::Lib(LibFn::Len));
        assert_eq!(len.arity, 1);

        assert!(builtin("not_a_builtin").is_none());
    }

    #[test]
    fn input_output_classification() {
        assert!(Syscall::Read.is_input());
        assert!(Syscall::Recv.is_input());
        assert!(!Syscall::Write.is_input());
        assert!(Syscall::Write.is_output());
        assert!(Syscall::Send.is_output());
        assert!(!Syscall::Open.is_output());
    }

    #[test]
    fn independent_syscalls() {
        assert!(Syscall::Spawn.always_independent());
        assert!(Syscall::Exit.always_independent());
        assert!(!Syscall::Read.always_independent());
    }

    #[test]
    fn libdft_gap_is_a_strict_subset_of_libfns() {
        let unmodeled: Vec<_> = LibFn::ALL.iter().filter(|l| l.libdft_unmodeled()).collect();
        assert!(!unmodeled.is_empty());
        assert!(unmodeled.len() < LibFn::ALL.len());
    }

    #[test]
    fn arities_match_lookup() {
        for sys in Syscall::ALL {
            assert_eq!(builtin(sys.name()).unwrap().arity, sys.arity());
        }
        for lib in LibFn::ALL {
            assert_eq!(builtin(lib.name()).unwrap().arity, lib.arity());
        }
    }
}
