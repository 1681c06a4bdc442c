//! Thread-safe virtual OS handle.

use crate::config::VosConfig;
use crate::error::VosError;
use crate::fs::Node;
use crate::net::PeerState;
use crate::state::{SysArg, SysRet, VosState};
use ldx_lang::Syscall;
use parking_lot::Mutex;

/// A virtual world shared by all Lx threads of one execution.
///
/// All syscalls are serialized by an internal lock, matching the atomicity
/// granularity of real kernel syscalls; Lx-level races remain genuinely
/// nondeterministic across runs.
#[derive(Debug)]
pub struct Vos {
    state: Mutex<VosState>,
}

impl Vos {
    /// Builds the world described by `config`.
    pub fn new(config: &VosConfig) -> Self {
        Vos {
            state: Mutex::new(VosState::build(config)),
        }
    }

    /// Builds the world described by `config`, keeping the history that
    /// [`Vos::node_as_of`] and [`Vos::peer_as_of`] read (the master's
    /// world in a dual execution).
    pub fn versioned(config: &VosConfig) -> Self {
        Vos {
            state: Mutex::new(VosState::build_versioned(config)),
        }
    }

    /// Executes a syscall.
    ///
    /// # Errors
    ///
    /// See [`VosState::syscall`].
    pub fn syscall(&self, sys: Syscall, args: &[SysArg]) -> Result<SysRet, VosError> {
        self.state.lock().syscall(sys, args)
    }

    /// Executes a syscall and returns, with its result, the version of
    /// the world it left behind.
    ///
    /// # Errors
    ///
    /// See [`VosState::syscall`].
    pub fn syscall_versioned(
        &self,
        sys: Syscall,
        args: &[SysArg],
    ) -> Result<(SysRet, u64), VosError> {
        let mut state = self.state.lock();
        let ret = state.syscall(sys, args)?;
        Ok((ret, state.syscall_count))
    }

    /// Runs `f` with shared access to the locked state (inspection).
    pub fn with_state<R>(&self, f: impl FnOnce(&VosState) -> R) -> R {
        f(&self.state.lock())
    }

    /// File contents at `path`, if present.
    pub fn file_contents(&self, path: &str) -> Option<String> {
        self.state.lock().file_contents(path)
    }

    /// Everything sent to peer `host`.
    pub fn sent_to(&self, host: &str) -> Vec<String> {
        self.state.lock().sent_to(host)
    }

    /// The filesystem node at `path` as of version `cut`
    /// (copy-on-divergence hook; see [`VosState::node_as_of`]).
    pub fn node_as_of(&self, path: &str, cut: u64) -> Option<Node> {
        self.state.lock().node_as_of(path, cut)
    }

    /// A peer's state as of version `cut`.
    pub fn peer_as_of(&self, host: &str, cut: u64) -> Option<PeerState> {
        self.state.lock().peer_as_of(host, cut)
    }

    /// Drops the history no version at or after `cut` needs.
    pub fn forget_until(&self, cut: u64) {
        self.state.lock().forget_until(cut);
    }

    /// Total syscalls executed against this world.
    pub fn syscall_count(&self) -> u64 {
        self.state.lock().syscall_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeerBehavior;
    use std::sync::Arc;

    #[test]
    fn concurrent_syscalls_are_serialized() {
        let vos = Arc::new(Vos::new(&VosConfig::new()));
        let mut handles = Vec::new();
        for t in 0..4 {
            let vos = Arc::clone(&vos);
            handles.push(std::thread::spawn(move || {
                for k in 0..50 {
                    vos.syscall(
                        Syscall::Write,
                        &[SysArg::Int(1), SysArg::Str(&format!("{t}:{k};"))],
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let out = vos.file_contents("/dev/stdout").unwrap();
        // All 200 writes landed, each atomically.
        assert_eq!(out.matches(';').count(), 200);
        assert_eq!(vos.syscall_count(), 200);
    }

    #[test]
    fn send_and_recv_count_once() {
        let cfg = VosConfig::new().peer("h", PeerBehavior::Echo);
        let vos = Vos::new(&cfg);
        vos.syscall(Syscall::Send, &[SysArg::Int(1), SysArg::Str("x")])
            .unwrap();
        assert_eq!(vos.syscall_count(), 1);
        let vos = Vos::new(&cfg);
        vos.syscall(Syscall::Recv, &[SysArg::Int(0), SysArg::Int(1)])
            .unwrap();
        assert_eq!(vos.syscall_count(), 1);
        // The history is tagged with the same versions the cuts name.
        let vos = Vos::versioned(&cfg);
        let (SysRet::Int(fd), connected) = vos
            .syscall_versioned(Syscall::Connect, &[SysArg::Str("h")])
            .unwrap()
        else {
            panic!()
        };
        let (_, sent) = vos
            .syscall_versioned(Syscall::Send, &[SysArg::Int(fd), SysArg::Str("ping")])
            .unwrap();
        let (ret, received) = vos
            .syscall_versioned(Syscall::Recv, &[SysArg::Int(fd), SysArg::Int(4)])
            .unwrap();
        assert_eq!(ret, SysRet::Str("ping".into()));
        assert_eq!((connected, sent, received), (1, 2, 3));
        assert_eq!(vos.syscall_count(), 3);
        let peer = |cut| vos.peer_as_of("h", cut).unwrap();
        assert!(peer(connected).sent.is_empty());
        assert_eq!(
            (peer(sent).sent, peer(sent).pending_len()),
            (vec!["ping".into()], 4)
        );
        assert_eq!(peer(received).pending_len(), 0);
    }

    #[test]
    fn inspection_does_not_consume() {
        let vos = Vos::new(&VosConfig::new().file("/f", "abc"));
        assert_eq!(vos.file_contents("/f").unwrap(), "abc");
        assert_eq!(vos.file_contents("/f").unwrap(), "abc");
        assert!(vos.node_as_of("/f", 0).is_some());
        assert_eq!(
            vos.with_state(|s| s.clock()),
            VosConfig::default().clock_start
        );
    }
}
