//! The slave's copy-on-divergence world.
//!
//! When the dual executions diverge, the slave executes its misaligned
//! syscalls *independently* — but it must not interfere with the master's
//! world, and it should observe the pre-divergence state (which lives in
//! the master, because the slave skipped its aligned outputs). The paper
//! (§7) solves this with resource tainting and cloning: "When a tainted
//! resource is accessed by the other execution, LDX will create a copy of
//! the related resource(s) so that the master and the slave operate on
//! their own copies, without causing interference."
//!
//! [`SlaveVos`] implements that: it owns a private [`VosState`] built from
//! the same configuration, and on the *first decoupled access* to a path or
//! peer it clones that resource from the master's world **as of the cut**:
//! the version after the last master syscall the slave has consumed (see
//! [`SlaveVos::advance_cut`]). The master may have run far ahead by then,
//! but its later writes stay invisible, so the clone is the same whenever
//! the slave gets there. All subsequent accesses stay private.
//!
//! An overlay made by [`SlaveVos::new`] trims the master's history behind
//! its cut. One made by [`SlaveVos::keeping_history`] never does: the
//! master's world then serves every slave replayed against it, each with
//! a cut of its own, so its whole history must stay.

use crate::config::VosConfig;
use crate::error::VosError;
use crate::fs::normalize_path;
use crate::state::{SysArg, SysRet, VosState};
use crate::world::Vos;
use ldx_lang::Syscall;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The master's history is trimmed each time the cut crosses a multiple
/// of this many versions.
const FORGET_EVERY: u64 = 1024;

/// The slave execution's private overlay world.
#[derive(Debug)]
pub struct SlaveVos {
    master: Arc<Vos>,
    /// The master version clones are taken at.
    cut: AtomicU64,
    /// Whether the master's history behind the cut is dropped.
    trim: bool,
    own: Mutex<OverlayState>,
}

#[derive(Debug)]
struct OverlayState {
    state: VosState,
    /// Paths already cloned from (or reconciled with) the master.
    copied_paths: HashSet<String>,
    /// Peers already cloned.
    copied_peers: HashSet<String>,
}

impl SlaveVos {
    /// First descriptor the overlay hands out: a high range disjoint from
    /// master-issued descriptors, so a decoupled `open` can never collide
    /// with a master descriptor the slave program still holds.
    pub const FD_START: i64 = 1_000_003;

    /// Creates the overlay over `master`, with `config` as the fallback
    /// initial world (the same configuration the master was built from,
    /// possibly with mutated inputs).
    pub fn new(master: Arc<Vos>, config: &VosConfig) -> Self {
        Self::with_trim(master, config, true)
    }

    /// [`SlaveVos::new`], but the master's history is never trimmed, so
    /// other overlays may read it as of any cut, now or later.
    pub fn keeping_history(master: Arc<Vos>, config: &VosConfig) -> Self {
        Self::with_trim(master, config, false)
    }

    fn with_trim(master: Arc<Vos>, config: &VosConfig, trim: bool) -> Self {
        SlaveVos {
            master,
            cut: AtomicU64::new(0),
            trim,
            own: Mutex::new(OverlayState {
                state: VosState::build_with_fd_start(config, Self::FD_START),
                copied_paths: HashSet::new(),
                copied_peers: HashSet::new(),
            }),
        }
    }

    /// Moves the cut up to master version `version` (it never moves
    /// back): the slave has consumed the master syscall that left the
    /// world at that version. With several threads the cut follows the
    /// master's global syscall order, across every thread pair. History
    /// older than the cut is no longer needed and, unless the overlay
    /// keeps it, is dropped now and then.
    pub fn advance_cut(&self, version: u64) {
        let before = self.cut.fetch_max(version, Ordering::Relaxed);
        if self.trim && version / FORGET_EVERY > before / FORGET_EVERY {
            self.master.forget_until(version);
        }
    }

    /// Executes a *decoupled* syscall against the private world, cloning
    /// the touched resource from the master (as of the cut) on first
    /// access.
    ///
    /// # Errors
    ///
    /// See [`VosState::syscall`].
    pub fn syscall(&self, sys: Syscall, args: &[SysArg]) -> Result<SysRet, VosError> {
        let mut own = self.own.lock();
        match sys {
            Syscall::Open | Syscall::Stat | Syscall::Unlink | Syscall::Readdir | Syscall::Mkdir => {
                if let Some(SysArg::Str(path)) = args.first() {
                    self.ensure_path(&mut own, path);
                }
            }
            Syscall::Rename => {
                if let (Some(SysArg::Str(from)), Some(SysArg::Str(to))) =
                    (args.first(), args.get(1))
                {
                    self.ensure_path(&mut own, from);
                    self.ensure_path(&mut own, to);
                }
            }
            Syscall::Connect => {
                if let Some(SysArg::Str(host)) = args.first() {
                    self.ensure_peer(&mut own, host);
                }
            }
            // Reads/writes/sends go through descriptors the overlay itself
            // issued, so the backing resource was already ensured at
            // open/connect time. Time/random/pid/accept use private state.
            _ => {}
        }
        own.state.syscall(sys, args)
    }

    /// Runs `f` with shared access to the private state (inspection).
    pub fn with_state<R>(&self, f: impl FnOnce(&VosState) -> R) -> R {
        f(&self.own.lock().state)
    }

    /// Private-world file contents.
    pub fn file_contents(&self, path: &str) -> Option<String> {
        self.own.lock().state.file_contents(path)
    }

    fn ensure_path(&self, own: &mut OverlayState, path: &str) {
        let key = normalize_path(path).joined();
        if !own.copied_paths.insert(key) {
            return;
        }
        match self
            .master
            .node_as_of(path, self.cut.load(Ordering::Relaxed))
        {
            Some(node) => {
                own.state.install_node(path, node);
            }
            None => {
                // The master does not have it (any more): tombstone the
                // configured fallback so the worlds agree about absence.
                own.state.remove_node(path);
            }
        }
    }

    fn ensure_peer(&self, own: &mut OverlayState, host: &str) {
        if !own.copied_peers.insert(host.to_string()) {
            return;
        }
        if let Some(peer) = self
            .master
            .peer_as_of(host, self.cut.load(Ordering::Relaxed))
        {
            own.state.install_peer(host, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeerBehavior;

    fn sa(v: &str) -> SysArg<'_> {
        SysArg::Str(v)
    }
    fn ia(v: i64) -> SysArg<'static> {
        SysArg::Int(v)
    }

    fn setup() -> (Arc<Vos>, SlaveVos) {
        let cfg = VosConfig::new()
            .file("/shared.txt", "from-config")
            .peer("host", PeerBehavior::Script(vec!["r1".into(), "r2".into()]));
        let master = Arc::new(Vos::versioned(&cfg));
        let slave = SlaveVos::new(Arc::clone(&master), &cfg);
        (master, slave)
    }

    /// Runs `sys` on the master; returns its integer result and version.
    fn on_master(master: &Vos, sys: Syscall, args: &[SysArg]) -> (i64, u64) {
        match master.syscall_versioned(sys, args).unwrap() {
            (SysRet::Int(v), version) => (v, version),
            (SysRet::Str(_), version) => (0, version),
        }
    }

    fn slave_read(slave: &SlaveVos, path: &str) -> String {
        let SysRet::Int(sfd) = slave.syscall(Syscall::Open, &[sa(path), ia(0)]).unwrap() else {
            panic!()
        };
        let SysRet::Str(data) = slave.syscall(Syscall::Read, &[ia(sfd), ia(64)]).unwrap() else {
            panic!()
        };
        data
    }

    #[test]
    fn first_access_sees_the_master_as_of_the_cut() {
        let (master, slave) = setup();
        // The master wrote to the file before the divergence...
        let (fd, _) = on_master(&master, Syscall::Open, &[sa("/shared.txt"), ia(1)]);
        let (_, cut) = on_master(&master, Syscall::Write, &[ia(fd), sa("master-write")]);
        slave.advance_cut(cut);
        // ...and again after it, running ahead of the slave.
        on_master(&master, Syscall::Write, &[ia(fd), sa("+later")]);
        // The slave's decoupled read sees the master's content at the cut:
        // neither the stale configured one nor the master's future.
        assert_eq!(slave_read(&slave, "/shared.txt"), "master-write");
        assert_eq!(
            master.file_contents("/shared.txt").unwrap(),
            "master-write+later"
        );
    }

    #[test]
    fn slave_writes_never_reach_master() {
        let (master, slave) = setup();
        let SysRet::Int(fd) = slave
            .syscall(Syscall::Open, &[sa("/shared.txt"), ia(1)])
            .unwrap()
        else {
            panic!()
        };
        slave
            .syscall(Syscall::Write, &[ia(fd), sa("slave-only")])
            .unwrap();
        assert_eq!(slave.file_contents("/shared.txt").unwrap(), "slave-only");
        assert_eq!(master.file_contents("/shared.txt").unwrap(), "from-config");
    }

    #[test]
    fn clone_happens_once() {
        let (master, slave) = setup();
        // First access clones.
        slave
            .syscall(Syscall::Open, &[sa("/shared.txt"), ia(0)])
            .unwrap();
        // Master changes afterwards, and the slave catches up with it...
        let (fd, _) = on_master(&master, Syscall::Open, &[sa("/shared.txt"), ia(1)]);
        let (_, cut) = on_master(&master, Syscall::Write, &[ia(fd), sa("late")]);
        slave.advance_cut(cut);
        // ...but the slave's copy is already pinned.
        assert_eq!(slave.file_contents("/shared.txt").unwrap(), "from-config");
    }

    #[test]
    fn master_deletion_tombstones_slave_fallback() {
        let (master, slave) = setup();
        let (_, cut) = on_master(&master, Syscall::Unlink, &[sa("/shared.txt")]);
        slave.advance_cut(cut);
        assert_eq!(
            slave
                .syscall(Syscall::Open, &[sa("/shared.txt"), ia(0)])
                .unwrap(),
            SysRet::Int(-1),
            "slave must agree the file is gone"
        );
    }

    #[test]
    fn a_deletion_past_the_cut_is_not_seen() {
        let (master, slave) = setup();
        on_master(&master, Syscall::Unlink, &[sa("/shared.txt")]);
        assert_eq!(slave_read(&slave, "/shared.txt"), "from-config");
    }

    #[test]
    fn peer_state_cloned_from_master_position() {
        let (master, slave) = setup();
        // Master consumed the first scripted line before the cut, and the
        // second after it.
        let (ms, _) = on_master(&master, Syscall::Connect, &[sa("host")]);
        let (_, cut) = on_master(&master, Syscall::Recv, &[ia(ms), ia(16)]);
        slave.advance_cut(cut);
        on_master(&master, Syscall::Recv, &[ia(ms), ia(16)]);
        // Slave connects decoupled: it continues from the master's script
        // position at the cut (r2), neither from the beginning nor from
        // the master's current position (the end).
        let SysRet::Int(ss) = slave.syscall(Syscall::Connect, &[sa("host")]).unwrap() else {
            panic!()
        };
        let SysRet::Str(got) = slave.syscall(Syscall::Recv, &[ia(ss), ia(16)]).unwrap() else {
            panic!()
        };
        assert_eq!(got, "r2");
        // And the slave's sends do not reach the master's transcript.
        slave.syscall(Syscall::Send, &[ia(ss), sa("x")]).unwrap();
        assert!(master.sent_to("host").is_empty());
    }

    #[test]
    fn the_cut_never_moves_back_and_trimming_keeps_it_exact() {
        let (master, slave) = setup();
        let (fd, _) = on_master(&master, Syscall::Open, &[sa("/shared.txt"), ia(2)]);
        let mut cut = 0;
        for _ in 0..3 * FORGET_EVERY {
            cut = on_master(&master, Syscall::Write, &[ia(fd), sa("x")]).1;
        }
        // Consumed out of order across thread pairs: the cut is the highest.
        slave.advance_cut(cut - 1);
        slave.advance_cut(FORGET_EVERY / 2);
        on_master(&master, Syscall::Write, &[ia(fd), sa("y")]);
        let want = format!("from-config{}", "x".repeat(3 * FORGET_EVERY as usize - 1));
        slave.syscall(Syscall::Stat, &[sa("/shared.txt")]).unwrap();
        assert_eq!(slave.file_contents("/shared.txt").unwrap(), want);
        // History up to the cut was dropped.
        assert!(master.with_state(|s| s.history_len()) < 2 * FORGET_EVERY as usize);
    }

    #[test]
    fn overlays_that_keep_history_read_one_master_at_any_cut() {
        let (master, _) = setup();
        let cfg = VosConfig::new().file("/shared.txt", "from-config");
        let (fd, _) = on_master(&master, Syscall::Open, &[sa("/shared.txt"), ia(2)]);
        let versions: Vec<u64> = (0..3 * FORGET_EVERY)
            .map(|_| on_master(&master, Syscall::Write, &[ia(fd), sa("x")]).1)
            .collect();
        let len = master.with_state(|s| s.history_len());
        // A late cut moves past several trim points, and an early one
        // still sees the master as it was then.
        for n in [3 * FORGET_EVERY as usize, 1] {
            let slave = SlaveVos::keeping_history(Arc::clone(&master), &cfg);
            slave.advance_cut(versions[n - 1]);
            slave.syscall(Syscall::Stat, &[sa("/shared.txt")]).unwrap();
            let want = format!("from-config{}", "x".repeat(n));
            assert_eq!(slave.file_contents("/shared.txt").unwrap(), want);
        }
        assert_eq!(master.with_state(|s| s.history_len()), len);
    }
}
