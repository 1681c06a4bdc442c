//! Slave-side descriptor → resource tracking.
//!
//! When the slave shares aligned outcomes it never opens anything itself;
//! the descriptor numbers it holds are the *master's*. If it later
//! diverges, it must execute syscalls on those descriptors against its
//! private overlay — which requires reconstructing the resource: "before
//! the slave executes a file read, the file needs to be cloned, opened,
//! and then seeked to the right position" (paper §4.2). This map tracks,
//! for every descriptor the slave program holds, what it refers to and how
//! far it has consumed it. It also learns what each master descriptor
//! names, from the master's `open`, `connect` and `accept` entries the
//! slave consumes, so a sink reached through different descriptors on the
//! two sides can be compared by the resource they name.

use ldx_lang::Syscall;
use ldx_runtime::Value;
use std::collections::HashMap;

/// What a descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Resource {
    /// A file and the open flags (0 read / 1 write / 2 append).
    File { path: String, flags: i64 },
    /// An outbound peer connection.
    Peer { host: String },
    /// An accepted client connection: which port and the accept index.
    Client { port: i64, index: usize },
}

/// Per-descriptor state.
#[derive(Debug, Clone)]
pub(crate) struct FdInfo {
    pub resource: Resource,
    /// Characters consumed so far (read/recv position).
    pub pos: usize,
    /// The overlay's own descriptor once reconstructed.
    pub overlay_fd: Option<i64>,
}

/// The slave's descriptor table shadow.
#[derive(Debug, Default)]
pub(crate) struct SlaveFdMap {
    map: HashMap<i64, FdInfo>,
    /// Clients this slave has *observed* being accepted (shared outcomes).
    pub accept_count: usize,
    /// Clients the overlay itself has accepted (reconstruction progress).
    pub overlay_accepts: usize,
    /// What each master descriptor the slave has seen created names.
    /// Master descriptor numbers are never reused, so entries never go
    /// stale.
    master: HashMap<i64, Resource>,
    /// Clients the master accepted, as far as the slave has consumed.
    master_accepts: usize,
}

impl SlaveFdMap {
    /// The resource a successful `open`, `connect` or `accept` with
    /// `args` creates (an accepted client is the next in accept order).
    pub fn created(&self, sys: Syscall, args: &[Value]) -> Option<Resource> {
        match (sys, args.first()) {
            (Syscall::Open, Some(Value::Str(path))) => Some(Resource::File {
                path: path.to_string(),
                flags: args.get(1).and_then(|f| f.as_int().ok()).unwrap_or(0),
            }),
            (Syscall::Connect, Some(Value::Str(host))) => Some(Resource::Peer {
                host: host.to_string(),
            }),
            (Syscall::Accept, Some(Value::Int(port))) => Some(Resource::Client {
                port: *port,
                index: self.accept_count,
            }),
            _ => None,
        }
    }

    /// Learns what master descriptor `outcome` names, from a master
    /// `open`, `connect` or `accept` with `args` (nothing for a failed or
    /// another syscall).
    pub fn on_master_new(&mut self, sys: Syscall, args: &[Value], outcome: &Value) {
        let Value::Int(fd) = *outcome else {
            return;
        };
        if fd < 0 {
            return;
        }
        let resource = match (sys, args.first()) {
            (Syscall::Accept, Some(Value::Int(port))) => {
                self.master_accepts += 1;
                Resource::Client {
                    port: *port,
                    index: self.master_accepts - 1,
                }
            }
            _ => match self.created(sys, args) {
                Some(resource) => resource,
                None => return,
            },
        };
        self.master.insert(fd, resource);
    }

    /// Whether master descriptor `master_fd` and slave descriptor `fd`
    /// name the same resource: the same file opened with the same flags,
    /// the same peer or the same client. Flags count, since they decide
    /// what a write through the descriptor does (fail, truncate, append).
    pub fn same_resource(&self, master_fd: i64, fd: i64) -> bool {
        let (Some(master), Some(own)) = (self.master.get(&master_fd), self.map.get(&fd)) else {
            return false;
        };
        match (master, &own.resource) {
            (Resource::File { path: a, flags: fa }, Resource::File { path: b, flags: fb }) => {
                fa == fb && ldx_vos::normalize_path(a).eq(ldx_vos::normalize_path(b))
            }
            (a, b) => a == b,
        }
    }

    /// Records descriptor `fd` for `resource` unless the call failed;
    /// `overlay` when the overlay itself issued it.
    pub fn on_new(&mut self, fd: i64, resource: Resource, overlay: bool) {
        if fd < 0 {
            return;
        }
        if matches!(resource, Resource::Client { .. }) {
            self.accept_count += 1;
        }
        let overlay_fd = overlay.then_some(fd);
        self.map.insert(
            fd,
            FdInfo {
                resource,
                pos: 0,
                overlay_fd,
            },
        );
    }

    /// Records consumed characters on `fd` (read/recv results).
    pub fn on_read(&mut self, fd: i64, chars: usize) {
        if let Some(info) = self.map.get_mut(&fd) {
            info.pos += chars;
        }
    }

    /// Records a `seek`.
    pub fn on_seek(&mut self, fd: i64, pos: i64) {
        if let Some(info) = self.map.get_mut(&fd) {
            info.pos = pos.max(0) as usize;
        }
    }

    /// Records a `close`.
    pub fn on_close(&mut self, fd: i64) -> Option<FdInfo> {
        self.map.remove(&fd)
    }

    /// Looks a descriptor up.
    pub fn get(&self, fd: i64) -> Option<&FdInfo> {
        self.map.get(&fd)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, fd: i64) -> Option<&mut FdInfo> {
        self.map.get_mut(&fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(m: &mut SlaveFdMap, fd: i64, path: &str) {
        let args = [Value::str(path), Value::Int(0)];
        let resource = m.created(Syscall::Open, &args).unwrap();
        m.on_new(fd, resource, false);
    }

    fn accept(m: &mut SlaveFdMap, fd: i64) {
        let resource = m.created(Syscall::Accept, &[Value::Int(80)]).unwrap();
        m.on_new(fd, resource, false);
    }

    #[test]
    fn tracks_open_read_seek_close() {
        let mut m = SlaveFdMap::default();
        open(&mut m, 3, "/f");
        m.on_read(3, 5);
        assert_eq!(m.get(3).unwrap().pos, 5);
        m.on_seek(3, 1);
        assert_eq!(m.get(3).unwrap().pos, 1);
        let info = m.on_close(3).unwrap();
        assert_eq!(
            info.resource,
            Resource::File {
                path: "/f".into(),
                flags: 0
            }
        );
        assert!(m.get(3).is_none());
    }

    #[test]
    fn failed_opens_not_tracked() {
        let mut m = SlaveFdMap::default();
        open(&mut m, -1, "/missing");
        assert!(m.get(-1).is_none());
    }

    #[test]
    fn accept_indices_increment() {
        let mut m = SlaveFdMap::default();
        accept(&mut m, 3);
        accept(&mut m, 4);
        let Resource::Client { index, .. } = m.get(4).unwrap().resource else {
            panic!()
        };
        assert_eq!(index, 1);
        assert_eq!(m.accept_count, 2);
    }

    #[test]
    fn master_descriptors_compare_by_the_resource_they_name() {
        let mut m = SlaveFdMap::default();
        let open_args = |path: &str, flags| [Value::str(path), Value::Int(flags)];
        m.on_master_new(Syscall::Open, &open_args("/log", 2), &Value::Int(4));
        m.on_master_new(Syscall::Open, &open_args("/other", 2), &Value::Int(5));
        m.on_master_new(Syscall::Open, &open_args("/gone", 0), &Value::Int(-1));
        let resource = m.created(Syscall::Open, &open_args("//log", 2)).unwrap();
        m.on_new(1_000_004, resource, true);
        assert!(m.same_resource(4, 1_000_004), "one file, one mode");
        let truncating = m.created(Syscall::Open, &open_args("/log", 1)).unwrap();
        m.on_new(1_000_005, truncating, true);
        assert!(
            !m.same_resource(4, 1_000_005),
            "truncate and append are different writes"
        );
        assert!(!m.same_resource(5, 1_000_004));
        assert!(!m.same_resource(-1, 1_000_004) && !m.same_resource(6, 1_000_004));
        // Accepted clients compare by port and each side's accept order.
        m.on_master_new(Syscall::Accept, &[Value::Int(80)], &Value::Int(7));
        m.on_master_new(Syscall::Accept, &[Value::Int(80)], &Value::Int(8));
        accept(&mut m, 9);
        assert!(m.same_resource(7, 9) && !m.same_resource(8, 9));
        assert_eq!(m.accept_count, 1, "master accepts are not the slave's");
    }

    #[test]
    fn unknown_fd_updates_are_noops() {
        let mut m = SlaveFdMap::default();
        m.on_read(9, 4);
        m.on_seek(9, 2);
        assert!(m.on_close(9).is_none());
    }
}
