//! Scripted network peers and clients.
//!
//! The paper evaluates on network programs (nginx, lynx, ngircd, …) whose
//! remote ends we cannot reproduce; each remote is replaced by a
//! deterministic script (see DESIGN.md substitution table). Peers are the
//! hosts a program `connect`s to; clients are the scripted request streams
//! a server program `accept`s.

use crate::config::PeerBehavior;
use std::collections::BTreeMap;

/// Runtime state of one outbound peer (a host the program connects to).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerState {
    behavior: PeerBehavior,
    /// Everything the program has sent to this host, per connection.
    pub sent: Vec<String>,
    /// Position in a `Script` behavior.
    script_pos: usize,
    /// Pending bytes the program can `recv`.
    pending: String,
}

impl PeerState {
    /// Creates peer state from its configured behavior.
    pub fn new(behavior: PeerBehavior) -> Self {
        PeerState {
            behavior,
            sent: Vec::new(),
            script_pos: 0,
            pending: String::new(),
        }
    }

    /// Handles a `send` from the program; may queue response bytes.
    pub fn on_send(&mut self, data: &str) {
        self.sent.push(data.to_string());
        match &self.behavior {
            PeerBehavior::Echo => self.pending.push_str(data),
            PeerBehavior::Script(_) => {}
            PeerBehavior::Respond(map) => {
                if let Some(resp) = map.get(data) {
                    self.pending.push_str(resp);
                }
            }
        }
    }

    /// Handles a `recv` of up to `n` bytes; returns `""` at end of stream,
    /// and whether the recv first moved a `Script` on to its next line.
    pub fn on_recv(&mut self, n: usize) -> (String, bool) {
        let mut advanced = false;
        if self.pending.is_empty() {
            if let PeerBehavior::Script(lines) = &self.behavior {
                if self.script_pos < lines.len() {
                    self.pending.push_str(&lines[self.script_pos]);
                    self.script_pos += 1;
                    advanced = true;
                }
            }
        }
        (take_prefix(&mut self.pending, n), advanced)
    }

    /// Bytes queued for the program to `recv`.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Reverts a send that found `pending` bytes queued.
    pub(crate) fn undo_send(&mut self, pending: usize) {
        self.sent.pop();
        self.pending.truncate(pending);
    }

    /// Reverts a recv that returned `taken`; `advanced` as [`on_recv`]
    /// reported it.
    ///
    /// [`on_recv`]: PeerState::on_recv
    pub(crate) fn undo_recv(&mut self, taken: &str, advanced: bool) {
        if advanced {
            // The recv found nothing pending and loaded the next line.
            self.pending.clear();
            self.script_pos -= 1;
        } else {
            self.pending.insert_str(0, taken);
        }
    }
}

/// Takes up to `n` characters (by char boundary) off the front of `s`.
fn take_prefix(s: &mut String, n: usize) -> String {
    let end = s.char_indices().nth(n).map(|(i, _)| i).unwrap_or(s.len());
    let head: String = s[..end].to_string();
    s.drain(..end);
    head
}

/// Runtime state of one scripted inbound client connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConn {
    /// Bytes the server can still `recv` from this client.
    pub pending: String,
    /// Everything the server `send`s back.
    pub responses: Vec<String>,
}

/// All network state: outbound peers plus per-port accept queues.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Net {
    /// Peers by host name.
    pub peers: BTreeMap<String, PeerState>,
    /// Scripted client requests not yet accepted, per port.
    pub backlog: BTreeMap<i64, Vec<String>>,
    /// Accepted client connections (socket side), appended in accept order.
    pub clients: Vec<ClientConn>,
}

impl Net {
    /// Accepts the next scripted client on `port`; returns its index into
    /// `clients`, or `None` if the backlog is empty or the port unknown.
    pub fn accept(&mut self, port: i64) -> Option<usize> {
        let queue = self.backlog.get_mut(&port)?;
        if queue.is_empty() {
            return None;
        }
        let request = queue.remove(0);
        self.clients.push(ClientConn {
            pending: request,
            responses: Vec::new(),
        });
        Some(self.clients.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_peer_echoes() {
        let mut p = PeerState::new(PeerBehavior::Echo);
        p.on_send("hello");
        assert_eq!(p.on_recv(3).0, "hel");
        assert_eq!(p.on_recv(10).0, "lo");
        assert_eq!(p.on_recv(10).0, "");
        assert_eq!(p.sent, vec!["hello"]);
    }

    #[test]
    fn script_peer_ignores_sends_and_plays_lines() {
        let mut p = PeerState::new(PeerBehavior::Script(vec!["first".into(), "second".into()]));
        p.on_send("anything");
        assert_eq!(p.on_recv(16), ("first".into(), true));
        assert_eq!(p.on_recv(3), ("sec".into(), true));
        assert_eq!(p.on_recv(16), ("ond".into(), false));
        assert_eq!(p.on_recv(16), (String::new(), false));
    }

    #[test]
    fn respond_peer_matches_requests() {
        let mut map = BTreeMap::new();
        map.insert("GET /".to_string(), "index".to_string());
        let mut p = PeerState::new(PeerBehavior::Respond(map));
        p.on_send("GET /");
        assert_eq!(p.on_recv(16).0, "index");
        p.on_send("GET /missing");
        assert_eq!(p.on_recv(16).0, "");
    }

    #[test]
    fn sends_and_recvs_undo_exactly() {
        let script = PeerBehavior::Script(vec!["ab".into(), "cd".into()]);
        for behavior in [PeerBehavior::Echo, script] {
            let mut p = PeerState::new(behavior);
            let mut states = vec![p.clone()];
            let mut undos = Vec::new();
            for step in 0..6 {
                if step % 3 == 0 {
                    let pending = p.pending.len();
                    p.on_send("xyz");
                    undos.push((None, pending));
                } else {
                    let (taken, advanced) = p.on_recv(1);
                    undos.push((Some((taken, advanced)), 0));
                }
                states.push(p.clone());
            }
            states.pop();
            for (undo, want) in undos.into_iter().rev().zip(states.into_iter().rev()) {
                match undo {
                    (None, pending) => p.undo_send(pending),
                    (Some((taken, advanced)), _) => p.undo_recv(&taken, advanced),
                }
                assert_eq!(p, want);
            }
        }
    }

    #[test]
    fn accept_pops_backlog_in_order() {
        let mut net = Net::default();
        net.backlog.insert(80, vec!["req1".into(), "req2".into()]);
        let a = net.accept(80).unwrap();
        let b = net.accept(80).unwrap();
        assert_eq!(net.clients[a].pending, "req1");
        assert_eq!(net.clients[b].pending, "req2");
        assert_eq!(net.accept(80), None);
        assert_eq!(net.accept(99), None);
    }

    #[test]
    fn take_prefix_respects_char_boundaries() {
        let mut s = "héllo".to_string();
        assert_eq!(take_prefix(&mut s, 2), "hé");
        assert_eq!(s, "llo");
    }
}
