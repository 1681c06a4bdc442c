//! Declarative description of an initial virtual world.

use std::collections::BTreeMap;

/// How a remote host behaves when the program talks to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerBehavior {
    /// Echoes every `send` back into the `recv` stream.
    Echo,
    /// Plays back fixed lines on successive `recv`s, ignoring sends.
    Script(Vec<String>),
    /// Responds to exact request strings with mapped replies.
    Respond(BTreeMap<String, String>),
}

/// The initial state of a virtual world: files, directories, peers,
/// scripted clients, clock, and entropy.
///
/// A `VosConfig` is the *input* of an experiment: the master builds its
/// world from it, the slave's overlay falls back to it, and workloads ship
/// one per benchmark (paired with mutations of the interesting inputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VosConfig {
    /// Files to create, as `(path, contents)`.
    pub files: Vec<(String, String)>,
    /// Directories to create (parents of `files` are created implicitly).
    pub dirs: Vec<String>,
    /// Remote hosts the program may `connect` to.
    pub peers: Vec<(String, PeerBehavior)>,
    /// Scripted inbound clients per port: each string is one client
    /// connection's full request stream, `accept`ed in order.
    pub listen: Vec<(i64, Vec<String>)>,
    /// Initial value of the virtual clock.
    pub clock_start: i64,
    /// Amount the clock advances per `time()` call.
    pub clock_step: i64,
    /// Seed of the deterministic entropy stream (`random()`).
    pub rng_seed: u64,
    /// The program's PID.
    pub pid: i64,
}

impl Default for VosConfig {
    fn default() -> Self {
        VosConfig {
            files: Vec::new(),
            dirs: Vec::new(),
            peers: Vec::new(),
            listen: Vec::new(),
            clock_start: 1_000_000,
            clock_step: 7,
            rng_seed: 0x5eed_1d00_u64,
            pid: 4242,
        }
    }
}

impl VosConfig {
    /// A fresh empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a file (builder style).
    pub fn file(mut self, path: impl Into<String>, contents: impl Into<String>) -> Self {
        self.files.push((path.into(), contents.into()));
        self
    }

    /// Adds a directory.
    pub fn dir(mut self, path: impl Into<String>) -> Self {
        self.dirs.push(path.into());
        self
    }

    /// Adds a remote peer.
    pub fn peer(mut self, host: impl Into<String>, behavior: PeerBehavior) -> Self {
        self.peers.push((host.into(), behavior));
        self
    }

    /// Adds scripted clients on a port.
    pub fn listen(mut self, port: i64, requests: Vec<String>) -> Self {
        self.listen.push((port, requests));
        self
    }

    /// Sets the entropy seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Replaces the contents of `path`, or adds the file if absent.
    /// Used by input-mutation strategies.
    pub fn set_file(&mut self, path: &str, contents: impl Into<String>) {
        let contents = contents.into();
        for (p, c) in &mut self.files {
            if p == path {
                *c = contents;
                return;
            }
        }
        self.files.push((path.to_string(), contents));
    }

    /// The contents of `path` in the configuration, if present.
    pub fn file_contents(&self, path: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, c)| c.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let cfg = VosConfig::new()
            .file("/etc/conf", "a=1")
            .dir("/logs")
            .peer("host", PeerBehavior::Echo)
            .listen(80, vec!["GET /".into()])
            .seed(7);
        assert_eq!(cfg.files.len(), 1);
        assert_eq!(cfg.dirs, vec!["/logs"]);
        assert_eq!(cfg.peers.len(), 1);
        assert_eq!(cfg.listen.len(), 1);
        assert_eq!(cfg.rng_seed, 7);
    }

    #[test]
    fn set_file_replaces_or_appends() {
        let mut cfg = VosConfig::new().file("/in", "original");
        cfg.set_file("/in", "mutated");
        assert_eq!(cfg.file_contents("/in"), Some("mutated"));
        cfg.set_file("/other", "x");
        assert_eq!(cfg.files.len(), 2);
        assert_eq!(cfg.file_contents("/missing"), None);
    }

    #[test]
    fn default_is_deterministic() {
        assert_eq!(VosConfig::default(), VosConfig::default());
    }
}
