//! World-level source mutation.
//!
//! The independent-execution baselines (TightLip, EI-DualEx) do not couple
//! syscall outcomes, so the perturbation is applied to the *world
//! configuration* instead of the source syscall outcomes: mutating the
//! secret file's contents, the peer's scripted data, or the entropy seed is
//! the independent-run equivalent of LDX's outcome mutation.

use ldx_dualex::{Mutation, SourceMatcher, SourceSpec};
use ldx_runtime::Value;
use ldx_vos::{PeerBehavior, VosConfig};

/// Applies every source's mutation to a copy of `config`.
pub fn mutate_config(config: &VosConfig, sources: &[SourceSpec]) -> VosConfig {
    let mut out = config.clone();
    for source in sources {
        apply(&mut out, source);
    }
    out
}

fn mutate_str(mutation: &Mutation, s: &str) -> String {
    match mutation.apply(&Value::str(s)) {
        Value::Str(out) => out.to_string(),
        other => other.stringify(),
    }
}

fn apply(config: &mut VosConfig, source: &SourceSpec) {
    match &source.matcher {
        SourceMatcher::FileRead(path) => {
            let want = ldx_vos::normalize_path(path);
            for (p, contents) in &mut config.files {
                if ldx_vos::normalize_path(p).eq(want.clone()) {
                    *contents = mutate_str(&source.mutation, contents);
                }
            }
        }
        SourceMatcher::NetRecv(host) => {
            for (h, behavior) in &mut config.peers {
                if h == host {
                    match behavior {
                        PeerBehavior::Script(lines) => {
                            for line in lines {
                                *line = mutate_str(&source.mutation, line);
                            }
                        }
                        PeerBehavior::Respond(map) => {
                            let mutated = map
                                .iter()
                                .map(|(k, v)| (k.clone(), mutate_str(&source.mutation, v)))
                                .collect();
                            *map = mutated;
                        }
                        PeerBehavior::Echo => {}
                    }
                }
            }
        }
        SourceMatcher::ClientRecv(port) => {
            for (p, requests) in &mut config.listen {
                if p == port {
                    for r in requests {
                        *r = mutate_str(&source.mutation, r);
                    }
                }
            }
        }
        SourceMatcher::SyscallKind(sys) => {
            use ldx_lang::Syscall;
            match sys {
                Syscall::Random => config.rng_seed = config.rng_seed.wrapping_add(1),
                Syscall::Time => config.clock_start += 1,
                Syscall::GetPid => config.pid += 1,
                _ => {}
            }
        }
        // Site-level sources cannot be expressed as world mutations; the
        // independent baselines skip them (documented limitation).
        SourceMatcher::Site(_, _) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutates_file_contents() {
        let cfg = VosConfig::new().file("/secret", "STAFF");
        let m = mutate_config(&cfg, &[SourceSpec::file("/secret")]);
        assert_eq!(m.file_contents("/secret"), Some("STAFG"));
        assert_eq!(cfg.file_contents("/secret"), Some("STAFF"), "original kept");
    }

    #[test]
    fn replace_mutation_rewrites_file() {
        let cfg = VosConfig::new().file("/in", "a");
        let m = mutate_config(
            &cfg,
            &[SourceSpec::file("/in").with_mutation(Mutation::Replace("B".into()))],
        );
        assert_eq!(m.file_contents("/in"), Some("B"));
    }

    #[test]
    fn mutates_peer_scripts_and_client_requests() {
        let cfg = VosConfig::new()
            .peer("host", PeerBehavior::Script(vec!["req1".into()]))
            .listen(80, vec!["GET /a".into()]);
        let m = mutate_config(&cfg, &[SourceSpec::net("host"), SourceSpec::client(80)]);
        let PeerBehavior::Script(lines) = &m.peers[0].1 else {
            panic!()
        };
        assert_eq!(lines[0], "req2");
        assert_eq!(m.listen[0].1[0], "GET /b");
    }

    #[test]
    fn entropy_sources_bump_seeds() {
        let cfg = VosConfig::new();
        let m = mutate_config(
            &cfg,
            &[SourceSpec {
                matcher: SourceMatcher::SyscallKind(ldx_lang::Syscall::Random),
                mutation: Mutation::OffByOne,
            }],
        );
        assert_ne!(m.rng_seed, cfg.rng_seed);
    }

    #[test]
    fn unmatched_paths_untouched() {
        let cfg = VosConfig::new().file("/other", "x");
        let m = mutate_config(&cfg, &[SourceSpec::file("/secret")]);
        assert_eq!(m.file_contents("/other"), Some("x"));
    }
}
