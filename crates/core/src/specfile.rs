//! Text format for describing an experiment: the world and the
//! source/sink specification. Used by the `ldx` command-line tool.
//!
//! The format is line-based; `#` starts a comment; strings with spaces are
//! double-quoted and support `\n`, `\t`, `\"`, `\\` escapes:
//!
//! ```text
//! # world
//! file /etc/token "hunter2"
//! dir /out
//! peer api.example echo
//! peer feed.example script "line one" "line two"
//! peer kv.example respond "GET /" "index page"
//! listen 80 "GET /a" "GET /b"
//! seed 42
//!
//! # analysis
//! source file /etc/token offbyone
//! source net api.example replace "tampered"
//! source client 80
//! source syscall random
//! sink network            # outputs | network | file
//! sink site guard 0
//! trace                   # record the event stream (DualSpec::record)
//! ```

use crate::{DualSpec, Mutation, SinkSpec, SourceMatcher, SourceSpec};
use ldx_vos::{PeerBehavior, VosConfig};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A parsed experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentFile {
    /// The world configuration.
    pub world: VosConfig,
    /// The analysis specification.
    pub spec: DualSpec,
}

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecFileError {
    /// The offending line (1-based).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for SpecFileError {}

/// Parses an experiment file.
///
/// # Errors
///
/// Returns a [`SpecFileError`] pointing at the first malformed line.
pub fn parse_experiment(text: &str) -> Result<ExperimentFile, SpecFileError> {
    let mut world = VosConfig::new();
    let mut spec = DualSpec::default();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let err = |message: String| SpecFileError {
            line: line_no,
            message,
        };
        let tokens = tokenize(raw).map_err(&err)?;
        let Some((head, rest)) = tokens.split_first() else {
            continue;
        };
        match head.as_str() {
            "file" => match rest {
                [path, contents] => world.set_file(path, contents.clone()),
                _ => return Err(err("usage: file <path> <contents>".into())),
            },
            "dir" => match rest {
                [path] => world.dirs.push(path.clone()),
                _ => return Err(err("usage: dir <path>".into())),
            },
            "peer" => match rest {
                [host, kind, args @ ..] => {
                    let behavior = match kind.as_str() {
                        "echo" => PeerBehavior::Echo,
                        "script" => PeerBehavior::Script(args.to_vec()),
                        "respond" => {
                            if args.len() % 2 != 0 {
                                return Err(err("respond needs request/reply pairs".into()));
                            }
                            let mut map = BTreeMap::new();
                            for pair in args.chunks(2) {
                                map.insert(pair[0].clone(), pair[1].clone());
                            }
                            PeerBehavior::Respond(map)
                        }
                        other => {
                            return Err(err(format!(
                                "unknown peer kind `{other}` (echo|script|respond)"
                            )))
                        }
                    };
                    world.peers.push((host.clone(), behavior));
                }
                _ => return Err(err("usage: peer <host> <kind> [args...]".into())),
            },
            "listen" => match rest {
                [port, requests @ ..] => {
                    let port: i64 = port
                        .parse()
                        .map_err(|_| err(format!("bad port `{port}`")))?;
                    world.listen.push((port, requests.to_vec()));
                }
                _ => return Err(err("usage: listen <port> <request>...".into())),
            },
            "seed" => match rest {
                [s] => world.rng_seed = s.parse().map_err(|_| err(format!("bad seed `{s}`")))?,
                _ => return Err(err("usage: seed <u64>".into())),
            },
            "source" => {
                let (matcher, mutation_tokens) = match rest {
                    [kind, arg, rest2 @ ..] => {
                        let matcher = match kind.as_str() {
                            "file" => SourceMatcher::FileRead(arg.clone()),
                            "net" => SourceMatcher::NetRecv(arg.clone()),
                            "client" => SourceMatcher::ClientRecv(
                                arg.parse().map_err(|_| err(format!("bad port `{arg}`")))?,
                            ),
                            "syscall" => {
                                let sys = ldx_lang::Syscall::ALL
                                    .iter()
                                    .find(|s| s.name() == arg)
                                    .copied()
                                    .ok_or_else(|| err(format!("unknown syscall `{arg}`")))?;
                                SourceMatcher::SyscallKind(sys)
                            }
                            "site" => {
                                let site = rest2
                                    .first()
                                    .and_then(|s| s.parse().ok())
                                    .ok_or_else(|| err("usage: source site <fn> <n>".into()))?;
                                spec.sources.push(SourceSpec {
                                    matcher: SourceMatcher::Site(arg.clone(), site),
                                    mutation: parse_mutation(&rest2[1..]).map_err(err)?,
                                });
                                continue;
                            }
                            other => {
                                return Err(err(format!(
                                    "unknown source kind `{other}` (file|net|client|syscall|site)"
                                )))
                            }
                        };
                        (matcher, rest2)
                    }
                    _ => return Err(err("usage: source <kind> <arg> [mutation]".into())),
                };
                spec.sources.push(SourceSpec {
                    matcher,
                    mutation: parse_mutation(mutation_tokens).map_err(err)?,
                });
            }
            "sink" => match rest {
                [kind] => {
                    spec.sinks = match kind.as_str() {
                        "outputs" => SinkSpec::Outputs,
                        "network" => SinkSpec::NetworkOut,
                        "file" => SinkSpec::FileOut,
                        other => {
                            return Err(err(format!(
                                "unknown sink kind `{other}` (outputs|network|file|site)"
                            )))
                        }
                    }
                }
                [site_kw, func, n] if site_kw == "site" => {
                    let n: u32 = n.parse().map_err(|_| err(format!("bad site `{n}`")))?;
                    match &mut spec.sinks {
                        SinkSpec::Sites(sites) => sites.push((func.clone(), n)),
                        other => *other = SinkSpec::Sites(vec![(func.clone(), n)]),
                    }
                }
                _ => return Err(err("usage: sink <kind> | sink site <fn> <n>".into())),
            },
            "trace" => spec.record = true,
            other => return Err(err(format!("unknown directive `{other}`"))),
        }
    }
    Ok(ExperimentFile { world, spec })
}

fn parse_mutation(tokens: &[String]) -> Result<Mutation, String> {
    match tokens {
        [] | [_] if tokens.first().map(String::as_str) == Some("offbyone") || tokens.is_empty() => {
            Ok(Mutation::OffByOne)
        }
        [kind] => match kind.as_str() {
            "offbyone" => Ok(Mutation::OffByOne),
            "bitflip" => Ok(Mutation::BitFlip),
            "zero" => Ok(Mutation::Zero),
            "identity" => Ok(Mutation::Identity),
            other => Err(format!("unknown mutation `{other}`")),
        },
        [kind, arg] => match kind.as_str() {
            "replace" => Ok(Mutation::Replace(arg.clone())),
            "setint" => arg
                .parse()
                .map(Mutation::SetInt)
                .map_err(|_| format!("bad integer `{arg}`")),
            other => Err(format!("unknown mutation `{other}`")),
        },
        _ => Err("too many mutation arguments".into()),
    }
}

/// Splits a line into tokens; double-quoted tokens may contain spaces and
/// escapes. `#` outside quotes starts a comment.
fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut tokens = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        match chars.peek() {
            None | Some('#') => return Ok(tokens),
            Some('"') => {
                chars.next();
                let mut tok = String::new();
                loop {
                    match chars.next() {
                        None => return Err("unterminated quote".into()),
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('n') => tok.push('\n'),
                            Some('t') => tok.push('\t'),
                            Some('"') => tok.push('"'),
                            Some('\\') => tok.push('\\'),
                            other => {
                                return Err(format!("bad escape `\\{}`", other.unwrap_or(' ')))
                            }
                        },
                        Some(c) => tok.push(c),
                    }
                }
                tokens.push(tok);
            }
            Some(_) => {
                let mut tok = String::new();
                while matches!(chars.peek(), Some(c) if !c.is_whitespace() && *c != '#') {
                    tok.push(chars.next().expect("peeked"));
                }
                tokens.push(tok);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_handles_quotes_comments_escapes() {
        assert_eq!(
            tokenize(r#"file /a "hello world\n"  # comment"#).unwrap(),
            vec!["file", "/a", "hello world\n"]
        );
        assert_eq!(tokenize("   # only comment").unwrap(), Vec::<String>::new());
        assert!(tokenize(r#"bad "unterminated"#).is_err());
    }

    #[test]
    fn parses_full_experiment() {
        let text = r#"
            # the world
            file /etc/token "hunter2"
            dir /out
            peer api.example echo
            peer feed.example script "l1" "l2"
            peer kv.example respond "GET /" "index"
            listen 80 "GET /a" "GET /b"
            seed 42

            source file /etc/token offbyone
            source net api.example replace "tampered"
            source syscall random
            sink network
            trace
        "#;
        let exp = parse_experiment(text).unwrap();
        assert_eq!(exp.world.file_contents("/etc/token"), Some("hunter2"));
        assert_eq!(exp.world.dirs, vec!["/out"]);
        assert_eq!(exp.world.peers.len(), 3);
        assert_eq!(exp.world.listen[0].1.len(), 2);
        assert_eq!(exp.world.rng_seed, 42);
        assert_eq!(exp.spec.sources.len(), 3);
        assert_eq!(
            exp.spec.sources[1].mutation,
            Mutation::Replace("tampered".into())
        );
        assert_eq!(exp.spec.sinks, SinkSpec::NetworkOut);
        assert!(exp.spec.record);
    }

    #[test]
    fn parses_site_sinks_accumulating() {
        let exp = parse_experiment("sink site guard 0\nsink site check 2\n").unwrap();
        let SinkSpec::Sites(sites) = &exp.spec.sinks else {
            panic!()
        };
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[1], ("check".to_string(), 2));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_experiment("file /a \"x\"\nbogus directive\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn default_mutation_is_off_by_one() {
        let exp = parse_experiment("source file /x\n").unwrap();
        assert_eq!(exp.spec.sources[0].mutation, Mutation::OffByOne);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse_experiment("peer h nonsense\n").is_err());
        assert!(parse_experiment("listen notaport\n").is_err());
        assert!(parse_experiment("source file /x teleport\n").is_err());
        assert!(parse_experiment("sink plasma\n").is_err());
        assert!(parse_experiment("sink writes\n").is_err());
        assert!(parse_experiment("enforce\n").is_err());
    }
}
