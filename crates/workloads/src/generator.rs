//! A random structured-program generator.
//!
//! Generates syntactically valid Lx programs with nested branches, loops
//! containing syscalls, helper-function calls, and recursion. Used by the
//! property tests (workspace `tests/`) to check the counter-consistency
//! invariant (I1/I2 in DESIGN.md) and the identity-mutation invariant
//! (I5) over thousands of program shapes, and by the stress benches.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;

/// Knobs for the generator.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Maximum statement-nesting depth.
    pub max_depth: u32,
    /// Statements per block (upper bound).
    pub max_block_len: u32,
    /// Number of helper functions.
    pub helpers: u32,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            max_depth: 3,
            max_block_len: 4,
            helpers: 2,
        }
    }
}

/// Generates a random program from `seed`. The program reads `/gen/input`,
/// branches and loops on its contents, performs file and stderr syscalls
/// along the way, and finishes with an output syscall — so dual execution
/// always has sources and sinks to work with.
///
/// `main` may read `/gen/log` on a branch, and always writes it after its
/// body: a slave whose branch flips reads the log decoupled, and must find
/// it as the master left it at that point, not with the master's later
/// write. The output `/gen/out` holds only `acc`, so a mutation whose
/// effect never reaches `acc` leaves it unchanged.
pub fn random_program_source(seed: u64, config: &GeneratorConfig) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();

    for h in 0..config.helpers {
        let _ = writeln!(out, "fn helper{h}(a) {{");
        let body = gen_block(&mut rng, config, 1, true);
        out.push_str(&body);
        let _ = writeln!(out, "    return a + {};", rng.random_range(0..10));
        let _ = writeln!(out, "}}");
    }

    let _ = writeln!(out, "fn main() {{");
    let _ = writeln!(out, "    let fd = open(\"/gen/input\", 0);");
    let _ = writeln!(out, "    let lg = open(\"/gen/log\", 2);");
    let _ = writeln!(out, "    let v = int(trim(read(fd, 8)));");
    let _ = writeln!(out, "    let acc = 0;");
    let body = gen_block(&mut rng, config, 1, false);
    out.push_str(&body);
    let _ = writeln!(out, "    write(lg, \"logged\");");
    let _ = writeln!(out, "    close(lg);");
    let _ = writeln!(out, "    close(fd);");
    let _ = writeln!(out, "    let o = open(\"/gen/out\", 1);");
    let _ = writeln!(out, "    write(o, str(acc));");
    let _ = writeln!(out, "    close(o);");
    let _ = writeln!(out, "}}");
    out
}

fn indent(depth: u32) -> String {
    "    ".repeat(depth as usize + 1)
}

/// Generates a block of statements. Inside helpers (`in_helper`), the
/// variables are `a`; in main, `v` and `acc`.
fn gen_block(rng: &mut StdRng, config: &GeneratorConfig, depth: u32, in_helper: bool) -> String {
    let mut out = String::new();
    let (var, acc): (&str, &str) = if in_helper { ("a", "a") } else { ("v", "acc") };
    let n = rng.random_range(1..=config.max_block_len);
    for _ in 0..n {
        let choice = if depth >= config.max_depth {
            rng.random_range(0..4)
        } else {
            rng.random_range(0..8)
        };
        let pad = indent(depth);
        match choice {
            0 => {
                let _ = writeln!(
                    out,
                    "{pad}{acc} = {acc} + {var} % {} + {};",
                    rng.random_range(2..9),
                    rng.random_range(0..5)
                );
            }
            1 => {
                let _ = writeln!(out, "{pad}write(2, \"m{}\");", rng.random_range(0..100));
            }
            2 => {
                let _ = writeln!(
                    out,
                    "{pad}{acc} = {acc} + len(str({var} * {}));",
                    rng.random_range(1..50)
                );
            }
            3 => {
                if !in_helper && config.helpers > 0 {
                    let h = rng.random_range(0..config.helpers);
                    let _ = writeln!(out, "{pad}{acc} = {acc} + helper{h}({var});");
                } else {
                    let _ = writeln!(out, "{pad}{acc} = {acc} * 2 + 1;");
                }
            }
            4 => {
                // Branch with possibly asymmetric syscall counts.
                let _ = writeln!(
                    out,
                    "{pad}if ({var} % {} == {}) {{",
                    rng.random_range(2..5),
                    rng.random_range(0..2)
                );
                out.push_str(&gen_block(rng, config, depth + 1, in_helper));
                if rng.random_bool(0.6) {
                    let _ = writeln!(out, "{pad}}} else {{");
                    out.push_str(&gen_block(rng, config, depth + 1, in_helper));
                }
                let _ = writeln!(out, "{pad}}}");
            }
            5 => {
                // Bounded loop with a syscall inside.
                let bound = rng.random_range(1..5);
                let i = format!("i{depth}_{}", rng.random_range(0..1000));
                let _ = writeln!(
                    out,
                    "{pad}for (let {i} = 0; {i} < {bound} + {var} % 3; {i} = {i} + 1) {{"
                );
                let _ = writeln!(out, "{pad}    write(2, \"t\" + str({i}));");
                out.push_str(&gen_block(rng, config, depth + 1, in_helper));
                let _ = writeln!(out, "{pad}}}");
            }
            7 if !in_helper => {
                // Read the log on one branch; main writes it later.
                let _ = writeln!(
                    out,
                    "{pad}if ({var} % {} == {}) {{",
                    rng.random_range(2..4),
                    rng.random_range(0..2)
                );
                let _ = writeln!(
                    out,
                    "{pad}    {acc} = {acc} + len(read(open(\"/gen/log\", 0), 64));"
                );
                let _ = writeln!(out, "{pad}}}");
            }
            _ => {
                let _ = writeln!(out, "{pad}{acc} = max({acc}, getpid() % 97);");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_compile() {
        for seed in 0..60 {
            let src = random_program_source(seed, &GeneratorConfig::default());
            ldx_lang::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_program_source(7, &GeneratorConfig::default());
        let b = random_program_source(7, &GeneratorConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_program_source(1, &GeneratorConfig::default());
        let b = random_program_source(2, &GeneratorConfig::default());
        assert_ne!(a, b);
    }

    #[test]
    fn generated_programs_pretty_print_roundtrip() {
        for seed in 0..40 {
            let src = random_program_source(seed, &GeneratorConfig::default());
            let once = ldx_lang::parse(&src).unwrap();
            let printed = ldx_lang::pretty::to_source(&once);
            let twice = ldx_lang::parse(&printed)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{printed}"));
            assert_eq!(
                ldx_lang::pretty::to_source(&twice),
                printed,
                "seed {seed}: pretty-print not a fixpoint"
            );
        }
    }

    #[test]
    fn generated_programs_instrument_consistently() {
        for seed in 0..40 {
            let src = random_program_source(seed, &GeneratorConfig::default());
            let ip = ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(&src).unwrap()));
            ldx_instrument::check_counter_consistency(&ip)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }
}
