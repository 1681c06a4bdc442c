//! Input mutation strategies (paper §8.3 "Input Mutation").
//!
//! LDX perturbs the program state at the sources. The paper's default is
//! **off-by-one** mutation, which provably flips every strong (one-to-one)
//! causality; the alternatives below exist for the ablation study
//! (`ldx-bench`, `ablation_mutation`) that mirrors the paper's comparison
//! of strategies.

use ldx_runtime::Value;

/// How a source value is perturbed in the slave execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Off-by-one: bump the last alphanumeric character of a string (the
    /// paper's default: "we perform off-by-one mutations... we only mutate
    /// data fields, not magic values"), or add 1 to an integer.
    OffByOne,
    /// Flip the lowest bit of the last character / of the integer.
    BitFlip,
    /// Replace digits/letters with `'0'` (integers become 0). A *lossy*
    /// mutation: many-to-one, so it can miss strong causality — included
    /// to reproduce the paper's finding that nothing supersedes off-by-one.
    Zero,
    /// Replace the whole value with a fixed string.
    Replace(String),
    /// Replace the whole value with a fixed integer.
    SetInt(i64),
    /// Identity (no change) — for control runs: with no mutation the dual
    /// execution must report nothing (invariant I5 in DESIGN.md).
    Identity,
}

impl Mutation {
    /// Applies the mutation to a source value.
    pub fn apply(&self, v: &Value) -> Value {
        match self {
            Mutation::Identity => v.clone(),
            Mutation::Replace(s) => Value::str(s.as_str()),
            Mutation::SetInt(i) => Value::Int(*i),
            Mutation::OffByOne => match v {
                Value::Int(i) => Value::Int(i.wrapping_add(1)),
                Value::Str(s) => Value::str(bump_last_alnum(s, 1)),
                other => other.clone(),
            },
            Mutation::BitFlip => match v {
                Value::Int(i) => Value::Int(i ^ 1),
                Value::Str(s) => Value::str(bump_last_alnum(s, 0)),
                other => other.clone(),
            },
            Mutation::Zero => match v {
                Value::Int(_) => Value::Int(0),
                Value::Str(s) => Value::str(
                    s.chars()
                        .map(|c| if c.is_ascii_alphanumeric() { '0' } else { c })
                        .collect::<String>(),
                ),
                other => other.clone(),
            },
        }
    }
}

/// Bumps the last alphanumeric character: `delta == 1` rotates forward by
/// one within its class (digit/lower/upper); `delta == 0` flips bit 0.
fn bump_last_alnum(s: &str, delta: u8) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for c in chars.iter_mut().rev() {
        if c.is_ascii_alphanumeric() {
            let b = *c as u8;
            let nb = if delta == 0 {
                let flipped = b ^ 1;
                if flipped.is_ascii_alphanumeric() {
                    flipped
                } else {
                    b ^ 2
                }
            } else {
                match b {
                    b'0'..=b'8' | b'a'..=b'y' | b'A'..=b'Y' => b + 1,
                    b'9' => b'0',
                    b'z' => b'a',
                    b'Z' => b'A',
                    _ => unreachable!(),
                }
            };
            *c = nb as char;
            break;
        }
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Value {
        Value::Str(v.into())
    }

    #[test]
    fn off_by_one_changes_exactly_one_char() {
        assert_eq!(Mutation::OffByOne.apply(&s("STAFF")), s("STAFG"));
        assert_eq!(Mutation::OffByOne.apply(&s("42")), s("43"));
        assert_eq!(Mutation::OffByOne.apply(&s("a9")), s("a0"));
        assert_eq!(Mutation::OffByOne.apply(&s("z")), s("a"));
        assert_eq!(Mutation::OffByOne.apply(&s("x!!")), s("y!!"));
        assert_eq!(Mutation::OffByOne.apply(&Value::Int(7)), Value::Int(8));
    }

    #[test]
    fn off_by_one_always_differs_for_alnum_inputs() {
        for input in ["a", "Z", "0", "password123", "MANAGER"] {
            assert_ne!(Mutation::OffByOne.apply(&s(input)), s(input));
        }
    }

    #[test]
    fn identity_never_changes() {
        for input in ["", "abc", "!!"] {
            assert_eq!(Mutation::Identity.apply(&s(input)), s(input));
        }
        assert_eq!(Mutation::Identity.apply(&Value::Int(3)), Value::Int(3));
    }

    #[test]
    fn bitflip_changes_value() {
        assert_ne!(Mutation::BitFlip.apply(&s("abc")), s("abc"));
        assert_eq!(Mutation::BitFlip.apply(&Value::Int(6)), Value::Int(7));
    }

    #[test]
    fn zero_is_many_to_one() {
        assert_eq!(Mutation::Zero.apply(&s("a1b2")), s("0000"));
        assert_eq!(Mutation::Zero.apply(&s("x-y")), s("0-0"));
        assert_eq!(Mutation::Zero.apply(&Value::Int(99)), Value::Int(0));
        // Lossy: distinct inputs can collapse.
        assert_eq!(
            Mutation::Zero.apply(&s("ab")),
            Mutation::Zero.apply(&s("cd"))
        );
    }

    #[test]
    fn replace_and_setint() {
        assert_eq!(
            Mutation::Replace("MANAGER".into()).apply(&s("STAFF")),
            s("MANAGER")
        );
        assert_eq!(Mutation::SetInt(5).apply(&s("x")), Value::Int(5));
    }

    #[test]
    fn empty_and_nonalnum_strings_survive() {
        assert_eq!(Mutation::OffByOne.apply(&s("")), s(""));
        assert_eq!(Mutation::OffByOne.apply(&s("!!")), s("!!"));
    }
}
