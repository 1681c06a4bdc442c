//! Pure library-function implementations.

use crate::trap::Trap;
use crate::value::{char_at, char_len, Value};
use ldx_lang::LibFn;
use std::sync::Arc;

/// Evaluates a library function (arity already validated by the resolver).
///
/// The arguments are the call's own: `push` and `set` move their array out
/// of `args[0]` and update it in place, which copies the elements only
/// while another value still holds the array.
///
/// # Errors
///
/// Returns [`Trap`] on type misuse.
pub fn eval_lib(lib: LibFn, args: &mut [Value]) -> Result<Value, Trap> {
    match lib {
        LibFn::Len => Ok(Value::Int(match &args[0] {
            Value::Str(s) => char_len(s) as i64,
            Value::Arr(a) => a.len() as i64,
            other => {
                return Err(Trap::TypeError {
                    expected: "string or array",
                    found: other.type_name(),
                })
            }
        })),
        LibFn::Str => Ok(Value::str(args[0].stringify())),
        LibFn::Int => Ok(Value::Int(match &args[0] {
            Value::Int(v) => *v,
            Value::Str(s) => parse_int_prefix(s),
            _ => 0,
        })),
        LibFn::Substr => {
            let s = args[0].as_str()?;
            let start = args[1].as_int()?.max(0) as usize;
            let n = args[2].as_int()?.max(0) as usize;
            if s.is_ascii() {
                let from = start.min(s.len());
                Ok(Value::str(&s[from..from.saturating_add(n).min(s.len())]))
            } else {
                Ok(Value::str(
                    s.chars().skip(start).take(n).collect::<String>(),
                ))
            }
        }
        LibFn::Find => {
            let hay = args[0].as_str()?;
            let needle = args[1].as_str()?;
            Ok(Value::Int(match hay.find(needle) {
                Some(byte_idx) => char_len(&hay[..byte_idx]) as i64,
                None => -1,
            }))
        }
        LibFn::Ord => {
            let s = args[0].as_str()?;
            let i = args[1].as_int()?;
            let c = usize::try_from(i).ok().and_then(|i| char_at(s, i));
            Ok(Value::Int(c.map(|c| c as i64).unwrap_or(0)))
        }
        LibFn::Chr => {
            let i = args[0].as_int()?;
            let c = u32::try_from(i)
                .ok()
                .and_then(char::from_u32)
                .unwrap_or('?');
            Ok(Value::str(&*c.encode_utf8(&mut [0u8; 4])))
        }
        LibFn::Min => Ok(Value::Int(args[0].as_int()?.min(args[1].as_int()?))),
        LibFn::Max => Ok(Value::Int(args[0].as_int()?.max(args[1].as_int()?))),
        LibFn::Abs => Ok(Value::Int(args[0].as_int()?.wrapping_abs())),
        LibFn::ArrayNew => {
            let n = args[0].as_int()?.max(0) as usize;
            if n > 1 << 24 {
                return Err(Trap::TypeError {
                    expected: "array size under 2^24",
                    found: "larger allocation",
                });
            }
            Ok(Value::arr(vec![args[1].clone(); n]))
        }
        LibFn::Push | LibFn::Set => {
            let (first, rest) = args.split_first_mut().expect("arity checked");
            let Value::Arr(a) = first else {
                return Err(Trap::TypeError {
                    expected: "array",
                    found: first.type_name(),
                });
            };
            if lib == LibFn::Push {
                Arc::make_mut(a).push(take(&mut rest[0]));
            } else {
                let i = rest[0].as_int()?;
                let len = a.len();
                let idx = usize::try_from(i)
                    .ok()
                    .filter(|&idx| idx < len)
                    .ok_or(Trap::IndexOutOfBounds { index: i, len })?;
                Arc::make_mut(a)[idx] = take(&mut rest[1]);
            }
            Ok(take(first))
        }
        LibFn::Sort => match &args[0] {
            Value::Arr(a) => {
                let mut out = a.as_ref().clone();
                if out.iter().all(|v| matches!(v, Value::Int(_))) {
                    out.sort_by_key(|v| match v {
                        Value::Int(i) => *i,
                        _ => unreachable!(),
                    });
                } else {
                    out.sort_by_key(Value::stringify);
                }
                Ok(Value::arr(out))
            }
            other => Err(Trap::TypeError {
                expected: "array",
                found: other.type_name(),
            }),
        },
        LibFn::Hash => {
            // FNV-1a over the canonical string form.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in args[0].stringify().bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(Value::Int((h >> 1) as i64))
        }
        LibFn::Repeat => {
            let s = args[0].as_str()?;
            let n = args[1].as_int()?.max(0) as usize;
            if s.len().saturating_mul(n) > 1 << 26 {
                return Err(Trap::TypeError {
                    expected: "repetition under 64MiB",
                    found: "larger allocation",
                });
            }
            Ok(Value::str(s.repeat(n)))
        }
        LibFn::Split => {
            let s = args[0].as_str()?;
            let sep = args[1].as_str()?;
            let parts: Vec<Value> = if sep.is_empty() {
                s.chars()
                    .map(|c| Value::str(&*c.encode_utf8(&mut [0u8; 4])))
                    .collect()
            } else {
                s.split(sep).map(Value::str).collect()
            };
            Ok(Value::arr(parts))
        }
        LibFn::StrJoin => match &args[0] {
            Value::Arr(a) => {
                let sep = args[1].as_str()?;
                let parts: Vec<String> = a.iter().map(Value::stringify).collect();
                Ok(Value::str(parts.join(sep)))
            }
            other => Err(Trap::TypeError {
                expected: "array",
                found: other.type_name(),
            }),
        },
        LibFn::Trim => Ok(Value::str(args[0].as_str()?.trim())),
        LibFn::Upper => Ok(Value::str(args[0].as_str()?.to_ascii_uppercase())),
        LibFn::Lower => Ok(Value::str(args[0].as_str()?.to_ascii_lowercase())),
    }
}

/// Moves a value out of an argument slot.
fn take(arg: &mut Value) -> Value {
    std::mem::replace(arg, Value::Int(0))
}

/// Parses an optional-sign decimal prefix (after leading whitespace);
/// returns 0 when no digits are found, saturating on overflow.
fn parse_int_prefix(s: &str) -> i64 {
    let t = s.trim_start();
    let (neg, digits) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let mut val: i64 = 0;
    let mut any = false;
    for c in digits.chars() {
        let Some(d) = c.to_digit(10) else { break };
        any = true;
        val = val.saturating_mul(10).saturating_add(i64::from(d));
    }
    if !any {
        0
    } else if neg {
        -val
    } else {
        val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }
    fn s(v: &str) -> Value {
        Value::Str(v.into())
    }
    fn arr(v: Vec<Value>) -> Value {
        Value::arr(v)
    }

    #[test]
    fn len_str_int() {
        assert_eq!(eval_lib(LibFn::Len, &mut [s("héllo")]).unwrap(), int(5));
        assert_eq!(
            eval_lib(LibFn::Len, &mut [arr(vec![int(1)])]).unwrap(),
            int(1)
        );
        assert!(eval_lib(LibFn::Len, &mut [int(3)]).is_err());
        assert_eq!(eval_lib(LibFn::Str, &mut [int(-7)]).unwrap(), s("-7"));
        assert_eq!(eval_lib(LibFn::Int, &mut [s("  42abc")]).unwrap(), int(42));
        assert_eq!(eval_lib(LibFn::Int, &mut [s("-13")]).unwrap(), int(-13));
        assert_eq!(eval_lib(LibFn::Int, &mut [s("abc")]).unwrap(), int(0));
        assert_eq!(eval_lib(LibFn::Int, &mut [int(5)]).unwrap(), int(5));
    }

    #[test]
    fn substr_clamps() {
        assert_eq!(
            eval_lib(LibFn::Substr, &mut [s("hello"), int(1), int(3)]).unwrap(),
            s("ell")
        );
        assert_eq!(
            eval_lib(LibFn::Substr, &mut [s("hello"), int(4), int(99)]).unwrap(),
            s("o")
        );
        assert_eq!(
            eval_lib(LibFn::Substr, &mut [s("hello"), int(9), int(2)]).unwrap(),
            s("")
        );
        assert_eq!(
            eval_lib(LibFn::Substr, &mut [s("hello"), int(-3), int(2)]).unwrap(),
            s("he")
        );
    }

    #[test]
    fn find_ord_chr() {
        assert_eq!(
            eval_lib(LibFn::Find, &mut [s("banana"), s("na")]).unwrap(),
            int(2)
        );
        assert_eq!(
            eval_lib(LibFn::Find, &mut [s("banana"), s("xyz")]).unwrap(),
            int(-1)
        );
        assert_eq!(
            eval_lib(LibFn::Ord, &mut [s("A"), int(0)]).unwrap(),
            int(65)
        );
        assert_eq!(eval_lib(LibFn::Ord, &mut [s("A"), int(9)]).unwrap(), int(0));
        assert_eq!(eval_lib(LibFn::Chr, &mut [int(66)]).unwrap(), s("B"));
        assert_eq!(eval_lib(LibFn::Chr, &mut [int(-1)]).unwrap(), s("?"));
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(eval_lib(LibFn::Min, &mut [int(3), int(5)]).unwrap(), int(3));
        assert_eq!(eval_lib(LibFn::Max, &mut [int(3), int(5)]).unwrap(), int(5));
        assert_eq!(eval_lib(LibFn::Abs, &mut [int(-9)]).unwrap(), int(9));
    }

    #[test]
    fn array_ops() {
        let a = eval_lib(LibFn::ArrayNew, &mut [int(3), int(0)]).unwrap();
        assert_eq!(a, arr(vec![int(0), int(0), int(0)]));
        let b = eval_lib(LibFn::Push, &mut [a.clone(), int(7)]).unwrap();
        assert_eq!(eval_lib(LibFn::Len, &mut [b.clone()]).unwrap(), int(4));
        let c = eval_lib(LibFn::Set, &mut [b, int(0), s("x")]).unwrap();
        let Value::Arr(v) = &c else { panic!() };
        assert_eq!(v[0], s("x"));
        assert!(eval_lib(LibFn::Set, &mut [c, int(99), int(0)]).is_err());
    }

    #[test]
    fn non_ascii_strings_count_chars() {
        let cases: [(LibFn, &mut [Value], Value); 12] = [
            (LibFn::Len, &mut [s("héllo")], int(5)),
            (LibFn::Len, &mut [s("日本語x")], int(4)),
            (LibFn::Ord, &mut [s("héllo"), int(1)], int(0xE9)),
            (LibFn::Ord, &mut [s("日本語x"), int(2)], int(0x8A9E)),
            (LibFn::Ord, &mut [s("日本語x"), int(3)], int(120)),
            (LibFn::Ord, &mut [s("日本語x"), int(4)], int(0)),
            (LibFn::Substr, &mut [s("héllo"), int(1), int(3)], s("éll")),
            (LibFn::Substr, &mut [s("日本語x"), int(2), int(5)], s("語x")),
            (LibFn::Substr, &mut [s("日本語x"), int(9), int(1)], s("")),
            (LibFn::Find, &mut [s("héllo"), s("llo")], int(2)),
            (LibFn::Find, &mut [s("日本語x"), s("語")], int(2)),
            (LibFn::Find, &mut [s("日本語x"), s("x")], int(3)),
        ];
        for (lib, args, expected) in cases {
            assert_eq!(eval_lib(lib, args).unwrap(), expected, "{lib:?}");
        }
    }

    #[test]
    fn set_and_push_copy_only_a_shared_array() {
        let ptr = |v: &Value| match v {
            Value::Arr(a) => Arc::as_ptr(a),
            _ => panic!("not an array"),
        };
        let a = arr(vec![int(1), int(2)]);
        let before = ptr(&a);
        let a = eval_lib(LibFn::Set, &mut [a, int(0), int(9)]).unwrap();
        let a = eval_lib(LibFn::Push, &mut [a, int(3)]).unwrap();
        assert_eq!(ptr(&a), before, "an unshared array is updated in place");

        let kept = a.clone();
        let b = eval_lib(LibFn::Set, &mut [a, int(0), int(7)]).unwrap();
        let c = eval_lib(LibFn::Push, &mut [kept.clone(), int(4)]).unwrap();
        assert_eq!(kept, arr(vec![int(9), int(2), int(3)]));
        assert_eq!(b, arr(vec![int(7), int(2), int(3)]));
        assert_eq!(c, arr(vec![int(9), int(2), int(3), int(4)]));
        assert_ne!(ptr(&b), ptr(&kept));
    }

    #[test]
    fn sort_numeric_and_lexicographic() {
        let nums = arr(vec![int(3), int(-1), int(2)]);
        assert_eq!(
            eval_lib(LibFn::Sort, &mut [nums]).unwrap(),
            arr(vec![int(-1), int(2), int(3)])
        );
        let strs = arr(vec![s("b"), s("a")]);
        assert_eq!(
            eval_lib(LibFn::Sort, &mut [strs]).unwrap(),
            arr(vec![s("a"), s("b")])
        );
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let h1 = eval_lib(LibFn::Hash, &mut [s("abc")]).unwrap();
        let h2 = eval_lib(LibFn::Hash, &mut [s("abc")]).unwrap();
        let h3 = eval_lib(LibFn::Hash, &mut [s("abd")]).unwrap();
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn repeat_split_join_trim_case() {
        assert_eq!(
            eval_lib(LibFn::Repeat, &mut [s("ab"), int(3)]).unwrap(),
            s("ababab")
        );
        assert_eq!(
            eval_lib(LibFn::Split, &mut [s("a,b,,c"), s(",")]).unwrap(),
            arr(vec![s("a"), s("b"), s(""), s("c")])
        );
        assert_eq!(
            eval_lib(LibFn::Split, &mut [s("ab"), s("")]).unwrap(),
            arr(vec![s("a"), s("b")])
        );
        assert_eq!(
            eval_lib(LibFn::StrJoin, &mut [arr(vec![s("x"), int(2)]), s("-")]).unwrap(),
            s("x-2")
        );
        assert_eq!(eval_lib(LibFn::Trim, &mut [s("  hi\n")]).unwrap(), s("hi"));
        assert_eq!(eval_lib(LibFn::Upper, &mut [s("aBc")]).unwrap(), s("ABC"));
        assert_eq!(eval_lib(LibFn::Lower, &mut [s("aBc")]).unwrap(), s("abc"));
    }

    #[test]
    fn allocation_guards() {
        assert!(eval_lib(LibFn::ArrayNew, &mut [int(1 << 30), int(0)]).is_err());
        assert!(eval_lib(LibFn::Repeat, &mut [s("xxxxxxxx"), int(1 << 30)]).is_err());
    }

    #[test]
    fn int_parse_saturates() {
        assert_eq!(
            eval_lib(LibFn::Int, &mut [s("99999999999999999999999")]).unwrap(),
            int(i64::MAX)
        );
    }
}
