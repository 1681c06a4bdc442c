//! Runtime values and operator semantics.

use crate::trap::Trap;
use ldx_ir::FuncId;
use ldx_lang::{BinaryOp, UnaryOp};
use std::fmt;
use std::sync::Arc;

/// A dynamically typed Lx value.
///
/// String and array payloads are reference-counted so `clone()` — the
/// interpreter's hottest operation (locals copies, call argument
/// gathering, syscall argument capture) — is a refcount bump, not a deep
/// copy. Value semantics are preserved: the only in-place mutation path,
/// [`store_index`], goes through [`Arc::make_mut`] and copies on write
/// when the payload is shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A 64-bit integer.
    Int(i64),
    /// A string (immutable, shared).
    Str(Arc<str>),
    /// An array (copy-on-write, shared until mutated).
    Arr(Arc<Vec<Value>>),
    /// A first-class function reference (`&f`).
    Func(FuncId),
}

impl Value {
    /// Builds a string value from anything convertible to a shared str.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Builds an array value from owned elements.
    pub fn arr(elems: Vec<Value>) -> Value {
        Value::Arr(Arc::new(elems))
    }

    /// Lx truthiness: nonzero ints, nonempty strings/arrays, any function.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Str(s) => !s.is_empty(),
            Value::Arr(a) => !a.is_empty(),
            Value::Func(_) => true,
        }
    }

    /// The value as an integer, trapping otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::TypeError`] for non-integers.
    pub fn as_int(&self) -> Result<i64, Trap> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(Trap::TypeError {
                expected: "integer",
                found: other.type_name(),
            }),
        }
    }

    /// The value as a string slice, trapping otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::TypeError`] for non-strings.
    pub fn as_str(&self) -> Result<&str, Trap> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Trap::TypeError {
                expected: "string",
                found: other.type_name(),
            }),
        }
    }

    /// The value's type name (for diagnostics).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Func(_) => "function",
        }
    }

    /// Converts to the canonical string form (the `str()` builtin).
    pub fn stringify(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Str(s) => s.to_string(),
            Value::Arr(a) => {
                let inner: Vec<String> = a.iter().map(Value::stringify).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Func(f) => format!("<fn {f}>"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.stringify())
    }
}

/// Applies a binary operator (`&&`/`||` are lowered to control flow and
/// never reach here).
///
/// # Errors
///
/// Returns [`Trap`] on type mismatches and division by zero.
pub fn eval_binary(op: BinaryOp, lhs: &Value, rhs: &Value) -> Result<Value, Trap> {
    use BinaryOp::*;
    match op {
        Add => match (lhs, rhs) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (Value::Arr(a), Value::Arr(b)) => {
                let mut out = a.as_ref().clone();
                out.extend(b.iter().cloned());
                Ok(Value::arr(out))
            }
            // String concatenation stringifies the other side, mirroring
            // scripting-language `+`.
            (Value::Str(_), _) | (_, Value::Str(_)) => Ok(Value::str(format!(
                "{}{}",
                lhs.stringify(),
                rhs.stringify()
            ))),
            _ => Err(Trap::TypeError {
                expected: "addable values",
                found: lhs.type_name(),
            }),
        },
        Sub => Ok(Value::Int(lhs.as_int()?.wrapping_sub(rhs.as_int()?))),
        Mul => Ok(Value::Int(lhs.as_int()?.wrapping_mul(rhs.as_int()?))),
        Div => {
            let d = rhs.as_int()?;
            if d == 0 {
                return Err(Trap::DivisionByZero);
            }
            Ok(Value::Int(lhs.as_int()?.wrapping_div(d)))
        }
        Rem => {
            let d = rhs.as_int()?;
            if d == 0 {
                return Err(Trap::DivisionByZero);
            }
            Ok(Value::Int(lhs.as_int()?.wrapping_rem(d)))
        }
        Eq => Ok(Value::Int(i64::from(lhs == rhs))),
        Ne => Ok(Value::Int(i64::from(lhs != rhs))),
        Lt | Le | Gt | Ge => {
            let ord = match (lhs, rhs) {
                (Value::Int(a), Value::Int(b)) => a.cmp(b),
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                _ => {
                    return Err(Trap::TypeError {
                        expected: "comparable values of the same type",
                        found: rhs.type_name(),
                    })
                }
            };
            let result = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Int(i64::from(result)))
        }
        And | Or => unreachable!("short-circuit operators are lowered to control flow"),
    }
}

/// Applies a unary operator.
///
/// # Errors
///
/// Returns [`Trap::TypeError`] when negating a non-integer.
pub fn eval_unary(op: UnaryOp, v: &Value) -> Result<Value, Trap> {
    match op {
        UnaryOp::Neg => Ok(Value::Int(v.as_int()?.wrapping_neg())),
        UnaryOp::Not => Ok(Value::Int(i64::from(!v.truthy()))),
    }
}

/// Indexes into an array or string (1-character string results).
///
/// # Errors
///
/// Returns [`Trap::IndexOutOfBounds`] or [`Trap::TypeError`].
pub fn eval_index(base: &Value, index: &Value) -> Result<Value, Trap> {
    let i = index.as_int()?;
    match base {
        Value::Arr(a) => {
            let idx = usize::try_from(i).map_err(|_| Trap::IndexOutOfBounds {
                index: i,
                len: a.len(),
            })?;
            a.get(idx).cloned().ok_or(Trap::IndexOutOfBounds {
                index: i,
                len: a.len(),
            })
        }
        Value::Str(s) => usize::try_from(i)
            .ok()
            .and_then(|idx| char_at(s, idx))
            .map(|c| Value::str(&*c.encode_utf8(&mut [0u8; 4])))
            .ok_or_else(|| Trap::IndexOutOfBounds {
                index: i,
                len: char_len(s),
            }),
        other => Err(Trap::TypeError {
            expected: "array or string",
            found: other.type_name(),
        }),
    }
}

/// The length of `s` in chars (in bytes when it is ASCII, where the two
/// agree).
pub(crate) fn char_len(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// The char at char index `i` of `s` (a byte lookup when it is ASCII).
pub(crate) fn char_at(s: &str, i: usize) -> Option<char> {
    if s.is_ascii() {
        s.as_bytes().get(i).map(|&b| char::from(b))
    } else {
        s.chars().nth(i)
    }
}

/// Stores into an element of an array value in place.
///
/// # Errors
///
/// Returns [`Trap::IndexOutOfBounds`] or [`Trap::TypeError`].
pub fn store_index(base: &mut Value, index: &Value, v: Value) -> Result<(), Trap> {
    let i = index.as_int()?;
    match base {
        Value::Arr(a) => {
            let len = a.len();
            let idx = usize::try_from(i).map_err(|_| Trap::IndexOutOfBounds { index: i, len })?;
            // Copy-on-write: only clones the backing Vec when it is shared
            // with another value.
            match Arc::make_mut(a).get_mut(idx) {
                Some(slot) => {
                    *slot = v;
                    Ok(())
                }
                None => Err(Trap::IndexOutOfBounds { index: i, len }),
            }
        }
        other => Err(Trap::TypeError {
            expected: "array",
            found: other.type_name(),
        }),
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

    #[test]
    fn truthiness() {
        assert!(int(1).truthy());
        assert!(!int(0).truthy());
        assert!(s("x").truthy());
        assert!(!s("").truthy());
        assert!(!Value::arr(vec![]).truthy());
        assert!(Value::arr(vec![int(0)]).truthy());
        assert!(Value::Func(FuncId(0)).truthy());
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            eval_binary(BinaryOp::Add, &int(2), &int(3)).unwrap(),
            int(5)
        );
        assert_eq!(
            eval_binary(BinaryOp::Sub, &int(2), &int(3)).unwrap(),
            int(-1)
        );
        assert_eq!(
            eval_binary(BinaryOp::Mul, &int(4), &int(3)).unwrap(),
            int(12)
        );
        assert_eq!(
            eval_binary(BinaryOp::Div, &int(7), &int(2)).unwrap(),
            int(3)
        );
        assert_eq!(
            eval_binary(BinaryOp::Rem, &int(7), &int(2)).unwrap(),
            int(1)
        );
    }

    #[test]
    fn division_by_zero_traps() {
        assert_eq!(
            eval_binary(BinaryOp::Div, &int(1), &int(0)),
            Err(Trap::DivisionByZero)
        );
        assert_eq!(
            eval_binary(BinaryOp::Rem, &int(1), &int(0)),
            Err(Trap::DivisionByZero)
        );
    }

    #[test]
    fn string_concatenation() {
        assert_eq!(
            eval_binary(BinaryOp::Add, &s("a"), &s("b")).unwrap(),
            s("ab")
        );
        assert_eq!(
            eval_binary(BinaryOp::Add, &s("n="), &int(3)).unwrap(),
            s("n=3")
        );
        assert_eq!(
            eval_binary(BinaryOp::Add, &int(3), &s("!")).unwrap(),
            s("3!")
        );
    }

    #[test]
    fn array_concatenation() {
        let a = Value::arr(vec![int(1)]);
        let b = Value::arr(vec![int(2)]);
        assert_eq!(
            eval_binary(BinaryOp::Add, &a, &b).unwrap(),
            Value::arr(vec![int(1), int(2)])
        );
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_binary(BinaryOp::Lt, &int(1), &int(2)).unwrap(), int(1));
        assert_eq!(eval_binary(BinaryOp::Ge, &int(1), &int(2)).unwrap(), int(0));
        assert_eq!(eval_binary(BinaryOp::Lt, &s("a"), &s("b")).unwrap(), int(1));
        assert!(eval_binary(BinaryOp::Lt, &int(1), &s("b")).is_err());
    }

    #[test]
    fn equality_across_types_is_false_not_error() {
        assert_eq!(eval_binary(BinaryOp::Eq, &int(1), &s("1")).unwrap(), int(0));
        assert_eq!(eval_binary(BinaryOp::Ne, &int(1), &s("1")).unwrap(), int(1));
    }

    #[test]
    fn unary_ops() {
        assert_eq!(eval_unary(UnaryOp::Neg, &int(5)).unwrap(), int(-5));
        assert_eq!(eval_unary(UnaryOp::Not, &int(0)).unwrap(), int(1));
        assert_eq!(eval_unary(UnaryOp::Not, &s("x")).unwrap(), int(0));
        assert!(eval_unary(UnaryOp::Neg, &s("x")).is_err());
    }

    #[test]
    fn indexing() {
        let arr = Value::arr(vec![int(7), int(8)]);
        assert_eq!(eval_index(&arr, &int(1)).unwrap(), int(8));
        assert!(matches!(
            eval_index(&arr, &int(2)),
            Err(Trap::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            eval_index(&arr, &int(-1)),
            Err(Trap::IndexOutOfBounds { .. })
        ));
        assert_eq!(eval_index(&s("héllo"), &int(1)).unwrap(), s("é"));
    }

    #[test]
    fn non_ascii_strings_index_by_char() {
        assert_eq!(eval_index(&s("héllo"), &int(4)).unwrap(), s("o"));
        assert_eq!(eval_index(&s("日本語x"), &int(2)).unwrap(), s("語"));
        assert_eq!(eval_index(&s("日本語x"), &int(3)).unwrap(), s("x"));
        assert_eq!(eval_index(&s("hello"), &int(4)).unwrap(), s("o"));
        for (text, i, len) in [
            ("héllo", 5, 5),
            ("日本語x", 4, 4),
            ("日本語x", -1, 4),
            ("hello", 5, 5),
        ] {
            assert_eq!(
                eval_index(&s(text), &int(i)),
                Err(Trap::IndexOutOfBounds { index: i, len }),
                "{text}[{i}]"
            );
        }
    }

    #[test]
    fn store_index_mutates() {
        let mut arr = Value::arr(vec![int(0), int(0)]);
        store_index(&mut arr, &int(1), int(9)).unwrap();
        assert_eq!(arr, Value::arr(vec![int(0), int(9)]));
        assert!(store_index(&mut arr, &int(5), int(1)).is_err());
        let mut notarr = int(3);
        assert!(store_index(&mut notarr, &int(0), int(1)).is_err());
    }

    #[test]
    fn stringify_forms() {
        assert_eq!(int(-3).stringify(), "-3");
        assert_eq!(s("x").stringify(), "x");
        assert_eq!(Value::arr(vec![int(1), s("a")]).stringify(), "[1, a]");
        assert!(Value::Func(FuncId(2)).stringify().contains("f2"));
    }

    #[test]
    fn wrapping_semantics() {
        assert_eq!(
            eval_binary(BinaryOp::Add, &int(i64::MAX), &int(1)).unwrap(),
            int(i64::MIN)
        );
        assert_eq!(
            eval_unary(UnaryOp::Neg, &int(i64::MIN)).unwrap(),
            int(i64::MIN)
        );
    }
}
