//! Offline shim for `proptest`: the `proptest!` macro, a `Strategy`
//! trait with `prop_map`, strategies for integer ranges, tuples and
//! `collection::vec`, and the `prop_assert*` macros.
//!
//! Each property runs for [`ProptestConfig::cases`] iterations with a
//! deterministic per-test RNG (seeded from the test's name), so failures
//! reproduce exactly. There is no shrinking: a failing case panics with
//! its test name, case index and sampled inputs, then the assertion
//! message.

use std::ops::Range;

/// Deterministic SplitMix64 stream used to drive sampling.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the stream from a test's name (stable across runs).
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// The next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Run configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs for.
    pub cases: u32,
    /// Accepted for source compatibility; unused (no shrinking here).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let n = self.size.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Re-panics a failed case with the test's name, the case index and the
/// sampled inputs, followed by the original assertion message.
#[doc(hidden)]
pub fn fail_case(test: &str, case: u32, inputs: &str, payload: Box<dyn std::any::Any + Send>) -> ! {
    let cause = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    panic!("{test} failed at case {case} with {inputs}: {cause}")
}

/// Defines `#[test]` functions that run a body over sampled inputs.
///
/// A failing case panics with the test's name, the case index and every
/// sampled `arg = value`, so it can be replayed by hand.
///
/// Supports the subset of the original grammar the workspace uses: an
/// optional `#![proptest_config(expr)]` header followed by test
/// functions with `arg in strategy` parameters.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __test = concat!(module_path!(), "::", stringify!($name));
            let mut __rng = $crate::TestRng::for_test(__test);
            for __case in 0..__config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let __inputs = [$(format!("{} = {:?}", stringify!($arg), $arg)),+].join(", ");
                let __outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| $body));
                if let Err(__payload) = __outcome {
                    $crate::fail_case(__test, __case, &__inputs, __payload);
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn ranges_sample_in_bounds(x in 3u64..17) {
            prop_assert!((3..17).contains(&x));
        }

        #[test]
        fn tuples_and_vecs_compose(
            pair in (crate::collection::vec(0u64..4, 0..3), 0u64..8)
        ) {
            let (v, n) = pair;
            prop_assert!(v.len() < 3);
            prop_assert!(v.iter().all(|&e| e < 4));
            prop_assert!(n < 8);
        }

        #[test]
        fn prop_map_applies(y in (0i64..10).prop_map(|v| v * 2)) {
            prop_assert_eq!(y % 2, 0);
            prop_assert!((0..20).contains(&y));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

        #[test]
        #[should_panic(
            expected = "proptest::tests::failing_case_names_its_inputs failed at case 0 \
                        with x = 3, pair = (5, [7]): x is too small"
        )]
        fn failing_case_names_its_inputs(
            x in 3u64..4,
            pair in (5u64..6, crate::collection::vec(7u64..8, 1..2))
        ) {
            prop_assert!(x > 100, "x is too small");
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::for_test("t");
        let mut b = crate::TestRng::for_test("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
