//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! this minimal, dependency-free implementation of the proptest API subset
//! the repo's property tests use: `proptest!` with an optional
//! `#![proptest_config(..)]` header, `any::<T>()`, integer-range and tuple
//! strategies, `prop_map`, `proptest::collection::vec`, and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Cases are generated from a deterministic per-test RNG (seeded from the
//! test's name), so failures are reproducible run-to-run. On failure the
//! generated inputs are printed with the panic message.

/// Value-generation strategies (`any`, ranges, tuples, `prop_map`).
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A value generator. Unlike real proptest there is no shrinking: a
    /// failing case prints its inputs and panics.
    pub trait Strategy {
        /// The type of generated values.
        type Value;
        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Copy, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform draws over the full domain of a type.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u128() as $t
                }
            }
        )+};
    }
    arbitrary_uint!(u8, u16, u32, u64, u128, usize);

    macro_rules! arbitrary_int {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u128() as $t
                }
            }
        )+};
    }
    arbitrary_int!(i8, i16, i32, i64, i128, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> [T; N] {
            core::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    macro_rules! arbitrary_tuple {
        ($($t:ident),+) => {
            impl<$($t: Arbitrary),+> Arbitrary for ($($t,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($t::arbitrary(rng),)+)
                }
            }
        };
    }
    arbitrary_tuple!(A);
    arbitrary_tuple!(A, B);
    arbitrary_tuple!(A, B, C);
    arbitrary_tuple!(A, B, C, D);
    arbitrary_tuple!(A, B, C, D, E);
    arbitrary_tuple!(A, B, C, D, E, F);

    /// The strategy returned by [`any`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    /// A strategy producing arbitrary values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u128;
                    self.start + (rng.next_u128() % span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    if lo == <$t>::MIN && hi == <$t>::MAX {
                        return rng.next_u128() as $t;
                    }
                    let span = (hi - lo) as u128 + 1;
                    lo + (rng.next_u128() % span) as $t
                }
            }
        )+};
    }
    range_strategy!(u8, u16, u32, u64, usize);

    // u128 needs its own arm: the span itself can overflow u128.
    impl Strategy for core::ops::Range<u128> {
        type Value = u128;
        fn generate(&self, rng: &mut TestRng) -> u128 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_u128() % (self.end - self.start)
        }
    }
    impl Strategy for core::ops::RangeInclusive<u128> {
        type Value = u128;
        fn generate(&self, rng: &mut TestRng) -> u128 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            if lo == 0 && hi == u128::MAX {
                return rng.next_u128();
            }
            let span = (hi - lo).wrapping_add(1);
            if span == 0 {
                return rng.next_u128();
            }
            lo + rng.next_u128() % span
        }
    }

    macro_rules! tuple_strategy {
        ($(($($t:ident . $idx:tt),+))+) => {$(
            impl<$($t: Strategy),+> Strategy for ($($t,)+) {
                type Value = ($($t::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }
    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

/// Collection strategies (`collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A vector length range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A strategy for vectors whose elements come from `element` and whose
    /// length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The case loop, config, and deterministic RNG behind `proptest!`.
pub mod test_runner {
    /// Why a single generated case did not pass.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// An assertion failed: the property is violated.
        Fail(String),
        /// `prop_assume!` rejected the inputs; draw a fresh case.
        Reject(String),
    }

    impl TestCaseError {
        /// A failed case.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }
        /// A rejected (filtered-out) case.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                TestCaseError::Fail(s) => write!(f, "case failed: {s}"),
                TestCaseError::Reject(s) => write!(f, "case rejected: {s}"),
            }
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Runner configuration (the `cases` knob is the only one honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic splitmix64 generator seeded from the test's name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the RNG from a test name (FNV-1a).
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Next 128 random bits.
        pub fn next_u128(&mut self) -> u128 {
            ((self.next_u64() as u128) << 64) | self.next_u64() as u128
        }
    }

    /// Drives one `proptest!`-generated test: draws cases until `cases`
    /// pass, retrying rejected draws (with a cap) and panicking with the
    /// offending inputs on the first failure.
    pub fn run_cases(
        config: &ProptestConfig,
        name: &str,
        mut case: impl FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
    ) {
        let mut rng = TestRng::from_name(name);
        let mut passed = 0u32;
        let mut rejected = 0u32;
        let reject_cap = config.cases.saturating_mul(64).max(4096);
        while passed < config.cases {
            let (inputs, result) = case(&mut rng);
            match result {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > reject_cap {
                        panic!("proptest `{name}`: too many prop_assume! rejections ({rejected})");
                    }
                }
                Err(TestCaseError::Fail(reason)) => {
                    panic!(
                        "proptest `{name}` failed after {passed} passing case(s): \
                         {reason}\ninputs:\n{inputs}"
                    );
                }
            }
        }
    }
}

/// Defines property tests. Supports the real macro's common form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..100, v in proptest::collection::vec(any::<u8>(), 0..16)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_cases(&($cfg), stringify!($name), |__proptest_rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __proptest_rng);)+
                let __proptest_inputs = {
                    let mut s = ::std::string::String::new();
                    $(s.push_str(&format!(
                        "    {} = {:?}\n", stringify!($arg), &$arg
                    ));)+
                    s
                };
                let __proptest_result: ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                (__proptest_inputs, __proptest_result)
            });
        }
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: `{:?}`\n right: `{:?}`",
            format!($($fmt)*),
            l,
            r
        );
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  left: `{:?}`\n right: `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "{}\n  left: `{:?}`\n right: `{:?}`",
            format!($($fmt)*),
            l,
            r
        );
    }};
}

/// Rejects the current case; the runner draws a fresh one.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

pub mod prelude {
    //! The imports property tests conventionally glob in.
    pub use crate::collection;
    pub use crate::strategy::{any, Any, Arbitrary, Just, Map, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_name("ranges_respect_bounds");
        for _ in 0..1000 {
            let v = (10u32..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (1u64..=u64::MAX).generate(&mut rng);
            assert!(w >= 1);
            let z = (0u8..=255).generate(&mut rng);
            let _ = z;
        }
    }

    #[test]
    fn vec_lengths_respect_bounds() {
        let mut rng = TestRng::from_name("vec_lengths_respect_bounds");
        for _ in 0..200 {
            let v = collection::vec(any::<u8>(), 3..7).generate(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_round_trip(
            x in 0u32..100,
            pair in (0u8..4, any::<bool>()),
            v in collection::vec(any::<u8>(), 0..8),
        ) {
            prop_assume!(x != 3);
            prop_assert!(x < 100);
            prop_assert!(pair.0 < 4, "pair.0 = {}", pair.0);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(x, 3);
        }

        #[test]
        fn mapped_strategy(y in (1u64..10).prop_map(|p| p * 4096)) {
            prop_assert_eq!(y % 4096, 0);
        }
    }
}
