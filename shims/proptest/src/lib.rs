//! Offline stand-in for the `proptest` crate (see `crates/shims/README.md`).
//!
//! Implements the subset of proptest this workspace's property tests use: the
//! `proptest!` / `prop_assert*` / `prop_assume!` macros, `Strategy` with
//! `prop_map` / `prop_flat_map`, integer range strategies, tuples,
//! `any::<T>()`, and `proptest::collection::vec`. Cases are generated from a
//! deterministic per-test seed (FNV-1a of the test name), so failures
//! reproduce exactly across runs. There is **no shrinking**: a failing case
//! is reported as-is with its case index and `Debug` rendering.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic source of randomness handed to strategies.
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    fn from_seed(seed: u64) -> Self {
        TestRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.inner.gen_range(0..bound)
    }

    /// Uniform value in `[0, bound)` for 128-bit bounds.
    pub fn below_u128(&mut self, bound: u128) -> u128 {
        debug_assert!(bound > 0);
        // Widening rejection sampling over two 64-bit draws.
        loop {
            let raw = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
            let zone = u128::MAX - (u128::MAX - bound + 1) % bound;
            if raw <= zone {
                return raw % bound;
            }
        }
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// Assertion failure: the property is violated.
    Fail(String),
    /// The generated inputs do not satisfy a `prop_assume!` precondition;
    /// the runner retries with fresh inputs.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection (input does not satisfy a precondition).
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

/// Runner configuration. Only the knobs the workspace sets are modelled.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Cap on total rejected cases before the runner gives up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_global_rejects: 65_536 }
    }
}

impl ProptestConfig {
    /// Default config with a custom case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases, ..Default::default() }
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { base: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.base.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// Integer range strategies
// ---------------------------------------------------------------------------

macro_rules! impl_int_ranges {
    ($($t:ty => $wide:ty, $uwide:ty);* $(;)?) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $wide - self.start as $wide) as $uwide as u128;
                (self.start as $wide + rng.below_u128(span) as $wide) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as $wide - lo as $wide) as $uwide as u128;
                if span == u128::MAX {
                    return rng.next_u64() as $t; // full 64-bit-or-less domain
                }
                (lo as $wide + rng.below_u128(span + 1) as $wide) as $t
            }
        }
        impl Strategy for std::ops::RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                (self.start..=<$t>::MAX).generate(rng)
            }
        }
    )*};
}

impl_int_ranges! {
    u8 => i128, u128; u16 => i128, u128; u32 => i128, u128; u64 => i128, u128;
    usize => i128, u128;
    i8 => i128, u128; i16 => i128, u128; i32 => i128, u128; i64 => i128, u128;
    isize => i128, u128;
}

// u128/i128 ranges: sample within the span via below_u128.
impl Strategy for std::ops::Range<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below_u128(self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        let span = hi - lo;
        if span == u128::MAX {
            return ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        }
        lo + rng.below_u128(span + 1)
    }
}

impl Strategy for std::ops::RangeFrom<u128> {
    type Value = u128;
    fn generate(&self, rng: &mut TestRng) -> u128 {
        (self.start..=u128::MAX).generate(rng)
    }
}

impl Strategy for std::ops::Range<i128> {
    type Value = i128;
    fn generate(&self, rng: &mut TestRng) -> i128 {
        assert!(self.start < self.end, "empty range strategy");
        let span = self.end.wrapping_sub(self.start) as u128;
        self.start.wrapping_add(rng.below_u128(span) as i128)
    }
}

// ---------------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

// ---------------------------------------------------------------------------
// any::<T>() via Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Arbitrary for i128 {
    fn arbitrary(rng: &mut TestRng) -> i128 {
        u128::arbitrary(rng) as i128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over a type's full domain.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`'s full domain.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any { _marker: std::marker::PhantomData }
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec`](fn@vec): an exact `usize` or a `Range<usize>`.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_exclusive: *r.end() + 1 }
        }
    }

    /// Strategy producing `Vec`s of values from `elem`.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + if span <= 1 { 0 } else { rng.below(span) as usize };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `Vec` strategy with element strategy `elem` and length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Test-runner internals used by the `proptest!` macro expansion.
pub mod test_runner {
    pub use super::{ProptestConfig as Config, TestCaseError};
}

fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Executes `config.cases` generated cases of `test`, panicking on the first
/// failure with a reproducible description. Called by the `proptest!` macro.
pub fn run_cases<S, F>(name: &str, config: &ProptestConfig, strategy: &S, test: F)
where
    S: Strategy,
    S::Value: std::fmt::Debug,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let base_seed = fnv1a(name);
    let mut rejects: u32 = 0;
    let mut attempt: u64 = 0;
    let mut passed: u32 = 0;
    while passed < config.cases {
        // Distinct deterministic stream per attempt; reproducible run-to-run.
        let mut rng = TestRng::from_seed(base_seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        attempt += 1;
        let value = strategy.generate(&mut rng);
        let rendered = format!("{value:?}");
        match test(value) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejects += 1;
                if rejects > config.max_global_rejects {
                    panic!(
                        "proptest '{name}': too many rejected cases \
                         ({rejects} rejects for {passed}/{} passes)",
                        config.cases
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "proptest '{name}' failed at case {attempt} \
                     (seed {base_seed:#x}): {msg}\n  input: {rendered}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let strategy = ( $($strat,)+ );
                $crate::run_cases(
                    stringify!($name),
                    &config,
                    &strategy,
                    |__proptest_values| {
                        let ( $($arg,)+ ) = __proptest_values;
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Asserts a condition inside a property test, failing the case (not
/// panicking) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "{} at {}:{}",
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Asserts two expressions are equal inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// Asserts two expressions are unequal inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            left
        );
    }};
}

/// Skips the current case (with a retry) when a precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(format!($($fmt)+)));
        }
    };
}

/// The glob-importable API surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = super::TestRng::from_seed(7);
        for _ in 0..2000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (-5i64..5).generate(&mut rng);
            assert!((-5..5).contains(&w));
            let x = (1u128..).generate(&mut rng);
            assert!(x >= 1);
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = super::TestRng::from_seed(3);
        let strat = super::collection::vec(0usize..10, 2..5);
        for _ in 0..500 {
            let v = strat.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = (0u64..1000, super::collection::vec(-50i64..50, 0..8));
        let mut a = super::TestRng::from_seed(42);
        let mut b = super::TestRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_roundtrip(a in 0u32..100, xs in super::collection::vec(0usize..9, 0..6)) {
            prop_assert!(a < 100);
            for x in &xs {
                prop_assert!(*x < 9);
            }
            prop_assert_eq!(xs.len(), xs.len());
        }

        #[test]
        fn assume_retries(v in 0u64..32) {
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        super::run_cases("always_fails", &ProptestConfig::with_cases(4), &(0u64..10,), |(_v,)| {
            Err(TestCaseError::fail("forced"))
        });
    }

    #[test]
    fn flat_map_composes() {
        let strat = (1usize..4, 1usize..4)
            .prop_flat_map(|(r, c)| super::collection::vec(super::collection::vec(0i64..3, c), r));
        let mut rng = super::TestRng::from_seed(11);
        for _ in 0..200 {
            let m = strat.generate(&mut rng);
            assert!(!m.is_empty());
            let c = m[0].len();
            assert!(m.iter().all(|row| row.len() == c));
        }
    }
}
