//! Offline, in-tree property-testing harness exposing the subset of the
//! `proptest` crate's surface this workspace uses.
//!
//! The container building this repository has no registry access, so the
//! real `proptest` cannot be fetched. This crate keeps the workspace's
//! property tests (`tests/props.rs` in every crate) compiling and running
//! unmodified: same `proptest! {}` / `prop_compose! {}` macros, same
//! `Strategy` / `any` / `Just` / `prop_oneof!` vocabulary, same
//! `ProptestConfig::with_cases` knob. Generation is purely random
//! sampling from a deterministic per-test RNG — there is no shrinking;
//! a failing case panics with the ordinary assert message.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Deterministic generator state for one test case.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG derived from the test's name and the case index, so runs
        /// are reproducible without any persisted seed file.
        pub fn deterministic(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut rng = TestRng {
                state: h ^ ((case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            };
            rng.next_u64(); // decorrelate nearby seeds
            rng
        }

        /// Next raw 64-bit value (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform f64 in [0, 1).
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Runner configuration; only the case count is meaningful here.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A suite pinned at `cases`. `PROPTEST_CASES` may raise the
        /// count (the nightly deep sweep), never lower it.
        pub fn with_cases(cases: u32) -> Self {
            let env = std::env::var("PROPTEST_CASES").ok();
            ProptestConfig {
                cases: raised_cases(cases, env.as_deref()),
            }
        }
    }

    /// A positive `PROPTEST_CASES` value, if `env` holds one.
    fn env_cases(env: Option<&str>) -> Option<u32> {
        env.and_then(|v| v.parse().ok()).filter(|&c| c > 0)
    }

    /// Case count of a suite pinned at `pinned` under the
    /// `PROPTEST_CASES` value `env`: the larger of the two.
    pub fn raised_cases(pinned: u32, env: Option<&str>) -> u32 {
        env_cases(env).map_or(pinned, |c| c.max(pinned))
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real crate defaults to 256; 32 keeps the simulation-heavy
            // suites fast while still exercising varied inputs. Like the
            // real crate, `PROPTEST_CASES` replaces the count (nightly CI
            // sets it to get a deeper sweep without slowing PR runs).
            let env = std::env::var("PROPTEST_CASES").ok();
            ProptestConfig {
                cases: env_cases(env.as_deref()).unwrap_or(32),
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        /// Draw one value.
        fn r#gen(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn r#gen(&self, rng: &mut TestRng) -> T {
            (**self).r#gen(rng)
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn r#gen(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.r#gen(rng))
        }
    }

    /// Strategy that always yields a clone of the given value.
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn r#gen(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy backed by a generation closure (used by `prop_compose!`).
    pub struct FnStrategy<F>(F);

    impl<F> FnStrategy<F> {
        pub fn new(f: F) -> Self {
            FnStrategy(f)
        }
    }

    impl<T, F> Strategy for FnStrategy<F>
    where
        F: Fn(&mut TestRng) -> T,
    {
        type Value = T;
        fn r#gen(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice between boxed alternatives (used by `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn r#gen(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[i].r#gen(rng)
        }
    }

    /// Box a strategy for storage in a [`Union`].
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn r#gen(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % width;
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn r#gen(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    /// Types with a canonical "arbitrary value" generator.
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite, sign-symmetric spread over a broad magnitude range.
            (rng.next_f64() - 0.5) * 2e12
        }
    }

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> Self {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn r#gen(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// `any::<T>()` — arbitrary values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for vectors with lengths drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn r#gen(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.r#gen(rng);
            (0..n).map(|_| self.element.r#gen(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_compose, prop_oneof, proptest};
}

/// Define property tests. Each `name(pat in strategy, ...)` item expands
/// to an ordinary `#[test]` fn that draws `config.cases` samples.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $( $item:tt )*
    ) => {
        $crate::proptest! { @config ($cfg) $( $item )* }
    };
    (
        $(#[$meta:meta])*
        fn $( $item:tt )*
    ) => {
        $crate::proptest! {
            @config ($crate::test_runner::ProptestConfig::default())
            $(#[$meta])*
            fn $( $item )*
        }
    };
    (
        @config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $( $pat:pat in $strat:expr ),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_runner::TestRng::deterministic(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(
                        let $pat = $crate::strategy::Strategy::r#gen(&($strat), &mut __rng);
                    )+
                    $body
                }
            }
        )*
    };
}

/// Compose named sub-strategies into a derived strategy-returning fn.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident ( ) (
            $( $pat:pat in $strat:expr ),+ $(,)?
        ) -> $out:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name() -> impl $crate::strategy::Strategy<Value = $out> {
            $crate::strategy::FnStrategy::new(
                move |__rng: &mut $crate::test_runner::TestRng| {
                    $(
                        let $pat = $crate::strategy::Strategy::r#gen(&($strat), __rng);
                    )+
                    $body
                },
            )
        }
    };
}

/// Uniformly choose between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $( $strat:expr ),+ $(,)? ) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::boxed($strat) ),+
        ])
    };
}

/// Assertion inside a property body (no shrinking here, so plain assert).
#[macro_export]
macro_rules! prop_assert {
    ( $($tt:tt)* ) => { assert!($($tt)*) };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ( $($tt:tt)* ) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges_stay_in_bounds", 0);
        for _ in 0..200 {
            let v = Strategy::r#gen(&(5u64..17), &mut rng);
            assert!((5..17).contains(&v));
            let f = Strategy::r#gen(&(-2.0f64..3.0), &mut rng);
            assert!((-2.0..3.0).contains(&f));
            let i = Strategy::r#gen(&(-8i32..-1), &mut rng);
            assert!((-8..-1).contains(&i));
        }
    }

    #[test]
    fn proptest_cases_raises_pinned_suites_but_never_lowers_them() {
        use crate::test_runner::raised_cases;
        assert_eq!(raised_cases(16, None), 16);
        assert_eq!(raised_cases(16, Some("512")), 512);
        assert_eq!(raised_cases(16, Some("4")), 16);
        for junk in ["", "0", "-3", "many"] {
            assert_eq!(raised_cases(16, Some(junk)), 16, "{junk:?}");
        }
    }

    #[test]
    fn deterministic_per_name_and_case() {
        let a = TestRng::deterministic("x", 1).next_u64();
        let b = TestRng::deterministic("x", 1).next_u64();
        let c = TestRng::deterministic("x", 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro machinery itself: patterns, maps, vec, oneof.
        #[test]
        fn macro_surface_works(
            n in 1u32..10,
            mut v in crate::collection::vec(any::<u8>(), 0..16),
            pick in prop_oneof![(0u8..4).prop_map(|x| x * 2), Just(9u8)],
        ) {
            prop_assert!((1..10).contains(&n));
            // simlint: allow(unstable-sort) -- u8 keys are total; only sortedness is asserted
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(pick == 9 || pick % 2 == 0);
        }
    }
}
