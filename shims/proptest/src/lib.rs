//! Offline drop-in subset of `proptest`.
//!
//! The build environment has no access to crates.io, so this shim
//! implements the slice of proptest this workspace uses: the
//! [`Strategy`] trait with `prop_map`, strategies for integer/float
//! ranges, tuples, `any::<T>()`, `collection::vec`, `char::any()`,
//! regex-shaped string patterns of the form `"[class]{lo,hi}"`, the
//! [`proptest!`] macro with `#![proptest_config(..)]`, and
//! `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case panics immediately; the drop guard
//!   prints the generated inputs so the case can be reconstructed.
//! * **Deterministic seeding.** Cases derive from a fixed seed plus the
//!   test name, so runs are reproducible without a persistence file
//!   (`.proptest-regressions` files are ignored).

use rand::rngs::StdRng;
use rand::Rng;

/// Re-exports that `use proptest::prelude::*` is expected to provide.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestRng,
    };
}

/// The per-test RNG handed to strategies.
pub type TestRng = StdRng;

/// Subset of proptest's run configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
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

/// A generator of values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Map the generated value through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

macro_rules! int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for core::ops::Range<$ty> {
            type Value = $ty;
            fn new_value(&self, rng: &mut TestRng) -> $ty {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn new_value(&self, rng: &mut TestRng) -> $ty {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(u32, u64, usize, i32, i64);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);

/// `&str` patterns act as regex-shaped string strategies. Only the
/// `[class]{lo,hi}` and `.{lo,hi}` shapes (a single character class or
/// the any-char dot, with a repetition count) are supported; anything
/// else panics so misuse is loud.
impl Strategy for &str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        if let Some((lo, hi)) = parse_dot_pattern(self) {
            let len = rng.gen_range(lo..=hi);
            let any = crate::char::any();
            return (0..len).map(|_| any.new_value(rng)).collect();
        }
        let (chars, lo, hi) = parse_class_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string pattern `{self}` (shim)"));
        let len = rng.gen_range(lo..=hi);
        (0..len)
            .map(|_| chars[rng.gen_range(0..chars.len())])
            .collect()
    }
}

/// Parse `.{lo,hi}` into (lo, hi).
fn parse_dot_pattern(pat: &str) -> Option<(usize, usize)> {
    let counts = pat
        .strip_prefix('.')?
        .strip_prefix('{')?
        .strip_suffix('}')?;
    match counts.split_once(',') {
        Some((a, b)) => Some((a.parse().ok()?, b.parse().ok()?)),
        None => {
            let n: usize = counts.parse().ok()?;
            Some((n, n))
        }
    }
}

/// Parse `[...]{lo,hi}` into (alphabet, lo, hi).
fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = {
        // Find the unescaped closing bracket.
        let mut idx = None;
        let mut escape = false;
        for (i, c) in rest.char_indices() {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == ']' {
                idx = Some(i);
                break;
            }
        }
        idx?
    };
    let class: Vec<char> = {
        let mut out = Vec::new();
        let body: Vec<char> = rest[..close].chars().collect();
        let mut i = 0;
        while i < body.len() {
            match body[i] {
                '\\' if i + 1 < body.len() => {
                    out.push(body[i + 1]);
                    i += 2;
                }
                a if i + 2 < body.len() && body[i + 1] == '-' => {
                    for c in a..=body[i + 2] {
                        out.push(c);
                    }
                    i += 3;
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        out
    };
    let counts = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = match counts.split_once(',') {
        Some((a, b)) => (a.parse().ok()?, b.parse().ok()?),
        None => {
            let n = counts.parse().ok()?;
            (n, n)
        }
    };
    if class.is_empty() {
        return None;
    }
    Some((class, lo, hi))
}

/// `any::<T>()`: the full-range strategy for primitives.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(core::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Clone, Copy, Debug)]
pub struct AnyStrategy<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a canonical full-range generator.
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_uint {
    ($($ty:ty : $m:ident),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rand::RngCore::$m(rng) as $ty
            }
        }
    )*};
}

arbitrary_uint!(u8: next_u32, u16: next_u32, u32: next_u32, u64: next_u64, usize: next_u64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rand::RngCore::next_u32(rng) & 1 == 1
    }
}

pub mod collection {
    //! Collection strategies.
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// `vec(element, size_range)`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start >= self.size.end {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod char {
    //! Character strategies.
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Any valid `char` (uniform over scalar values, surrogates skipped).
    pub fn any() -> CharStrategy {
        CharStrategy
    }

    /// Strategy returned by [`any`].
    #[derive(Clone, Copy, Debug)]
    pub struct CharStrategy;

    impl Strategy for CharStrategy {
        type Value = char;
        fn new_value(&self, rng: &mut TestRng) -> char {
            // Bias half the draws towards ASCII: parser-robustness style
            // consumers overwhelmingly care about printable input, and
            // the real crate biases similarly.
            if rng.gen_bool(0.5) {
                return core::char::from_u32(rng.gen_range(0x20u32..0x7f)).unwrap();
            }
            loop {
                if let Some(c) = core::char::from_u32(rng.gen_range(0u32..=0x10FFFF)) {
                    return c;
                }
            }
        }
    }
}

pub mod test_runner {
    //! Support machinery used by the [`crate::proptest!`] expansion.
    use super::TestRng;
    use rand::SeedableRng;

    /// FNV-1a, used to derive a per-test seed from the test's name.
    pub fn seed_for(name: &str, case: u32) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng::seed_from_u64(h ^ ((case as u64) << 32) ^ 0x5EED)
    }

    /// Prints the failing case's inputs if the test body panics.
    pub struct PanicGuard {
        info: String,
        armed: bool,
    }

    impl PanicGuard {
        /// Arm a guard describing the current case.
        pub fn new(info: String) -> Self {
            PanicGuard { info, armed: true }
        }
        /// The case completed; do not report on drop.
        pub fn disarm(&mut self) {
            self.armed = false;
        }
    }

    impl Drop for PanicGuard {
        fn drop(&mut self) {
            if self.armed && std::thread::panicking() {
                eprintln!("proptest case failed with inputs:\n{}", self.info);
            }
        }
    }
}

/// The property-test macro. Each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$attr:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::seed_for(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                // Generate into a tuple first so the failing inputs can
                // be reported even when the patterns destructure them.
                let __vals = ( $($crate::Strategy::new_value(&$strat, &mut rng),)+ );
                let mut guard = $crate::test_runner::PanicGuard::new(format!(
                    concat!("  case #{}\n  (", stringify!($($arg),+), ") = {:?}"),
                    case, &__vals,
                ));
                let ( $($arg,)+ ) = __vals;
                $body
                guard.disarm();
            }
        }
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
}

/// `prop_assert!`: assert inside a property (panics in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// `prop_assert_eq!`: assert_eq inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::seed_for;

    #[test]
    fn class_pattern_parses() {
        let (chars, lo, hi) = parse_class_pattern("[a-c0-1 \\]x-]{0,40}").unwrap();
        assert_eq!(lo, 0);
        assert_eq!(hi, 40);
        for c in ['a', 'b', 'c', '0', '1', ' ', ']', 'x', '-'] {
            assert!(chars.contains(&c), "missing {c:?}");
        }
    }

    #[test]
    fn string_strategy_respects_bounds() {
        let mut rng = seed_for("string_strategy", 0);
        for _ in 0..100 {
            let s = "[ab]{2,5}".new_value(&mut rng);
            assert!((2..=5).contains(&s.chars().count()));
            assert!(s.chars().all(|c| c == 'a' || c == 'b'));
        }
    }

    #[test]
    fn map_and_tuples_compose() {
        let strat = (1usize..5, 0.0f64..1.0).prop_map(|(n, f)| (n * 2, f));
        let mut rng = seed_for("map_tuples", 0);
        for _ in 0..50 {
            let (n, f) = strat.new_value(&mut rng);
            assert!(n % 2 == 0 && (2..10).contains(&n));
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let strat = collection::vec(0u32..10, 0..4);
        let mut rng = seed_for("vec_sizes", 0);
        for _ in 0..50 {
            let v = strat.new_value(&mut rng);
            assert!(v.len() < 4);
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_smoke(x in 0u32..100, v in collection::vec(0u32..10, 0..3)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.iter().filter(|&&e| e >= 10).count(), 0);
        }
    }
}
