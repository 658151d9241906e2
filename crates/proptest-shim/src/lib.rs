//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The build container cannot reach crates.io, so the real `proptest`
//! cannot be fetched. This shim keeps the property-test files
//! compiling and running unchanged: strategies generate random values
//! from a deterministic per-test seed and the [`proptest!`] macro runs
//! each property for `ProptestConfig::cases` cases. There is no
//! shrinking — a failing case panics with the generated values'
//! `Debug` form via the normal assertion message instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::Rng;

/// Re-exports used by macro expansions in downstream crates; not
/// public API.
#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;
}

/// Strategy combinators and generation plumbing.
pub mod strategy {
    use std::iter::Peekable;
    use std::str::Chars;

    use super::*;

    /// A generator of values for property tests.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always generates a clone of the same value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed alternative strategies
    /// (the engine behind [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// A union over `arms`; at least one arm is required.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            let k = rng.gen_range(0..self.arms.len());
            self.arms[k].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($s,)+) = self;
                    // Left-to-right generation order, like proptest.
                    $(let $v = $s.generate(rng);)+
                    ($($v,)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A / a);
    impl_tuple_strategy!(A / a, B / b);
    impl_tuple_strategy!(A / a, B / b, C / c);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);

    /// A strategy for "anything of type `T`" ([`any`]).
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value of the type.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.gen_bool(0.5)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.gen_range(<$t>::MIN..=<$t>::MAX)
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The whole-domain strategy for `T`, mirroring `proptest::any`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    /// String-pattern strategies: a `&str` acts as a simplified
    /// regex over one optional atom (`.` or a `[...]` class), an
    /// optional `{min,max}` repetition, and a literal suffix. This
    /// covers the patterns the workspace's fuzz tests use.
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut StdRng) -> String {
            generate_pattern(self, rng)
        }
    }

    /// The characters of a `[...]` class whose opening `[` was just
    /// consumed, in pattern order, consuming through the closing `]`.
    /// As in regex syntax, `a-z` is a range, and a `-` with no single
    /// character before it (first, or right after a range) or none
    /// after it (last) is a literal `-`.
    pub(crate) fn parse_class(chars: &mut Peekable<Chars<'_>>) -> Vec<char> {
        let mut class = Vec::new();
        // The last single character, which a following `-` turns into
        // the start of a range.
        let mut start: Option<char> = None;
        while let Some(k) = chars.next() {
            match k {
                ']' => break,
                '-' => match (start.take(), chars.peek()) {
                    (Some(lo), Some(&hi)) if hi != ']' => {
                        chars.next();
                        class.pop();
                        class.extend(lo..=hi);
                    }
                    _ => class.push('-'),
                },
                k => {
                    class.push(k);
                    start = Some(k);
                }
            }
        }
        class
    }

    pub(crate) fn generate_pattern(pattern: &str, rng: &mut StdRng) -> String {
        let mut out = String::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let atom: Atom = match c {
                '.' => Atom::Dot,
                '[' => Atom::Class(parse_class(&mut chars)),
                lit => Atom::Lit(lit),
            };
            // Optional {min,max} quantifier.
            let (min, max) = if chars.peek() == Some(&'{') {
                chars.next();
                let spec: String = chars.by_ref().take_while(|&k| k != '}').collect();
                let (a, b) = spec
                    .split_once(',')
                    .unwrap_or((spec.as_str(), spec.as_str()));
                (
                    a.trim().parse::<usize>().unwrap_or(0),
                    b.trim().parse::<usize>().unwrap_or(8),
                )
            } else {
                (1, 1)
            };
            let n = rng.gen_range(min..=max);
            for _ in 0..n {
                match &atom {
                    Atom::Dot => {
                        // Printable ASCII with occasional non-ASCII to
                        // exercise unicode handling.
                        if rng.gen_bool(0.05) {
                            out.push(['λ', 'é', '中', '\u{1F600}'][rng.gen_range(0..4usize)]);
                        } else {
                            out.push(char::from(rng.gen_range(0x20u8..0x7F)));
                        }
                    }
                    Atom::Class(set) => {
                        if !set.is_empty() {
                            out.push(set[rng.gen_range(0..set.len())]);
                        }
                    }
                    Atom::Lit(c) => out.push(*c),
                }
            }
        }
        out
    }

    enum Atom {
        Dot,
        Class(Vec<char>),
        Lit(char),
    }

    /// Run configuration, mirroring `proptest::test_runner::Config`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
        /// Accepted for API compatibility; this shim reports failing
        /// inputs as-is instead of shrinking them.
        pub max_shrink_iters: u32,
    }

    impl Default for Config {
        fn default() -> Config {
            Config {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    impl Config {
        /// The case count to actually run: a parseable
        /// `PROPTEST_CASES` environment variable overrides the
        /// configured value, so CI can deepen (nightly) or shorten a
        /// suite without editing test files.
        pub fn resolved_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(self.cases)
        }
    }

    /// Derives the deterministic base seed for a named property test.
    pub fn seed_for(test_name: &str) -> u64 {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Namespaced strategy constructors, mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;

        /// A strategy for vectors whose length is drawn from `len`.
        pub struct VecStrategy<S> {
            elem: S,
            min: usize,
            max_exclusive: usize,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut rand::rngs::StdRng) -> Vec<S::Value> {
                use rand::Rng;
                let n = rng.gen_range(self.min..self.max_exclusive);
                (0..n).map(|_| self.elem.generate(rng)).collect()
            }
        }

        /// `vec(elem, min..max)` — like `proptest::collection::vec`.
        pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
            assert!(!len.is_empty(), "vec length range must be non-empty");
            VecStrategy {
                elem,
                min: len.start,
                max_exclusive: len.end,
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use crate::strategy::Strategy;

        /// Uniform choice from a fixed set of values.
        pub struct Select<T: Clone>(Vec<T>);

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut rand::rngs::StdRng) -> T {
                use rand::Rng;
                self.0[rng.gen_range(0..self.0.len())].clone()
            }
        }

        /// `select(values)` — like `proptest::sample::select`.
        pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
            assert!(!values.is_empty(), "select needs at least one value");
            Select(values)
        }
    }

    /// Option strategies.
    pub mod option {
        use crate::strategy::Strategy;

        /// Generates `Some` about half the time.
        pub struct OptionStrategy<S>(S);

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn generate(&self, rng: &mut rand::rngs::StdRng) -> Option<S::Value> {
                use rand::Rng;
                if rng.gen_bool(0.5) {
                    Some(self.0.generate(rng))
                } else {
                    None
                }
            }
        }

        /// `of(inner)` — like `proptest::option::of`.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }
    }
}

/// What `use proptest::prelude::*` brings into scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Config as ProptestConfig, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice among alternative strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        let arms: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>,
        > = vec![$(::std::boxed::Box::new($arm)),+];
        $crate::strategy::Union::new(arms)
    }};
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property tests: each `fn name(pat in strategy, …) { … }`
/// becomes a `#[test]` running the body for `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::strategy::Config::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::strategy::Config = $cfg;
            let seed = $crate::strategy::seed_for(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.resolved_cases() {
                let mut rng = <$crate::__rt::StdRng as $crate::__rt::SeedableRng>::seed_from_u64(
                    seed ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        A,
        B,
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Tuple + map + oneof compose like the real crate.
        #[test]
        fn composed_strategies_generate(
            v in prop::collection::vec(0u8..32, 1..10),
            k in prop_oneof![Just(Kind::A), Just(Kind::B)],
            o in prop::option::of(1i32..512),
            (x, y) in (0usize..4, -4096i32..=4095),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 10);
            prop_assert!(v.iter().all(|&b| b < 32));
            prop_assert!(matches!(k, Kind::A | Kind::B));
            if let Some(imm) = o {
                prop_assert!((1..512).contains(&imm));
            }
            prop_assert!(x < 4);
            prop_assert!((-4096..=4095).contains(&y));
        }

        /// String patterns produce class-conforming text.
        #[test]
        fn string_patterns(s in "[a-zA-Z0-9_]{1,8} ", t in ".{0,200}") {
            prop_assert!(s.ends_with(' '));
            let stem = &s[..s.len() - 1];
            prop_assert!((1..=8).contains(&stem.chars().count()), "{s:?}");
            prop_assert!(stem.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
            prop_assert!(t.chars().count() <= 200);
        }
    }

    #[test]
    fn class_ranges_and_literal_hyphens() {
        use crate::strategy::{generate_pattern, parse_class};
        let class = |p: &str| parse_class(&mut p[1..].chars().peekable());
        let span = |lo: char, hi: char| (lo..=hi).collect::<Vec<char>>();
        // The classes the workspace's fuzz tests use, in draw order.
        assert_eq!(class("[ -~]"), span(' ', '~'));
        let mut hyphen_first = vec!['-'];
        hyphen_first.extend(span('a', 'z'));
        hyphen_first.extend(span('0', '9'));
        assert_eq!(class("[-a-z0-9]"), hyphen_first);
        let mut underscore = span('a', 'z');
        underscore.push('_');
        assert_eq!(class("[a-z_]"), underscore);
        // A `-` that ends the class, or follows a finished range, is a
        // literal.
        assert_eq!(class("[a-c-]"), ['a', 'b', 'c', '-']);
        assert_eq!(class("[a-c-e]"), ['a', 'b', 'c', '-', 'e']);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let drawn: String = (0..500)
            .map(|_| generate_pattern("[a-c-]{1,6}", &mut rng))
            .collect();
        assert!(drawn.contains('-'), "{drawn:?}");
        assert!(drawn.chars().all(|c| "abc-".contains(c)), "{drawn:?}");
    }

    #[test]
    fn select_draws_from_set() {
        use crate::strategy::Strategy;
        let s = prop::sample::select(vec![3, 5, 7]);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        for _ in 0..50 {
            assert!([3, 5, 7].contains(&s.generate(&mut rng)));
        }
    }

    #[test]
    fn cases_run_deterministically() {
        // Same named test ⇒ same seed ⇒ same stream.
        assert_eq!(
            crate::strategy::seed_for("a::b"),
            crate::strategy::seed_for("a::b")
        );
        assert_ne!(
            crate::strategy::seed_for("a::b"),
            crate::strategy::seed_for("a::c")
        );
    }
}
