//! A small in-repo property-check harness: seeded random-input generation
//! plus a `forall` runner, replacing the external property-testing
//! dependency for the workspace's property suites.
//!
//! Deliberately minimal — no shrinking, no persistence files. What it
//! keeps from the usual property-testing workflow:
//!
//! * fully deterministic cases: case `k` of a property always sees the
//!   same inputs (seeds derive from a fixed base via [`child_seed`]), so
//!   a failure reproduces by just re-running the test;
//! * a failure report naming the property, the case index, and the case
//!   seed alongside the assertion message.
//!
//! Usage:
//!
//! ```
//! use rpas_tsmath::propcheck::forall;
//! use rpas_tsmath::prop_assert;
//!
//! forall("abs_is_nonnegative", 64, |g| {
//!     let x = g.f64_in(-100.0, 100.0);
//!     prop_assert!(x.abs() >= 0.0, "|{x}| < 0");
//!     Ok(())
//! });
//! ```

use crate::rng::{child_seed, seeded, uniform, uniform_index, Rng64, RngCore};

/// Base seed for property cases; any fixed constant works, it only has to
/// be the same on every run.
const BASE_SEED: u64 = 0x5250_4153_5043_4b31; // "RPAS" "PCK1"

/// Random-input generator handed to each property case.
pub struct Gen {
    rng: Rng64,
}

impl Gen {
    /// Generator for one case, from its case seed.
    pub(crate) fn new(seed: u64) -> Self {
        Self { rng: seeded(seed) }
    }

    /// A raw `u64` (the `any::<u64>()` of the old suites).
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A raw byte.
    pub fn u8(&mut self) -> u8 {
        (self.rng.next_u64() >> 56) as u8
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and both are finite.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad f64 range [{lo}, {hi})");
        lo + uniform(&mut self.rng) * (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "bad usize range [{lo}, {hi})");
        lo + uniform_index(&mut self.rng, hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.usize_in(lo as usize, hi as usize) as u32
    }

    /// A `Vec<f64>` with uniform elements in `[lo, hi)` and a length drawn
    /// from `[min_len, max_len)`.
    pub fn vec_f64(&mut self, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
        let n = self.usize_in(min_len, max_len);
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }

    /// A `Vec<u8>` of arbitrary bytes with a length drawn from
    /// `[min_len, max_len)`.
    pub fn vec_u8(&mut self, min_len: usize, max_len: usize) -> Vec<u8> {
        let n = self.usize_in(min_len, max_len);
        (0..n).map(|_| self.u8()).collect()
    }
}

/// Run `prop` against `cases` deterministic random cases, panicking with
/// the property name, case index, and case seed on the first failure.
///
/// Properties report failure by returning `Err(message)`; the
/// [`prop_assert!`](crate::prop_assert) / [`prop_assert_eq!`](crate::prop_assert_eq)
/// macros build that message. Returning `Err` with the sentinel produced
/// by [`prop_discard`] skips a case instead (the old `prop_assume!`).
#[expect(clippy::panic, reason = "a failed property panics in the calling test, like an assert")]
pub fn forall<F>(name: &str, cases: u32, mut prop: F)
where
    F: FnMut(&mut Gen) -> Result<(), String>,
{
    for case in 0..cases {
        let seed = child_seed(BASE_SEED, case as u64);
        let mut g = Gen::new(seed);
        match prop(&mut g) {
            Ok(()) => {}
            Err(msg) if msg == DISCARD => {}
            Err(msg) => {
                panic!("property '{name}' failed on case {case}/{cases} (seed {seed:#x}): {msg}")
            }
        }
    }
}

/// Sentinel message for a discarded (skipped) case.
pub(crate) const DISCARD: &str = "__propcheck_discard__";

/// `Err` value that makes [`forall`] skip the current case — an
/// "assume"-style escape hatch for inputs the property does not apply
/// to.
pub fn prop_discard() -> Result<(), String> {
    Err(DISCARD.to_string())
}

/// Assert a condition inside a [`forall`] property; on failure the case
/// returns `Err` with the stringified condition (or a custom format
/// message) instead of panicking, so the runner can attach case context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Equality assertion inside a [`forall`] property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<f64> = Vec::new();
        forall("collect", 8, |g| {
            first.push(g.f64_in(0.0, 1.0));
            Ok(())
        });
        let mut second: Vec<f64> = Vec::new();
        forall("collect", 8, |g| {
            second.push(g.f64_in(0.0, 1.0));
            Ok(())
        });
        assert_eq!(first, second);
    }

    #[test]
    fn generators_respect_ranges() {
        forall("ranges", 128, |g| {
            let x = g.f64_in(-3.0, 7.0);
            prop_assert!((-3.0..7.0).contains(&x), "f64 {x} out of range");
            let n = g.usize_in(2, 9);
            prop_assert!((2..9).contains(&n), "usize {n} out of range");
            let v = g.vec_f64(0.0, 1.0, 1, 5);
            prop_assert!(!v.is_empty() && v.len() < 5);
            let b = g.vec_u8(0, 4);
            prop_assert!(b.len() < 4);
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "property 'always_fails' failed on case 0")]
    fn failure_reports_name_and_case() {
        forall("always_fails", 4, |_| Err("boom".to_string()));
    }

    #[test]
    fn discard_skips_cases() {
        let mut ran = 0;
        forall("discard_half", 16, |g| {
            if g.f64_in(0.0, 1.0) < 0.5 {
                return prop_discard();
            }
            ran += 1;
            Ok(())
        });
        assert!(ran > 0 && ran < 16);
    }

    #[test]
    fn macros_compose_in_properties() {
        forall("macros", 16, |g| {
            let a = g.usize_in(0, 10);
            prop_assert_eq!(a + 1, 1 + a);
            prop_assert!(a < 10, "a={a} too big");
            Ok(())
        });
    }
}
