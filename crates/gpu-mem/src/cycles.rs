//! Whole-cycle conversions of float cycle counts.
//!
//! Bandwidth pipes and rate models compute fractional cycle counts and
//! round them to whole cycles. On the baseline x86-64 target `f64::ceil`
//! and `f64::round` are libm calls; these helpers give the same answers
//! from the truncating cast and one compare, added without a branch (a
//! branch on the fraction of a random value mispredicts half the time).
//! Both are exact for every input and saturate like the `as` cast:
//! negative and NaN inputs give 0, inputs past `u64::MAX` give `u64::MAX`.

use crate::Cycle;

/// `x.ceil() as Cycle`: the truncating cast, plus one when a fraction was
/// cut off.
#[inline]
pub fn ceil_cycles(x: f64) -> Cycle {
    let whole = x as Cycle;
    whole.saturating_add(Cycle::from((whole as f64) < x))
}

/// `x.round() as Cycle` (halves away from zero): the truncating cast, plus
/// one when the cut fraction is at least one half. The fraction
/// `x - whole` is exact: `whole` is 0 below 1, and from 1 up to 2^64 it is
/// within a factor of two of `x` (Sterbenz's lemma).
#[inline]
pub fn round_cycles(x: f64) -> Cycle {
    let whole = x as Cycle;
    whole.saturating_add(Cycle::from(x - whole as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Both helpers against the libm answers at one input.
    fn check(x: f64) {
        assert_eq!(ceil_cycles(x), x.ceil() as Cycle, "ceil of {x:e} ({:#x})", x.to_bits());
        assert_eq!(round_cycles(x), x.round() as Cycle, "round of {x:e} ({:#x})", x.to_bits());
    }

    #[test]
    fn edge_values_match_libm() {
        let small = [0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 2.0 - 1e-12, 4_096.000_001];
        let below_half = [0.499_999_999_999_999_94, 0.5 - f64::EPSILON, 1.5 - 2.0 * f64::EPSILON];
        let negative = [-0.4, -0.5, -0.6, -3.2, -1e30, f64::NEG_INFINITY];
        let two52 = (1u64 << 52) as f64;
        let huge = [
            two52 - 0.5,
            two52 - 1.5,
            two52,
            two52 + 1.0,
            9_007_199_254_740_993.0,
            1.8e19,
            u64::MAX as f64,
            1e30,
            f64::MAX,
            f64::INFINITY,
        ];
        for x in small.into_iter().chain(below_half).chain(negative).chain(huge) {
            check(x);
        }
        check(f64::NAN);
        check(-f64::NAN);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4_096, ..ProptestConfig::default() })]

        /// Every non-negative double from 0 to 2^66, drawn by bit pattern
        /// (positive doubles order like their bits), so every binade is hit.
        #[test]
        fn non_negative_doubles_match_libm(bits in 0u64..=0x4410_0000_0000_0000) {
            check(f64::from_bits(bits));
        }

        /// Exact halves `n + 0.5` up to 2^52, where rounding turns on the
        /// compare, and their neighbours one ulp either side.
        #[test]
        fn exact_halves_match_libm(n in 0u64..(1 << 52)) {
            let half = n as f64 + 0.5;
            check(half);
            check(f64::from_bits(half.to_bits() - 1));
            check(f64::from_bits(half.to_bits() + 1));
        }

        /// Integers from 2^52 to 2^64, where a double carries no fraction.
        #[test]
        fn large_integers_match_libm(n in (1u64 << 52)..=u64::MAX) {
            check(n as f64);
        }
    }
}
