//! Floating-point numbers with an explicit power-of-two exponent.
//!
//! Algorithm 1 of the paper multiplies element weights by `n^{1/r}` each
//! time they violate a basis; an element may be reweighted `Θ(νr)` times,
//! so weights reach `n^{Θ(ν)}` and the *total* weight `w(S)` sums `n` of
//! them. For `n = 10^6` and `ν = 12` this exceeds `f64::MAX`. [`ScaledF64`]
//! stores a mantissa in `[1, 2)` (or zero) plus an `i64` binary exponent,
//! giving the full `f64` mantissa precision at unbounded magnitude.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub};

/// A non-negative extended-range float: `mantissa * 2^exp` with
/// `mantissa ∈ [1, 2)`, or exactly zero.
///
/// Only the operations needed by the weighted-sampling machinery are
/// implemented: addition, multiplication, division, comparison, and
/// conversion to/from `f64` (with saturation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaledF64 {
    mantissa: f64,
    exp: i64,
}

impl ScaledF64 {
    /// Exactly zero.
    pub const ZERO: ScaledF64 = ScaledF64 {
        mantissa: 0.0,
        exp: 0,
    };
    /// Exactly one.
    pub const ONE: ScaledF64 = ScaledF64 {
        mantissa: 1.0,
        exp: 0,
    };

    /// Builds a scaled float from a plain non-negative `f64`.
    ///
    /// # Panics
    /// Panics if `v` is negative, NaN, or infinite — weights are always
    /// finite and non-negative, so such a value indicates a logic error
    /// upstream.
    pub fn from_f64(v: f64) -> Self {
        assert!(
            v.is_finite() && v >= 0.0,
            "ScaledF64 requires a finite non-negative value, got {v}"
        );
        if v == 0.0 {
            return Self::ZERO;
        }
        let (m, e) = frexp(v);
        // frexp returns m in [0.5, 1); renormalize to [1, 2).
        Self {
            mantissa: m * 2.0,
            exp: e - 1,
        }
    }

    /// `base^pow` for a non-negative base, computed in log space so that
    /// enormous powers (e.g. `(n^{1/r})^{a_i}`) do not overflow.
    pub fn powi(base: f64, pow: u32) -> Self {
        assert!(
            base.is_finite() && base > 0.0,
            "power base must be positive, got {base}"
        );
        if pow == 0 {
            return Self::ONE;
        }
        let log2 = base.log2() * f64::from(pow);
        Self::exp2(log2)
    }

    /// `2^x` as a scaled float, for any finite `x`.
    pub fn exp2(x: f64) -> Self {
        assert!(x.is_finite());
        let e = x.floor();
        let frac = x - e;
        Self {
            mantissa: frac.exp2(),
            exp: e as i64,
        }
        .normalized()
    }

    /// The value as a plain `f64`, saturating to `f64::MAX` / `0.0` when
    /// out of range. Use only for reporting.
    pub fn to_f64(self) -> f64 {
        if self.mantissa == 0.0 {
            return 0.0;
        }
        if self.exp > 1023 {
            return f64::MAX;
        }
        if self.exp < -1074 {
            return 0.0;
        }
        self.mantissa * (self.exp as f64).exp2()
    }

    /// Base-2 logarithm; `-inf` for zero.
    pub fn log2(self) -> f64 {
        if self.mantissa == 0.0 {
            f64::NEG_INFINITY
        } else {
            self.mantissa.log2() + self.exp as f64
        }
    }

    /// Natural logarithm; `-inf` for zero.
    pub fn ln(self) -> f64 {
        self.log2() * std::f64::consts::LN_2
    }

    /// True iff the value is exactly zero.
    pub fn is_zero(self) -> bool {
        self.mantissa == 0.0
    }

    /// The ratio `self / other` as an `f64`, saturating; `other` must be
    /// nonzero.
    pub fn ratio(self, other: Self) -> f64 {
        assert!(!other.is_zero(), "division by zero ScaledF64");
        if self.is_zero() {
            return 0.0;
        }
        let m = self.mantissa / other.mantissa;
        let e = self.exp - other.exp;
        if e > 1023 {
            f64::MAX
        } else if e < -1074 {
            0.0
        } else {
            m * (e as f64).exp2()
        }
    }

    fn normalized(mut self) -> Self {
        if self.mantissa == 0.0 {
            return Self::ZERO;
        }
        while self.mantissa >= 2.0 {
            self.mantissa *= 0.5;
            self.exp += 1;
        }
        while self.mantissa < 1.0 {
            self.mantissa *= 2.0;
            self.exp -= 1;
        }
        self
    }
}

/// The largest exponent gap at which [`Add`] and [`Sub`] still align the
/// smaller operand; past it, the smaller one is below the precision of the
/// larger and drops out.
const MAX_SHIFT: i64 = 100;

/// `2^-shift` for `0 ≤ shift ≤ MAX_SHIFT`, built from its exponent bits:
/// the value `(-(shift as f64)).exp2()` returns, bit for bit, without a
/// libm call. Every such power is a normal `f64` (biased exponent
/// `1023 − shift ≥ 923`), so the bits are exact.
#[inline]
fn pow2_neg(shift: i64) -> f64 {
    debug_assert!((0..=MAX_SHIFT).contains(&shift));
    f64::from_bits(((1023 - shift) as u64) << 52)
}

/// Decomposes a positive finite float into `(mantissa, exponent)` with
/// `mantissa ∈ [0.5, 1)` such that `v = mantissa * 2^exponent`.
fn frexp(v: f64) -> (f64, i64) {
    debug_assert!(v > 0.0 && v.is_finite());
    let bits = v.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i64;
    if raw_exp == 0 {
        // Subnormal: normalize by scaling up by 2^64 first.
        let (m, e) = frexp(v * (64f64).exp2());
        (m, e - 64)
    } else {
        let e = raw_exp - 1022;
        let m = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
        (m, e)
    }
}

impl Default for ScaledF64 {
    fn default() -> Self {
        Self::ZERO
    }
}

impl fmt::Display for ScaledF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            write!(f, "0")
        } else {
            write!(f, "{:.6}*2^{}", self.mantissa, self.exp)
        }
    }
}

impl PartialOrd for ScaledF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp_total(other))
    }
}

impl ScaledF64 {
    fn cmp_total(&self, other: &Self) -> Ordering {
        match (self.is_zero(), other.is_zero()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => (self.exp, self.mantissa)
                .partial_cmp(&(other.exp, other.mantissa))
                .expect("mantissas are finite"),
        }
    }
}

impl Add for ScaledF64 {
    type Output = ScaledF64;
    fn add(self, rhs: Self) -> Self {
        if self.is_zero() {
            return rhs;
        }
        if rhs.is_zero() {
            return self;
        }
        let (hi, lo) = if self.exp >= rhs.exp {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let shift = hi.exp - lo.exp;
        if shift > MAX_SHIFT {
            // The smaller addend is below the precision of the larger.
            return hi;
        }
        let m = hi.mantissa + lo.mantissa * pow2_neg(shift);
        Self {
            mantissa: m,
            exp: hi.exp,
        }
        .normalized()
    }
}

impl AddAssign for ScaledF64 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for ScaledF64 {
    type Output = ScaledF64;
    /// Saturating subtraction: results that would be negative clamp to zero
    /// (weights never go negative; tiny negative residue is cancellation
    /// noise).
    fn sub(self, rhs: Self) -> Self {
        if rhs.is_zero() {
            return self;
        }
        if rhs.cmp_total(&self) != Ordering::Less {
            return Self::ZERO;
        }
        let shift = self.exp - rhs.exp;
        if shift > MAX_SHIFT {
            return self;
        }
        let m = self.mantissa - rhs.mantissa * pow2_neg(shift);
        if m <= 0.0 {
            return Self::ZERO;
        }
        Self {
            mantissa: m,
            exp: self.exp,
        }
        .normalized()
    }
}

impl Mul for ScaledF64 {
    type Output = ScaledF64;
    fn mul(self, rhs: Self) -> Self {
        if self.is_zero() || rhs.is_zero() {
            return Self::ZERO;
        }
        Self {
            mantissa: self.mantissa * rhs.mantissa,
            exp: self.exp + rhs.exp,
        }
        .normalized()
    }
}

impl MulAssign for ScaledF64 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for ScaledF64 {
    type Output = ScaledF64;
    fn mul(self, rhs: f64) -> Self {
        self * ScaledF64::from_f64(rhs)
    }
}

impl Div for ScaledF64 {
    type Output = ScaledF64;
    fn div(self, rhs: Self) -> Self {
        assert!(!rhs.is_zero(), "division by zero ScaledF64");
        if self.is_zero() {
            return Self::ZERO;
        }
        Self {
            mantissa: self.mantissa / rhs.mantissa,
            exp: self.exp - rhs.exp,
        }
        .normalized()
    }
}

impl Sum for ScaledF64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
    }
}

impl From<f64> for ScaledF64 {
    fn from(v: f64) -> Self {
        Self::from_f64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn roundtrip_basic() {
        for v in [0.0, 1.0, 0.5, 3.25, 1e300, 1e-300, 123456.789] {
            assert!(close(ScaledF64::from_f64(v).to_f64(), v), "roundtrip {v}");
        }
    }

    #[test]
    fn add_matches_f64() {
        let a = ScaledF64::from_f64(3.5);
        let b = ScaledF64::from_f64(0.125);
        assert!(close((a + b).to_f64(), 3.625));
    }

    #[test]
    fn sum_of_many_ones() {
        let total: ScaledF64 = (0..1000).map(|_| ScaledF64::ONE).sum();
        assert!(close(total.to_f64(), 1000.0));
    }

    #[test]
    fn huge_powers_do_not_overflow() {
        // (10^6)^(1/2) raised to the 200th power = 10^600, beyond f64 range.
        let w = ScaledF64::powi(1e3, 200);
        assert!(close(w.log2(), 200.0 * 1e3f64.log2()));
        assert_eq!(w.to_f64(), f64::MAX); // saturates
    }

    #[test]
    fn ratio_of_huge_values() {
        let a = ScaledF64::powi(10.0, 500);
        let b = ScaledF64::powi(10.0, 499);
        assert!(close(a.ratio(b), 10.0));
    }

    #[test]
    fn sub_saturates_at_zero() {
        let a = ScaledF64::from_f64(1.0);
        let b = ScaledF64::from_f64(2.0);
        assert!((a - b).is_zero());
        assert!(close((b - a).to_f64(), 1.0));
    }

    #[test]
    fn ordering() {
        let a = ScaledF64::from_f64(1.0);
        let b = ScaledF64::powi(2.0, 100);
        assert!(a < b);
        assert!(ScaledF64::ZERO < a);
        assert_eq!(
            ScaledF64::ZERO.partial_cmp(&ScaledF64::ZERO),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn add_with_large_magnitude_gap_keeps_larger() {
        let big = ScaledF64::powi(2.0, 400);
        let one = ScaledF64::ONE;
        let s = big + one;
        assert!(close(s.log2(), 400.0));
    }

    #[test]
    fn exp2_fractional() {
        assert!(close(ScaledF64::exp2(0.5).to_f64(), 2f64.sqrt()));
        assert!(close(ScaledF64::exp2(-3.0).to_f64(), 0.125));
    }

    #[test]
    fn bit_built_powers_match_libm_exp2() {
        for shift in 0..=MAX_SHIFT {
            assert_eq!(
                pow2_neg(shift).to_bits(),
                (-(shift as f64)).exp2().to_bits(),
                "2^-{shift}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_rejected() {
        let _ = ScaledF64::from_f64(-1.0);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in 0.0f64..1e30) {
            prop_assert!(close(ScaledF64::from_f64(v).to_f64(), v));
        }

        #[test]
        fn prop_add_commutes(a in 0.0f64..1e20, b in 0.0f64..1e20) {
            let x = ScaledF64::from_f64(a) + ScaledF64::from_f64(b);
            let y = ScaledF64::from_f64(b) + ScaledF64::from_f64(a);
            prop_assert!(close(x.to_f64(), y.to_f64()));
            prop_assert!(close(x.to_f64(), a + b));
        }

        #[test]
        fn prop_mul_matches(a in 1e-10f64..1e10, b in 1e-10f64..1e10) {
            let x = ScaledF64::from_f64(a) * ScaledF64::from_f64(b);
            prop_assert!(close(x.to_f64(), a * b));
        }

        #[test]
        fn prop_ordering_matches_f64(a in 0.0f64..1e30, b in 0.0f64..1e30) {
            let (sa, sb) = (ScaledF64::from_f64(a), ScaledF64::from_f64(b));
            prop_assert_eq!(sa.partial_cmp(&sb), a.partial_cmp(&b));
        }

        /// Scaling by a total is monotone in the scaled value: every
        /// rounding step of `Mul` is, so sorting uniforms and then scaling
        /// them yields the same sequence as scaling and then sorting.
        #[test]
        fn prop_scaling_is_monotone_in_the_uniform(
            a in 0.0f64..1.0,
            b in 0.0f64..1.0,
            m in 1.0f64..2.0,
            e in -1100i64..1100,
        ) {
            let total = ScaledF64::from_f64(m) * ScaledF64::exp2(e as f64);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                total * ScaledF64::from_f64(lo) <= total * ScaledF64::from_f64(hi)
            );
        }

        #[test]
        fn prop_log2_of_powi(base in 1.001f64..100.0, pow in 0u32..1000) {
            let w = ScaledF64::powi(base, pow);
            let expect = base.log2() * f64::from(pow);
            prop_assert!((w.log2() - expect).abs() <= 1e-6 * expect.max(1.0));
        }
    }
}
