//! Floating-point numbers with an explicit power-of-two exponent.
//!
//! Algorithm 1 of the paper multiplies element weights by `n^{1/r}` each
//! time they violate a basis; an element may be reweighted `Θ(νr)` times,
//! so weights reach `n^{Θ(ν)}` and the *total* weight `w(S)` sums `n` of
//! them. For `n = 10^6` and `ν = 12` this exceeds `f64::MAX`. [`ScaledF64`]
//! stores a mantissa in `[1, 2)` (or zero) plus an `i64` binary exponent,
//! giving the full `f64` mantissa precision at unbounded magnitude.
//!
//! `Add` and `Mul` are the hot operations (every sampled prefix step and
//! every weight update). Both operand mantissas lie in `[1, 2)`, so the
//! rounded sum or product lies in `[1, 4)`: one conditional halving
//! renormalizes it. [`ScaledF64::add_run`] is the streaming sampler's
//! run of prefix additions from a weight table. Once the prefix's
//! exponent is at least every table weight's, each addition is one plain
//! `f64` addition of a precomputed aligned mantissa, so the run keeps the
//! representation private and still adds bit for bit as `+=` does.

use std::cmp::Ordering;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// A non-negative extended-range float: `mantissa * 2^exp` with
/// `mantissa ∈ [1, 2)`, or exactly zero.
///
/// Only the operations the weighted-sampling machinery uses are
/// implemented: addition (and [`Sum`]), multiplication, comparison,
/// powers, logarithms, ratios, and conversion to and from `f64` (with
/// saturation).
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
    #[inline]
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

    /// `mantissa · 2^exp` renormalized by at most one halving: exact for
    /// a mantissa in `[1, 4)`, which is what `Add` and `Mul` produce from
    /// two mantissas in `[1, 2)`.
    #[inline]
    fn halved_once(mantissa: f64, exp: i64) -> Self {
        debug_assert!((1.0..4.0).contains(&mantissa));
        if mantissa >= 2.0 {
            Self {
                mantissa: mantissa * 0.5,
                exp: exp + 1,
            }
        } else {
            Self { mantissa, exp }
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

/// The largest exponent gap at which [`Add`] still aligns the smaller
/// operand; past it, the smaller one is below the precision of the
/// larger and drops out.
const MAX_SHIFT: i64 = 100;

/// The largest mantissa below 2: a sum of mantissas has reached 2 exactly
/// when it exceeds this.
const BELOW_TWO: f64 = 2.0 - f64::EPSILON;

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

impl PartialOrd for ScaledF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(match (self.is_zero(), other.is_zero()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => (self.exp, self.mantissa)
                .partial_cmp(&(other.exp, other.mantissa))
                .expect("mantissas are finite"),
        })
    }
}

impl Add for ScaledF64 {
    type Output = ScaledF64;
    #[inline]
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
        Self::halved_once(hi.mantissa + lo.mantissa * pow2_neg(shift), hi.exp)
    }
}

impl AddAssign for ScaledF64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl ScaledF64 {
    /// Adds `table[k]` for each key `k` of `keys`, in order, and stops
    /// after the first addend that lifts `self` above `stop` (never, for
    /// `None`). Returns how many keys it added: all of them if `stop` is
    /// not passed, and at least one unless `keys` is empty. The result is
    /// bit for bit that of `*self += table[k]` one key at a time, checking
    /// `stop < *self` after each.
    ///
    /// While `self` is nonzero and its exponent `e` is at least every
    /// table weight's, [`Add`] is `m + w.m · 2^(w.e − e)` (or leaves `m`
    /// unchanged past `MAX_SHIFT`) followed by at most one halving. So the
    /// run fills `rel[k]` with that aligned addend once per `e` and
    /// advances by the same `f64` addition per key. It leaves the tight
    /// loop only when `m` reaches 2, which moves `e`, or passes `stop`'s
    /// mantissa at the same exponent. `rel` is the caller's scratch.
    pub fn add_run(
        &mut self,
        table: &[ScaledF64],
        keys: &[u32],
        stop: Option<ScaledF64>,
        rel: &mut Vec<f64>,
    ) -> usize {
        let max_exp = table.iter().map(|w| w.exp).max().unwrap_or(i64::MIN);
        let passed = |acc: &ScaledF64| stop.is_some_and(|s| s < *acc);
        let mut done = 0;
        while done < keys.len() {
            if self.is_zero() || self.exp < max_exp {
                *self += table[keys[done] as usize];
                done += 1;
                if passed(self) {
                    return done;
                }
                continue;
            }
            let e = self.exp;
            rel.clear();
            rel.extend(table.iter().map(|w| {
                let shift = e - w.exp;
                if shift > MAX_SHIFT {
                    0.0
                } else {
                    w.mantissa * pow2_neg(shift)
                }
            }));
            // A sum above `lim` has reached 2 or passed `stop`; at or
            // below it, `self` stays at `e` and `stop` is not passed.
            let lim = match stop {
                Some(s) if s.is_zero() || s.exp < e => f64::NEG_INFINITY,
                Some(s) if s.exp == e => s.mantissa,
                _ => BELOW_TWO,
            };
            let run = &keys[done..];
            let mut m = self.mantissa;
            let crossed = run.iter().position(|&k| {
                m += rel[k as usize];
                m > lim
            });
            done += crossed.map_or(run.len(), |at| at + 1);
            *self = Self::halved_once(m, e);
            if crossed.is_some() && passed(self) {
                return done;
            }
        }
        done
    }
}

impl Mul for ScaledF64 {
    type Output = ScaledF64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        if self.is_zero() || rhs.is_zero() {
            return Self::ZERO;
        }
        Self::halved_once(self.mantissa * rhs.mantissa, self.exp + rhs.exp)
    }
}

impl Sum for ScaledF64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |acc, x| acc + x)
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

    /// `mantissa · 2^exp` normalized by halving and doubling until the
    /// mantissa lies in `[1, 2)`: the loop `Add` and `Mul` used before
    /// their one conditional halving.
    fn loop_normalized(mut mantissa: f64, mut exp: i64) -> ScaledF64 {
        if mantissa == 0.0 {
            return ScaledF64::ZERO;
        }
        while mantissa >= 2.0 {
            mantissa *= 0.5;
            exp += 1;
        }
        while mantissa < 1.0 {
            mantissa *= 2.0;
            exp -= 1;
        }
        ScaledF64 { mantissa, exp }
    }

    fn reference_add(a: ScaledF64, b: ScaledF64) -> ScaledF64 {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let (hi, lo) = if a.exp >= b.exp { (a, b) } else { (b, a) };
        let shift = hi.exp - lo.exp;
        if shift > MAX_SHIFT {
            return hi;
        }
        loop_normalized(hi.mantissa + lo.mantissa * (-(shift as f64)).exp2(), hi.exp)
    }

    fn reference_mul(a: ScaledF64, b: ScaledF64) -> ScaledF64 {
        if a.is_zero() || b.is_zero() {
            return ScaledF64::ZERO;
        }
        loop_normalized(a.mantissa * b.mantissa, a.exp + b.exp)
    }

    /// The representation's bits, so `0.0` and `-0.0` differ.
    fn bits(v: ScaledF64) -> (u64, i64) {
        (v.mantissa.to_bits(), v.exp)
    }

    #[test]
    fn add_and_mul_of_the_largest_mantissas_stay_below_four() {
        let top = ScaledF64 {
            mantissa: BELOW_TWO,
            exp: 1000,
        };
        assert_eq!(bits(top + top), bits(reference_add(top, top)));
        assert_eq!(bits(top * top), bits(reference_mul(top, top)));
        assert_eq!((top + top).mantissa, BELOW_TWO);
    }

    #[test]
    fn add_run_adds_as_one_add_per_key() {
        // Tables from 2^-1000 to 2^1000 and narrow ones, starting from
        // zero or a prefix already past the table, with stops at exactly
        // a prefix value the run reaches, inside the run, or never.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut r = StdRng::seed_from_u64(5);
        let mut rel = Vec::new();
        for case in 0..400 {
            let span = [0, 3, 40, 1000][case % 4];
            let table: Vec<ScaledF64> = (0..r.random_range(1..6))
                .map(|_| ScaledF64 {
                    mantissa: r.random_range(1.0..2.0),
                    exp: r.random_range(-span..=span),
                })
                .collect();
            let keys: Vec<u32> = (0..r.random_range(0..300))
                .map(|_| r.random_range(0..table.len() as u32))
                .collect();
            let start = if case % 3 == 0 {
                ScaledF64::ZERO
            } else {
                ScaledF64::exp2(f64::from(r.random_range(-5..5) * span as i32))
            };
            let mut prefixes = vec![start];
            for &k in &keys {
                let last = prefixes[prefixes.len() - 1];
                prefixes.push(reference_add(last, table[k as usize]));
            }
            let stop = match case % 5 {
                0 => None,
                1 => Some(ScaledF64::ZERO),
                _ => Some(prefixes[r.random_range(0..prefixes.len())]),
            };
            let want = (1..prefixes.len())
                .find(|&i| stop.is_some_and(|s| s < prefixes[i]))
                .unwrap_or(keys.len());
            let mut acc = start;
            assert_eq!(
                acc.add_run(&table, &keys, stop, &mut rel),
                want,
                "case {case}"
            );
            assert_eq!(bits(acc), bits(prefixes[want]), "case {case}");
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

        /// `Add` and `Mul` renormalize with one conditional halving; both
        /// equal the loop-normalized reference bit for bit, from
        /// magnitudes of 2^-1100 to 2^1100, at every alignment gap up to
        /// past `MAX_SHIFT`, and with zero operands.
        #[test]
        fn prop_add_and_mul_match_the_loop_normalized_reference(
            ma in 1.0f64..2.0,
            ea in -1100i64..1100,
            mb in 1.0f64..2.0,
            gap in -130i64..130,
            zero in 0u8..16,
        ) {
            let a = if zero == 0 { ScaledF64::ZERO } else { ScaledF64 { mantissa: ma, exp: ea } };
            let b = if zero == 1 { ScaledF64::ZERO } else { ScaledF64 { mantissa: mb, exp: ea + gap } };
            prop_assert_eq!(bits(a + b), bits(reference_add(a, b)));
            prop_assert_eq!(bits(b + a), bits(reference_add(b, a)));
            prop_assert_eq!(bits(a * b), bits(reference_mul(a, b)));
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
