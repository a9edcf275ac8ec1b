//! Exact rational arithmetic over `i128`.
//!
//! The lower-bound construction of Section 5 builds curves whose slopes grow
//! as `N^{O(r)}`; the paper notes (end of Section 5.3.5) that the
//! bit-complexity stays `O(log n)`, so `i128` numerators/denominators are
//! ample for every parameter range we generate, and all arithmetic is
//! checked: an overflow is a hard error rather than silent wraparound.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An exact rational `num / den` in lowest terms with `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Builds `num / den`, reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        debug_assert!(g > 0);
        let g = g as i128;
        Rat {
            num: sign * num / g,
            den: den.abs() / g,
        }
    }

    /// The integer `n` as a rational.
    pub const fn from_int(n: i128) -> Self {
        Rat { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub fn num(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(self) -> i128 {
        self.den
    }

    /// Approximate value as `f64` (for reporting only).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Floor to the nearest integer at or below.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Ceiling to the nearest integer at or above.
    pub fn ceil(self) -> i128 {
        -(-self).floor()
    }

    /// Absolute value.
    pub fn abs(self) -> Self {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(self) -> Self {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    fn checked_new(num: Option<i128>, den: Option<i128>) -> Self {
        let (num, den) = (
            num.expect("rational arithmetic overflowed i128"),
            den.expect("rational arithmetic overflowed i128"),
        );
        Rat::new(num, den)
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b.max(1);
    }
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Self) -> Rat {
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b/g*d) with g = gcd(b, d),
        // keeping intermediates small.
        let g = gcd(self.den.unsigned_abs(), rhs.den.unsigned_abs()) as i128;
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self.num.checked_mul(lhs_scale).and_then(|x| {
            rhs.num
                .checked_mul(rhs_scale)
                .and_then(|y| x.checked_add(y))
        });
        let den = self.den.checked_mul(lhs_scale);
        Rat::checked_new(num, den)
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Self) -> Rat {
        self + (-rhs)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Self) -> Rat {
        // Cross-reduce before multiplying to delay overflow.
        let g1 = gcd(self.num.unsigned_abs(), rhs.den.unsigned_abs()) as i128;
        let g2 = gcd(rhs.num.unsigned_abs(), self.den.unsigned_abs()) as i128;
        let num = (self.num / g1).checked_mul(rhs.num / g2);
        let den = (self.den / g2).checked_mul(rhs.den / g1);
        Rat::checked_new(num, den)
    }
}

impl Div for Rat {
    type Output = Rat;
    // Division by the reciprocal is the definition, not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Rat {
        self * rhs.recip()
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b ? c/d via a*d ? c*b; denominators are positive.
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(l), Some(r)) => l.cmp(&r),
            // Overflow fallback: compare via f64 first, exact continued
            // fraction if too close. In our parameter ranges this branch is
            // unreachable; keep a conservative exact path anyway.
            _ => cmp_exact_slow(*self, *other),
        }
    }
}

/// Exact comparison via the Stern–Brocot / continued-fraction expansion,
/// immune to overflow (uses only division and remainder).
fn cmp_exact_slow(mut a: Rat, mut b: Rat) -> Ordering {
    loop {
        let (qa, ra) = (a.num.div_euclid(a.den), a.num.rem_euclid(a.den));
        let (qb, rb) = (b.num.div_euclid(b.den), b.num.rem_euclid(b.den));
        match qa.cmp(&qb) {
            Ordering::Equal => {}
            o => return o,
        }
        match (ra == 0, rb == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {
                // a' = den_a/ra, b' = den_b/rb, comparison flips.
                let na = Rat {
                    num: a.den,
                    den: ra,
                };
                let nb = Rat {
                    num: b.den,
                    den: rb,
                };
                a = nb;
                b = na;
            }
        }
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Self {
        Rat::from_int(n)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Self {
        Rat::from_int(n as i128)
    }
}

impl From<i32> for Rat {
    fn from(n: i32) -> Self {
        Rat::from_int(n as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reduces_to_lowest_terms() {
        let r = Rat::new(6, -4);
        assert_eq!(r.num(), -3);
        assert_eq!(r.den(), 2);
    }

    #[test]
    fn arithmetic_basics() {
        let half = Rat::new(1, 2);
        let third = Rat::new(1, 3);
        assert_eq!(half + third, Rat::new(5, 6));
        assert_eq!(half - third, Rat::new(1, 6));
        assert_eq!(half * third, Rat::new(1, 6));
        assert_eq!(half / third, Rat::new(3, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
    }

    #[test]
    fn ordering_simple() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
    }

    #[test]
    fn slow_cmp_agrees() {
        let pairs = [
            (Rat::new(355, 113), Rat::new(22, 7)),
            (Rat::new(-3, 7), Rat::new(-4, 9)),
            (Rat::new(5, 1), Rat::new(5, 1)),
            (Rat::new(0, 3), Rat::new(1, 1000)),
        ];
        for (a, b) in pairs {
            assert_eq!(cmp_exact_slow(a, b), a.cmp(&b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_rejected() {
        let _ = Rat::new(1, 0);
    }

    proptest! {
        #[test]
        fn prop_add_matches_f64(a in -1000i128..1000, b in 1i128..100,
                                c in -1000i128..1000, d in 1i128..100) {
            let x = Rat::new(a, b) + Rat::new(c, d);
            let expect = a as f64 / b as f64 + c as f64 / d as f64;
            prop_assert!((x.to_f64() - expect).abs() < 1e-9);
        }

        #[test]
        fn prop_field_axioms(a in -100i128..100, b in 1i128..50,
                             c in -100i128..100, d in 1i128..50) {
            let (x, y) = (Rat::new(a, b), Rat::new(c, d));
            prop_assert_eq!(x + y, y + x);
            prop_assert_eq!(x * y, y * x);
            prop_assert_eq!(x + Rat::ZERO, x);
            prop_assert_eq!(x * Rat::ONE, x);
            prop_assert_eq!(x - x, Rat::ZERO);
            if y != Rat::ZERO {
                prop_assert_eq!((x / y) * y, x);
            }
        }

        #[test]
        fn prop_cmp_matches_f64(a in -10000i128..10000, b in 1i128..1000,
                                c in -10000i128..10000, d in 1i128..1000) {
            let (x, y) = (Rat::new(a, b), Rat::new(c, d));
            let (fx, fy) = (a as f64 / b as f64, c as f64 / d as f64);
            if (fx - fy).abs() > 1e-9 {
                prop_assert_eq!(x < y, fx < fy);
            }
        }

        #[test]
        fn prop_floor_bounds(a in -100000i128..100000, b in 1i128..1000) {
            let r = Rat::new(a, b);
            let f = r.floor();
            prop_assert!(Rat::from_int(f) <= r);
            prop_assert!(r < Rat::from_int(f + 1));
        }

        #[test]
        fn prop_slow_cmp_agrees(a in -10000i128..10000, b in 1i128..1000,
                                c in -10000i128..10000, d in 1i128..1000) {
            let (x, y) = (Rat::new(a, b), Rat::new(c, d));
            prop_assert_eq!(cmp_exact_slow(x, y), x.cmp(&y));
        }
    }
}
