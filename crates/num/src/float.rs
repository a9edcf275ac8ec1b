//! Floating-point tolerance helpers shared by the geometric solvers.
//!
//! All floating-point solvers in the workspace compare quantities against a
//! *relative* tolerance scaled by the magnitudes involved, so that the same
//! code is robust for constraints with coefficients of order `1` and of
//! order `10^6` (the lower-bound instances reach such slopes).

/// Default relative tolerance used by the floating-point LP/QP/MEB solvers.
pub const DEFAULT_EPS: f64 = 1e-9;

/// True iff `a` and `b` are equal up to `eps` relative to their magnitude.
#[inline]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps * a.abs().max(b.abs()).max(1.0)
}

/// Compares two vectors lexicographically with tolerance: positions that are
/// `approx_eq` are treated as ties.
///
/// # Panics
/// Panics if the lengths differ.
pub fn lex_cmp(a: &[f64], b: &[f64], eps: f64) -> std::cmp::Ordering {
    assert_eq!(a.len(), b.len(), "lex_cmp of mismatched lengths");
    for i in 0..a.len() {
        if approx_eq(a[i], b[i], eps) {
            continue;
        }
        return a[i].partial_cmp(&b[i]).expect("non-NaN values");
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(approx_eq(0.0, 1e-12, 1e-9));
    }

    #[test]
    fn lex_cmp_orders() {
        assert_eq!(lex_cmp(&[1.0, 2.0], &[1.0, 3.0], 1e-9), Ordering::Less);
        assert_eq!(lex_cmp(&[1.0, 3.0], &[1.0, 2.0], 1e-9), Ordering::Greater);
        assert_eq!(
            lex_cmp(&[1.0, 2.0], &[1.0 + 1e-13, 2.0], 1e-9),
            Ordering::Equal
        );
    }
}
