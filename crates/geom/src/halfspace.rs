//! Halfspaces `a·x ≤ b` and the predicates on them.

use llp_num::float::DEFAULT_EPS;
use llp_num::linalg::dot;
use serde::{Deserialize, Serialize};

/// A point in `R^d`, stored densely.
pub type Point = Vec<f64>;

/// The closed halfspace `{ x ∈ R^d : a·x ≤ b }`.
///
/// This is both a geometric object and "one LP constraint"; the paper's set
/// `S_X ⊆ R` of Property (P1) is exactly the point set of this halfspace.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Halfspace {
    /// Constraint normal `a` (the coefficients `a^j_i` of Eq. (5)).
    pub a: Vec<f64>,
    /// Right-hand side `b^j`.
    pub b: f64,
}

impl Clone for Halfspace {
    fn clone(&self) -> Self {
        Halfspace {
            a: self.a.clone(),
            b: self.b,
        }
    }

    // Field-wise so `Vec::clone_from` reuses the existing normal buffer;
    // the derive's `*self = source.clone()` would reallocate, defeating
    // the solver's scratch-arena reuse of net constraints.
    fn clone_from(&mut self, source: &Self) {
        self.a.clone_from(&source.a);
        self.b = source.b;
    }
}

impl Halfspace {
    /// Builds `a·x ≤ b`.
    ///
    /// # Panics
    /// Panics if `a` is empty or contains non-finite entries.
    pub fn new(a: Vec<f64>, b: f64) -> Self {
        assert!(!a.is_empty(), "halfspace in zero dimensions");
        assert!(
            a.iter().all(|v| v.is_finite()) && b.is_finite(),
            "non-finite halfspace"
        );
        Halfspace { a, b }
    }

    /// Dimension of the ambient space.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// Signed slack `b - a·x`: non-negative iff `x` satisfies the
    /// constraint, and the magnitude is the (scaled) distance to the
    /// boundary.
    ///
    /// # Panics
    /// Panics if `x.len() != self.dim()`.
    #[inline]
    pub fn slack(&self, x: &[f64]) -> f64 {
        self.b - dot(&self.a, x)
    }

    /// True iff `x` satisfies the constraint up to the default relative
    /// tolerance.
    #[inline]
    pub fn contains(&self, x: &[f64]) -> bool {
        self.contains_eps(x, DEFAULT_EPS)
    }

    /// True iff `x` satisfies the constraint up to relative tolerance
    /// `eps` (scaled by the magnitudes of `a·x` and `b`).
    #[inline]
    pub fn contains_eps(&self, x: &[f64], eps: f64) -> bool {
        let ax = dot(&self.a, x);
        ax <= self.b + eps * ax.abs().max(self.b.abs()).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_slack() {
        let h = Halfspace::new(vec![1.0, 1.0], 2.0);
        assert!(h.contains(&[1.0, 1.0]));
        assert!(h.contains(&[0.0, 0.0]));
        assert!(!h.contains(&[2.0, 2.0]));
        assert_eq!(h.slack(&[0.5, 0.5]), 1.0);
    }
}
