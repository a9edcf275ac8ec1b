//! Low-dimensional optimization solvers.
//!
//! These are the `T_b` / `T_v` primitives of Section 4 of the paper: the
//! routines that compute a basis of a small constraint set and test
//! violations against it. The paper plugs in black-box bounds
//! (`T_LP(m, d)`, `T_SVM(m, d)`, `T_MEB(m, d)`); this crate provides the
//! concrete implementations:
//!
//! * [`seidel`] — Seidel's randomized incremental LP algorithm, expected
//!   `O(d!·m)` time, the natural choice in the fixed-dimension regime the
//!   paper targets.
//! * [`lexico`] — the lexicographically-smallest-optimum refinement of
//!   Proposition 4.1, implemented by exact variable elimination.
//! * [`simplex`] — an independent dense two-phase simplex used to
//!   cross-validate Seidel on small instances.
//! * [`svm_qp`] — an active-set solver for the hard-margin SVM quadratic
//!   program of Eq. (6).
//! * [`welzl`] — move-to-front Welzl algorithm for the minimum enclosing
//!   ball problem of Eq. (7).
//! * [`exact2d`] — an exact rational LP solver for `d = 2`, used as ground
//!   truth for the Section 5 lower-bound instances.

#![forbid(unsafe_code)]

pub mod exact2d;
pub mod lexico;
pub mod seidel;
pub mod simplex;
pub mod svm_qp;
pub mod welzl;

use llp_geom::Point;

/// Outcome of a linear program.
#[derive(Clone, Debug, PartialEq)]
pub enum LpResult {
    /// A finite optimum was found.
    Optimal(Point),
    /// The constraints have empty intersection.
    Infeasible,
    /// The optimum escapes the regularization box: the LP is unbounded (or
    /// its optimum lies outside `[-M, M]^d`).
    Unbounded,
}

impl LpResult {
    /// The optimal point, if any.
    pub fn point(&self) -> Option<&Point> {
        match self {
            LpResult::Optimal(p) => Some(p),
            _ => None,
        }
    }
}
