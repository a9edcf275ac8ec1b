//! Minimum enclosing ball / Core Vector Machines as an LP-type problem
//! (Section 4.3).
//!
//! Constraints are points to enclose; `f(A)` is the unique smallest ball
//! containing `A`. Combinatorial dimension ≤ `d + 1` \[32\]; VC dimension of
//! complements of balls ≤ `d + 1` \[44\].

use super::kernel::{self, RowKernel};
use crate::lptype::{ColumnarProblem, LpTypeProblem, SolveError};
use llp_geom::{ColumnsView, ConstraintColumns, Point};
use llp_solver::welzl::{min_enclosing_ball, Ball};
use rand::RngCore;

/// Relative tolerance of the containment (violation) test.
const VIOLATION_EPS: f64 = 1e-7;

/// The MEB problem in `d` dimensions.
#[derive(Clone, Debug)]
pub struct MebProblem {
    dim: usize,
}

impl MebProblem {
    /// A problem over `R^d`.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1);
        MebProblem { dim }
    }
}

impl LpTypeProblem for MebProblem {
    type Constraint = Point;
    type Solution = Ball;

    fn dim(&self) -> usize {
        self.dim
    }

    fn solve_subset(&self, subset: &[Point], rng: &mut dyn RngCore) -> Result<Ball, SolveError> {
        if subset.is_empty() {
            return Ok(Ball::empty(self.dim));
        }
        Ok(min_enclosing_ball(subset, rng))
    }

    fn violates(&self, ball: &Ball, p: &Point) -> bool {
        !ball.contains(p, VIOLATION_EPS)
    }

    fn objective_value(&self, ball: &Ball) -> f64 {
        ball.radius
    }
}

impl ColumnarProblem for MebProblem {
    // Points have no per-constraint scalar; the extra column is zeros.
    fn to_columns(&self, constraints: &[Point]) -> ConstraintColumns {
        let mut cols = ConstraintColumns::zeroed(self.dim, constraints.len());
        for (i, p) in constraints.iter().enumerate() {
            cols.set_row(i, p, 0.0);
        }
        cols
    }

    // Exact inverse of `to_columns`: a point is its coordinates; the
    // extra column is ignored (zeros by construction).
    fn from_row(&self, coords: &[f64], _extra: f64) -> Point {
        assert_eq!(coords.len(), self.dim);
        coords.to_vec()
    }

    // Columnar twin of `violates`: squared distances accumulate in the
    // same ascending-j order as `dist2(&ball.center, p)` (center minus
    // point, like the AoS call), then one containment compare per row,
    // in the shared 4-row blocks. The empty ball (`radius < 0`) contains
    // nothing, so every row is a violator.
    fn scan_columns(&self, ball: &Ball, view: &ColumnsView<'_>, out: &mut Vec<usize>) {
        if ball.radius < 0.0 {
            out.extend(view.start()..view.start() + view.len());
            return;
        }
        let r2 = ball.radius * ball.radius;
        let bound = r2 + VIOLATION_EPS * r2.max(1.0);
        kernel::scan_view(&Outside(bound), &ball.center, view, out);
    }
}

/// MEB's row test against the squared-radius bound.
struct Outside(f64);

impl RowKernel for Outside {
    #[inline(always)]
    fn term(&self, c: f64, center: f64) -> f64 {
        let delta = center - c;
        delta * delta
    }

    // The negated compare must stay `!(dsq <= bound)`: it is the literal
    // negation of the AoS containment test, so a NaN distance classifies
    // as a violator on both paths (`dsq > bound` would flip it here only).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    fn verdict(&self, dsq: f64, _extra: f64) -> bool {
        !(dsq <= self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    #[test]
    fn solve_and_violate() {
        let p = MebProblem::new(2);
        let pts = vec![vec![0.0, 0.0], vec![2.0, 0.0]];
        let ball = p.solve_subset(&pts, &mut rng()).unwrap();
        assert!((ball.radius - 1.0).abs() < 1e-9);
        assert!(!p.violates(&ball, &vec![1.0, 0.5]));
        assert!(p.violates(&ball, &vec![5.0, 5.0]));
        assert!((p.objective_value(&ball) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_ball_violated_by_everything() {
        let p = MebProblem::new(2);
        let ball = p.solve_subset(&[], &mut rng()).unwrap();
        assert!(p.violates(&ball, &vec![0.0, 0.0]));
    }

    #[test]
    fn monotone_radius() {
        let p = MebProblem::new(3);
        let mut pts = vec![vec![0.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]];
        let b1 = p.solve_subset(&pts, &mut rng()).unwrap();
        pts.push(vec![0.0, 5.0, 0.0]);
        let b2 = p.solve_subset(&pts, &mut rng()).unwrap();
        assert!(b2.radius >= b1.radius);
    }
}
