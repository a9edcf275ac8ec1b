//! Linear programming as an LP-type problem (Section 4.1).
//!
//! Constraints are halfspaces `a·x ≤ b`; `f(A)` is the *lexicographically
//! smallest* point minimizing `c·x` subject to `A` (Proposition 4.1), so
//! that ties are broken canonically and the locality property holds. Both
//! the combinatorial dimension and the VC dimension are `d + 1` [32, 43].

use super::kernel::{self, RowKernel};
use crate::lptype::{ColumnarProblem, LpTypeProblem, SolveError};
use llp_geom::{ColumnsView, ConstraintColumns, Halfspace, Point};
use llp_num::linalg::dot;
use llp_solver::lexico::lex_min_optimum;
use llp_solver::seidel::SeidelConfig;
use llp_solver::LpResult;
use rand::RngCore;

/// A `d`-dimensional linear program `min c·x : a_j·x ≤ b_j`.
#[derive(Clone, Debug)]
pub struct LpProblem {
    /// Objective vector `c`.
    pub objective: Vec<f64>,
    /// Solver configuration (regularization box, tolerance).
    pub solver: SeidelConfig,
    /// Relative tolerance for the violation test: a constraint counts as
    /// violated when its slack is below `-violation_eps` (scaled). Must be
    /// looser than the solver tolerance so basis constraints never
    /// self-report as violated.
    pub violation_eps: f64,
}

impl LpProblem {
    /// A problem with default solver settings.
    pub fn new(objective: Vec<f64>) -> Self {
        assert!(!objective.is_empty(), "empty objective");
        LpProblem {
            objective,
            solver: SeidelConfig::default(),
            violation_eps: 1e-7,
        }
    }
}

impl LpTypeProblem for LpProblem {
    type Constraint = Halfspace;
    type Solution = Point;

    fn dim(&self) -> usize {
        self.objective.len()
    }

    fn solve_subset(
        &self,
        subset: &[Halfspace],
        rng: &mut dyn RngCore,
    ) -> Result<Point, SolveError> {
        match lex_min_optimum(subset, &self.objective, &self.solver, rng) {
            LpResult::Optimal(x) => Ok(x),
            LpResult::Infeasible => Err(SolveError::Infeasible),
            LpResult::Unbounded => Err(SolveError::Unbounded),
        }
    }

    fn violates(&self, x: &Point, h: &Halfspace) -> bool {
        !h.contains_eps(x, self.violation_eps)
    }

    fn objective_value(&self, x: &Point) -> f64 {
        dot(&self.objective, x)
    }
}

impl ColumnarProblem for LpProblem {
    fn to_columns(&self, constraints: &[Halfspace]) -> ConstraintColumns {
        let mut cols = ConstraintColumns::zeroed(self.dim(), constraints.len());
        for (i, h) in constraints.iter().enumerate() {
            cols.set_row(i, &h.a, h.b);
        }
        cols
    }

    // Exact inverse of `to_columns`: `Halfspace::new` copies `a` and `b`
    // verbatim (no normalization), so the round-trip is bit-lossless.
    fn from_row(&self, coords: &[f64], extra: f64) -> Halfspace {
        Halfspace::new(coords.to_vec(), extra)
    }

    // Columnar twin of `violates`: `ax = 0.0; ax += c_j·x_j` for
    // ascending `j`, the order of `dot(&h.a, x)`, so each slack is
    // bit-identical to the AoS predicate's, in the shared 4-row blocks.
    fn scan_columns(&self, x: &Point, view: &ColumnsView<'_>, out: &mut Vec<usize>) {
        kernel::scan_view(&Slack(self.violation_eps), x, view, out);
    }
}

/// LP's row test with its relative tolerance.
struct Slack(f64);

impl RowKernel for Slack {
    #[inline(always)]
    fn term(&self, c: f64, x: f64) -> f64 {
        c * x
    }

    // The negated compare must stay `!(ax <= bound)`: it is the literal
    // negation of `contains_eps`, so a NaN slack classifies as a violator
    // on both paths (`ax > bound` would flip it here only).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    fn verdict(&self, ax: f64, b: f64) -> bool {
        !(ax <= b + self.0 * ax.abs().max(b.abs()).max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn dims_are_d_plus_one() {
        let p = LpProblem::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.combinatorial_dim(), 4);
        assert_eq!(p.vc_dim(), 4);
        assert_eq!(p.constraint_bits(), 64 * 4);
    }

    #[test]
    fn solve_and_violation_roundtrip() {
        let p = LpProblem::new(vec![-1.0, -1.0]);
        let cs = vec![
            Halfspace::new(vec![1.0, 2.0], 4.0),
            Halfspace::new(vec![3.0, 1.0], 6.0),
        ];
        let x = p.solve_subset(&cs, &mut rng()).unwrap();
        // Basis constraints are not violated by their own optimum.
        for h in &cs {
            assert!(!p.violates(&x, h));
        }
        // A constraint cutting the optimum off is violated.
        let cutter = Halfspace::new(vec![1.0, 1.0], 2.0);
        assert!(p.violates(&x, &cutter));
        assert!((p.objective_value(&x) + 2.8).abs() < 1e-6);
    }

    #[test]
    fn infeasible_subset_reports() {
        let p = LpProblem::new(vec![1.0]);
        let cs = vec![
            Halfspace::new(vec![1.0], 0.0),
            Halfspace::new(vec![-1.0], -1.0),
        ];
        assert_eq!(p.solve_subset(&cs, &mut rng()), Err(SolveError::Infeasible));
    }

    #[test]
    fn canonical_solution_is_deterministic_across_rng() {
        // Degenerate optimal face: the canonical (lexicographic) solution
        // must not depend on solver randomness.
        let p = LpProblem::new(vec![1.0, 0.0]);
        let cs = vec![
            Halfspace::new(vec![-1.0, 0.0], 0.0),
            Halfspace::new(vec![0.0, -1.0], 0.0),
            Halfspace::new(vec![1.0, 0.0], 1.0),
            Halfspace::new(vec![0.0, 1.0], 1.0),
        ];
        let mut sols = Vec::new();
        for seed in 0..5 {
            let mut r = StdRng::seed_from_u64(seed);
            sols.push(p.solve_subset(&cs, &mut r).unwrap());
        }
        for s in &sols[1..] {
            for i in 0..2 {
                assert!((s[i] - sols[0][i]).abs() < 1e-7, "{sols:?}");
            }
        }
    }
}
