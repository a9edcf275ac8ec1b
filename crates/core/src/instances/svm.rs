//! Hard-margin linear SVM as an LP-type problem (Section 4.2).
//!
//! Constraints are labeled points; `f(A)` is the minimum-norm normal `u`
//! with `y_j ⟨u, x_j⟩ ≥ 1` on `A` — unique by strict convexity, so no
//! lexicographic refinement is needed (as the paper notes). Combinatorial
//! and VC dimension are both at most `d + 1` [32, 43].

use super::kernel::{self, RowKernel};
use crate::lptype::{ColumnarProblem, LpTypeProblem, SolveError};
use llp_geom::{ColumnsView, ConstraintColumns, Point};
use llp_num::linalg::dot;
use llp_solver::svm_qp::{self, SvmConfig, SvmResult};
use rand::RngCore;

/// One labeled training point (one margin constraint of Eq. (6)).
#[derive(Debug, PartialEq)]
pub struct SvmPoint {
    /// Feature vector `x_j ∈ R^d`.
    pub x: Point,
    /// Label `y_j ∈ {−1, +1}`.
    pub y: i8,
}

impl Clone for SvmPoint {
    fn clone(&self) -> Self {
        SvmPoint {
            x: self.x.clone(),
            y: self.y,
        }
    }

    // Field-wise so `Vec::clone_from` reuses the feature buffer when the
    // solver's scratch arena refills its net constraints.
    fn clone_from(&mut self, source: &Self) {
        self.x.clone_from(&source.x);
        self.y = source.y;
    }
}

/// The hard-margin SVM problem in `d` dimensions.
#[derive(Clone, Debug)]
pub struct SvmProblem {
    dim: usize,
    /// Active-set solver configuration.
    pub solver: SvmConfig,
    /// Margin tolerance for the violation test (looser than the solver's).
    pub violation_eps: f64,
}

impl SvmProblem {
    /// A problem over `R^d` with default solver settings.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1);
        SvmProblem {
            dim,
            solver: SvmConfig::default(),
            violation_eps: 1e-6,
        }
    }
}

impl LpTypeProblem for SvmProblem {
    type Constraint = SvmPoint;
    type Solution = Point; // the normal u

    fn dim(&self) -> usize {
        self.dim
    }

    fn solve_subset(
        &self,
        subset: &[SvmPoint],
        _rng: &mut dyn RngCore,
    ) -> Result<Point, SolveError> {
        let points: Vec<Point> = subset.iter().map(|p| p.x.clone()).collect();
        let labels: Vec<i8> = subset.iter().map(|p| p.y).collect();
        match svm_qp::solve(&points, &labels, &self.solver) {
            SvmResult::Separable { u, .. } => {
                if u.is_empty() {
                    // Empty subset: the zero normal in d dims.
                    Ok(vec![0.0; self.dim])
                } else {
                    Ok(u)
                }
            }
            SvmResult::Inseparable => Err(SolveError::Infeasible),
        }
    }

    fn violates(&self, u: &Point, p: &SvmPoint) -> bool {
        svm_qp::margin(u, &p.x, p.y) < 1.0 - self.violation_eps
    }

    fn objective_value(&self, u: &Point) -> f64 {
        dot(u, u)
    }
}

impl ColumnarProblem for SvmProblem {
    // The extra column carries the label as `±1.0` — exactly
    // representable, so `extra * ⟨u,x⟩` reproduces `margin`'s
    // `f64::from(y) * dot(u, x)` bit for bit.
    fn to_columns(&self, constraints: &[SvmPoint]) -> ConstraintColumns {
        let mut cols = ConstraintColumns::zeroed(self.dim, constraints.len());
        for (i, p) in constraints.iter().enumerate() {
            cols.set_row(i, &p.x, f64::from(p.y));
        }
        cols
    }

    // Exact inverse of `to_columns`: the extra column holds the label as
    // exactly `±1.0`, so the sign recovers `y` losslessly.
    fn from_row(&self, coords: &[f64], extra: f64) -> SvmPoint {
        assert_eq!(coords.len(), self.dim);
        SvmPoint {
            x: coords.to_vec(),
            y: if extra > 0.0 { 1 } else { -1 },
        }
    }

    // Columnar twin of `violates`: `⟨u, x_i⟩` accumulates in the same
    // ascending-j order as `dot(u, &p.x)`, then one margin compare per
    // row, in the shared 4-row blocks.
    fn scan_columns(&self, u: &Point, view: &ColumnsView<'_>, out: &mut Vec<usize>) {
        kernel::scan_view(&Margin(1.0 - self.violation_eps), u, view, out);
    }
}

/// SVM's row test against the margin threshold `1 − ε`.
struct Margin(f64);

impl RowKernel for Margin {
    #[inline(always)]
    fn term(&self, c: f64, u: f64) -> f64 {
        u * c
    }

    // `margin < 1 − ε` exactly as `violates` writes it: a NaN margin is
    // not a violator on either path.
    #[inline(always)]
    fn verdict(&self, ux: f64, label: f64) -> bool {
        label * ux < self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn solve_subset_and_violations() {
        let p = SvmProblem::new(1);
        let pts = vec![
            SvmPoint { x: vec![2.0], y: 1 },
            SvmPoint {
                x: vec![-2.0],
                y: -1,
            },
        ];
        let u = p.solve_subset(&pts, &mut rng()).unwrap();
        assert!((u[0] - 0.5).abs() < 1e-8);
        for c in &pts {
            assert!(!p.violates(&u, c));
        }
        // A +1 point closer to the origin violates.
        let close = SvmPoint { x: vec![1.0], y: 1 };
        assert!(p.violates(&u, &close));
        assert!((p.objective_value(&u) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_subset_gives_zero_normal() {
        let p = SvmProblem::new(3);
        let u = p.solve_subset(&[], &mut rng()).unwrap();
        assert_eq!(u, vec![0.0; 3]);
    }

    #[test]
    fn inseparable_reports_infeasible() {
        let p = SvmProblem::new(2);
        let pts = vec![
            SvmPoint {
                x: vec![1.0, 0.0],
                y: 1,
            },
            SvmPoint {
                x: vec![1.0, 0.0],
                y: -1,
            },
        ];
        assert_eq!(
            p.solve_subset(&pts, &mut rng()),
            Err(SolveError::Infeasible)
        );
    }

    #[test]
    fn solution_monotone_under_constraint_addition() {
        // LP-type monotonicity: adding constraints cannot shrink ‖u‖².
        let p = SvmProblem::new(2);
        let mut pts = vec![
            SvmPoint {
                x: vec![3.0, 0.0],
                y: 1,
            },
            SvmPoint {
                x: vec![-3.0, 0.0],
                y: -1,
            },
        ];
        let u1 = p.solve_subset(&pts, &mut rng()).unwrap();
        pts.push(SvmPoint {
            x: vec![0.0, 1.5],
            y: 1,
        });
        let u2 = p.solve_subset(&pts, &mut rng()).unwrap();
        assert!(p.objective_value(&u2) >= p.objective_value(&u1) - 1e-9);
    }
}
