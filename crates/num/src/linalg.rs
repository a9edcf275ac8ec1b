//! Small dense linear algebra.
//!
//! The solvers in this workspace repeatedly solve `d × d` (or
//! `(d+1) × (d+1)`) linear systems: vertex computation from a set of tight
//! constraints (Proposition 4.1), circumsphere centers for Welzl's
//! algorithm, and the Gram systems of the active-set SVM solver. `d` is a
//! single-digit number, so a straightforward Gaussian elimination with
//! partial pivoting is both the simplest and the fastest tool; everything
//! operates on flat row-major `Vec<f64>` buffers that callers can reuse.

/// A dense row-major matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Mat {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len()` is not the number of columns.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut out = vec![0.0; self.rows];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            out[r] = dot(row, x);
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    let mut acc = 0.0;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Euclidean norm of a vector.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Error from [`solve`]: the system is singular (or numerically so).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Singular;

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "linear system is singular")
    }
}

impl std::error::Error for Singular {}

/// Solves the square system `a * x = b` by Gaussian elimination with
/// partial pivoting. `a` and `b` are consumed as scratch space.
///
/// Returns `Err(Singular)` when the pivot falls below `1e-12` times the
/// largest entry (the matrix is singular to working precision).
///
/// # Panics
/// Panics if `a` is not square or `b.len() != a.rows()`.
pub fn solve(mut a: Mat, mut b: Vec<f64>) -> Result<Vec<f64>, Singular> {
    assert_eq!(a.rows, a.cols, "solve requires a square matrix");
    assert_eq!(b.len(), a.rows);
    let n = a.rows;
    let scale = a.data.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
    let tol = 1e-12 * scale;

    for col in 0..n {
        // Partial pivot.
        let mut piv = col;
        for r in col + 1..n {
            if a[(r, col)].abs() > a[(piv, col)].abs() {
                piv = r;
            }
        }
        if a[(piv, col)].abs() <= tol {
            return Err(Singular);
        }
        if piv != col {
            for c in 0..n {
                let tmp = a[(piv, c)];
                a[(piv, c)] = a[(col, c)];
                a[(col, c)] = tmp;
            }
            b.swap(piv, col);
        }
        let inv = 1.0 / a[(col, col)];
        for r in col + 1..n {
            let factor = a[(r, col)] * inv;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = a[(col, c)];
                a[(r, c)] -= factor * v;
            }
            b[r] -= factor * b[col];
        }
    }

    // Back-substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in col + 1..n {
            acc -= a[(col, c)] * x[c];
        }
        x[col] = acc / a[(col, col)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solve_identity() {
        let x = solve(Mat::identity(3), vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_2x2() {
        // 2x + y = 5 ; x - y = 1  => x = 2, y = 1
        let a = Mat::from_rows(2, 2, &[2.0, 1.0, 1.0, -1.0]);
        let x = solve(a, vec![5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Mat::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(solve(a, vec![1.0, 2.0]), Err(Singular));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let x = solve(a, vec![3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Mat::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn dist2_basics() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    proptest! {
        /// For a random well-conditioned system built as A = D + small noise
        /// with dominant diagonal, solve() recovers x with small residual.
        #[test]
        fn prop_solve_residual(n in 1usize..6, seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut a = Mat::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    a[(r, c)] = rng.random_range(-1.0..1.0);
                }
                a[(r, r)] += n as f64 + 1.0; // diagonally dominant
            }
            let x_true: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..5.0)).collect();
            let b = a.mul_vec(&x_true);
            let x = solve(a.clone(), b.clone()).unwrap();
            let resid = a.mul_vec(&x);
            for i in 0..n {
                prop_assert!((resid[i] - b[i]).abs() < 1e-8);
                prop_assert!((x[i] - x_true[i]).abs() < 1e-8);
            }
        }
    }
}
