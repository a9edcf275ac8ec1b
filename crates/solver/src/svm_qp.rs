//! Hard-margin linear SVM (Eq. (6) of the paper) via Wolfe's minimum-norm
//!-point algorithm.
//!
//! The problem is `min ‖u‖²  s.t.  y_j ⟨u, x_j⟩ ≥ 1 for all j` — a
//! strictly convex QP. Writing `v_j = y_j·x_j`, classical duality says the
//! optimum is `u* = z*/‖z*‖²` where `z*` is the minimum-norm point of
//! `conv{v_j}`:
//!
//! * feasibility: `⟨u*, v_j⟩ = ⟨z*, v_j⟩/‖z*‖² ≥ ‖z*‖²/‖z*‖² = 1` by the
//!   variational characterization of `z*` (`⟨z*, v⟩ ≥ ‖z*‖²` on the hull);
//! * optimality: `1/‖z*‖` is exactly the margin, i.e. the distance from
//!   the origin to the hull, so no shorter `u` exists;
//! * inseparability: the data admits no homogeneous separator iff
//!   `0 ∈ conv{v_j}`, i.e. `z* = 0`.
//!
//! Wolfe's algorithm (1976) computes `z*` exactly in finitely many steps,
//! maintaining a *corral* — an affinely independent support set of at most
//! `d + 1` points (Carathéodory), which is precisely the combinatorial
//! dimension the paper cites for this LP-type problem.

use llp_geom::Point;
use llp_num::linalg::{dot, solve as lin_solve, Mat};

/// Result of a hard-margin SVM solve.
#[derive(Clone, Debug, PartialEq)]
pub enum SvmResult {
    /// The data is separable: `u` is the optimal (minimum-norm) normal and
    /// `support` the indices of the corral (active constraints).
    Separable { u: Point, support: Vec<usize> },
    /// No homogeneous separator exists (the origin lies in the convex
    /// hull of the signed points).
    Inseparable,
}

/// Relative tolerance of Wolfe's optimality test and weight pruning.
const EPS: f64 = 1e-10;
/// `‖z*‖²` below which (relative to the data scale) the instance is
/// declared inseparable.
const MIN_NORM2: f64 = 1e-18;
/// Hard cap on major cycles (defensive; Wolfe terminates finitely).
const MAX_ITERS: usize = 100_000;

/// Solves the hard-margin SVM over `(points[j], labels[j])` pairs.
///
/// # Panics
/// Panics if lengths mismatch, a label is not ±1, or points have
/// inconsistent dimension.
pub fn solve(points: &[Point], labels: &[i8]) -> SvmResult {
    assert_eq!(points.len(), labels.len(), "points/labels length mismatch");
    if points.is_empty() {
        return SvmResult::Separable {
            u: Vec::new(),
            support: Vec::new(),
        };
    }
    let d = points[0].len();
    for (p, &y) in points.iter().zip(labels) {
        assert_eq!(p.len(), d, "inconsistent point dimension");
        assert!(y == 1 || y == -1, "labels must be ±1");
    }
    // Signed points v_j = y_j x_j.
    let v = |j: usize| -> SignedPoint<'_> {
        SignedPoint {
            x: &points[j],
            y: labels[j],
        }
    };
    let n = points.len();
    let scale = points
        .iter()
        .map(|p| dot(p, p))
        .fold(0.0f64, f64::max)
        .max(1.0);

    match wolfe_min_norm_point(n, d, &v, scale) {
        Some((z, support)) => {
            let z2 = dot(&z, &z);
            if z2 <= MIN_NORM2 * scale {
                return SvmResult::Inseparable;
            }
            let u: Point = z.iter().map(|c| c / z2).collect();
            SvmResult::Separable { u, support }
        }
        None => SvmResult::Inseparable,
    }
}

/// A borrowed signed point `y·x`.
struct SignedPoint<'a> {
    x: &'a [f64],
    y: i8,
}

impl SignedPoint<'_> {
    #[inline]
    fn coord(&self, i: usize) -> f64 {
        f64::from(self.y) * self.x[i]
    }

    #[inline]
    fn dot_slice(&self, w: &[f64]) -> f64 {
        f64::from(self.y) * dot(self.x, w)
    }

    fn dot_signed(&self, other: &SignedPoint<'_>) -> f64 {
        f64::from(self.y) * f64::from(other.y) * dot(self.x, other.x)
    }
}

/// Wolfe's minimum-norm-point algorithm over `conv{v_0..v_{n-1}}`.
/// Returns the MNP and the corral indices, or `None` if the iteration
/// budget is exhausted (treated as numerically inseparable).
fn wolfe_min_norm_point<'a, F>(n: usize, d: usize, v: &F, scale: f64) -> Option<(Point, Vec<usize>)>
where
    F: Fn(usize) -> SignedPoint<'a>,
{
    // Start from the point of smallest norm.
    let mut best = 0;
    let mut best_norm = f64::INFINITY;
    for j in 0..n {
        let p = v(j);
        let nn = p.dot_signed(&p);
        if nn < best_norm {
            best_norm = nn;
            best = j;
        }
    }
    let mut corral: Vec<usize> = vec![best];
    let mut weights: Vec<f64> = vec![1.0];
    let mut x: Point = (0..d).map(|i| v(best).coord(i)).collect();

    for _major in 0..MAX_ITERS {
        let x2 = dot(&x, &x);
        if x2 <= MIN_NORM2 * scale {
            // The origin is (numerically) in the hull.
            return Some((vec![0.0; d], corral));
        }
        // Linear minimization oracle: the vertex most opposed to x.
        let mut j_min = 0;
        let mut dot_min = f64::INFINITY;
        for j in 0..n {
            let dj = v(j).dot_slice(&x);
            if dj < dot_min {
                dot_min = dj;
                j_min = j;
            }
        }
        // The stopping slack is relative to `‖x‖²`, not to the data scale
        // `max_j ‖v_j‖²`: a slack of `EPS·scale` can exceed `‖x‖²` itself
        // on heavy-tailed data and stop at a point that the violation
        // test's `1e-6` margin tolerance (relative to `‖x‖²`) rejects.
        if dot_min >= x2 - EPS * x2 || corral.contains(&j_min) {
            // Optimal: no vertex improves (re-adding a corral member
            // cannot either).
            return Some((x, corral));
        }
        corral.push(j_min);
        weights.push(0.0);

        // Minor cycle: project onto the affine hull of the corral and
        // walk back into the convex hull, dropping vanished vertices.
        for _minor in 0..(d + 2) * 4 {
            match affine_min_norm(&corral, v, d) {
                Some(alpha) => {
                    if alpha.iter().all(|&a| a > EPS) {
                        weights = alpha;
                        x = combine(&corral, &weights, v, d);
                        break;
                    }
                    // Line search from weights toward alpha, stopping at
                    // the first coordinate to hit zero.
                    let mut theta = 1.0f64;
                    for i in 0..corral.len() {
                        if alpha[i] < EPS {
                            let denom = weights[i] - alpha[i];
                            if denom > 0.0 {
                                theta = theta.min(weights[i] / denom);
                            }
                        }
                    }
                    let mut next: Vec<f64> = weights
                        .iter()
                        .zip(&alpha)
                        .map(|(&w, &a)| (1.0 - theta) * w + theta * a)
                        .collect();
                    // Drop (one of) the vanished vertices.
                    let mut kept_c = Vec::with_capacity(corral.len());
                    let mut kept_w = Vec::with_capacity(corral.len());
                    let mut dropped = false;
                    for i in 0..corral.len() {
                        if !dropped && next[i] <= EPS {
                            dropped = true;
                            continue;
                        }
                        kept_c.push(corral[i]);
                        kept_w.push(next[i].max(0.0));
                    }
                    if !dropped {
                        // Numerical stall: force-drop the smallest weight.
                        let (idx, _) = next
                            .iter()
                            .enumerate()
                            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                            .expect("non-empty");
                        next.remove(idx);
                        kept_c = corral
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != idx)
                            .map(|(_, &c)| c)
                            .collect();
                        kept_w = next;
                    }
                    corral = kept_c;
                    weights = kept_w;
                    normalize(&mut weights);
                    x = combine(&corral, &weights, v, d);
                }
                None => {
                    // Affinely dependent corral (can only be the newest
                    // vertex): drop it and keep the current point.
                    corral.pop();
                    weights.pop();
                    normalize(&mut weights);
                    x = combine(&corral, &weights, v, d);
                    break;
                }
            }
        }
    }
    None
}

/// Minimum-norm point of the affine hull of the corral: solve
/// `[G 1; 1ᵀ 0]·[α; μ] = [0; 1]`. `None` if singular (affinely dependent
/// corral).
fn affine_min_norm<'a, F>(corral: &[usize], v: &F, _d: usize) -> Option<Vec<f64>>
where
    F: Fn(usize) -> SignedPoint<'a>,
{
    let k = corral.len();
    let mut m = Mat::zeros(k + 1, k + 1);
    for r in 0..k {
        let pr = v(corral[r]);
        for c in 0..k {
            m[(r, c)] = pr.dot_signed(&v(corral[c]));
        }
        m[(r, k)] = 1.0;
        m[(k, r)] = 1.0;
    }
    let mut rhs = vec![0.0; k + 1];
    rhs[k] = 1.0;
    lin_solve(m, rhs).ok().map(|mut sol| {
        sol.truncate(k);
        sol
    })
}

fn combine<'a, F>(corral: &[usize], weights: &[f64], v: &F, d: usize) -> Point
where
    F: Fn(usize) -> SignedPoint<'a>,
{
    let mut x = vec![0.0; d];
    for (i, &j) in corral.iter().enumerate() {
        let p = v(j);
        for t in 0..d {
            x[t] += weights[i] * p.coord(t);
        }
    }
    x
}

fn normalize(w: &mut [f64]) {
    let s: f64 = w.iter().sum();
    if s > 0.0 {
        for x in w.iter_mut() {
            *x /= s;
        }
    } else if !w.is_empty() {
        let u = 1.0 / w.len() as f64;
        for x in w.iter_mut() {
            *x = u;
        }
    }
}

/// Margin of point `j` under normal `u`: `y ⟨u, x⟩`. Values below 1 violate
/// the SVM constraint — this is the `T_v` violation predicate of
/// Proposition 4.2.
pub fn margin(u: &[f64], point: &[f64], label: i8) -> f64 {
    f64::from(label) * dot(u, point)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_points_on_axis() {
        // +1 at x = 2, -1 at x = -2 (1-D): optimal u = 1/2, margin = 1 at
        // both, ‖u‖² = 1/4.
        let pts = vec![vec![2.0], vec![-2.0]];
        let labels = vec![1, -1];
        match solve(&pts, &labels) {
            SvmResult::Separable { u, support } => {
                assert!((u[0] - 0.5).abs() < 1e-9, "{u:?}");
                assert!(!support.is_empty());
            }
            other => panic!("expected separable, got {other:?}"),
        }
    }

    #[test]
    fn asymmetric_pair_takes_closer_point() {
        // +1 at x = 1, -1 at x = -4: u ≥ 1 (from +1 at 1), u ≥ 1/4
        // (from -1 at -4): u = 1.
        let pts = vec![vec![1.0], vec![-4.0]];
        let labels = vec![1, -1];
        match solve(&pts, &labels) {
            SvmResult::Separable { u, .. } => assert!((u[0] - 1.0).abs() < 1e-9, "{u:?}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn two_dim_separable_cloud() {
        // +1 points around (3, 3), -1 around (-3, -3).
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let t = i as f64 * 0.1;
            pts.push(vec![3.0 + t.sin() * 0.5, 3.0 + t.cos() * 0.5]);
            labels.push(1);
            pts.push(vec![-3.0 - t.sin() * 0.5, -3.0 - t.cos() * 0.5]);
            labels.push(-1);
        }
        match solve(&pts, &labels) {
            SvmResult::Separable { u, .. } => {
                for (p, &y) in pts.iter().zip(&labels) {
                    assert!(margin(&u, p, y) >= 1.0 - 1e-6, "margin violated at {p:?}");
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn support_size_at_most_d_plus_one() {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..50 {
            let t = i as f64;
            pts.push(vec![
                2.0 + (t * 0.7).sin().abs(),
                1.0 + (t * 1.3).cos().abs(),
                2.0,
            ]);
            labels.push(1);
            pts.push(vec![
                -2.0 - (t * 0.9).sin().abs(),
                -1.0 - (t * 0.4).cos().abs(),
                -2.0,
            ]);
            labels.push(-1);
        }
        match solve(&pts, &labels) {
            SvmResult::Separable { u, support } => {
                assert!(support.len() <= 4, "support {support:?}");
                for (p, &y) in pts.iter().zip(&labels) {
                    assert!(margin(&u, p, y) >= 1.0 - 1e-6);
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inseparable_detected() {
        // Same point with both labels cannot satisfy both margins.
        let pts = vec![vec![1.0, 0.0], vec![1.0, 0.0]];
        let labels = vec![1, -1];
        assert_eq!(solve(&pts, &labels), SvmResult::Inseparable);
    }

    #[test]
    fn inseparable_interleaved() {
        // +1 and -1 alternate along a line: no homogeneous separator.
        let pts = vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]];
        let labels = vec![1, -1, 1, -1];
        assert_eq!(solve(&pts, &labels), SvmResult::Inseparable);
    }

    #[test]
    fn inseparable_surrounding_origin() {
        // Positive points surrounding the origin in 2-D: 0 is in the hull.
        let pts = vec![
            vec![1.0, 0.0],
            vec![-1.0, 0.1],
            vec![0.0, 1.0],
            vec![0.1, -1.0],
        ];
        let labels = vec![1, 1, 1, 1];
        assert_eq!(solve(&pts, &labels), SvmResult::Inseparable);
    }

    #[test]
    fn empty_input_trivial() {
        assert_eq!(
            solve(&[], &[]),
            SvmResult::Separable {
                u: vec![],
                support: vec![]
            }
        );
    }

    #[test]
    fn minimal_norm_property() {
        // For points (1,0;+1) and (0,1;+1): constraints u1 ≥ 1, u2 ≥ 1;
        // minimal norm u = (1,1).
        let pts = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let labels = vec![1, 1];
        match solve(&pts, &labels) {
            SvmResult::Separable { u, .. } => {
                assert!(
                    (u[0] - 1.0).abs() < 1e-8 && (u[1] - 1.0).abs() < 1e-8,
                    "{u:?}"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn large_cloud_with_many_redundant_points() {
        // Regression test for the active-set livelock: thousands of
        // points, margin constraints dominated by a few support vectors.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let d = 3;
        let margin = 0.75f64;
        let mut u_star = vec![0.6, -0.64, 0.48];
        let un = llp_num::linalg::norm(&u_star);
        u_star.iter_mut().for_each(|v| *v /= un);
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..5000 {
            let y: i8 = if rng.random_bool(0.5) { 1 } else { -1 };
            let mut x: Vec<f64> = (0..d).map(|_| rng.random_range(-3.0..3.0)).collect();
            let proj = dot(&u_star, &x);
            let want = f64::from(y) * (margin + rng.random_range(0.0..2.0));
            for i in 0..d {
                x[i] += (want - proj) * u_star[i];
            }
            pts.push(x);
            labels.push(y);
        }
        match solve(&pts, &labels) {
            SvmResult::Separable { u, .. } => {
                for (p, &y) in pts.iter().zip(&labels) {
                    assert!(margin_ok(&u, p, y), "violated");
                }
                // Achieved margin at least the planted one.
                let norm2 = dot(&u, &u);
                assert!(norm2 <= 1.0 / (margin * margin) + 1e-6, "norm2 {norm2}");
            }
            other => panic!("{other:?}"),
        }
    }

    fn margin_ok(u: &[f64], p: &[f64], y: i8) -> bool {
        margin(u, p, y) >= 1.0 - 1e-6
    }
}
