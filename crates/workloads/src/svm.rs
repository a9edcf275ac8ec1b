//! Hard-margin SVM workloads: the benign separable cloud plus the
//! heavy-tailed adversary.

use crate::emit::{push_rows, Sink};
use crate::lp::random_unit;
use llp_core::instances::svm::SvmPoint;
use llp_num::linalg::dot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Moves `x` along the unit normal `u` until `u·x = want`.
fn place(u: &[f64], x: &mut [f64], want: f64) {
    let shift = want - dot(u, x);
    for (xi, ui) in x.iter_mut().zip(u) {
        *xi += shift * ui;
    }
}

/// A linearly separable labeled cloud with hard margin ≥ `margin` around
/// the hyperplane through the origin with a random unit normal: the
/// hard-margin SVM workload of Theorem 5. Returns points and the true
/// normal direction.
pub fn separable_clouds(n: usize, d: usize, margin: f64, seed: u64) -> (Vec<SvmPoint>, Vec<f64>) {
    let mut pts = Vec::with_capacity(n);
    let Ok(u) = emit_separable(n, d, margin, seed, &mut push_rows(&mut pts));
    (pts, u)
}

/// [`separable_clouds`]'s emitter: returns the true normal.
pub(crate) fn emit_separable<E>(
    n: usize,
    d: usize,
    margin: f64,
    seed: u64,
    sink: &mut impl Sink<E>,
) -> Result<Vec<f64>, E> {
    assert!(d >= 1 && n >= 1 && margin > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let u = random_unit(d, &mut rng);
    let mut x = Vec::with_capacity(d);
    for _ in 0..n {
        let y = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
        x.clear();
        x.extend((0..d).map(|_| rng.random_range(-3.0..3.0)));
        // Push the point to the correct side with at least the margin.
        place(&u, &mut x, y * (margin + rng.random_range(0.0..2.0)));
        sink(&x, y)?;
    }
    Ok(u)
}

/// A separable cloud whose point norms follow a truncated Pareto law
/// (tail index `alpha = 1.2`, capped at 1e5): a handful of points sit
/// orders of magnitude farther out than the bulk, stressing the QP
/// conditioning and any space/communication accounting that assumed
/// same-scale coordinates. The hard margin ≥ `margin` still holds exactly
/// (the margin shift is applied after the heavy-tailed scaling), so the
/// optimal `‖u‖²` is checkable against `1/margin²` just like the benign
/// cloud.
pub fn heavy_tailed_clouds(
    n: usize,
    d: usize,
    margin: f64,
    seed: u64,
) -> (Vec<SvmPoint>, Vec<f64>) {
    let mut pts = Vec::with_capacity(n);
    let Ok(u) = emit_heavy_tailed(n, d, margin, seed, &mut push_rows(&mut pts));
    (pts, u)
}

/// [`heavy_tailed_clouds`]'s emitter: returns the true normal.
pub(crate) fn emit_heavy_tailed<E>(
    n: usize,
    d: usize,
    margin: f64,
    seed: u64,
    sink: &mut impl Sink<E>,
) -> Result<Vec<f64>, E> {
    assert!(d >= 1 && n >= 1 && margin > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let u = random_unit(d, &mut rng);
    let alpha = 1.2f64;
    let mut x = Vec::with_capacity(d);
    for _ in 0..n {
        let y = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
        // Pareto radius t ≥ 1 with tail P(T > t) = t^{-alpha}, truncated.
        let v: f64 = rng.random_range(0.0..1.0);
        let t = (1.0 - v).powf(-1.0 / alpha).min(1e5);
        x.clear();
        x.extend((0..d).map(|_| t * rng.random_range(-1.0..1.0)));
        place(&u, &mut x, y * (margin + rng.random_range(0.0..1.0) * t));
        sink(&x, y)?;
    }
    Ok(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_num::linalg::norm;

    #[test]
    fn separable_cloud_respects_margin() {
        let (pts, u) = separable_clouds(400, 3, 0.5, 10);
        for p in &pts {
            let m = f64::from(p.y) * dot(&u, &p.x);
            assert!(m >= 0.5 - 1e-9, "margin {m}");
        }
    }

    #[test]
    fn heavy_tail_respects_margin_and_has_outliers() {
        let (pts, u) = heavy_tailed_clouds(4000, 3, 0.5, 10);
        let mut max_norm = 0f64;
        let mut med: Vec<f64> = Vec::with_capacity(pts.len());
        for p in &pts {
            let m = f64::from(p.y) * dot(&u, &p.x);
            assert!(m >= 0.5 - 1e-9, "margin {m}");
            let nn = norm(&p.x);
            max_norm = max_norm.max(nn);
            med.push(nn);
        }
        med.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = med[med.len() / 2];
        assert!(
            max_norm > 50.0 * median,
            "no heavy tail: max {max_norm} vs median {median}"
        );
    }

    #[test]
    fn reproducible() {
        let (a, _) = heavy_tailed_clouds(100, 2, 0.5, 3);
        let (b, _) = heavy_tailed_clouds(100, 2, 0.5, 3);
        assert_eq!(a, b);
    }
}
