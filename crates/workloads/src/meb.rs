//! Minimum-enclosing-ball workloads: benign clouds/shells plus the
//! clustered adversary with a planted exact radius.

use crate::emit::{push_rows, Sink};
use crate::lp::{random_unit, random_unit_into};
use llp_num::linalg::norm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Points uniform in a ball of the given radius (MEB workload with
/// radius ≤ `radius`).
pub fn ball_cloud(n: usize, d: usize, radius: f64, seed: u64) -> Vec<Vec<f64>> {
    assert!(d >= 1 && n >= 1 && radius > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(n);
    while pts.len() < n {
        let x: Vec<f64> = (0..d).map(|_| rng.random_range(-radius..radius)).collect();
        if norm(&x) <= radius {
            pts.push(x);
        }
    }
    pts
}

/// Points on the sphere of the given radius: the MEB is (essentially) the
/// sphere itself, so the output radius is checkable.
pub fn sphere_shell(n: usize, d: usize, radius: f64, seed: u64) -> Vec<Vec<f64>> {
    let mut pts = Vec::with_capacity(n);
    let Ok(()) = emit_sphere_shell(n, d, radius, seed, &mut push_rows(&mut pts));
    pts
}

/// [`sphere_shell`]'s emitter.
pub(crate) fn emit_sphere_shell<E>(
    n: usize,
    d: usize,
    radius: f64,
    seed: u64,
    sink: &mut impl Sink<E>,
) -> Result<(), E> {
    assert!(d >= 1 && n >= 1 && radius > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(d);
    for _ in 0..n {
        random_unit_into(d, &mut rng, &mut x);
        x.iter_mut().for_each(|v| *v *= radius);
        sink(&x, 0.0)?;
    }
    Ok(())
}

/// A clustered cloud with a planted *exact* MEB: a few tight clusters
/// inside the ball `B(0, radius)` plus the antipodal anchor pair
/// `±radius·e_1`. Every point lies in `B(0, radius)` and any enclosing
/// ball must cover two points at distance `2·radius`, so the MEB is
/// exactly `B(0, radius)` (center 0, unique). Clusters make uniform
/// sampling highly redundant — most draws land in the same tiny blobs —
/// while the two anchors are the only support points, a needle-like
/// regime for the ε-net.
pub fn clustered_cloud(
    n: usize,
    d: usize,
    radius: f64,
    clusters: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    let mut pts = Vec::with_capacity(n);
    let Ok(()) = emit_clustered(n, d, radius, clusters, seed, &mut push_rows(&mut pts));
    pts
}

/// [`clustered_cloud`]'s emitter: the cluster centers, the two anchors,
/// then `n − 2` clipped cluster points.
pub(crate) fn emit_clustered<E>(
    n: usize,
    d: usize,
    radius: f64,
    clusters: usize,
    seed: u64,
    sink: &mut impl Sink<E>,
) -> Result<(), E> {
    assert!(d >= 1 && n >= 3 && radius > 0.0 && clusters >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| {
            let dir = random_unit(d, &mut rng);
            let r = rng.random_range(0.0..0.5 * radius);
            dir.into_iter().map(|v| v * r).collect()
        })
        .collect();
    let spread = 0.01 * radius;
    let mut x = vec![0.0; d];
    x[0] = radius;
    sink(&x, 0.0)?;
    x[0] = -radius;
    sink(&x, 0.0)?;
    for _ in 2..n {
        let c = &centers[rng.random_range(0..clusters)];
        x.clear();
        x.extend(c.iter().map(|cj| cj + rng.random_range(-spread..spread)));
        // Clip into the planted ball so the anchors stay the support.
        let nn = norm(&x);
        if nn > radius {
            x.iter_mut().for_each(|v| *v *= radius / nn);
        }
        sink(&x, 0.0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sphere_shell_radius() {
        let pts = sphere_shell(100, 4, 2.5, 10);
        for p in &pts {
            assert!((norm(p) - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn ball_cloud_inside() {
        let pts = ball_cloud(100, 3, 1.5, 10);
        for p in &pts {
            assert!(norm(p) <= 1.5 + 1e-12);
        }
    }

    #[test]
    fn clustered_cloud_has_exact_planted_meb() {
        use llp_core::instances::meb::MebProblem;
        use llp_core::lptype::LpTypeProblem;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let pts = clustered_cloud(2000, 3, 2.0, 5, 10);
        assert!(pts.iter().all(|p| norm(p) <= 2.0 + 1e-12));
        let p = MebProblem::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        let ball = p.solve_subset(&pts, &mut rng).unwrap();
        assert!((ball.radius - 2.0).abs() < 1e-9, "radius {}", ball.radius);
        for c in &ball.center {
            assert!(c.abs() < 1e-9);
        }
    }
}
