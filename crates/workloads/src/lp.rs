//! Linear-programming workloads: benign families plus the degenerate,
//! near-tie, and weight-explosion adversaries.

use crate::emit::{push_rows, Sink};
use llp_core::instances::lp::LpProblem;
use llp_geom::Halfspace;
use llp_num::linalg::{dot, norm};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Fills `out` with a random unit vector (rejection-sampled away from
/// the origin).
#[inline]
pub(crate) fn random_unit_into<R: Rng + ?Sized>(d: usize, rng: &mut R, out: &mut Vec<f64>) {
    loop {
        out.clear();
        out.extend((0..d).map(|_| rng.random_range(-1.0..1.0)));
        let nn = norm(out);
        if nn >= 1e-6 {
            out.iter_mut().for_each(|x| *x /= nn);
            return;
        }
    }
}

/// A random unit vector (rejection-sampled away from the origin).
pub(crate) fn random_unit<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Vec<f64> {
    let mut v = Vec::with_capacity(d);
    random_unit_into(d, rng, &mut v);
    v
}

/// Writes `-c + spread·g`, normalized, into `out`: a unit normal within
/// about `spread` of `−c`.
fn near_antipode(c: &[f64], spread: f64, g: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(c.iter().zip(g).map(|(cj, gj)| -cj + spread * gj));
    let nn = norm(out);
    out.iter_mut().for_each(|v| *v /= nn);
}

/// A random bounded-feasible LP: `n` unit-normal halfspaces tangent to
/// the unit sphere (`a·x ≤ 1`, `‖a‖ = 1`), so the origin is feasible and
/// — once directions cover the sphere — the region is bounded; plus a
/// random unit objective.
pub fn random_lp(n: usize, d: usize, seed: u64) -> (LpProblem, Vec<Halfspace>) {
    let mut cs = Vec::with_capacity(n);
    let Ok(p) = emit_random_lp(n, d, seed, &mut push_rows(&mut cs));
    (p, cs)
}

/// [`random_lp`]'s emitter: the `n` rows, then the objective.
pub(crate) fn emit_random_lp<E>(
    n: usize,
    d: usize,
    seed: u64,
    sink: &mut impl Sink<E>,
) -> Result<LpProblem, E> {
    assert!(d >= 1 && n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row = Vec::with_capacity(d);
    for _ in 0..n {
        random_unit_into(d, &mut rng, &mut row);
        sink(&row, 1.0)?;
    }
    Ok(LpProblem::new(random_unit(d, &mut rng)))
}

/// Chebyshev (L∞) regression as a `(d+1)`-dimensional LP — the
/// over-constrained regression workload the paper's introduction
/// motivates. Data `y_i = w*·z_i + noise`; variables `(w, t)`; constraints
/// `|w·z_i − y_i| ≤ t`; objective `min t`. Returns the problem, the `2n`
/// constraints, and the ground-truth `w*`.
pub fn chebyshev_regression(
    n_points: usize,
    d: usize,
    noise: f64,
    seed: u64,
) -> (LpProblem, Vec<Halfspace>, Vec<f64>) {
    let mut cs = Vec::with_capacity(2 * n_points);
    let Ok((p, w_star)) = emit_chebyshev(n_points, d, noise, seed, &mut push_rows(&mut cs));
    (p, cs, w_star)
}

/// [`chebyshev_regression`]'s emitter: returns the problem and `w*`.
pub(crate) fn emit_chebyshev<E>(
    n_points: usize,
    d: usize,
    noise: f64,
    seed: u64,
    sink: &mut impl Sink<E>,
) -> Result<(LpProblem, Vec<f64>), E> {
    assert!(d >= 1 && n_points >= 1 && noise >= 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let w_star: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
    let mut row = Vec::with_capacity(d + 1);
    for _ in 0..n_points {
        row.clear();
        row.extend((0..d).map(|_| rng.random_range(-1.0..1.0)));
        let y = dot(&w_star, &row) + rng.random_range(-noise..=noise);
        // w·z − t ≤ y   and   −w·z − t ≤ −y.
        row.push(-1.0);
        sink(&row, y)?;
        row[..d].iter_mut().for_each(|v| *v = -*v);
        sink(&row, -y)?;
    }
    let mut obj = vec![0.0; d + 1];
    obj[d] = 1.0;
    Ok((LpProblem::new(obj), w_star))
}

/// A maximally degenerate duplicate pack: the `2d` faces of the unit box
/// `|x_j| ≤ 1`, cycled (with a seeded shuffle) until there are `n`
/// constraints, under the objective `min x_0`. The optimal *face* is
/// `(d−1)`-dimensional — every point on it ties — so the lexicographic
/// rule must pick the canonical vertex `(-1, …, -1)` and the objective
/// value is exactly `-1`. Samplers constantly draw repeated elements and
/// the basis solvers see maximally degenerate subsets.
pub fn degenerate_box_lp(n: usize, d: usize, seed: u64) -> (LpProblem, Vec<Halfspace>) {
    let mut cs = Vec::with_capacity(n);
    let Ok(p) = emit_degenerate_box(n, d, seed, &mut push_rows(&mut cs));
    (p, cs)
}

/// [`degenerate_box_lp`]'s emitter. The shuffle is global, so it shuffles
/// the `n` face ids first — face `2j` is `x_j ≤ 1`, face `2j + 1` is
/// `−x_j ≤ 1`, and row `i` starts as face `i mod 2d` — and then emits the
/// faces in that order.
pub(crate) fn emit_degenerate_box<E>(
    n: usize,
    d: usize,
    seed: u64,
    sink: &mut impl Sink<E>,
) -> Result<LpProblem, E> {
    assert!(d >= 1 && n >= 2 * d, "need at least the 2d box faces");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut faces: Vec<usize> = (0..n).map(|i| i % (2 * d)).collect();
    faces.shuffle(&mut rng);
    let mut row = vec![0.0; d];
    for f in faces {
        row[f / 2] = if f % 2 == 0 { 1.0 } else { -1.0 };
        sink(&row, 1.0)?;
        row[f / 2] = 0.0;
    }
    let mut obj = vec![0.0; d];
    obj[0] = 1.0;
    Ok(LpProblem::new(obj))
}

/// Near-ties at the optimum: all `n` constraints pass within `jitter`
/// (1e-9 — two orders below the violation tolerance, at the solver's own
/// feasibility eps) of the planted optimum `x* = −c`, with normals spread
/// only `spread` (1e-3) around `−c`. Every constraint is *almost* binding
/// at the optimum, so tie-breaking and the violation tolerance are
/// stressed maximally; the optimal objective is `c·x* = −1` up to
/// `O(spread²)`. A box `|x_j| ≤ 2` keeps the region bounded in the
/// directions the cluster leaves open. (Jitter this deep used to trip the
/// basis solver into false `Infeasible` verdicts on sampled subsets —
/// Seidel's variable elimination left reduced constraints unnormalized, so
/// the 1-D base case compared amplified rounding error against a relative
/// tolerance. The recursion now renormalizes; this family pins the
/// adversarial regime as a regression guard.)
pub fn near_tie_lp(n: usize, d: usize, seed: u64) -> (LpProblem, Vec<Halfspace>) {
    let mut cs = Vec::with_capacity(n + 2 * d);
    let Ok(p) = emit_near_tie(n, d, seed, &mut push_rows(&mut cs));
    (p, cs)
}

/// [`near_tie_lp`]'s emitter: the objective, the `n` near-tie rows, then
/// the `2d` box rows (`x_j ≤ 2`, then `−x_j ≤ 2`, for each `j`).
pub(crate) fn emit_near_tie<E>(
    n: usize,
    d: usize,
    seed: u64,
    sink: &mut impl Sink<E>,
) -> Result<LpProblem, E> {
    assert!(d >= 1 && n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let c = random_unit(d, &mut rng);
    let x_star: Vec<f64> = c.iter().map(|v| -v).collect();
    let spread = 1e-3;
    let jitter = 1e-9;
    let (mut g, mut row) = (Vec::with_capacity(d), Vec::with_capacity(d));
    for _ in 0..n {
        random_unit_into(d, &mut rng, &mut g);
        near_antipode(&c, spread, &g, &mut row);
        let b = dot(&row, &x_star) + rng.random_range(0.0..jitter);
        sink(&row, b)?;
    }
    row.clear();
    row.resize(d, 0.0);
    for j in 0..d {
        row[j] = 1.0;
        sink(&row, 2.0)?;
        row[j] = -1.0;
        sink(&row, 2.0)?;
        row[j] = 0.0;
    }
    Ok(LpProblem::new(c))
}

/// The weight-explosion needle: `n − needles` sphere-tangent constraints
/// (`a·x ≤ 1`) plus a tiny cluster of `needles` constraints with normals
/// near `−c` and right-hand side `depth ≪ 1`. The optimum is determined
/// entirely by the needles, but a uniform ε-net almost never sees them, so
/// Algorithm 1 must multiply their weight iteration after iteration until
/// they dominate — exactly the regime that drives the holders' weight
/// exponents and `ScaledF64` magnitudes up (run it with a large factor,
/// e.g. `r = 3`).
pub fn needle_lp(n: usize, d: usize, needles: usize, seed: u64) -> (LpProblem, Vec<Halfspace>) {
    let mut cs = Vec::with_capacity(n);
    let Ok(p) = emit_needle(n, d, needles, seed, &mut push_rows(&mut cs));
    (p, cs)
}

/// [`needle_lp`]'s emitter. The needles are buried by a global shuffle,
/// so every row is built first, into one flat buffer; then the `n`
/// positions are shuffled (the swaps depend only on the length, so this
/// is the order shuffling the rows themselves gives) and the rows are
/// emitted in that order.
pub(crate) fn emit_needle<E>(
    n: usize,
    d: usize,
    needles: usize,
    seed: u64,
    sink: &mut impl Sink<E>,
) -> Result<LpProblem, E> {
    assert!(d >= 1 && needles >= 1 && n > needles);
    let mut rng = StdRng::seed_from_u64(seed);
    let c = random_unit(d, &mut rng);
    let depth = 0.05;
    let mut coords = Vec::with_capacity(n * d);
    let (mut g, mut row) = (Vec::with_capacity(d), Vec::with_capacity(d));
    for _ in 0..n - needles {
        random_unit_into(d, &mut rng, &mut row);
        coords.extend_from_slice(&row);
    }
    for _ in 0..needles {
        random_unit_into(d, &mut rng, &mut g);
        near_antipode(&c, 0.05, &g, &mut row);
        coords.extend_from_slice(&row);
    }
    // Bury the needles at seeded positions so no prefix heuristic finds
    // them early.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    for i in order {
        let b = if i < n - needles { 1.0 } else { depth };
        sink(&coords[i * d..(i + 1) * d], b)?;
    }
    Ok(LpProblem::new(c))
}

/// Random lines for the Chan–Chen envelope baseline.
pub fn random_lines(n: usize, seed: u64) -> Vec<llp_baselines::chan_chen::Line> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| llp_baselines::chan_chen::Line {
            slope: rng.random_range(-5.0..5.0),
            intercept: rng.random_range(-5.0..5.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::lptype::LpTypeProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_lp_origin_feasible() {
        let (_, cs) = random_lp(500, 3, 10);
        let origin = vec![0.0; 3];
        assert!(cs.iter().all(|h| h.contains(&origin)));
        assert_eq!(cs.len(), 500);
    }

    #[test]
    fn generators_are_reproducible_byte_for_byte() {
        let (_, a) = random_lp(200, 3, 77);
        let (_, b) = random_lp(200, 3, 77);
        assert_eq!(a, b);
        let (_, c) = random_lp(200, 3, 78);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn chebyshev_truth_is_nearly_feasible() {
        let (p, cs, w_star) = chebyshev_regression(200, 3, 0.1, 10);
        // (w*, t = noise) satisfies all constraints.
        let mut x = w_star.clone();
        x.push(0.1 + 1e-9);
        assert!(cs.iter().all(|h| h.contains_eps(&x, 1e-6)));
        assert_eq!(p.dim(), 4);
    }

    #[test]
    fn chebyshev_optimum_at_most_noise() {
        let (p, cs, _) = chebyshev_regression(300, 2, 0.05, 10);
        let mut r = StdRng::seed_from_u64(10);
        let sol = p.solve_subset(&cs, &mut r).unwrap();
        let t = sol[2];
        assert!(t <= 0.05 + 1e-6, "optimal residual {t} exceeds noise");
        assert!(t >= 0.0);
    }

    #[test]
    fn degenerate_box_has_canonical_vertex_optimum() {
        let (p, cs) = degenerate_box_lp(100, 3, 4);
        assert_eq!(cs.len(), 100);
        let mut r = StdRng::seed_from_u64(1);
        let sol = p.solve_subset(&cs, &mut r).unwrap();
        for (i, &v) in sol.iter().enumerate() {
            assert!((v + 1.0).abs() < 1e-7, "coordinate {i} = {v}");
        }
        assert!((p.objective_value(&sol) + 1.0).abs() < 1e-7);
    }

    #[test]
    fn near_tie_optimum_close_to_planted() {
        let (p, cs) = near_tie_lp(2000, 3, 9);
        let mut r = StdRng::seed_from_u64(2);
        let sol = p.solve_subset(&cs, &mut r).unwrap();
        // Optimal value is c·x* = −1 up to O(spread).
        assert!((p.objective_value(&sol) + 1.0).abs() < 1e-2);
        // The planted optimum x* = −c is feasible.
        let x_star: Vec<f64> = p.objective.iter().map(|v| -v).collect();
        assert!(cs.iter().all(|h| h.contains_eps(&x_star, 1e-6)));
    }

    #[test]
    fn near_tie_sampled_subsets_never_report_infeasible() {
        // With jitter at 1e-9 (the adversarial regime this family
        // targets), sampled subsets used to trip the basis solver's
        // feasibility check — PR 4's workaround pinned jitter at 1e-7.
        // The planted optimum `x* = −c` satisfies every constraint, so
        // every subset is feasible and any `Infeasible` is a solver bug.
        use rand::Rng;
        let (p, cs) = near_tie_lp(4000, 3, 31);
        let mut r = StdRng::seed_from_u64(17);
        for trial in 0..12 {
            let subset: Vec<_> = (0..256)
                .map(|_| cs[r.random_range(0..cs.len())].clone())
                .collect();
            let sol = p.solve_subset(&subset, &mut r);
            assert!(
                sol.is_ok(),
                "trial {trial}: feasible subset reported {:?}",
                sol.err()
            );
        }
    }

    #[test]
    fn near_tie_full_solve_regression() {
        // Pinned reproduction of the false-`Infeasible` bug: this exact
        // (generator seed, solver seed) pair made `clarkson_solve` abort
        // with `Infeasible` on a feasible instance before Seidel's
        // recursion renormalized eliminated constraints (the 1-D base
        // case compared `b / a` of a tiny-norm reduced constraint —
        // amplified rounding error — against its relative tolerance).
        let (p, cs) = near_tie_lp(48_000, 3, 2);
        let mut r = StdRng::seed_from_u64(5);
        let cfg = llp_core::ClarksonConfig::lean(3);
        let out = llp_core::clarkson_solve(&p, &cs, &cfg, &mut r);
        assert!(out.is_ok(), "near-tie instance reported {:?}", out.err());
    }

    #[test]
    fn needle_lp_needles_bind() {
        let (p, cs) = needle_lp(3000, 2, 4, 11);
        assert_eq!(cs.len(), 3000);
        let mut r = StdRng::seed_from_u64(3);
        let sol = p.solve_subset(&cs, &mut r).unwrap();
        // Without the needles the optimum would reach c·x = −1 (tangent
        // sphere); the needles cut it back to about −depth.
        assert!(p.objective_value(&sol) > -0.2, "needles did not bind");
        assert!(cs.iter().all(|h| h.contains(&[0.0; 2])));
    }
}
