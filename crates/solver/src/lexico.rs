//! Lexicographically smallest LP optimum (Proposition 4.1).
//!
//! The LP-type formulation of linear programming needs a *canonical*
//! `f(A)`: the paper picks the lexicographically smallest point among the
//! optima of the LP restricted to `A`. Proposition 4.1 computes it with
//! `d + 1` nested LP solves, each fixing one more coordinate. We implement
//! exactly that, with the equality constraints handled by exact variable
//! elimination instead of a pair of inequalities (numerically far more
//! robust): fixing `g·y = v` solves one variable out and rewrites every
//! remaining constraint and tracked coordinate expression into the reduced
//! space.
//!
//! The system is kept in the flat-row layout of [`crate::seidel`]: one
//! `f64` buffer with `free + 1` values per constraint, which each fixed
//! plane compacts in place to `free` values per row, and one flat
//! `d × free` matrix of coordinate expressions. The `d + 1` Seidel solves
//! share one scratch, so a call allocates a few dozen times whatever the
//! input size.

use crate::seidel::{self, SeidelConfig};
use crate::LpResult;
use llp_geom::{Halfspace, Point};
use llp_num::linalg::{dot, norm};
use rand::Rng;

/// Solves `min c·x : a_j·x ≤ b_j` and returns the *lexicographically
/// smallest* optimal point, the canonical `f(A)` of Section 4.1.
///
/// The feasible region is intersected with the box `[-M, M]^d`
/// (`cfg.box_half_width`); if the canonical optimum is pinned to that box
/// the LP is reported [`LpResult::Unbounded`].
pub fn lex_min_optimum<R: Rng + ?Sized>(
    constraints: &[Halfspace],
    objective: &[f64],
    cfg: &SeidelConfig,
    rng: &mut R,
) -> LpResult {
    let d = objective.len();
    assert!(d >= 1, "objective in zero dimensions");
    let m_box = cfg.box_half_width;
    // Explicit box constraints participate in every reduced stage; Seidel's
    // internal box is pushed far out so it never binds before these.
    let mut reduced: Vec<f64> = Vec::with_capacity((constraints.len() + 2 * d) * (d + 1));
    for h in constraints {
        assert_eq!(h.dim(), d, "constraint dimension mismatch");
        reduced.extend_from_slice(&h.a);
        reduced.push(h.b);
    }
    for i in 0..d {
        for sign in [1.0, -1.0] {
            reduced.extend((0..d).map(|k| if k == i { sign } else { 0.0 }));
            reduced.push(m_box);
        }
    }
    let inner_cfg = SeidelConfig {
        box_half_width: 16.0 * m_box,
        eps: cfg.eps,
    };

    // x_j = constant[j] + coefs[j·free .. (j+1)·free] · y over the `free`
    // current variables y; initially the identity.
    let mut free = d;
    let mut constant = vec![0.0; d];
    let mut coefs = vec![0.0; d * d];
    for j in 0..d {
        coefs[j * d + j] = 1.0;
    }
    let mut obj: Vec<f64> = Vec::with_capacity(d);
    let mut scratch = seidel::Scratch::default();

    // Stage 0 objective is `c`; stages 1..=d minimize the original
    // coordinates in order. `current` tracks the optimum of the last
    // successful stage in the current free coordinates: once stage 0 has
    // produced it, the subproblem is feasible by construction, so any
    // later-stage solver failure is numerical (tolerance-empty reduced
    // intervals on a degenerate face) and falls back to `current` instead
    // of propagating a wrong verdict.
    let mut current: Option<Vec<f64>> = None;
    for stage in 0..=d {
        if free == 0 {
            break;
        }
        obj.clear();
        if stage == 0 {
            // c expressed over the free variables.
            obj.resize(free, 0.0);
            for j in 0..d {
                for k in 0..free {
                    obj[k] += objective[j] * coefs[j * free + k];
                }
            }
        } else {
            obj.extend_from_slice(&coefs[(stage - 1) * free..stage * free]);
        }
        if norm(&obj) <= 1e-12 {
            // This stage's coordinate is already pinned by earlier planes.
            continue;
        }
        let y = match seidel::solve_rows(&reduced, &obj, &inner_cfg, &mut scratch, rng) {
            LpResult::Optimal(y) => y,
            LpResult::Infeasible | LpResult::Unbounded if stage > 0 => {
                // Numerical failure on the (feasible) optimal face: keep
                // the refinement achieved so far.
                break;
            }
            LpResult::Infeasible => return LpResult::Infeasible,
            LpResult::Unbounded => return LpResult::Unbounded,
        };
        let v = dot(&obj, &y);
        let pivot = fix_plane(&mut reduced, &mut constant, &mut coefs, &obj, v);
        let mut reduced_y = y;
        reduced_y.remove(pivot);
        current = Some(reduced_y);
        free -= 1;
    }

    // Reconstruct: coordinates still free take their values from the last
    // successful stage's optimum (zero only if no stage ever solved,
    // which stage 0 rules out).
    let x: Point = (0..d)
        .map(|j| {
            let mut v = constant[j];
            if let Some(y) = &current {
                for (k, &c) in coefs[j * free..(j + 1) * free].iter().enumerate() {
                    v += c * y[k];
                }
            }
            v
        })
        .collect();
    if x.iter().any(|v| v.abs() >= m_box * (1.0 - 1e-6)) {
        return LpResult::Unbounded;
    }
    // Final sanity: the point must satisfy all original constraints.
    for h in constraints {
        if !h.contains_eps(&x, cfg.eps.max(1e-7) * 100.0) {
            // Accumulated elimination error; fall back to reporting
            // infeasible only if the violation is gross.
            if h.slack(&x) < -1e-3 * (1.0 + h.b.abs()) {
                return LpResult::Infeasible;
            }
        }
    }
    LpResult::Optimal(x)
}

/// Restricts the system to the plane `g·y = v`: eliminates the free
/// variable with the largest `|g|` coefficient from every constraint row
/// of `reduced` (row `h` becomes `h − (h_pivot / g_pivot)·(g, v)` with the
/// pivot column dropped; rows that became trivially satisfied go) and
/// from every coordinate expression. Both flat buffers are compacted in
/// place from `free = g.len()` to `free − 1` variables. Returns the
/// eliminated variable's index (in the pre-elimination free coordinates).
fn fix_plane(
    reduced: &mut Vec<f64>,
    constant: &mut [f64],
    coefs: &mut Vec<f64>,
    g: &[f64],
    v: f64,
) -> usize {
    let free = g.len();
    debug_assert!(free >= 1);
    // A non-finite plane would silently poison every remaining row.
    assert!(
        g.iter().all(|x| x.is_finite()) && v.is_finite(),
        "non-finite halfspace"
    );
    let mut pivot = 0;
    for k in 1..free {
        if g[k].abs() > g[pivot].abs() {
            pivot = k;
        }
    }
    let gp = g[pivot];
    debug_assert!(gp.abs() > 1e-12);

    // Row r (width free + 1) is rewritten to slot `kept` (width free).
    // Writes never overtake reads: slot kept·free + t ≤ r·(free + 1) + t,
    // and entry t of the output reads entry t or t + 1 of the input.
    let mut kept = 0;
    for r in 0..reduced.len() / (free + 1) {
        let (src, dst) = (r * (free + 1), kept * free);
        let scale = reduced[src + pivot] / gp;
        let b = reduced[src + free] - scale * v;
        let mut t = dst;
        for i in 0..free {
            if i != pivot {
                reduced[t] = reduced[src + i] - scale * g[i];
                t += 1;
            }
        }
        reduced[t] = b;
        // Drop constraints that became trivial (zero normal, satisfied).
        if norm(&reduced[dst..t]) <= 1e-12 && b >= -1e-9 {
            continue;
        }
        kept += 1;
    }
    reduced.truncate(kept * free);

    // y_pivot = (v - Σ_{i≠pivot} g_i y_i) / g_pivot; substitute into every
    // coordinate expression and drop the pivot column (compacted in
    // place as above).
    for (j, c) in constant.iter_mut().enumerate() {
        let src = j * free;
        let cp = coefs[src + pivot];
        let mut t = j * (free - 1);
        for i in 0..free {
            if i != pivot {
                coefs[t] = coefs[src + i] - cp * g[i] / gp;
                t += 1;
            }
        }
        *c += cp * v / gp;
    }
    coefs.truncate(constant.len() * (free - 1));
    pivot
}
