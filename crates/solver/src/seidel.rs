//! Seidel's randomized incremental algorithm for low-dimensional LP.
//!
//! Solves `min c·x` subject to halfspace constraints `a_j·x ≤ b_j`,
//! intersected with the regularization box `[-M, M]^d`. The box guarantees
//! a bounded subproblem at every recursion level; if the final optimum is
//! pinned to the box the caller receives [`LpResult::Unbounded`].
//!
//! The algorithm processes constraints in random order, maintaining the
//! optimum of the prefix. When the next constraint is violated, the new
//! optimum lies on its boundary hyperplane, so the problem recurses into
//! `d - 1` dimensions via exact variable elimination. Expected running
//! time is `O(d! · m)` for `m` constraints — linear in `m` for fixed `d`,
//! which is the regime of the paper.
//!
//! # Flat rows
//!
//! Constraints live in flat `f64` buffers, `d + 1` values per row (`a`,
//! then `b`). A `Scratch` owns one `Level` per recursion depth; level
//! `k` holds the `(d − k)`-dimensional subproblem and is refilled, not
//! reallocated, on every violation at depth `k − 1`. A solve therefore
//! allocates O(d) times (plus the amortized growth of each level), never
//! per row.
//!
//! Outputs are pinned bit for bit (`tests/golden_outputs.rs` at the
//! workspace root), so the order of the f64 operations of elimination,
//! renormalization and lifting is part of the contract, and so is the
//! random stream: a level is filled through a shuffled index permutation
//! of its rows, which draws exactly what shuffling the rows themselves
//! would (the vendored Fisher–Yates draws depend only on the length).

use crate::LpResult;
use llp_geom::Halfspace;
use llp_num::linalg::{dot, norm};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for the Seidel solver.
#[derive(Clone, Copy, Debug)]
pub struct SeidelConfig {
    /// Half-width of the regularization box `[-M, M]^d`.
    pub box_half_width: f64,
    /// Relative feasibility tolerance.
    pub eps: f64,
}

impl Default for SeidelConfig {
    fn default() -> Self {
        SeidelConfig {
            box_half_width: 1e9,
            eps: 1e-9,
        }
    }
}

/// Solves `min c·x : a_j·x ≤ b_j ∀j, x ∈ [-M, M]^d`.
///
/// Constraints of mismatched dimension cause a panic. The result point, if
/// optimal, satisfies every constraint to within the configured tolerance.
pub fn solve<R: Rng + ?Sized>(
    constraints: &[Halfspace],
    objective: &[f64],
    cfg: &SeidelConfig,
    rng: &mut R,
) -> LpResult {
    let d = objective.len();
    assert!(d >= 1, "objective in zero dimensions");
    let mut rows = Vec::with_capacity(constraints.len() * (d + 1));
    for h in constraints {
        assert_eq!(h.dim(), d, "constraint dimension mismatch");
        rows.extend_from_slice(&h.a);
        rows.push(h.b);
    }
    solve_rows(&rows, objective, cfg, &mut Scratch::default(), rng)
}

/// The reusable buffers of one or more solves. The caller owns it and may
/// pass it to any number of [`solve_rows`] calls of any dimension; the
/// buffers keep their capacity between calls.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// `levels[k]` holds the subproblem at recursion depth `k`.
    levels: Vec<Level>,
    /// Shuffle permutation, consumed as soon as it has filled a level.
    perm: Vec<usize>,
}

/// One recursion level of dimension `dim = obj.len()`.
#[derive(Debug, Default)]
struct Level {
    /// Normalized constraints in processing order, `dim + 1` values a row.
    rows: Vec<f64>,
    /// The objective restricted to this level.
    obj: Vec<f64>,
    /// This level's current optimum.
    x: Vec<f64>,
    /// The box rows `±x_var ≤ M` of the variable being eliminated.
    boxes: Vec<f64>,
}

/// Solves the LP whose constraints are the flat rows `rows` (`d + 1`
/// values each, `d = objective.len()`). Rows need not be normalized; the
/// solve normalizes its own copies.
pub(crate) fn solve_rows<R: Rng + ?Sized>(
    rows: &[f64],
    objective: &[f64],
    cfg: &SeidelConfig,
    scratch: &mut Scratch,
    rng: &mut R,
) -> LpResult {
    let d = objective.len();
    let w = d + 1;
    debug_assert!(d >= 1 && rows.len().is_multiple_of(w));
    if scratch.levels.len() < d {
        scratch.levels.resize_with(d, Level::default);
    }
    let Scratch { levels, perm } = scratch;
    let levels = &mut levels[..d];
    perm.clear();
    perm.extend(0..rows.len() / w);
    perm.shuffle(rng);
    let top = &mut levels[0];
    top.rows.clear();
    for &src in perm.iter() {
        let start = top.rows.len();
        top.rows.extend_from_slice(&rows[src * w..(src + 1) * w]);
        normalize(&mut top.rows[start..]);
    }
    top.obj.clear();
    top.obj.extend_from_slice(objective);
    if !solve_level(levels, perm, cfg, rng) {
        return LpResult::Infeasible;
    }
    let x = &levels[0].x;
    if on_box(x, cfg) {
        LpResult::Unbounded
    } else {
        LpResult::Optimal(x.clone())
    }
}

/// Scales a row in place so `‖a‖ = 1` (pure normalization; the halfspace
/// is unchanged). Rows with a zero normal are `0 ≤ b` and stay verbatim
/// so infeasibility (`b < 0`) is still detected.
fn normalize(row: &mut [f64]) {
    let (a, b) = row.split_at_mut(row.len() - 1);
    let n = norm(a);
    if n <= 1e-300 {
        return;
    }
    for v in a.iter_mut() {
        *v /= n;
    }
    b[0] /= n;
}

fn on_box(x: &[f64], cfg: &SeidelConfig) -> bool {
    let m = cfg.box_half_width;
    x.iter().any(|v| v.abs() >= m * (1.0 - 1e-6))
}

/// `a·x ≤ b` up to relative tolerance `eps`: [`Halfspace::contains_eps`]
/// on a flat row.
#[inline]
fn contains_eps(row: &[f64], x: &[f64], eps: f64) -> bool {
    let (a, b) = (&row[..x.len()], row[x.len()]);
    let ax = dot(a, x);
    ax <= b + eps * ax.abs().max(b.abs()).max(1.0)
}

/// Appends row `g` restricted to the boundary `a·x = b` of row `h`, then
/// normalized: `h` gives `x_var = (b − Σ_{i≠var} a_i x_i) / a_var`, and
/// substituting it into `g` leaves `g − (g_var / h_var)·h` with column
/// `var` dropped.
fn push_eliminated(h: &[f64], g: &[f64], var: usize, out: &mut Vec<f64>) {
    let d = h.len() - 1;
    let scale = g[var] / h[var];
    let start = out.len();
    for i in 0..d {
        if i != var {
            out.push(g[i] - scale * h[i]);
        }
    }
    out.push(g[d] - scale * h[d]);
    normalize(&mut out[start..]);
}

/// Recursive core over `levels[0]`, whose rows and objective the caller
/// has filled. `false` means infeasible; otherwise `levels[0].x` is the
/// optimum over the rows ∩ `[-M, M]^dim`.
fn solve_level<R: Rng + ?Sized>(
    levels: &mut [Level],
    perm: &mut Vec<usize>,
    cfg: &SeidelConfig,
    rng: &mut R,
) -> bool {
    let (this, below) = levels.split_first_mut().expect("one level per dimension");
    let d = this.obj.len();
    this.x.clear();
    if d == 1 {
        return match solve_1d(&this.rows, this.obj[0], cfg) {
            Some(v) => {
                this.x.push(v);
                true
            }
            None => false,
        };
    }

    // Start from the box vertex minimizing the objective (deterministic
    // tie-break toward -M).
    let m = cfg.box_half_width;
    this.x.extend(this.obj.iter().map(|&c| {
        if c > 0.0 {
            -m
        } else if c < 0.0 {
            m
        } else {
            -m
        }
    }));

    let w = d + 1;
    for i in 0..this.rows.len() / w {
        let h = &this.rows[i * w..(i + 1) * w];
        if contains_eps(h, &this.x, cfg.eps) {
            continue;
        }
        // Zero-normal constraint that x fails is 0 ≤ b with b < 0.
        let (pivot_var, pivot_mag) = argmax_abs(&h[..d]);
        if pivot_mag <= 1e-12 {
            return false;
        }
        // New optimum lies on the boundary of h: eliminate pivot_var and
        // recurse on the prefix plus the box constraints of the eliminated
        // variable, which become ordinary constraints after elimination.
        //
        // Each eliminated constraint is renormalized before the recursion:
        // near-parallel eliminations leave reduced normals with tiny
        // magnitude, and `solve_1d`'s `b / a` division amplifies their
        // absolute rounding error past any fixed relative tolerance —
        // which read as false `Infeasible` verdicts on near-tie inputs.
        // Normalizing restores ‖a‖ = 1 so the relative eps comparison in
        // the base case measures true geometric slack.
        //
        // Row j < i of the next level's input is the prefix row j; rows i
        // and i + 1 are the boxes `x_var ≤ M` and `-x_var ≤ M`. They are
        // filled in shuffled order.
        this.boxes.clear();
        this.boxes.resize(2 * w, 0.0);
        this.boxes[pivot_var] = 1.0;
        this.boxes[d] = m;
        this.boxes[w + pivot_var] = -1.0;
        this.boxes[w + d] = m;
        perm.clear();
        perm.extend(0..i + 2);
        perm.shuffle(rng);
        let next = &mut below[0];
        next.rows.clear();
        for &src in perm.iter() {
            let g = if src < i {
                &this.rows[src * w..(src + 1) * w]
            } else {
                &this.boxes[(src - i) * w..(src - i + 1) * w]
            };
            push_eliminated(h, g, pivot_var, &mut next.rows);
        }

        // Objective restricted to the hyperplane: substitute x_var.
        let scale = this.obj[pivot_var] / h[pivot_var];
        next.obj.clear();
        for k in 0..d {
            if k != pivot_var {
                next.obj.push(this.obj[k] - scale * h[k]);
            }
        }
        if !solve_level(below, perm, cfg, rng) {
            return false;
        }
        lift(h, &below[0].x, pivot_var, &mut this.x);
        // Clamp lift noise back into the box.
        for v in this.x.iter_mut() {
            *v = v.clamp(-m, m);
        }
    }
    true
}

/// Lifts a point `y` of the space with variable `var` eliminated back
/// onto the boundary `a·x = b` of row `h`, writing it to `x`.
fn lift(h: &[f64], y: &[f64], var: usize, x: &mut [f64]) {
    let d = x.len();
    let mut partial = 0.0;
    let mut yi = 0;
    for k in 0..d {
        if k != var {
            partial += h[k] * y[yi];
            x[k] = y[yi];
            yi += 1;
        }
    }
    x[var] = (h[d] - partial) / h[var];
}

fn argmax_abs(a: &[f64]) -> (usize, f64) {
    let mut best = 0;
    let mut mag = a[0].abs();
    for (i, v) in a.iter().enumerate().skip(1) {
        if v.abs() > mag {
            best = i;
            mag = v.abs();
        }
    }
    (best, mag)
}

/// One-dimensional base case over rows `(a, b)`: intersect rays, pick the
/// endpoint minimizing `c·x` (tie-break toward the smaller endpoint so
/// the result is deterministic given the constraint set).
fn solve_1d(rows: &[f64], c: f64, cfg: &SeidelConfig) -> Option<f64> {
    let m = cfg.box_half_width;
    let mut lo = -m;
    let mut hi = m;
    for row in rows.chunks_exact(2) {
        let (a, b) = (row[0], row[1]);
        if a.abs() <= 1e-12 {
            // 0·x ≤ b: infeasible iff b is definitely negative.
            if b < -cfg.eps {
                return None;
            }
            continue;
        }
        let bound = b / a;
        if a > 0.0 {
            hi = hi.min(bound);
        } else {
            lo = lo.max(bound);
        }
    }
    if lo > hi + cfg.eps * lo.abs().max(hi.abs()).max(1.0) {
        return None;
    }
    let hi = hi.max(lo); // collapse tolerance-sized inversions
    Some(if c > 0.0 {
        lo
    } else if c < 0.0 {
        hi
    } else {
        lo
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eliminated_row_and_lifted_point_preserve_slack() {
        // Plane x0 + 2·x1 + x2 = 4; eliminate x1 from 3·x0 + x1 − x2 ≤ 5,
        // which leaves 2.5·x0 − 1.5·x2 ≤ 3 before normalization.
        let plane = [1.0, 2.0, 1.0, 4.0];
        let other = [3.0, 1.0, -1.0, 5.0];
        let mut reduced = Vec::new();
        push_eliminated(&plane, &other, 1, &mut reduced);
        let n = (2.5f64 * 2.5 + 1.5 * 1.5).sqrt();
        assert_eq!(reduced, [2.5 / n, -1.5 / n, 3.0 / n]);
        // y = (x0, x2) = (1, 1) lifts to x1 = (4 − 2) / 2 = 1, where both
        // rows have slack 2 (the reduced one scaled by 1/n).
        let mut x = [0.0; 3];
        lift(&plane, &[1.0, 1.0], 1, &mut x);
        assert_eq!(x, [1.0, 1.0, 1.0]);
        let slack_x = other[3] - dot(&other[..3], &x);
        let slack_y = reduced[2] - dot(&reduced[..2], &[1.0, 1.0]);
        assert!((slack_x - 2.0).abs() < 1e-12 && (slack_y * n - 2.0).abs() < 1e-12);
    }
}
