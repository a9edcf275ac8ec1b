//! Algorithm 1: the ε-net Clarkson meta-algorithm in RAM.
//!
//! This is a direct implementation of the paper's pseudo-code:
//!
//! 1. `ε := 1 / (10 · ν · F)` with weight factor `F = n^{1/r}` (Line 1).
//! 2. All weights start at 1 (Line 2).
//! 3. Each iteration samples an ε-net `N` of size `m_{ε,λ,2/3}` with
//!    probability proportional to weight (Line 4, Lemma 2.2), computes the
//!    canonical basis solution `f(B)` of the net (Line 5), and finds the
//!    violators `V` (Line 6).
//! 4. If `w(V) ≤ ε·w(S)` the iteration *succeeds* and every violator's
//!    weight is multiplied by `F` (Lines 7–9); otherwise the weights stay.
//! 5. Stop when `V = ∅` (Line 10).
//!
//! Lemma 3.3 bounds the iterations by `20νr/9` w.h.p.; the returned
//! [`ClarksonStats`] record everything needed to verify that bound, the
//! per-iteration success probability of Claim 3.2, and the weight envelope
//! of Eq. (2) empirically (experiments T1/T10).
//!
//! Weights live in one [`WeightIndex`]
//! maintained across iterations: element `i`'s weight is the product of
//! its `F` multiplications, and the Fenwick tree behind the index serves
//! both the Lemma 2.2 inversion sampling (one batched descent of the
//! net's `m` sorted targets, no prefix rebuild) and the O(1) total that
//! the success test and the Eq. (2) trace share — only violators change
//! between iterations, so an iteration costs at most
//! O(|V| log n + m log n) on the weight side instead of the O(n) prefix
//! rebuild it replaced. (The streaming implementation
//! instead recomputes weights from the stored bases under its space
//! bound, see Section 3.2.)

use crate::lptype::{ColumnarProblem, LpTypeProblem, SolveError};
use llp_geom::ConstraintColumns;
use llp_sampling::weight_index::{DrawScratch, WeightIndex};
use rand::Rng;

/// How element weights grow on violation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightFactor {
    /// The paper's rate `n^{1/r}` — the key to `O(νr)` iterations.
    NthRoot {
        /// The pass/round parameter `r ≥ 1`.
        r: u32,
    },
    /// A fixed rate (e.g. 2.0 for classic Clarkson \[16\]) — ablation T8.
    Fixed(f64),
}

impl WeightFactor {
    /// The concrete multiplicative factor for an input of `n` constraints.
    pub fn value(&self, n: usize) -> f64 {
        match *self {
            WeightFactor::NthRoot { r } => {
                assert!(r >= 1);
                (n as f64).powf(1.0 / f64::from(r)).max(1.0 + 1e-9)
            }
            WeightFactor::Fixed(f) => {
                assert!(f > 1.0, "weight factor must exceed 1");
                f
            }
        }
    }
}

/// What to do when an iteration fails (`w(V) > ε·w(S)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Retry with fresh randomness — the Las-Vegas Algorithm 1.
    Retry,
    /// Abort with [`ClarksonError::NetFailure`] — the Monte-Carlo variant
    /// of Remark 3.6 (pair with a smaller net `delta`).
    Abort,
}

/// Configuration of Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct ClarksonConfig {
    /// Weight update rate.
    pub factor: WeightFactor,
    /// ε-net failure budget δ per iteration (`2/3` success in the paper's
    /// Las-Vegas analysis; `1/(nν)`-style for Monte-Carlo).
    pub net_delta: f64,
    /// Scale on the Eq. (1) net-size constants (1.0 = verbatim).
    pub net_multiplier: f64,
    /// Floor on the net size as a multiple of `λ/ε` — the
    /// coupon-collector term that cannot be calibrated away. The net is
    /// `max(multiplier · Eq.(1), ceil(floor_coeff · λ/ε))`, clamped to
    /// `n`. `0.0` disables the floor.
    pub net_floor_coeff: f64,
    /// Behaviour on failed iterations.
    pub failure_policy: FailurePolicy,
    /// Hard iteration cap (safety net; Lemma 3.3 gives `O(νr)`).
    pub max_iterations: usize,
}

impl ClarksonConfig {
    /// The paper's Las-Vegas configuration for a given `r`.
    pub fn paper(r: u32) -> Self {
        ClarksonConfig {
            factor: WeightFactor::NthRoot { r },
            net_delta: 1.0 / 3.0,
            net_multiplier: 1.0,
            net_floor_coeff: 0.0,
            failure_policy: FailurePolicy::Retry,
            max_iterations: 10_000,
        }
    }

    /// Derives Algorithm 1's parameters for `n` constraints of `problem`:
    /// the weight factor `F`, `ε = 1/(10νF)` (Line 1), and the net size
    /// `max(multiplier · Eq.(1), ceil(floor_coeff · λ/ε))`, clamped to
    /// `[1, n]`. Every model derives its parameters here, once per solve.
    pub fn params<P: LpTypeProblem>(&self, problem: &P, n: usize) -> RunParams {
        let lambda = problem.vc_dim();
        let factor = self.factor.value(n);
        let eps = 1.0 / (10.0 * problem.combinatorial_dim() as f64 * factor);
        let formula = llp_sampling::epsnet::EpsNetSpec {
            eps,
            lambda,
            delta: self.net_delta,
            multiplier: self.net_multiplier,
        }
        .size();
        let floor = (self.net_floor_coeff * lambda as f64 / eps).ceil() as usize;
        RunParams {
            factor,
            eps,
            net_size: formula.max(floor).min(n).max(1),
        }
    }

    /// Same asymptotics with the calibrated net constant (see
    /// `EpsNetSpec::calibrated` and experiment T9) — the default for
    /// benches on realistic input sizes.
    pub fn calibrated(r: u32) -> Self {
        ClarksonConfig {
            net_multiplier: 1.0 / 16.0,
            ..Self::paper(r)
        }
    }

    /// The lean configuration: the Eq. (1) formula scaled far down, kept
    /// honest by the coupon-collector floor `2·λ/ε` (which preserves the
    /// `n^{1/r}` net scaling). Experiment T9 measures the safety of this
    /// trade-off; use it when the input is large enough that the
    /// sublinear behaviour should actually show.
    pub fn lean(r: u32) -> Self {
        ClarksonConfig {
            net_multiplier: 1.0 / 4096.0,
            net_floor_coeff: 2.0,
            ..Self::paper(r)
        }
    }
}

/// The parameters of Algorithm 1 for one input, from
/// [`ClarksonConfig::params`].
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    /// Weight factor `F`.
    pub factor: f64,
    /// `ε = 1/(10νF)`.
    pub eps: f64,
    /// ε-net size `m` (clamped to `[1, n]`).
    pub net_size: usize,
}

/// Failure modes of the meta-algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClarksonError {
    /// The constraint set is infeasible (detected on a sampled subset).
    Infeasible,
    /// The problem is unbounded.
    Unbounded,
    /// `max_iterations` exhausted without convergence.
    IterationLimit,
    /// An iteration failed under [`FailurePolicy::Abort`].
    NetFailure,
}

impl std::fmt::Display for ClarksonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClarksonError::Infeasible => write!(f, "infeasible"),
            ClarksonError::Unbounded => write!(f, "unbounded"),
            ClarksonError::IterationLimit => write!(f, "iteration limit exceeded"),
            ClarksonError::NetFailure => write!(f, "epsilon-net failure (Monte-Carlo mode)"),
        }
    }
}

impl std::error::Error for ClarksonError {}

/// Execution statistics — the raw material of experiments T1, T8, T10.
/// `PartialEq` backs the parallel-determinism differential suite: two runs
/// agree iff every counter and trace agrees.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClarksonStats {
    /// Total iterations run.
    pub iterations: usize,
    /// Iterations with `w(V) ≤ ε·w(S)`.
    pub successful_iterations: usize,
    /// Net size `m` used each iteration.
    pub net_size: usize,
    /// ε of Line 1.
    pub eps: f64,
    /// The concrete weight factor `F`.
    pub factor: f64,
    /// After each *successful* iteration `t`: `log2 w_t(S)` (for checking
    /// the envelope `n^{t/νr} ≤ w_t(S) ≤ e^{t/10ν}·n` of Eq. (2)). This is
    /// the `WeightIndex` total *after* the violator reweighting — exactly
    /// the quantity iteration `t + 1` samples against, so the T10 envelope
    /// check measures the weights actually used.
    pub weight_log2_trace: Vec<f64>,
    /// Violator count per iteration (successful or not).
    pub violators_trace: Vec<usize>,
}

/// Outcome of [`solve`]: the canonical optimum plus statistics.
pub type ClarksonOutcome<S> = Result<(S, ClarksonStats), (ClarksonError, ClarksonStats)>;

/// Reusable per-solve buffers for [`solve_with_scratch`]: the ε-net
/// index buffer, the net draw's target buffers, the net constraint pool,
/// and the violator buffer.
///
/// Ownership rule: the arena owns its buffers between solves and lends
/// them to exactly one solve at a time; the solver clears/refills them
/// per iteration via `clone_from`, so after the first iteration warms
/// the pool to the net size the loop's own bookkeeping performs **zero
/// heap allocations** (the analyzer's deny-tier `hot-loop-alloc` lint
/// keeps it that way). The basis solve each iteration calls
/// (`solve_subset`) allocates on its own account — for LP a few dozen
/// times per call, independent of the net size. Callers with many
/// solves (the service's batch executor) hold one arena per worker and
/// amortize the warm-up.
pub struct SolveScratch<P: ColumnarProblem> {
    /// Sampled net indices (sorted, deduped), reused across iterations.
    net_idx: Vec<usize>,
    /// The net draw's sorted uniforms and targets.
    draw: DrawScratch,
    /// Net constraint pool: slot `k` is refilled in place from
    /// `constraints[net_idx[k]]` each iteration.
    net_pool: Vec<P::Constraint>,
    /// Ascending violator indices of the latest scan.
    violators: Vec<usize>,
}

impl<P: ColumnarProblem> SolveScratch<P> {
    /// An empty arena; the first solve iteration warms it up.
    pub fn new() -> Self {
        SolveScratch {
            net_idx: Vec::new(),
            draw: DrawScratch::default(),
            net_pool: Vec::new(),
            violators: Vec::new(),
        }
    }
}

impl<P: ColumnarProblem> Default for SolveScratch<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs Algorithm 1 on `constraints`.
///
/// Convenience wrapper over [`solve_with_scratch`]: transposes the
/// constraints into columnar storage and allocates a fresh
/// [`SolveScratch`]. Callers that solve repeatedly (the service's
/// batch executor) should build both once and call
/// [`solve_with_scratch`] directly.
///
/// # Panics
/// Panics if `constraints` is empty.
pub fn solve<P: ColumnarProblem, R: Rng>(
    problem: &P,
    constraints: &[P::Constraint],
    cfg: &ClarksonConfig,
    rng: &mut R,
) -> ClarksonOutcome<P::Solution> {
    let columns = problem.to_columns(constraints);
    let mut scratch = SolveScratch::new();
    solve_with_scratch(problem, constraints, &columns, cfg, &mut scratch, rng)
}

/// Runs Algorithm 1 on `constraints`, scanning the columnar mirror
/// `columns` and reusing the buffers in `scratch`.
///
/// `columns` must be `problem.to_columns(constraints)` (same
/// constraints, same order); the AoS slice still serves the ε-net
/// basis solves while every O(n) violation scan runs over the columns.
///
/// # Panics
/// Panics if `constraints` is empty or `columns` has a different
/// length.
pub fn solve_with_scratch<P: ColumnarProblem, R: Rng>(
    problem: &P,
    constraints: &[P::Constraint],
    columns: &ConstraintColumns,
    cfg: &ClarksonConfig,
    scratch: &mut SolveScratch<P>,
    rng: &mut R,
) -> ClarksonOutcome<P::Solution> {
    assert!(!constraints.is_empty(), "no constraints");
    assert_eq!(
        columns.len(),
        constraints.len(),
        "columns/constraints length mismatch"
    );
    let n = constraints.len();
    let RunParams {
        factor,
        eps,
        net_size: m,
    } = cfg.params(problem, n);

    let mut stats = ClarksonStats {
        net_size: m,
        eps,
        factor,
        ..ClarksonStats::default()
    };

    // The weight state of the whole run: maintained incrementally, never
    // rebuilt — iteration t + 1 samples against exactly the sums that
    // iteration t's violator updates left behind.
    let mut weights = WeightIndex::uniform(n);
    // Warm the net pool before the loop: at most m slots are ever live,
    // and refills inside the loop go through `clone_from`, which reuses
    // each slot's existing buffers instead of reallocating.
    scratch.net_idx.clear();
    scratch.net_idx.reserve(m);
    if m < n && scratch.net_pool.len() != m {
        scratch.net_pool.resize(m, constraints[0].clone());
    }

    while stats.iterations < cfg.max_iterations {
        stats.iterations += 1;

        // --- Sample the ε-net with probability proportional to weight:
        // one batched descent of m sorted targets through the standing
        // index, which returns the draws in ascending order. ---
        scratch.net_idx.clear();
        let net: &[P::Constraint] = if m >= n {
            // The net is the whole input; no copy needed.
            constraints
        } else {
            weights.draw_many(m, rng, &mut scratch.draw, &mut scratch.net_idx);
            scratch.net_idx.dedup();
            let live = scratch.net_idx.len();
            for (slot, &ci) in scratch.net_pool.iter_mut().zip(scratch.net_idx.iter()) {
                slot.clone_from(&constraints[ci]);
            }
            &scratch.net_pool[..live]
        };

        // --- Basis of the net. ---
        let solution = match problem.solve_subset(net, rng) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => return Err((ClarksonError::Infeasible, stats)),
            Err(SolveError::Unbounded) => return Err((ClarksonError::Unbounded, stats)),
        };

        // --- Violators and their weight: the O(n) hot scan over the
        // columnar mirror, chunked over the llp_par pool with fixed
        // boundaries and in-order merges, so the violator list
        // (ascending indices) and the weight sum are bit-identical for
        // any LLP_THREADS — and to a scalar `violates` sweep. ---
        let w_violators = crate::lptype::scan_violators_weighted_columnar(
            problem,
            &solution,
            columns,
            0..n,
            &weights,
            &mut scratch.violators,
        );
        stats.violators_trace.push(scratch.violators.len());

        let success = w_violators.ratio(weights.total()) <= eps;
        if success {
            if scratch.violators.is_empty() {
                return Ok((solution, stats));
            }
            stats.successful_iterations += 1;
            for &i in scratch.violators.iter() {
                weights.multiply(i, factor);
            }
            // The Eq. (2) trace logs the index's own post-update total —
            // the same value the next iteration samples and tests against,
            // not a side-channel recomputation that could drift from it.
            stats.weight_log2_trace.push(weights.total().log2());
        } else if cfg.failure_policy == FailurePolicy::Abort {
            return Err((ClarksonError::NetFailure, stats));
        }
    }
    Err((ClarksonError::IterationLimit, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::lp::LpProblem;
    use crate::instances::meb::MebProblem;
    use crate::instances::svm::{SvmPoint, SvmProblem};
    use crate::lptype::{count_violations, LpTypeProblem};
    use llp_geom::Halfspace;
    use llp_num::linalg::norm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Random bounded-feasible LP: unit-normal halfspaces tangent to the
    /// unit sphere, so the feasible region contains the origin.
    fn random_lp(n: usize, d: usize, seed: u64) -> (LpProblem, Vec<Halfspace>) {
        let mut r = rng(seed);
        let mut cs: Vec<Halfspace> = Vec::with_capacity(n);
        // Rejection sampling via an iterator chain (not a `while` body)
        // keeps this kernel file clean under the deny-tier hot-loop
        // allocation lint; the RNG draw order matches the loop it
        // replaced exactly.
        cs.extend(
            std::iter::repeat_with(|| {
                let mut a: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
                let nn = norm(&a);
                if nn < 1e-6 {
                    return None;
                }
                a.iter_mut().for_each(|v| *v /= nn);
                Some(Halfspace::new(a, 1.0))
            })
            .flatten()
            .take(n),
        );
        let c: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
        (LpProblem::new(c), cs)
    }

    #[test]
    fn solves_random_lp_matching_direct_solve() {
        let (p, cs) = random_lp(2000, 3, 42);
        let mut r = rng(1);
        let (sol, stats) = solve(&p, &cs, &ClarksonConfig::calibrated(2), &mut r).unwrap();
        assert_eq!(
            count_violations(&p, &sol, &cs),
            0,
            "returned solution violates input"
        );
        // Compare objective value against solving the whole input at once.
        let direct = p.solve_subset(&cs, &mut r).unwrap();
        let (v1, v2) = (p.objective_value(&sol), p.objective_value(&direct));
        assert!((v1 - v2).abs() < 1e-5 * v1.abs().max(1.0), "{v1} vs {v2}");
        assert!(stats.iterations >= 1);
    }

    #[test]
    fn iteration_bound_of_lemma_3_3() {
        // Lemma 3.3: iterations ≤ 20νr/9 w.h.p. Allow slack for the
        // calibrated net constant.
        for seed in 0..5 {
            let (p, cs) = random_lp(5000, 2, seed);
            let r_param = 2;
            let mut r = rng(seed + 100);
            let (_, stats) = solve(&p, &cs, &ClarksonConfig::calibrated(r_param), &mut r).unwrap();
            let nu = p.combinatorial_dim();
            let bound = (20.0 * nu as f64 * f64::from(r_param) / 9.0).ceil() as usize + 5;
            assert!(
                stats.iterations <= 2 * bound,
                "iterations {} exceed twice the Lemma 3.3 bound {bound}",
                stats.iterations
            );
        }
    }

    #[test]
    fn weight_envelope_eq_2() {
        // After each successful iteration t:
        // (t/νr)·log2 n ≤ log2 w_t(S) ≤ t/(10ν)·log2 e + log2 n.
        let (p, cs) = random_lp(3000, 2, 7);
        let n = cs.len() as f64;
        let r_param = 2u32;
        let mut r = rng(8);
        let (_, stats) = solve(&p, &cs, &ClarksonConfig::calibrated(r_param), &mut r).unwrap();
        let nu = p.combinatorial_dim() as f64;
        for (idx, &log2w) in stats.weight_log2_trace.iter().enumerate() {
            let t = (idx + 1) as f64;
            let lower = t / (nu * f64::from(r_param)) * n.log2();
            let upper = t / (10.0 * nu) * std::f64::consts::E.log2() + n.log2();
            assert!(
                log2w >= lower - 1e-6,
                "iteration {t}: log2 w = {log2w} < lower {lower}"
            );
            assert!(
                log2w <= upper + 1e-6,
                "iteration {t}: log2 w = {log2w} > upper {upper}"
            );
        }
    }

    #[test]
    fn fixed_factor_ablation_still_correct() {
        let (p, cs) = random_lp(2000, 2, 11);
        let mut r = rng(12);
        let cfg = ClarksonConfig {
            factor: WeightFactor::Fixed(2.0),
            max_iterations: 100_000,
            ..ClarksonConfig::calibrated(1)
        };
        let (sol, _) = solve(&p, &cs, &cfg, &mut r).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
    }

    #[test]
    fn infeasible_lp_detected() {
        let p = LpProblem::new(vec![1.0, 0.0]);
        let mut cs = vec![
            Halfspace::new(vec![1.0, 0.0], 0.0),
            Halfspace::new(vec![-1.0, 0.0], -1.0),
        ];
        // Pad with satisfiable constraints so the sampler has mass.
        cs.extend((0..500).map(|k| Halfspace::new(vec![0.0, 1.0], 1.0 + k as f64)));
        let mut r = rng(13);
        match solve(&p, &cs, &ClarksonConfig::calibrated(2), &mut r) {
            Err((ClarksonError::Infeasible, _)) => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn svm_end_to_end() {
        let mut r = rng(21);
        let d = 2;
        let mut pts: Vec<SvmPoint> = Vec::with_capacity(1500);
        pts.extend((0..1500).map(|_| {
            let y: i8 = if r.random_bool(0.5) { 1 } else { -1 };
            let center = f64::from(y) * 3.0;
            let x: Vec<f64> = (0..d).map(|_| center + r.random_range(-1.0..1.0)).collect();
            SvmPoint { x, y }
        }));
        let p = SvmProblem::new(d);
        let (u, _) = solve(&p, &pts, &ClarksonConfig::calibrated(2), &mut r).unwrap();
        assert_eq!(count_violations(&p, &u, &pts), 0);
    }

    #[test]
    fn meb_end_to_end() {
        let mut r = rng(31);
        let d = 3;
        let pts: Vec<Vec<f64>> = (0..2000)
            .map(|_| (0..d).map(|_| r.random_range(-5.0..5.0)).collect())
            .collect();
        let p = MebProblem::new(d);
        let (ball, _) = solve(&p, &pts, &ClarksonConfig::calibrated(2), &mut r).unwrap();
        assert_eq!(count_violations(&p, &ball, &pts), 0);
        // Radius must match the direct Welzl solve.
        let direct = p.solve_subset(&pts, &mut r).unwrap();
        assert!((ball.radius - direct.radius).abs() < 1e-6 * direct.radius.max(1.0));
    }

    #[test]
    fn monte_carlo_mode_usually_succeeds_with_tight_delta() {
        let (p, cs) = random_lp(1000, 2, 41);
        let mut ok = 0;
        for seed in 0..10 {
            let mut r = rng(seed);
            let cfg = ClarksonConfig {
                net_delta: 1e-3,
                failure_policy: FailurePolicy::Abort,
                ..ClarksonConfig::calibrated(2)
            };
            if solve(&p, &cs, &cfg, &mut r).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 8, "Monte-Carlo mode failed too often: {ok}/10");
    }

    #[test]
    fn params_match_formulas() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        let params = ClarksonConfig::paper(2).params(&p, 10_000);
        assert!((params.factor - 100.0).abs() < 1e-9);
        assert!((params.eps - 1.0 / 3000.0).abs() < 1e-12);
        assert!(params.net_size <= 10_000);
    }

    #[test]
    fn tiny_input_smaller_than_net_is_exact() {
        let (p, cs) = random_lp(10, 2, 55);
        let mut r = rng(56);
        let (sol, stats) = solve(&p, &cs, &ClarksonConfig::paper(1), &mut r).unwrap();
        // Net ≥ n, so iteration 1 takes everything and terminates.
        assert_eq!(stats.iterations, 1);
        assert_eq!(count_violations(&p, &sol, &cs), 0);
    }

    #[test]
    fn success_rate_of_claim_3_2() {
        // Averaged over seeds, the per-iteration success rate should be
        // well above 2/3 with the verbatim constants. Use the paper
        // config on a small instance (net may clamp; that only helps).
        let mut successes = 0usize;
        let mut total = 0usize;
        for seed in 0..10 {
            let (p, cs) = random_lp(800, 2, 1000 + seed);
            let mut r = rng(seed);
            if let Ok((_, stats)) = solve(&p, &cs, &ClarksonConfig::calibrated(3), &mut r) {
                // Count all iterations; the final (terminating) one is a
                // success with V = ∅ that is not recorded in
                // successful_iterations.
                successes += stats.successful_iterations + 1;
                total += stats.iterations;
            }
        }
        let rate = successes as f64 / total as f64;
        assert!(
            rate >= 2.0 / 3.0,
            "empirical success rate {rate} below Claim 3.2 bound"
        );
    }
}
