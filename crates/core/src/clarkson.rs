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
//! Every holder of constraints runs the same weight bookkeeping: the
//! RAM machine here, each coordinator site and each MPC machine in
//! `llp_bigdata`. A holder is one [`SiteWeights`]: a [`WeightIndex`]
//! over its rows, maintained across iterations, so element `i`'s weight
//! is the product of its `F` multiplications. The Fenwick tree behind
//! the index serves both the Lemma 2.2 inversion sampling (one batched
//! descent of the net's `m` sorted targets, no prefix rebuild) and the
//! O(1) total that the success test and the Eq. (2) trace share. Only
//! violators change between iterations, so an iteration costs at most
//! O(|V| log n + m log n) on the weight side. RAM is one holder over
//! rows `0..n`; its draw, fused scan and ×`F` reweight are the holder's
//! three methods, in that order. Each solve builds its nets in one
//! reused [`NetBuffer`]. (The streaming implementation instead
//! recomputes weights from the stored bases under its space bound, see
//! Section 3.2.)

use crate::lptype::{ColumnarProblem, LpTypeProblem, SolveError};
use llp_geom::ConstraintColumns;
use llp_num::ScaledF64;
use llp_sampling::weight_index::{DrawScratch, WeightIndex};
use rand::Rng;
use std::ops::Range;

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

/// Runs Algorithm 1 on `constraints`: transposes them into columnar
/// storage and calls [`solve_with_columns`].
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
    solve_with_columns(problem, constraints, &columns, cfg, rng)
}

/// Runs Algorithm 1 on `constraints`, scanning the columnar mirror
/// `columns`.
///
/// `columns` must be `problem.to_columns(constraints)` (same
/// constraints, same order); the AoS slice still serves the ε-net
/// basis solves while every O(n) violation scan runs over the columns.
/// The RAM machine is one [`SiteWeights`] holder over all `n` rows, and
/// its nets are built in one [`NetBuffer`] for the whole solve.
///
/// # Panics
/// Panics if `constraints` is empty or `columns` has a different
/// length.
pub fn solve_with_columns<P: ColumnarProblem, R: Rng>(
    problem: &P,
    constraints: &[P::Constraint],
    columns: &ConstraintColumns,
    cfg: &ClarksonConfig,
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
    let mut holder = SiteWeights::new(0..n, factor);
    let mut buffer = NetBuffer::new();

    while stats.iterations < cfg.max_iterations {
        stats.iterations += 1;

        // --- Sample the ε-net with probability proportional to weight:
        // one batched descent of m sorted targets through the standing
        // index. When the net would be the whole input, no copy. ---
        let net: &[P::Constraint] = if m >= n {
            constraints
        } else {
            buffer.clear();
            holder.draw_into(constraints, m, rng, &mut buffer);
            buffer.rows()
        };

        // --- Basis of the net. ---
        let solution = match problem.solve_subset(net, rng) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => return Err((ClarksonError::Infeasible, stats)),
            Err(SolveError::Unbounded) => return Err((ClarksonError::Unbounded, stats)),
        };

        // --- Violators and their weight: the O(n) hot scan over the
        // columnar mirror, staged until the success test decides. ---
        let (w_violators, violator_count) = holder.scan_and_stage(problem, &solution, columns);
        stats.violators_trace.push(violator_count);

        let success = w_violators.ratio(holder.total()) <= eps;
        if success && violator_count == 0 {
            return Ok((solution, stats));
        }
        holder.resolve(success);
        if success {
            stats.successful_iterations += 1;
            // The Eq. (2) trace logs the index's own post-update total —
            // the same value the next iteration samples and tests against,
            // not a side-channel recomputation that could drift from it.
            stats.weight_log2_trace.push(holder.total().log2());
        } else if cfg.failure_policy == FailurePolicy::Abort {
            return Err((ClarksonError::NetFailure, stats));
        }
    }
    Err((ClarksonError::IterationLimit, stats))
}

/// The persistent weight state of one holder of constraints: the RAM
/// machine (all rows), a coordinator site or an MPC machine (one
/// consecutive row range of the shared input). A [`WeightIndex`] over
/// the holder's rows, updated from each accepted basis's violator list
/// instead of recomputed from the basis history. Local index `i` is row
/// `rows.start + i`.
///
/// Section 3.2 and Lemma 3.7 give every holder the same three duties,
/// one method each: draw its share of the ε-net by weight
/// ([`draw_into`](Self::draw_into)), find its violators of a basis
/// ([`scan_and_stage`](Self::scan_and_stage)), and multiply them by `F`
/// when the basis is accepted ([`resolve`](Self::resolve)). In the
/// distributed protocols the verdict arrives a round after the scan, so
/// the scan result is **staged** and then committed or discarded.
/// Weights are derived state and never travel; all metering stays in
/// the callers.
#[derive(Clone, Debug)]
pub struct SiteWeights {
    index: WeightIndex,
    factor: f64,
    /// The rows of the shared input this holder owns.
    rows: Range<usize>,
    /// Local violator indices of the basis whose verdict is pending.
    staged: Vec<usize>,
}

impl SiteWeights {
    /// All-ones weights over the rows `rows` (Line 2 of Algorithm 1).
    pub fn new(rows: Range<usize>, factor: f64) -> Self {
        assert!(factor > 1.0, "weight factor must exceed 1");
        SiteWeights {
            index: WeightIndex::uniform(rows.len()),
            factor,
            rows,
            staged: Vec::new(),
        }
    }

    /// One holder per consecutive row range of the given sizes, in order
    /// from row 0: the site or machine layout of a partitioned run.
    pub fn partition(sizes: &[usize], factor: f64) -> Vec<SiteWeights> {
        let mut start = 0;
        sizes
            .iter()
            .map(|&len| {
                start += len;
                SiteWeights::new(start - len..start, factor)
            })
            .collect()
    }

    /// The rows of the shared input this holder owns.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// The holder's total local weight `w(S_i)` — O(1), no recompute.
    pub fn total(&self) -> ScaledF64 {
        self.index.total()
    }

    /// The weight of local constraint `i` (row `rows.start + i`).
    pub fn weight(&self, i: usize) -> ScaledF64 {
        self.index.get(i)
    }

    /// Draws `count` i.i.d. local indices proportional to weight — one
    /// batched descent of sorted targets through the index — drops
    /// repeats (net membership is a set), and appends the rows they pick
    /// from the shared input `data` to `net`, in ascending row order.
    /// Returns how many rows it appended: none when `count` is 0 or the
    /// holder has no weight.
    pub fn draw_into<C: Clone, R: Rng + ?Sized>(
        &self,
        data: &[C],
        count: usize,
        rng: &mut R,
        net: &mut NetBuffer<C>,
    ) -> usize {
        net.picked.clear();
        if count == 0 || self.index.total().is_zero() {
            return 0;
        }
        self.index
            .draw_many(count, rng, &mut net.draw, &mut net.picked);
        net.picked.dedup();
        net.append_picked(&data[self.rows()]);
        net.picked.len()
    }

    /// Finds the violators of `solution` among the holder's rows of the
    /// shared `columns`, stages their local indices for the next verdict,
    /// and returns their weight `w(V_i)` and count. The column kernel runs
    /// chunk-parallel with an ordered merge (bit-identical for any thread
    /// count), each weight is an O(1) index read instead of an O(t·d)
    /// recompute, and the staged buffer is refilled in place. `columns`
    /// must be the transposition of the whole input the ranges cut.
    pub fn scan_and_stage<P: ColumnarProblem>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
        columns: &ConstraintColumns,
    ) -> (ScaledF64, usize) {
        let w = crate::lptype::scan_violators_weighted_columnar(
            problem,
            solution,
            columns,
            self.rows(),
            &self.index,
            &mut self.staged,
        );
        (w, self.staged.len())
    }

    /// Applies the verdict on the staged basis: accepted ⇒ every staged
    /// violator's weight ×`F` (`O(|V| log n)`), in ascending order;
    /// rejected ⇒ weights unchanged. Either way the staged list is
    /// emptied, keeping its buffer.
    pub fn resolve(&mut self, accepted: bool) {
        if accepted {
            for &i in &self.staged {
                self.index.multiply(i, self.factor);
            }
        }
        self.staged.clear();
    }
}

/// The ε-net of one iteration, built in place by the holders'
/// [`SiteWeights::draw_into`], plus the draw's own buffers. One buffer
/// serves a whole solve — RAM, the coordinator and MPC each keep one —
/// and [`clear`](Self::clear) empties it at the start of each iteration
/// without freeing anything: row slots are refilled with `clone_from`,
/// which reuses each row's buffers, so once the first nets have warmed
/// it the loop's net bookkeeping allocates nothing.
#[derive(Debug)]
pub struct NetBuffer<C> {
    /// The latest draw's sorted uniforms and targets.
    draw: DrawScratch,
    /// Local indices of the latest draw: ascending, without repeats.
    picked: Vec<usize>,
    /// Row slots; the first `len` hold the net.
    slots: Vec<C>,
    len: usize,
}

impl<C: Clone> NetBuffer<C> {
    /// An empty buffer; the first nets warm it up.
    pub fn new() -> Self {
        NetBuffer {
            draw: DrawScratch::default(),
            picked: Vec::new(),
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Empties the net, keeping every buffer.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The net's rows, in the order the holders drew them.
    pub fn rows(&self) -> &[C] {
        &self.slots[..self.len]
    }

    /// The local indices of the latest draw (relative to the drawing
    /// holder's first row): ascending, without repeats.
    pub fn picked(&self) -> &[usize] {
        &self.picked
    }

    /// Appends `local[j]` for every picked `j`, refilling slots in place.
    fn append_picked(&mut self, local: &[C]) {
        let NetBuffer {
            picked, slots, len, ..
        } = self;
        let end = *len + picked.len();
        if slots.len() < end {
            // Warm-up only: the pool grows to the largest net seen.
            slots.resize(end, local[picked[0]].clone());
        }
        for (slot, &j) in slots[*len..end].iter_mut().zip(picked.iter()) {
            slot.clone_from(&local[j]);
        }
        *len = end;
    }
}

impl<C: Clone> Default for NetBuffer<C> {
    fn default() -> Self {
        Self::new()
    }
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

    #[test]
    fn site_weights_commit_and_discard() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        // Constraints x + y ≤ b for b = 0..10; basis point (4.5, 0)
        // violates exactly b ∈ {0..4}.
        let cs: Vec<Halfspace> = (0..10)
            .map(|b| Halfspace::new(vec![1.0, 1.0], f64::from(b)))
            .collect();
        let columns = p.to_columns(&cs);
        let mut site = SiteWeights::new(0..cs.len(), 3.0);
        assert!((site.total().to_f64() - 10.0).abs() < 1e-9);

        let probe = vec![4.5, 0.0];
        let (w, count) = site.scan_and_stage(&p, &probe, &columns);
        assert_eq!(count, 5);
        assert!((w.to_f64() - 5.0).abs() < 1e-9);

        // Rejected verdict: nothing changes.
        site.resolve(false);
        assert!((site.total().to_f64() - 10.0).abs() < 1e-9);

        // Accepted verdict: the five violators triple.
        let _ = site.scan_and_stage(&p, &probe, &columns);
        site.resolve(true);
        assert!((site.total().to_f64() - (5.0 * 3.0 + 5.0)).abs() < 1e-9);
        assert!((site.weight(0).to_f64() - 3.0).abs() < 1e-9);
        assert!((site.weight(9).to_f64() - 1.0).abs() < 1e-9);

        // A second accepted round compounds multiplicatively and the
        // staged list is consumed each time (idempotent resolve).
        let _ = site.scan_and_stage(&p, &probe, &columns);
        site.resolve(true);
        site.resolve(true);
        assert!((site.weight(0).to_f64() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn site_weights_sampling_prefers_heavy_elements() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        let cs: Vec<Halfspace> = (0..4)
            .map(|b| Halfspace::new(vec![1.0, 1.0], f64::from(b)))
            .collect();
        let mut site = SiteWeights::new(0..cs.len(), 1000.0);
        // Make element 0 dominate: (0.5, 0) violates only b = 0.
        let probe = vec![0.5, 0.0];
        let _ = site.scan_and_stage(&p, &probe, &p.to_columns(&cs));
        site.resolve(true);
        let mut r = rng(7);
        let mut net = NetBuffer::new();
        let drawn = site.draw_into(&cs, 64, &mut r, &mut net);
        assert_eq!(drawn, net.rows().len());
        assert!(net.picked().contains(&0), "dominant element missing");
        assert_eq!(net.rows()[0], cs[0]);
        assert_eq!(site.draw_into(&cs, 0, &mut r, &mut net), 0);
        assert!(net.picked().is_empty());
    }
}
