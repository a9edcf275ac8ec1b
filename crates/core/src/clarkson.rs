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
//! The loop is written once, [`run`], over a [`Holder`] that owns its
//! input: RAM's holder is one [`SiteWeights`] over the rows and their
//! columns; the coordinator and MPC models in `llp_bigdata` are holders
//! made of their sites or machines and their meter, and the streaming
//! model's holder re-reads a chunk source each pass. So every model
//! fills one [`ClarksonStats`] and reports one [`ClarksonError`].
//!
//! Every solve that holds its constraints in memory keeps one
//! [`SiteWeights`], cut into parts: RAM's solve is one part, and each
//! coordinator site and each MPC machine in `llp_bigdata` is one.
//! Section 3.2 gives row `c` the weight `F^{a(c)}`, where `a(c)` counts
//! the accepted bases `c` violated, so the state keeps one integer
//! exponent per row and, per part, one row count per exponent class,
//! and reads `F^a` off one [`power_table`]. Every weight sum is
//! `Σ_a count_a·F^a` over an integer histogram, added in ascending
//! class order, so it is the same at any thread count by construction.
//! A part's net draw maps each uniform to a class and a rank inside it
//! (Lemma 2.2's inversion sampling over the part's class totals), marks
//! it, and emits the marked rows in one sweep over the part's
//! exponents: O(m + n) a net, next to the O(n·d) violation scan, which
//! is one columnar sweep over all rows however many parts there are.
//! Accepting a basis moves each violator up one class of its part.
//! Each solve builds its nets in one reused [`NetBuffer`]. The stream
//! keeps no per-row state under its space bound: it recomputes each
//! chunk's exponents from the stored bases with [`exponents_columnar`]
//! (Section 3.2).

use crate::lptype::{ColumnarProblem, LpTypeProblem, SolveError};
use llp_geom::{ColumnsView, ConstraintColumns};
use llp_num::ScaledF64;
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

    /// Same asymptotics with the net constant scaled by `1/16`, which
    /// experiment T9 calibrates — the default for benches on realistic
    /// input sizes.
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

/// Failure modes of the meta-algorithm, in every model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClarksonError {
    /// The constraint set is infeasible (detected on a sampled subset).
    Infeasible,
    /// The problem is unbounded.
    Unbounded,
    /// `max_iterations` exhausted without convergence.
    IterationLimit,
    /// An iteration failed under [`FailurePolicy::Abort`].
    NetFailure,
    /// The out-of-core chunk source failed (an I/O error or a corrupt
    /// store file surfaced mid-run).
    Store(String),
}

impl std::fmt::Display for ClarksonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClarksonError::Infeasible => write!(f, "infeasible"),
            ClarksonError::Unbounded => write!(f, "unbounded"),
            ClarksonError::IterationLimit => write!(f, "iteration limit exceeded"),
            ClarksonError::NetFailure => write!(f, "epsilon-net failure (Monte-Carlo mode)"),
            ClarksonError::Store(e) => write!(f, "chunk source failed: {e}"),
        }
    }
}

impl std::error::Error for ClarksonError {}

impl From<SolveError> for ClarksonError {
    fn from(e: SolveError) -> Self {
        match e {
            SolveError::Infeasible => ClarksonError::Infeasible,
            SolveError::Unbounded => ClarksonError::Unbounded,
        }
    }
}

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
    /// the holder's class-histogram total `Σ_a count_a·F^a` *after* the
    /// violator reweighting — exactly the quantity iteration `t + 1`
    /// samples against, so the T10 envelope check measures the weights
    /// actually used.
    pub weight_log2_trace: Vec<f64>,
    /// Violator count per iteration (successful or not).
    pub violators_trace: Vec<usize>,
}

/// Outcome of [`solve`] and [`run`]: the canonical optimum plus
/// statistics, or the error that ended the run.
pub type ClarksonOutcome<S> = Result<(S, ClarksonStats), ClarksonError>;

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
/// RAM's weights are one [`SiteWeights`] of one part, all `n` rows, in
/// a holder in [`run`]'s loop.
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
    let n = constraints.len();
    assert_eq!(columns.len(), n, "columns/constraints length mismatch");
    let mut ram = Ram {
        weights: SiteWeights::new(&[n], cfg.factor.value(n)),
        rows: constraints,
        columns,
        net: NetBuffer::new(),
    };
    run(problem, n, cfg, &mut ram, rng)
}

/// The holder of Algorithm 1's input and weights as its loop sees it:
/// the four calls [`run`] makes each iteration. Each holder owns its
/// input, whether rows in memory or a stream it re-reads. In the
/// coordinator and MPC models, which run the loop unchanged (Lemma
/// 3.7), each call also makes the protocol's rounds and charges its
/// messages; a stream's draw and scan are its passes, and a failed pass
/// is the run's [`ClarksonError::Store`].
pub trait Holder<P: ColumnarProblem> {
    /// `w(S)`, the total weight the ε test and the Eq. (2) trace read.
    /// It charges nothing: the loop reads it twice an iteration.
    fn total(&self) -> ScaledF64;

    /// Draws the iteration's ε-net of `count` weighted draws and returns
    /// its rows. When `count ≥ n` the net is the whole input, which an
    /// in-memory holder returns without a copy.
    fn draw_net<R: Rng>(
        &mut self,
        problem: &P,
        count: usize,
        rng: &mut R,
    ) -> Result<&[P::Constraint], ClarksonError>;

    /// Finds the violators of `solution` among the holder's rows, stages
    /// them for the verdict, and returns their weight `w(V)` and count.
    /// `rng` serves holders that draw while they scan.
    fn scan_and_stage<R: Rng>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
        rng: &mut R,
    ) -> Result<(ScaledF64, usize), ClarksonError>;

    /// Applies the verdict on the staged basis: accepted ⇒ every staged
    /// violator's weight is multiplied by `F` (Line 8); rejected ⇒ the
    /// weights stay.
    fn resolve(&mut self, accepted: bool);
}

/// Algorithm 1's loop (Lines 3–10) over any [`Holder`] of `n`
/// constraints, until `V = ∅`, the iteration cap, or a failed iteration
/// under [`FailurePolicy::Abort`]. Every solved basis is tested. The
/// holder must start with all weights 1 at the factor
/// `cfg.factor.value(n)`.
///
/// # Panics
/// Panics if `n` is 0.
pub fn run<P: ColumnarProblem, H: Holder<P>, R: Rng>(
    problem: &P,
    n: usize,
    cfg: &ClarksonConfig,
    holder: &mut H,
    rng: &mut R,
) -> ClarksonOutcome<P::Solution> {
    assert!(n > 0, "no constraints");
    let params = cfg.params(problem, n);
    let mut stats = ClarksonStats {
        net_size: params.net_size,
        eps: params.eps,
        factor: params.factor,
        ..ClarksonStats::default()
    };
    while stats.iterations < cfg.max_iterations {
        stats.iterations += 1;

        // --- Sample the ε-net with probability proportional to weight,
        // and solve its basis. ---
        let net = holder.draw_net(problem, params.net_size, rng)?;
        let solution = problem.solve_subset(net, rng)?;

        // --- Violators and their weight, staged until the success test
        // decides. ---
        let (w_violators, violator_count) = holder.scan_and_stage(problem, &solution, rng)?;
        stats.violators_trace.push(violator_count);

        let success = w_violators.ratio(holder.total()) <= params.eps;
        if success && violator_count == 0 {
            return Ok((solution, stats));
        }
        holder.resolve(success);
        if success {
            stats.successful_iterations += 1;
            // The Eq. (2) trace logs the holder's own post-update total —
            // the same value the next iteration samples and tests against,
            // not a side-channel recomputation that could drift from it.
            stats.weight_log2_trace.push(holder.total().log2());
        } else if cfg.failure_policy == FailurePolicy::Abort {
            return Err(ClarksonError::NetFailure);
        }
    }
    Err(ClarksonError::IterationLimit)
}

/// `F^a` for every exponent `a = 0..=top`, as `table[a] =
/// ScaledF64::powi(factor, a)`: the one source of Section 3.2's weights
/// `F^{a(c)}`. Each holder keeps a table up to its top class; the
/// stream's table reaches its number of stored bases.
pub fn power_table(factor: f64, top: u32, table: &mut Vec<ScaledF64>) {
    table.clear();
    table.extend((0..=top).map(|a| ScaledF64::powi(factor, a)));
}

/// The exponents `a(c)` — the number of `bases` that `c` violates — of
/// every row of a columnar block, in row order: one `scan_columns`
/// sweep per basis, counting each row's hits. The column kernels
/// classify rows exactly as `violates` does, so `counts[i]` is row
/// `i`'s `a(c)` without rebuilding any constraint; with no basis every
/// count is 0. `hits` is the caller's scratch for each sweep's violator
/// indices. The stream weighs each chunk this way (Section 3.2).
pub fn exponents_columnar<P: ColumnarProblem>(
    problem: &P,
    bases: &[P::Solution],
    view: &ColumnsView<'_>,
    counts: &mut Vec<u32>,
    hits: &mut Vec<usize>,
) {
    counts.clear();
    counts.resize(view.len(), 0);
    for basis in bases {
        hits.clear();
        problem.scan_columns(basis, view, hits);
        for &i in hits.iter() {
            counts[i - view.start()] += 1;
        }
    }
}

/// `Σ_a counts[a]·powers[a]`, added in ascending class order: the weight
/// of a class histogram. The counts are integers, so the sum is the same
/// however the rows were split or scanned.
fn class_sum(counts: &[usize], powers: &[ScaledF64]) -> ScaledF64 {
    counts
        .iter()
        .zip(powers)
        .fold(ScaledF64::ZERO, |acc, (&c, &p)| {
            acc + ScaledF64::from_f64(c as f64) * p
        })
}

/// The persistent weight state of one in-memory solve, cut into parts:
/// RAM's solve is one part, and each coordinator site or MPC machine is
/// one, a consecutive row range of the shared input. Row `i` weighs
/// `F^{a_i}`, where the exponent `a_i` counts the accepted bases the row
/// violated (Line 8 of Algorithm 1). So the state is one integer per
/// row, the number of rows in each exponent class of each part, and one
/// [`power_table`] that every weight and sum is read off. A part's
/// totals, draws and violator weights read only its own class
/// histogram, so they are those of a holder of its rows alone.
///
/// Section 3.2 and Lemma 3.7 give every holder the same three duties,
/// one method each: draw a part's share of the ε-net by weight
/// ([`draw_into`](Self::draw_into)), find the violators of a basis
/// ([`scan_and_stage`](Self::scan_and_stage)), and move them up one
/// class when the basis is accepted ([`resolve`](Self::resolve)). In
/// the distributed protocols the verdict arrives a round after the
/// scan, so the scan result is **staged** and then committed or
/// discarded. Weights are derived state and never travel; all metering
/// stays with the distributed holders built on this.
#[derive(Clone, Debug)]
pub struct SiteWeights {
    /// `a_i` of every row.
    exponents: Vec<u32>,
    /// Part `p` holds rows `starts[p]..starts[p + 1]`.
    starts: Vec<usize>,
    /// `counts[p][a]` rows of part `p` have exponent `a`. A part's last
    /// class is its top one, nonempty unless the part has no rows.
    counts: Vec<Vec<usize>>,
    /// `F^a` for every class up to the highest top class.
    powers: Vec<ScaledF64>,
    factor: f64,
    /// The violator rows of the basis whose verdict is pending,
    /// ascending.
    staged: Vec<usize>,
    /// Each part's `w(V_p)` and `|V_p|` from the latest scan.
    staged_sums: Vec<(ScaledF64, usize)>,
    /// Scratch: one part's violator class histogram.
    staged_counts: Vec<usize>,
}

impl SiteWeights {
    /// All-ones weights (Line 2 of Algorithm 1) over consecutive parts of
    /// the given sizes, from row 0: every row in class 0. RAM's solve is
    /// `&[n]`.
    pub fn new(sizes: &[usize], factor: f64) -> Self {
        assert!(factor > 1.0, "weight factor must exceed 1");
        let mut starts = vec![0];
        for &len in sizes {
            starts.push(starts[starts.len() - 1] + len);
        }
        let mut powers = Vec::new();
        power_table(factor, 0, &mut powers);
        SiteWeights {
            exponents: vec![0; starts[sizes.len()]],
            starts,
            counts: sizes.iter().map(|&len| vec![len]).collect(),
            powers,
            factor,
            staged: Vec::new(),
            staged_sums: Vec::new(),
            staged_counts: Vec::new(),
        }
    }

    /// The parts, `0..k`.
    pub fn parts(&self) -> Range<usize> {
        0..self.counts.len()
    }

    /// The rows of the shared input that part `part` holds.
    pub fn rows(&self, part: usize) -> Range<usize> {
        self.starts[part]..self.starts[part + 1]
    }

    /// The weight `F^{a_i}` of row `i`.
    pub fn weight(&self, i: usize) -> ScaledF64 {
        self.powers[self.exponents[i] as usize]
    }

    /// The number of rows of part `part` in each exponent class, from
    /// class 0 up to the part's top class.
    pub fn class_counts(&self, part: usize) -> &[usize] {
        &self.counts[part]
    }

    /// Draws `count` i.i.d. rows of part `part` proportional to weight,
    /// drops repeats (net membership is a set), and appends the rows they
    /// pick from the shared input `data` to `net`, in ascending row
    /// order. Returns how many rows it appended: none when `count` is 0
    /// or the part has no rows. A part with rows takes exactly `count`
    /// `random_range(0.0..1.0)` draws from `rng`; one without takes none.
    ///
    /// Each uniform picks a class by the part's `f64` class totals
    /// `count_a·F^{a−amax}` and a rank inside the class, and marks that
    /// (class, rank) in the buffer's bitmap; one sweep over the part's
    /// exponents then emits the marked rows. All weights 1 is one class,
    /// and a uniform `u` picks the part's row `min(⌊n·u⌋, n − 1)`.
    pub fn draw_into<C: Clone, R: Rng + ?Sized>(
        &self,
        part: usize,
        data: &[C],
        count: usize,
        rng: &mut R,
        net: &mut NetBuffer<C>,
    ) -> usize {
        let uniforms = (0..count).map(|_| rng.random_range(0.0..1.0f64));
        self.draw_uniforms(part, data, uniforms, net)
    }

    /// [`draw_into`](Self::draw_into) with the uniforms given.
    fn draw_uniforms<C: Clone>(
        &self,
        part: usize,
        data: &[C],
        uniforms: impl ExactSizeIterator<Item = f64>,
        net: &mut NetBuffer<C>,
    ) -> usize {
        net.picked.clear();
        let rows = self.rows(part);
        if uniforms.len() == 0 || rows.is_empty() {
            return 0;
        }
        let classes = &mut net.classes;
        classes.prepare(&self.counts[part], &self.powers);
        for u in uniforms {
            classes.mark(u);
        }
        classes.sweep(&self.exponents[rows.clone()], &mut net.picked);
        net.append_picked(&data[rows]);
        net.picked.len()
    }

    /// Part `part`'s total weight `w(S_p) = Σ_a count_a·F^a`, summed in
    /// ascending class order: O(classes), no pass over the rows.
    pub fn total(&self, part: usize) -> ScaledF64 {
        class_sum(&self.counts[part], &self.powers)
    }

    /// Finds the violators of `solution` among all rows in one sweep of
    /// the shared `columns`, stages them for the next verdict, and
    /// returns each part's violator weight `w(V_p)` and count `|V_p|`,
    /// in part order. The column kernel runs chunk-parallel with an
    /// ordered merge and classifies each row on its own, and each
    /// weight is the part's violator class histogram summed like
    /// [`total`](Self::total), so every output is the same at any thread
    /// count and however the parts cut the rows. `columns` must be the
    /// transposition of the whole input.
    pub fn scan_and_stage<P: ColumnarProblem>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
        columns: &ConstraintColumns,
    ) -> &[(ScaledF64, usize)] {
        crate::lptype::scan_violators_columnar(problem, solution, columns, &mut self.staged);
        self.staged_sums.clear();
        let mut violators = self.staged.iter().peekable();
        for (counts, &end) in self.counts.iter().zip(&self.starts[1..]) {
            self.staged_counts.clear();
            self.staged_counts.resize(counts.len(), 0);
            let mut count = 0;
            while let Some(&i) = violators.next_if(|&&i| i < end) {
                self.staged_counts[self.exponents[i] as usize] += 1;
                count += 1;
            }
            let w = class_sum(&self.staged_counts, &self.powers);
            self.staged_sums.push((w, count));
        }
        &self.staged_sums
    }

    /// Applies the verdict on the staged basis: accepted ⇒ every staged
    /// violator moves up one class of its part (its weight ×`F`);
    /// rejected ⇒ weights unchanged. Either way the staged list is
    /// emptied, keeping its buffer.
    pub fn resolve(&mut self, accepted: bool) {
        if accepted {
            let (mut part, mut classes) = (0, self.powers.len());
            for &i in &self.staged {
                while i >= self.starts[part + 1] {
                    part += 1;
                }
                let counts = &mut self.counts[part];
                let a = self.exponents[i] as usize;
                self.exponents[i] += 1;
                if a + 1 == counts.len() {
                    counts.push(0);
                    classes = classes.max(a + 2);
                }
                counts[a] -= 1;
                counts[a + 1] += 1;
            }
            if self.powers.len() < classes {
                power_table(self.factor, classes as u32 - 1, &mut self.powers);
            }
        }
        self.staged.clear();
    }
}

/// RAM's holder: one [`SiteWeights`] of one part over all rows, the
/// rows, their columns, and the solve's [`NetBuffer`].
struct Ram<'a, C> {
    weights: SiteWeights,
    rows: &'a [C],
    columns: &'a ConstraintColumns,
    net: NetBuffer<C>,
}

impl<P: ColumnarProblem> Holder<P> for Ram<'_, P::Constraint> {
    fn total(&self) -> ScaledF64 {
        self.weights.total(0)
    }

    fn draw_net<R: Rng>(
        &mut self,
        _: &P,
        count: usize,
        rng: &mut R,
    ) -> Result<&[P::Constraint], ClarksonError> {
        if count >= self.rows.len() {
            return Ok(self.rows);
        }
        self.net.clear();
        self.weights
            .draw_into(0, self.rows, count, rng, &mut self.net);
        Ok(self.net.rows())
    }

    fn scan_and_stage<R: Rng>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
        _: &mut R,
    ) -> Result<(ScaledF64, usize), ClarksonError> {
        Ok(self.weights.scan_and_stage(problem, solution, self.columns)[0])
    }

    fn resolve(&mut self, accepted: bool) {
        self.weights.resolve(accepted);
    }
}

/// The class-rank draw of one part: the tables that map a uniform to
/// an exponent class and a rank inside it, and one mark per (class,
/// rank). Kept in the [`NetBuffer`] and refilled for every draw.
#[derive(Debug, Default)]
struct ClassDraw {
    /// `F^{a−amax}` per class as an `f64`; 0 where it underflows.
    rel: Vec<f64>,
    /// `Σ_{b ≤ a} count_b·rel_b`, in ascending class order.
    cum: Vec<f64>,
    /// Per class, the mark of its next row: its first row's until the
    /// sweep counts through the class. One entry past the top class
    /// holds the row count.
    next: Vec<usize>,
    /// One bit per row, class by class, by rank inside each class.
    marks: Vec<u64>,
}

impl ClassDraw {
    /// Sets the tables up for a part's class `counts` and `powers`
    /// and clears every mark.
    fn prepare(&mut self, counts: &[usize], powers: &[ScaledF64]) {
        let top = powers[counts.len() - 1];
        self.rel.clear();
        self.cum.clear();
        self.next.clear();
        let (mut acc, mut first) = (0.0, 0);
        for (&count, &power) in counts.iter().zip(powers) {
            let rel = power.ratio(top);
            acc += count as f64 * rel;
            self.rel.push(rel);
            self.cum.push(acc);
            self.next.push(first);
            first += count;
        }
        self.next.push(first);
        self.marks.clear();
        self.marks.resize(first.div_ceil(64), 0);
    }

    /// Marks the (class, rank) a uniform `u ∈ [0, 1)` selects. The
    /// target `u·W` lies in the first class whose cumulative total
    /// exceeds it, so a target on a boundary belongs to the class above,
    /// and a class of total 0 (no rows, or an underflowed `rel`) is never
    /// picked; a target at `W` is clamped into the top class. The rank is
    /// the number of whole class weights below the target, at most the
    /// class size − 1.
    fn mark(&mut self, u: f64) {
        let top = self.cum.len() - 1;
        let t = u * self.cum[top];
        let a = self.cum.partition_point(|&c| c <= t).min(top);
        let below = if a == 0 { 0.0 } else { self.cum[a - 1] };
        let rank = ((t - below) / self.rel[a]) as usize;
        let bit = self.next[a] + rank.min(self.next[a + 1] - self.next[a] - 1);
        self.marks[bit / 64] |= 1 << (bit % 64);
    }

    /// Appends every local row whose (class, rank) is marked to `out`,
    /// in ascending order: one pass over the exponents, counting each
    /// class's rows.
    fn sweep(&mut self, exponents: &[u32], out: &mut Vec<usize>) {
        for (i, &a) in exponents.iter().enumerate() {
            let bit = self.next[a as usize];
            self.next[a as usize] = bit + 1;
            if self.marks[bit / 64] >> (bit % 64) & 1 == 1 {
                out.push(i);
            }
        }
    }
}

/// The ε-net of one iteration, built in place by
/// [`SiteWeights::draw_into`], plus the draw's own buffers. One buffer
/// serves a whole solve — the RAM, coordinator and MPC holders each keep
/// one — and [`clear`](Self::clear) empties it at the start of each draw
/// without freeing anything: row slots are refilled with `clone_from`,
/// which reuses each row's buffers, and the class tables and marks are
/// refilled in place, so once the first nets have warmed it the loop's
/// net bookkeeping allocates nothing.
#[derive(Debug)]
pub struct NetBuffer<C> {
    /// The latest draw's class tables and marks.
    classes: ClassDraw,
    /// Part-local indices of the latest draw: ascending, without repeats.
    picked: Vec<usize>,
    /// Row slots; the first `len` hold the net.
    slots: Vec<C>,
    len: usize,
}

impl<C: Clone> NetBuffer<C> {
    /// An empty buffer; the first nets warm it up.
    pub fn new() -> Self {
        NetBuffer {
            classes: ClassDraw::default(),
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

    /// The local indices of the latest draw (relative to the drawn
    /// part's first row): ascending, without repeats.
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
        // keeps this kernel file clean under the hot-loop allocation
        // lint; the RNG draw order matches the loop it replaced exactly.
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
            Err(ClarksonError::Infeasible) => {}
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
        let mut site = SiteWeights::new(&[cs.len()], 3.0);
        assert!((site.total(0).to_f64() - 10.0).abs() < 1e-9);

        let probe = vec![4.5, 0.0];
        let (w, count) = site.scan_and_stage(&p, &probe, &columns)[0];
        assert_eq!(count, 5);
        assert!((w.to_f64() - 5.0).abs() < 1e-9);

        // Rejected verdict: nothing changes.
        site.resolve(false);
        assert!((site.total(0).to_f64() - 10.0).abs() < 1e-9);

        // Accepted verdict: the five violators triple.
        let _ = site.scan_and_stage(&p, &probe, &columns);
        site.resolve(true);
        assert!((site.total(0).to_f64() - (5.0 * 3.0 + 5.0)).abs() < 1e-9);
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
    fn columnar_exponents_and_power_table_match_per_row_weights() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        // x + y ≤ b for b = 0..10: row b violates the bases with x > b.
        let cs: Vec<Halfspace> = (0..10)
            .map(|b| Halfspace::new(vec![1.0, 1.0], f64::from(b)))
            .collect();
        let columns = p.to_columns(&cs);
        let (mut counts, mut hits, mut powers) = (Vec::new(), Vec::new(), Vec::new());
        // No stored basis: every exponent is 0 and every weight is 1.
        exponents_columnar(&p, &[], &columns.full_view(), &mut counts, &mut hits);
        assert_eq!(counts, [0; 10]);
        power_table(3.0, 0, &mut powers);
        assert_eq!(powers, [ScaledF64::ONE]);

        let bases = [vec![0.5, 0.0], vec![2.5, 0.0], vec![4.5, 0.0]];
        power_table(3.0, bases.len() as u32, &mut powers);
        assert_eq!(powers.len(), 4);
        exponents_columnar(&p, &bases, &columns.full_view(), &mut counts, &mut hits);
        assert_eq!(counts, [3, 2, 2, 1, 1, 0, 0, 0, 0, 0]);
        // A view that starts past row 0 (scan indices are absolute).
        exponents_columnar(&p, &bases, &columns.view(3, 10), &mut counts, &mut hits);
        assert_eq!(counts, [1, 1, 0, 0, 0, 0, 0]);
        // Each count is the row's per-row `violates` count against the
        // bases, and its weight is F^a.
        for (i, &a) in counts.iter().enumerate() {
            let violated = bases.iter().filter(|b| p.violates(b, &cs[3 + i])).count();
            assert_eq!(a as usize, violated);
            assert_eq!(powers[a as usize], ScaledF64::powi(3.0, a));
        }

        // Bases (0, 0) and (5, 5) against x + y ≤ 2: one violated, so the
        // weight is F = 10.
        let bases = [vec![0.0, 0.0], vec![5.0, 5.0]];
        let columns = p.to_columns(&[Halfspace::new(vec![1.0, 1.0], 2.0)]);
        exponents_columnar(&p, &bases, &columns.full_view(), &mut counts, &mut hits);
        assert_eq!(counts, [1]);
        power_table(10.0, bases.len() as u32, &mut powers);
        assert!((powers[counts[0] as usize].to_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn site_weights_sampling_prefers_heavy_elements() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        let cs: Vec<Halfspace> = (0..4)
            .map(|b| Halfspace::new(vec![1.0, 1.0], f64::from(b)))
            .collect();
        let mut site = SiteWeights::new(&[cs.len()], 1000.0);
        // Make element 0 dominate: (0.5, 0) violates only b = 0.
        let probe = vec![0.5, 0.0];
        let _ = site.scan_and_stage(&p, &probe, &p.to_columns(&cs));
        site.resolve(true);
        let mut r = rng(7);
        let mut net = NetBuffer::new();
        let drawn = site.draw_into(0, &cs, 64, &mut r, &mut net);
        assert_eq!(drawn, net.rows().len());
        assert!(net.picked().contains(&0), "dominant element missing");
        assert_eq!(net.rows()[0], cs[0]);
        assert_eq!(site.draw_into(0, &cs, 0, &mut r, &mut net), 0);
        assert!(net.picked().is_empty());
        // A part with no rows has no weight and draws nothing.
        let parts = SiteWeights::new(&[2, 0, 2], 1000.0);
        assert!(parts.total(1).is_zero());
        assert_eq!(parts.draw_into(1, &cs, 5, &mut r, &mut net), 0);
        assert!(net.picked().is_empty());
    }

    /// A holder over `exps.len()` rows that reaches row `i`'s exponent
    /// `exps[i]` through accepted verdicts, as the solvers do: round `k`
    /// stages every row whose exponent is above `k`.
    fn holder_with(exps: &[u32], factor: f64) -> SiteWeights {
        let mut site = SiteWeights::new(&[exps.len()], factor);
        for k in 0..exps.iter().copied().max().unwrap_or(0) {
            site.staged.clear();
            site.staged.extend((0..exps.len()).filter(|&i| exps[i] > k));
            site.resolve(true);
        }
        site
    }

    /// The local row one uniform `u` selects: a draw of that one uniform
    /// (`data` holds at least the holder's rows).
    fn row_of(site: &SiteWeights, data: &[u32], u: f64, net: &mut NetBuffer<u32>) -> usize {
        net.clear();
        assert_eq!(site.draw_uniforms(0, data, std::iter::once(u), net), 1);
        net.picked()[0]
    }

    #[test]
    fn class_rank_draw_is_exact_keeps_uniform_rows_and_keeps_the_rng_in_step() {
        use rand::RngCore;
        let mut net = NetBuffer::new();
        let rows: Vec<u32> = (0..4099).collect();

        // Dyadic weights, where every class total and prefix is exact:
        // F = 2, classes 0 (8 rows), 1 (none), 2 (2 rows) and 3 (2 rows),
        // relative weights 1/8, 1/4, 1/2 and 1, so W = 4 and the class
        // boundaries sit at targets 1 (class 0 | class 2) and 2. Each
        // uniform must pick the row a prefix over the rows in (class,
        // row) order picks: the first whose prefix exceeds the target,
        // so a target on a boundary opens the next nonempty class.
        let exps = [0, 3, 0, 2, 0, 0, 3, 0, 2, 0, 0, 0];
        let site = holder_with(&exps, 2.0);
        assert_eq!(site.class_counts(0), [8, 0, 2, 2]);
        let mut order: Vec<usize> = (0..exps.len()).collect();
        order.sort_by_key(|&i| (exps[i], i));
        let rel = |i: usize| (f64::from(exps[i]) - 3.0).exp2();
        let naive = |u: f64| {
            let t = u * 4.0;
            let mut prefix = 0.0;
            for &i in &order {
                prefix += rel(i);
                if prefix > t {
                    return i;
                }
            }
            order[order.len() - 1]
        };
        let boundaries = [0.0, 0.25, 0.5, 0.25 + 1.0 / 64.0, 1.0 - f64::EPSILON / 2.0];
        let grid = (0..256).map(|j| (f64::from(j) + 0.5) / 256.0);
        for u in boundaries.into_iter().chain(grid) {
            assert_eq!(row_of(&site, &rows, u, &mut net), naive(u), "u = {u}");
        }

        // Exact distribution: M uniforms (j + 1/2)/M, no RNG. Each row's
        // share of the hits is within 2/M of F^a/W. The holders have
        // 3–5 classes, an empty class between two others, and (at
        // F = 2^300, top class 4) a class 0 whose F^{0−4} = 2^-1200
        // underflows f64: its rows get no hit at all.
        const M: usize = 20_000;
        let cases: [(&[u32], f64); 3] = [
            (&[0, 2, 0, 3, 2, 0, 0, 3, 2, 0, 2, 3], 3.0),
            (&[1, 0, 4, 0, 1, 2, 4, 2, 0, 1], 1.7),
            (&[0, 4, 1, 4, 3, 0, 1, 3, 4, 0], 2f64.powi(300)),
        ];
        let mut hits = Vec::new();
        for (exps, factor) in cases {
            let site = holder_with(exps, factor);
            let w: ScaledF64 = exps.iter().map(|&a| ScaledF64::powi(factor, a)).sum();
            hits.clear();
            hits.resize(exps.len(), 0usize);
            for j in 0..M {
                hits[row_of(&site, &rows, (j as f64 + 0.5) / M as f64, &mut net)] += 1;
            }
            for (i, &a) in exps.iter().enumerate() {
                let share = hits[i] as f64 / M as f64;
                let want = ScaledF64::powi(factor, a).ratio(w);
                assert!(
                    (share - want).abs() <= 2.0 / M as f64,
                    "F = {factor}: row {i} (class {a}) got {share}, want {want}"
                );
            }
            if factor > 1e80 {
                assert!(exps.iter().zip(&hits).all(|(&a, &h)| a > 0 || h == 0));
            }
        }

        // All weights 1: one class, and a uniform u picks row
        // min(⌊n·u⌋, n − 1), as an inversion over integer prefix sums
        // does. A whole draw is those rows, ascending, without repeats,
        // and takes exactly `count` uniforms from the RNG.
        let mut want = Vec::new();
        for n in [1usize, 2, 7, 64, 1000, 4099] {
            let site = SiteWeights::new(&[n], 5.0);
            for u in [0.0, 0.3, 0.5, 0.999, 1.0 - f64::EPSILON / 2.0] {
                let want = ((n as f64 * u) as usize).min(n - 1);
                assert_eq!(row_of(&site, &rows, u, &mut net), want, "n = {n}, u = {u}");
            }
            for (count, seed) in [(0, 1), (1, 2), (n / 2 + 1, 3), (3 * n, 4)] {
                let mut want_rng = rng(seed);
                want.clear();
                want.extend(
                    (0..count)
                        .map(|_| want_rng.random_range(0.0..1.0f64))
                        .map(|u| ((n as f64 * u) as usize).min(n - 1)),
                );
                want.sort_unstable();
                want.dedup();
                let mut draw_rng = rng(seed);
                net.clear();
                let drawn = site.draw_into(0, &rows[..n], count, &mut draw_rng, &mut net);
                assert_eq!(net.picked(), &want[..], "n = {n}, count = {count}");
                assert_eq!(drawn, want.len());
                assert_eq!(draw_rng.next_u64(), want_rng.next_u64(), "RNG out of step");
            }
        }
        // Weighted holders take exactly `count` uniforms too.
        let site = holder_with(&[0, 2, 0, 3, 2, 0, 0, 3, 2, 0, 2, 3], 3.0);
        let (mut draw_rng, mut want_rng) = (rng(9), rng(9));
        net.clear();
        site.draw_into(0, &rows, 500, &mut draw_rng, &mut net);
        (0..500).for_each(|_| {
            want_rng.random_range(0.0..1.0f64);
        });
        assert_eq!(draw_rng.next_u64(), want_rng.next_u64(), "RNG out of step");
    }
}
