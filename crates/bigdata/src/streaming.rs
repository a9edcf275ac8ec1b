//! Theorem 1: Algorithm 1 in the multi-pass streaming model.
//!
//! The stream is one holder in the loop every model runs
//! (`llp_core::clarkson::run`): its draw and scan are passes over a
//! [`ChunkSource`] tape, counted one per rewind. Memory between passes
//! holds only (a) the basis history of accepted iterations
//! (`Õ(ν²)·bit(S)` bits — weights are recomputed from it on the fly,
//! Section 3.2) and (b) the current ε-net buffer
//! (`Õ(λνn^{1/r})·bit(S)` bits), metered in a [`SpaceMeter`]. The total
//! weight `w(S)` is bookkept: it starts at `n` and each accepted basis
//! adds `(F − 1)·w(V)`. Two sampling modes:
//!
//! * [`SamplingMode::TwoPassIid`] — faithful to Lemma 2.2: the draw is
//!   pass 1, which draws the net i.i.d. by inverting `m` sorted uniforms
//!   against the running prefix-sum of reconstructed weights (the total
//!   is the bookkept one); the scan is pass 2, the violation test. Two
//!   passes per iteration — still `O(νr)` passes.
//! * [`SamplingMode::OnePassSpeculative`] — one pass per iteration: the
//!   first draw is one pass of an all-ones weighted reservoir (A-ExpJ);
//!   while the scan tests a basis, two reservoirs sample the next net
//!   under both possible outcomes (accept/reject), and the verdict keeps
//!   the right one, which is the next draw. Reservoir sampling is without
//!   replacement, which only improves ε-net coverage (ablation A2). A
//!   net that covers the input has nothing to sample, so such a run
//!   reads the input as its net each iteration and runs as two-pass.
//!
//! Every chunk is weighed in columnar form (one column sweep per stored
//! basis gives each row's exponent `a(c)`,
//! `llp_core::clarkson::exponents_columnar`, and the `F^a` table its
//! weight) and tested by the problem's column kernel. A row is rebuilt
//! into a constraint only when a sampler keeps it. The `F^a` table is
//! the one source of weights: pass 1 feeds a whole chunk's exponents to
//! [`SortedTargetSampler::feed_run`], which adds the table's weights to
//! the prefix exactly as one `feed` per row would, and pass 2 weighs
//! each violator as `table[a(c)]`, with the exponents of its chunk
//! counted as in pass 1. The net's bits are freed, and two-pass's net
//! rows dropped, when the next scan starts, after the basis solve.

use crate::ooc::{ChunkSource, SliceSource};
use crate::BigDataError;
use llp_core::clarkson::{self, exponents_columnar, power_table, Holder, RunParams};
use llp_core::lptype::ColumnarProblem;
use llp_core::ClarksonConfig;
use llp_geom::ConstraintColumns;
use llp_models::streaming::SpaceMeter;
use llp_num::ScaledF64;
use llp_sampling::reservoir::WeightedReservoir;
use llp_sampling::weighted::SortedTargetSampler;
use rand::Rng;

/// How each iteration's ε-net is drawn from the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingMode {
    /// Two passes per iteration, i.i.d. with replacement (verbatim
    /// Lemma 2.2 sampling).
    TwoPassIid,
    /// One pass per iteration via speculative double reservoirs.
    OnePassSpeculative,
}

/// Statistics of a streaming run (experiment T2). `PartialEq` backs the
/// parallel-determinism differential suite.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamingStats {
    /// Passes over the stream.
    pub passes: u64,
    /// Iterations of Algorithm 1 (basis computations).
    pub iterations: usize,
    /// Successful iterations (weight updates).
    pub successful_iterations: usize,
    /// ε-net size `m`.
    pub net_size: usize,
    /// Peak retained bits (net + bases + sampler state).
    pub peak_space_bits: u64,
    /// Peak retained items.
    pub peak_space_items: u64,
    /// ε of Line 1.
    pub eps: f64,
    /// Weight factor `F = n^{1/r}`.
    pub factor: f64,
}

/// Runs Algorithm 1 over `data` in the streaming model.
///
/// # Panics
/// Panics if `data` is empty.
pub fn solve<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    cfg: &ClarksonConfig,
    mode: SamplingMode,
    rng: &mut R,
) -> Result<(P::Solution, StreamingStats), BigDataError> {
    assert!(!data.is_empty(), "empty stream");
    // The columnar mirror models the stream's storage layout, not extra
    // memory: every pass sweeps it in stream order, so the pass
    // accounting and weight recomputation are unchanged.
    let mut source = SliceSource::new(problem.to_columns(data));
    run(problem, &mut source, cfg, mode, rng)
}

/// Runs the two-pass streaming algorithm over an arbitrary
/// [`ChunkSource`] — an in-RAM block or a chunked store file on disk.
///
/// Bit-identical to [`solve`] with [`SamplingMode::TwoPassIid`] on the
/// same input: chunk boundaries never change which rows are sampled,
/// which violate, or in what order weights are accumulated, because the
/// scan kernels classify rows independently and
/// [`ColumnarProblem::from_row`] inverts `to_columns` losslessly. After
/// the call, `source.bytes_read()` tells how many real bytes the run
/// pulled from backing storage.
///
/// # Panics
/// Panics if the source is empty.
pub fn solve_chunked<P: ColumnarProblem, S: ChunkSource, R: Rng>(
    problem: &P,
    source: &mut S,
    cfg: &ClarksonConfig,
    rng: &mut R,
) -> Result<(P::Solution, StreamingStats), BigDataError> {
    assert!(!source.is_empty(), "empty stream");
    run(problem, source, cfg, SamplingMode::TwoPassIid, rng)
}

/// Runs Algorithm 1's loop with the stream over `source` as its holder.
fn run<P: ColumnarProblem, S: ChunkSource, R: Rng>(
    problem: &P,
    source: &mut S,
    cfg: &ClarksonConfig,
    mode: SamplingMode,
    rng: &mut R,
) -> Result<(P::Solution, StreamingStats), BigDataError> {
    let n = source.len();
    let params = cfg.params(problem, n);
    let mut stream = Stream {
        source,
        mode,
        params,
        total: ScaledF64::from_f64(n as f64),
        bases: Vec::new(),
        powers: Vec::new(),
        basis_bits: problem.solution_bits(),
        space: SpaceMeter::new(),
        passes: 0,
        net: Vec::new(),
        held: (0, 0),
        staged: None,
        reservoirs: None,
        coords: Vec::new(),
        exponents: Vec::new(),
        hits: Vec::new(),
        violators: Vec::new(),
    };
    let (solution, stats) = clarkson::run(problem, n, cfg, &mut stream, rng)?;
    let stats = StreamingStats {
        passes: stream.passes,
        iterations: stats.iterations,
        successful_iterations: stats.successful_iterations,
        net_size: stats.net_size,
        peak_space_bits: stream.space.peak_bits(),
        peak_space_items: stream.space.peak_items(),
        eps: stats.eps,
        factor: stats.factor,
    };
    Ok((solution, stats))
}

/// The next net if the verdict accepts, and if it rejects.
type Reservoirs<C> = (WeightedReservoir<C>, WeightedReservoir<C>);

/// The stream as a holder in Algorithm 1's loop. It keeps no per-row
/// state: every weight `F^{a(c)}` is recomputed from the stored bases
/// as a chunk streams by (Section 3.2), and everything it keeps between
/// passes is on its space meter.
struct Stream<'s, P: ColumnarProblem, S> {
    source: &'s mut S,
    mode: SamplingMode,
    params: RunParams,
    /// `w(S)`, bookkept from each accepted basis's `w(V)`.
    total: ScaledF64,
    /// The accepted bases, in order.
    bases: Vec<P::Solution>,
    /// `F^a` for `a = 0..=bases.len()`, built at each draw.
    powers: Vec<ScaledF64>,
    /// `bit(f(B))`, the space a stored basis takes.
    basis_bits: u64,
    space: SpaceMeter,
    passes: u64,
    /// The current net's rows.
    net: Vec<P::Constraint>,
    /// The bits and items the net (two-pass) or the reservoirs
    /// (one-pass) hold on the meter until the next scan starts.
    held: (u64, u64),
    /// The scanned basis and its `w(V)`, until the verdict.
    staged: Option<(P::Solution, ScaledF64)>,
    /// One-pass: the next nets, filled by the scan.
    reservoirs: Option<Reservoirs<P::Constraint>>,
    /// Scratch: a row's coordinates for `from_row`, each chunk row's
    /// exponent `a(c)`, the rows one sweep or pass-1 target hits, and a
    /// chunk's violators.
    coords: Vec<f64>,
    exponents: Vec<u32>,
    hits: Vec<usize>,
    violators: Vec<usize>,
}

impl<P: ColumnarProblem, S: ChunkSource> Stream<'_, P, S> {
    /// Two-pass pass 1: the net i.i.d. proportional to weight, or every
    /// row when the net covers the input.
    fn draw_pass<R: Rng>(
        &mut self,
        problem: &P,
        m: usize,
        rng: &mut R,
    ) -> Result<(), BigDataError> {
        let n = self.source.len();
        let cbits = problem.constraint_bits();
        self.passes += 1;
        self.source.begin_pass()?;
        if m >= n {
            self.space.alloc_raw(n as u64 * cbits, n as u64);
            while let Some((_, chunk)) = self.source.next_chunk()? {
                let coords = &mut self.coords;
                self.net
                    .extend((0..chunk.len()).map(|i| rebuild(problem, chunk, i, coords)));
            }
        } else {
            // Sorted uniform targets in [0, W), metered as m 128-bit
            // scaled values (the sampler keeps their m uniforms and scales
            // each one as the prefix sum reaches it).
            self.space.alloc_raw(m as u64 * 128, m as u64);
            let mut sampler = SortedTargetSampler::new(m, self.total, rng);
            // Each chunk is weighed in columnar form: its rows' exponents
            // from one column sweep per stored basis, their weights from
            // the `F^a` table, fed as one run in row order. Only rows a
            // target hits are rebuilt into constraints.
            // The last streamed element, iff it is not already in the net
            // (a streaming algorithm may always hold the current element).
            let mut tail: Option<P::Constraint> = None;
            while let Some((_, chunk)) = self.source.next_chunk()? {
                let view = chunk.full_view();
                exponents_columnar(
                    problem,
                    &self.bases,
                    &view,
                    &mut self.exponents,
                    &mut self.violators,
                );
                sampler.feed_run(&self.exponents, &self.powers, &mut self.hits);
                for &i in &self.hits {
                    self.space.alloc_raw(cbits, 1);
                    self.net.push(rebuild(problem, chunk, i, &mut self.coords));
                }
                if let Some(last) = chunk.len().checked_sub(1) {
                    let last_hit = self.hits.last() == Some(&last);
                    tail = (!last_hit).then(|| rebuild(problem, chunk, last, &mut self.coords));
                }
            }
            // The bookkept total is maintained incrementally while the fed
            // weights are recomputed from the bases; rounding can leave
            // the fed prefix short of the total, stranding trailing
            // targets. Credit them to the final element (which owns the
            // half-open tail interval) so the net never silently shrinks.
            if sampler.finish() > 0 {
                if let Some(c) = tail {
                    self.space.alloc_raw(cbits, 1);
                    self.net.push(c);
                }
            }
            self.space.free_raw(m as u64 * 128, m as u64);
        }
        let rows = self.net.len() as u64;
        self.held = (rows * cbits, rows);
        Ok(())
    }

    /// Meters `count` reservoirs of `m` rows, each a row and its 64-bit
    /// key, until the next scan starts.
    fn hold_reservoirs(&mut self, problem: &P, count: u64) {
        let m = self.params.net_size as u64;
        self.held = (count * m * (problem.constraint_bits() + 64), count * m);
        self.space.alloc_raw(self.held.0, self.held.1);
    }

    /// One-pass's first draw: one pass of an all-ones reservoir.
    fn reservoir_pass<R: Rng>(&mut self, problem: &P, rng: &mut R) -> Result<(), BigDataError> {
        self.hold_reservoirs(problem, 1);
        let mut reservoir = WeightedReservoir::new(self.params.net_size);
        self.passes += 1;
        self.source.begin_pass()?;
        while let Some((_, chunk)) = self.source.next_chunk()? {
            for i in 0..chunk.len() {
                reservoir.offer(
                    || rebuild(problem, chunk, i, &mut self.coords),
                    ScaledF64::ONE,
                    rng,
                );
            }
        }
        self.net = reservoir.into_items();
        Ok(())
    }

    /// The scan: the violators of `solution` and their weight. Each chunk
    /// is swept by the columnar kernel and, if it has violators or
    /// one-pass offers its rows, weighed as in pass 1; each violator adds
    /// its `F^a` table weight in ascending stream order — the same
    /// `ScaledF64` additions, in the same order, as a single whole-stream
    /// sweep. One-pass's reservoirs draw the next net under both verdicts
    /// on the way, each row weighing `F·w` in the accepted world if it
    /// violates and `w` otherwise, unless the net covers the input;
    /// two-pass rebuilds no row.
    fn scan_pass<R: Rng>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
        rng: &mut R,
    ) -> Result<(ScaledF64, usize), BigDataError> {
        let m = self.params.net_size;
        let mut next = None;
        if self.mode == SamplingMode::OnePassSpeculative && m < self.source.len() {
            self.hold_reservoirs(problem, 2);
            next = Some((WeightedReservoir::new(m), WeightedReservoir::new(m)));
        }
        let factor = ScaledF64::from_f64(self.params.factor);
        let (mut w_violators, mut count) = (ScaledF64::ZERO, 0);
        self.passes += 1;
        self.source.begin_pass()?;
        while let Some((_, chunk)) = self.source.next_chunk()? {
            let view = chunk.full_view();
            self.violators.clear();
            problem.scan_columns(solution, &view, &mut self.violators);
            if self.violators.is_empty() && next.is_none() {
                continue;
            }
            count += self.violators.len();
            let (exponents, hits) = (&mut self.exponents, &mut self.hits);
            exponents_columnar(problem, &self.bases, &view, exponents, hits);
            for &i in &self.violators {
                w_violators += self.powers[self.exponents[i] as usize];
            }
            let Some((accept, reject)) = next.as_mut() else {
                continue;
            };
            let mut violators = self.violators.iter().peekable();
            for (i, &a) in self.exponents.iter().enumerate() {
                let w = self.powers[a as usize];
                let hit = violators.next_if_eq(&&i).is_some();
                let coords = &mut self.coords;
                accept.offer(
                    || rebuild(problem, chunk, i, coords),
                    if hit { w * factor } else { w },
                    rng,
                );
                reject.offer(|| rebuild(problem, chunk, i, coords), w, rng);
            }
        }
        self.reservoirs = next;
        Ok((w_violators, count))
    }
}

impl<P: ColumnarProblem, S: ChunkSource> Holder<P> for Stream<'_, P, S> {
    fn total(&self) -> ScaledF64 {
        self.total
    }

    /// Two-pass, and either mode when the net covers the input: pass 1.
    /// One-pass: the first net is the all-ones reservoir pass, every
    /// later one the reservoir the last verdict kept.
    fn draw_net<R: Rng>(
        &mut self,
        problem: &P,
        count: usize,
        rng: &mut R,
    ) -> Result<&[P::Constraint], BigDataError> {
        let top = self.bases.len() as u32;
        power_table(self.params.factor, top, &mut self.powers);
        if self.mode == SamplingMode::TwoPassIid || count >= self.source.len() {
            self.draw_pass(problem, count, rng)?;
        } else if self.passes == 0 {
            self.reservoir_pass(problem, rng)?;
        }
        Ok(&self.net)
    }

    /// Frees the net, then runs the scan pass (two-pass's pass 2,
    /// one-pass's combined pass) and stages the basis with its `w(V)`.
    fn scan_and_stage<R: Rng>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
        rng: &mut R,
    ) -> Result<(ScaledF64, usize), BigDataError> {
        let (bits, items) = std::mem::take(&mut self.held);
        self.space.free_raw(bits, items);
        self.net = Vec::new();
        let (w_violators, count) = self.scan_pass(problem, solution, rng)?;
        self.staged = Some((solution.clone(), w_violators));
        Ok((w_violators, count))
    }

    /// Accepted: `w(S)` grows by `(F − 1)·w(V)`, and the basis is
    /// metered and stored. One-pass keeps the reservoir of the verdict
    /// as the next net.
    fn resolve(&mut self, accepted: bool) {
        let (basis, w_violators) = self.staged.take().expect("a scan precedes every verdict");
        if accepted {
            self.total += w_violators * ScaledF64::from_f64(self.params.factor - 1.0);
            self.space.alloc_raw(self.basis_bits, 1);
            self.bases.push(basis);
        }
        if let Some((accept, reject)) = self.reservoirs.take() {
            self.net = if accepted { accept } else { reject }.into_items();
        }
    }
}

/// Rebuilds row `i` of a chunk into a constraint (`from_row` inverts
/// `to_columns` bit for bit); `coords` is the caller's row scratch.
fn rebuild<P: ColumnarProblem>(
    problem: &P,
    chunk: &ConstraintColumns,
    i: usize,
    coords: &mut Vec<f64>,
) -> P::Constraint {
    let extra = chunk.row(i, coords);
    problem.from_row(coords, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::instances::lp::LpProblem;
    use llp_core::instances::meb::MebProblem;
    use llp_core::lptype::{count_violations, LpTypeProblem};
    use llp_geom::Halfspace;
    use llp_num::linalg::norm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_lp(n: usize, d: usize, seed: u64) -> (LpProblem, Vec<Halfspace>) {
        let mut r = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let mut cs = Vec::with_capacity(n);
        while cs.len() < n {
            let mut a: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
            let nn = norm(&a);
            if nn < 1e-6 {
                continue;
            }
            a.iter_mut().for_each(|v| *v /= nn);
            cs.push(Halfspace::new(a, 1.0));
        }
        let c: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
        (LpProblem::new(c), cs)
    }

    #[test]
    fn two_pass_solves_and_counts_passes() {
        let (p, cs) = random_lp(4000, 2, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (sol, stats) = solve(
            &p,
            &cs,
            &ClarksonConfig::calibrated(2),
            SamplingMode::TwoPassIid,
            &mut rng,
        )
        .unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        assert_eq!(
            stats.passes as usize,
            2 * stats.iterations,
            "two passes per iteration"
        );
        assert!(stats.peak_space_bits > 0);

        // Lemma 3.3's argument bounds the accepted iterations of any run
        // that weighs its violators exactly: every accepted basis with
        // violators is violated by a row of an optimal basis (at most ν
        // rows), so after t acceptances one of those rows weighs at least
        // F^{t/ν} = n^{t/(νr)}, while each acceptance grows w(S) by at
        // most 1 + εF = 1 + 1/(10ν). Hence t ≤ νr·ln n / (ln n − r/10).
        // Nets far below Eq. (1) make the ε test reject iterations; at
        // seed 2, pass 2 weighing its violators as 1 instead of F^{a(c)}
        // accepts 19 of them.
        let small = ClarksonConfig {
            net_multiplier: 1.0 / 4096.0,
            net_floor_coeff: 0.25,
            ..ClarksonConfig::paper(3)
        };
        let (n, nu, r) = (4000usize, 3.0, 3.0);
        let ln_n = (n as f64).ln();
        let bound = nu * r * ln_n / (ln_n - r / 10.0);
        for seed in 0..4 {
            let (p, cs) = random_lp(n, 2, seed);
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let (sol, stats) = solve(&p, &cs, &small, SamplingMode::TwoPassIid, &mut rng).unwrap();
            assert_eq!(count_violations(&p, &sol, &cs), 0);
            assert!(
                stats.successful_iterations as f64 <= bound,
                "seed {seed}: {} accepted iterations, bound {bound}",
                stats.successful_iterations
            );
        }
    }

    #[test]
    fn one_pass_solves_with_one_pass_per_iteration() {
        let (p, cs) = random_lp(4000, 2, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let (sol, stats) = solve(
            &p,
            &cs,
            &ClarksonConfig::calibrated(2),
            SamplingMode::OnePassSpeculative,
            &mut rng,
        )
        .unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        // One initial sampling pass, then exactly one combined pass per
        // iteration.
        assert_eq!(
            stats.passes as usize,
            stats.iterations + 1,
            "one pass per iteration"
        );
    }

    #[test]
    fn every_solved_basis_is_tested() {
        // paper(1) asks for a net of all n rows, so the first basis is the
        // answer. Capped at one iteration, both modes must still test it:
        // one draw pass and one scan pass.
        let (p, cs) = random_lp(300, 2, 45);
        let cfg = ClarksonConfig {
            max_iterations: 1,
            ..ClarksonConfig::paper(1)
        };
        for mode in [SamplingMode::TwoPassIid, SamplingMode::OnePassSpeculative] {
            let mut rng = StdRng::seed_from_u64(46);
            let (sol, stats) = solve(&p, &cs, &cfg, mode, &mut rng).unwrap();
            assert_eq!(count_violations(&p, &sol, &cs), 0, "{mode:?}");
            assert_eq!(
                (stats.net_size, stats.iterations, stats.passes),
                (300, 1, 2),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn a_net_covering_the_input_runs_one_pass_as_two_pass() {
        // With a net of all n rows there is nothing to sample: one-pass
        // reads the whole input as its net, as two-pass does, and fills
        // no reservoir, so both modes give the same answer, stats and
        // RNG state.
        use rand::RngCore;
        let (p, cs) = random_lp(300, 2, 45);
        let run = |mode| {
            let mut rng = StdRng::seed_from_u64(46);
            let (sol, stats) = solve(&p, &cs, &ClarksonConfig::paper(1), mode, &mut rng).unwrap();
            let bits: Vec<u64> = sol.iter().map(|x| x.to_bits()).collect();
            (bits, stats, rng.next_u64())
        };
        let two_pass = run(SamplingMode::TwoPassIid);
        assert_eq!(two_pass.1.net_size, 300);
        assert_eq!(run(SamplingMode::OnePassSpeculative), two_pass);
    }

    #[test]
    fn agrees_with_ram_clarkson_objective() {
        let (p, cs) = random_lp(3000, 3, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let (sol, _) = solve(
            &p,
            &cs,
            &ClarksonConfig::calibrated(2),
            SamplingMode::TwoPassIid,
            &mut rng,
        )
        .unwrap();
        let (ram, _) =
            llp_core::clarkson_solve(&p, &cs, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let (v1, v2) = (p.objective_value(&sol), p.objective_value(&ram));
        assert!((v1 - v2).abs() < 1e-5 * v1.abs().max(1.0), "{v1} vs {v2}");
    }

    #[test]
    fn space_shrinks_with_larger_r() {
        // Theorem 1: space ~ n^{1/r}; r = 1 vs r = 4 on the same input.
        let (p, cs) = random_lp(20_000, 2, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let (_, s1) = solve(
            &p,
            &cs,
            &ClarksonConfig::calibrated(1),
            SamplingMode::TwoPassIid,
            &mut rng,
        )
        .unwrap();
        let (_, s4) = solve(
            &p,
            &cs,
            &ClarksonConfig::calibrated(4),
            SamplingMode::TwoPassIid,
            &mut rng,
        )
        .unwrap();
        assert!(
            s4.peak_space_bits < s1.peak_space_bits,
            "r=4 space {} should be below r=1 space {}",
            s4.peak_space_bits,
            s1.peak_space_bits
        );
        // And r = 1 completes in fewer iterations.
        assert!(s1.iterations <= s4.iterations + 8);
    }

    #[test]
    fn meb_streaming() {
        use rand::Rng;
        let mut r = StdRng::seed_from_u64(9);
        let pts: Vec<Vec<f64>> = (0..3000)
            .map(|_| (0..3).map(|_| r.random_range(-4.0..4.0)).collect())
            .collect();
        let p = MebProblem::new(3);
        let (ball, _) = solve(
            &p,
            &pts,
            &ClarksonConfig::calibrated(2),
            SamplingMode::OnePassSpeculative,
            &mut r,
        )
        .unwrap();
        assert_eq!(count_violations(&p, &ball, &pts), 0);
    }

    /// Writes `columns` to a store file named `name` in chunks of
    /// `chunk_len` rows and returns its path and size in bytes.
    fn write_store(
        name: &str,
        columns: &ConstraintColumns,
        chunk_len: usize,
    ) -> (std::path::PathBuf, u64) {
        use llp_store::{ChunkWriter, FileHeader, Provenance};
        let dir =
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp-ooc-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let header = FileHeader {
            dim: columns.dim() as u32,
            rows: columns.len() as u64,
            chunk_len: chunk_len as u32,
            provenance: Provenance {
                family: "random_lp".into(),
                n: columns.len() as u64,
                d: columns.dim() as u32,
                seed: 21,
                r: 2,
                skew: None,
            },
        };
        let file = std::fs::File::create(&path).unwrap();
        let mut w = ChunkWriter::create(std::io::BufWriter::new(file), header).unwrap();
        let mut coords = Vec::new();
        let mut at = 0usize;
        while at < columns.len() {
            let take = (columns.len() - at).min(chunk_len);
            let mut chunk = ConstraintColumns::zeroed(columns.dim(), take);
            for i in 0..take {
                let extra = columns.row(at + i, &mut coords);
                chunk.set_row(i, &coords, extra);
            }
            w.write_chunk(&chunk).unwrap();
            at += take;
        }
        let file_bytes = w.finish().unwrap();
        (path, file_bytes)
    }

    #[test]
    fn chunked_file_run_is_bit_identical_to_in_ram() {
        // Both sampling modes over a store file cut into many chunks must
        // reproduce the in-RAM run: solution, stats, and RNG draw count.
        use crate::ooc::{ChunkSource, FileSource};
        use rand::RngCore;

        let (p, cs) = random_lp(4000, 2, 21);
        // Spill the instance to a store file in deliberately small chunks
        // (257 rows, coprime to everything in sight), so every pass
        // crosses many chunk boundaries.
        let (path, file_bytes) =
            write_store("streaming_differential.llps", &p.to_columns(&cs), 257);

        let cfg = ClarksonConfig::calibrated(2);
        // `open` itself reads one extra header to validate the file up
        // front.
        let header_bytes = llp_store::open_file(&path).unwrap().bytes_read();
        for mode in [SamplingMode::TwoPassIid, SamplingMode::OnePassSpeculative] {
            let mut rng_ram = StdRng::seed_from_u64(22);
            let (sol_ram, stats_ram) = solve(&p, &cs, &cfg, mode, &mut rng_ram).unwrap();

            let mut source = FileSource::open(&path).unwrap();
            let mut rng_file = StdRng::seed_from_u64(22);
            let (sol_file, stats_file) = match mode {
                SamplingMode::TwoPassIid => solve_chunked(&p, &mut source, &cfg, &mut rng_file),
                SamplingMode::OnePassSpeculative => run(&p, &mut source, &cfg, mode, &mut rng_file),
            }
            .unwrap();

            assert_eq!(stats_ram, stats_file, "{mode:?}: pass/space accounting");
            assert_eq!(
                p.objective_value(&sol_ram).to_bits(),
                p.objective_value(&sol_file).to_bits(),
                "{mode:?}: objectives must agree to the bit"
            );
            assert_eq!(
                rng_ram.next_u64(),
                rng_file.next_u64(),
                "{mode:?}: both runs must draw the same randomness"
            );
            assert_eq!(count_violations(&p, &sol_file, &cs), 0);
            // Every pass re-reads the whole file.
            assert_eq!(
                source.bytes_read(),
                stats_file.passes * file_bytes + header_bytes,
                "{mode:?}: bytes-read meter must equal passes x file size"
            );
        }
    }

    /// A chunk source that fails its `fail_at`-th call, counting
    /// `begin_pass` and `next_chunk` calls together from 1.
    struct FailingSource<S> {
        inner: S,
        calls: usize,
        fail_at: usize,
    }

    impl<S: ChunkSource> FailingSource<S> {
        fn call(&mut self) -> Result<(), BigDataError> {
            self.calls += 1;
            if self.calls == self.fail_at {
                return Err(BigDataError::Store(format!(
                    "injected fault at call {}",
                    self.calls
                )));
            }
            Ok(())
        }
    }

    impl<S: ChunkSource> ChunkSource for FailingSource<S> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn begin_pass(&mut self) -> Result<(), BigDataError> {
            self.call()?;
            self.inner.begin_pass()
        }

        fn next_chunk(&mut self) -> Result<Option<(usize, &ConstraintColumns)>, BigDataError> {
            self.call()?;
            self.inner.next_chunk()
        }
    }

    #[test]
    fn a_store_failing_mid_run_surfaces_as_a_store_error() {
        // Whichever call of the run's source fails, on a pass boundary or
        // inside a pass, in either sampling mode, the solve returns the
        // store's error: no panic, no answer.
        use crate::ooc::FileSource;
        let (p, cs) = random_lp(1500, 2, 31);
        let (path, _) = write_store("streaming_fault.llps", &p.to_columns(&cs), 97);
        let small = ClarksonConfig {
            net_multiplier: 1.0 / 4096.0,
            net_floor_coeff: 0.25,
            ..ClarksonConfig::paper(3)
        };
        for mode in [SamplingMode::TwoPassIid, SamplingMode::OnePassSpeculative] {
            let run = |fail_at: usize| {
                let inner = FileSource::open(&path).unwrap();
                let mut source = FailingSource {
                    inner,
                    calls: 0,
                    fail_at,
                };
                let mut rng = StdRng::seed_from_u64(32);
                let out = run(&p, &mut source, &small, mode, &mut rng);
                (out.map(|(_, stats)| stats.passes), source.calls)
            };
            let (clean, calls) = run(0);
            let passes = clean.unwrap();
            assert!(
                passes >= 3 && calls as u64 > 2 * passes,
                "{mode:?}: {passes} passes, {calls} calls"
            );
            for k in 1..=calls {
                let (out, made) = run(k);
                assert!(
                    matches!(out, Err(BigDataError::Store(_))),
                    "{mode:?}: fault at call {k} of {calls}: {out:?}"
                );
                assert_eq!(made, k, "{mode:?}: the run must stop at the fault");
            }
        }
    }

    #[test]
    fn adversarial_order_still_works() {
        // Sort constraints so the binding ones come last — a worst case
        // for naive prefix heuristics; Algorithm 1 is order-oblivious.
        let (p, mut cs) = random_lp(3000, 2, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let direct = p.solve_subset(&cs, &mut rng).unwrap();
        cs.sort_by(|a, b| {
            let sa = a.slack(&direct);
            let sb = b.slack(&direct);
            sb.partial_cmp(&sa).unwrap()
        });
        let (sol, _) = solve(
            &p,
            &cs,
            &ClarksonConfig::calibrated(2),
            SamplingMode::TwoPassIid,
            &mut rng,
        )
        .unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
    }
}
