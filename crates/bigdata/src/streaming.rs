//! Theorem 1: Algorithm 1 in the multi-pass streaming model.
//!
//! Memory between passes holds only (a) the basis history of successful
//! iterations (`Õ(ν²)·bit(S)` bits — weights are recomputed from it on the
//! fly, Section 3.2) and (b) the current ε-net buffer
//! (`Õ(λνn^{1/r})·bit(S)` bits). Both sampling modes run over a
//! [`ChunkSource`] tape, count one pass per rewind, and meter retained
//! state in a [`SpaceMeter`]:
//!
//! * [`SamplingMode::TwoPassIid`] — faithful to Lemma 2.2: pass 1 draws the
//!   net i.i.d. by inverting `m` sorted uniforms against the running
//!   prefix-sum of reconstructed weights (the total weight is known
//!   exactly from the previous iteration's bookkeeping); pass 2 runs the
//!   violation test. Two passes per iteration — still `O(νr)` passes.
//! * [`SamplingMode::OnePassSpeculative`] — one pass per iteration: while
//!   the violation test of the *pending* basis streams by, two weighted
//!   reservoirs (A-ExpJ) sample the next net under both possible outcomes
//!   (accept/reject); the right one is kept once `w(V)` is known at the
//!   end of the pass. Reservoir sampling is without replacement, which
//!   only improves ε-net coverage (ablation A2).
//!
//! Every chunk is weighed in columnar form (one column sweep per stored
//! basis gives each row's exponent `a(c)`, the iteration's `F^a` table
//! its weight) and tested by the problem's column kernel. A row is
//! rebuilt into a constraint only when a sampler keeps it. The `F^a`
//! table is the iteration's one source of weights: pass 1 feeds a whole
//! chunk's exponents to [`SortedTargetSampler::feed_run`], which adds the
//! table's weights to the prefix exactly as one `feed` per row would, and
//! pass 2 weighs each violator as `table[a(c)]`, with the exponents of
//! its chunk counted column-wise as in pass 1.

use crate::common::WeightOracle;
use crate::ooc::{ChunkSource, SliceSource};
use crate::BigDataError;
use llp_core::clarkson::FailurePolicy;
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
    match mode {
        SamplingMode::TwoPassIid => run_two_pass(problem, &mut source, cfg, rng),
        SamplingMode::OnePassSpeculative => run_one_pass(problem, &mut source, cfg, rng),
    }
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
    run_two_pass(problem, source, cfg, rng)
}

fn run_two_pass<P: ColumnarProblem, S: ChunkSource, R: Rng>(
    problem: &P,
    source: &mut S,
    cfg: &ClarksonConfig,
    rng: &mut R,
) -> Result<(P::Solution, StreamingStats), BigDataError> {
    let n = source.len();
    let params = cfg.params(problem, n);
    let mut stats = StreamingStats {
        net_size: params.net_size,
        eps: params.eps,
        factor: params.factor,
        ..StreamingStats::default()
    };
    let mut space = SpaceMeter::new();
    let mut oracle: WeightOracle<P> = WeightOracle::new(params.factor);
    let mut total_weight = ScaledF64::from_f64(n as f64);
    let cbits = problem.constraint_bits();
    // Violator index buffer (chunk-local), reused across iterations.
    let mut violators: Vec<usize> = Vec::new();
    // Row scratch for `from_row` reconstruction.
    let mut coords: Vec<f64> = Vec::new();
    // Pass-1 weighing scratch: each chunk row's exponent `a(c)`, the rows
    // a target lands on, and the iteration's `F^a` table (which pass 2
    // weighs violators with too).
    let mut exponents: Vec<u32> = Vec::new();
    let mut hits: Vec<usize> = Vec::new();
    let mut powers: Vec<ScaledF64> = Vec::new();

    while stats.iterations < cfg.max_iterations {
        stats.iterations += 1;
        oracle.power_table(&mut powers);

        // ---- Pass 1: sample the ε-net i.i.d. proportional to weight. ----
        stats.passes += 1;
        source.begin_pass()?;
        let mut net: Vec<P::Constraint> = Vec::new();
        if params.net_size >= n {
            space.alloc_raw(n as u64 * cbits, n as u64);
            while let Some((_, chunk)) = source.next_chunk()? {
                net.extend((0..chunk.len()).map(|i| rebuild(problem, chunk, i, &mut coords)));
            }
        } else {
            // Sorted uniform targets in [0, W), metered as m 128-bit
            // scaled values (the sampler keeps their m uniforms and scales
            // each one as the prefix sum reaches it).
            space.alloc_raw(params.net_size as u64 * 128, params.net_size as u64);
            let mut sampler = SortedTargetSampler::new(params.net_size, total_weight, rng);
            // Each chunk is weighed in columnar form: its rows' exponents
            // from one column sweep per stored basis, their weights from
            // the `F^a` table, fed as one run in row order. Only rows a
            // target hits are rebuilt into constraints.
            // The last streamed element, iff it is not already in the net
            // (a streaming algorithm may always hold the current element).
            let mut tail: Option<P::Constraint> = None;
            while let Some((_, chunk)) = source.next_chunk()? {
                oracle.exponents_columnar(
                    problem,
                    &chunk.full_view(),
                    &mut exponents,
                    &mut violators,
                );
                sampler.feed_run(&exponents, &powers, &mut hits);
                for &i in &hits {
                    space.alloc_raw(cbits, 1);
                    net.push(rebuild(problem, chunk, i, &mut coords));
                }
                if let Some(last) = chunk.len().checked_sub(1) {
                    let last_hit = hits.last() == Some(&last);
                    tail = (!last_hit).then(|| rebuild(problem, chunk, last, &mut coords));
                }
            }
            // The bookkept total is maintained incrementally while the fed
            // weights are recomputed from the bases; rounding can leave
            // the fed prefix short of the total, stranding trailing
            // targets. Credit them to the final element (which owns the
            // half-open tail interval) so the net never silently shrinks.
            if sampler.finish() > 0 {
                if let Some(c) = tail {
                    space.alloc_raw(cbits, 1);
                    net.push(c);
                }
            }
            space.free_raw(params.net_size as u64 * 128, params.net_size as u64);
        }

        // ---- Basis of the net (local computation). ----
        let solution = problem
            .solve_subset(&net, rng)
            .map_err(BigDataError::from)?;
        space.free_raw(net.len() as u64 * cbits, net.len() as u64);
        drop(net);

        // ---- Pass 2: violation test + exact new total weight. ----
        // Each chunk is swept by the columnar kernel. A chunk with
        // violators is weighed as in pass 1 (its rows' exponents from one
        // column sweep per stored basis), and each violator adds its
        // `F^a` table weight in ascending stream order — the same
        // ScaledF64 additions, in the same order, as a single
        // whole-stream sweep. No row is rebuilt.
        stats.passes += 1;
        source.begin_pass()?;
        let mut w_violators = ScaledF64::ZERO;
        let mut violator_count = 0usize;
        while let Some((_, chunk)) = source.next_chunk()? {
            let view = chunk.full_view();
            violators.clear();
            problem.scan_columns(&solution, &view, &mut violators);
            if violators.is_empty() {
                continue;
            }
            violator_count += violators.len();
            oracle.exponents_columnar(problem, &view, &mut exponents, &mut hits);
            for &i in violators.iter() {
                w_violators += powers[exponents[i] as usize];
            }
        }

        if w_violators.ratio(total_weight) <= params.eps {
            if violator_count == 0 {
                stats.peak_space_bits = space.peak_bits();
                stats.peak_space_items = space.peak_items();
                return Ok((solution, stats));
            }
            stats.successful_iterations += 1;
            total_weight += w_violators * ScaledF64::from_f64(params.factor - 1.0);
            space.alloc_raw(problem.solution_bits(), 1);
            oracle.push(solution);
        } else if cfg.failure_policy == FailurePolicy::Abort {
            // Remark 3.6: the Monte-Carlo variant reports failure instead
            // of retrying.
            return Err(BigDataError::NetFailure);
        }
        // Failed iterations retry with fresh randomness (Las-Vegas).
    }
    Err(BigDataError::IterationLimit)
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

fn run_one_pass<P: ColumnarProblem, S: ChunkSource, R: Rng>(
    problem: &P,
    source: &mut S,
    cfg: &ClarksonConfig,
    rng: &mut R,
) -> Result<(P::Solution, StreamingStats), BigDataError> {
    let n = source.len();
    let params = cfg.params(problem, n);
    let mut stats = StreamingStats {
        net_size: params.net_size,
        eps: params.eps,
        factor: params.factor,
        ..StreamingStats::default()
    };
    let mut space = SpaceMeter::new();
    let mut oracle: WeightOracle<P> = WeightOracle::new(params.factor);
    let mut total_weight = ScaledF64::from_f64(n as f64);
    let m = params.net_size;
    let reservoir_bits = m as u64 * (problem.constraint_bits() + 64);
    let factor = ScaledF64::from_f64(params.factor);
    // Row scratch for `from_row`, which runs only for rows a reservoir
    // keeps.
    let mut coords: Vec<f64> = Vec::new();
    // Per-chunk scratch: each row's exponent `a(c)`, the hits of one
    // basis sweep, the pending basis's violators (ascending), and the
    // iteration's `F^a` table.
    let mut exponents: Vec<u32> = Vec::new();
    let mut hits: Vec<usize> = Vec::new();
    let mut violators: Vec<usize> = Vec::new();
    let mut powers: Vec<ScaledF64> = Vec::new();

    // ---- Initial pass: draw the first net (all weights are 1). ----
    stats.passes += 1;
    source.begin_pass()?;
    space.alloc_raw(reservoir_bits, m as u64);
    let mut reservoir = WeightedReservoir::new(m);
    while let Some((_, chunk)) = source.next_chunk()? {
        for i in 0..chunk.len() {
            reservoir.offer(
                || rebuild(problem, chunk, i, &mut coords),
                ScaledF64::ONE,
                rng,
            );
        }
    }
    let net = reservoir.into_items();
    stats.iterations += 1;
    let mut pending = problem
        .solve_subset(&net, rng)
        .map_err(BigDataError::from)?;
    space.free_raw(reservoir_bits, m as u64);
    drop(net);

    while stats.iterations < cfg.max_iterations {
        // ---- Combined pass: violation-test `pending` while sampling the
        // next net under both outcomes. ----
        space.alloc_raw(2 * reservoir_bits, 2 * m as u64);
        let mut res_accept = WeightedReservoir::new(m);
        let mut res_reject = WeightedReservoir::new(m);
        let mut w_violators = ScaledF64::ZERO;
        let mut violator_count = 0usize;
        oracle.power_table(&mut powers);
        stats.passes += 1;
        source.begin_pass()?;
        while let Some((_, chunk)) = source.next_chunk()? {
            let view = chunk.full_view();
            oracle.exponents_columnar(problem, &view, &mut exponents, &mut hits);
            violators.clear();
            problem.scan_columns(&pending, &view, &mut violators);
            let mut next_violator = violators.iter().copied().peekable();
            for (i, &a) in exponents.iter().enumerate() {
                let w = powers[a as usize];
                let w_accept = if next_violator.next_if_eq(&i).is_some() {
                    violator_count += 1;
                    w_violators += w;
                    w * factor
                } else {
                    w
                };
                res_accept.offer(|| rebuild(problem, chunk, i, &mut coords), w_accept, rng);
                res_reject.offer(|| rebuild(problem, chunk, i, &mut coords), w, rng);
            }
        }

        let net = if w_violators.ratio(total_weight) <= params.eps {
            if violator_count == 0 {
                stats.peak_space_bits = space.peak_bits();
                stats.peak_space_items = space.peak_items();
                return Ok((pending, stats));
            }
            stats.successful_iterations += 1;
            total_weight += w_violators * ScaledF64::from_f64(params.factor - 1.0);
            space.alloc_raw(problem.solution_bits(), 1);
            oracle.push(pending);
            res_accept.into_items()
        } else if cfg.failure_policy == FailurePolicy::Abort {
            return Err(BigDataError::NetFailure);
        } else {
            res_reject.into_items()
        };

        stats.iterations += 1;
        pending = problem
            .solve_subset(&net, rng)
            .map_err(BigDataError::from)?;
        space.free_raw(2 * reservoir_bits, 2 * m as u64);
    }
    Err(BigDataError::IterationLimit)
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

    #[test]
    fn chunked_file_run_is_bit_identical_to_in_ram() {
        // Both sampling modes over a store file cut into many chunks must
        // reproduce the in-RAM run: solution, stats, and RNG draw count.
        use crate::ooc::{ChunkSource, FileSource};
        use llp_store::{ChunkWriter, FileHeader, Provenance};
        use rand::RngCore;

        let (p, cs) = random_lp(4000, 2, 21);
        let columns = p.to_columns(&cs);

        // Spill the instance to a store file in deliberately small chunks,
        // so every pass crosses many chunk boundaries.
        let dir =
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp-ooc-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streaming_differential.llps");
        let chunk_len = 257usize; // coprime to everything in sight
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
            let mut chunk = llp_geom::ConstraintColumns::zeroed(columns.dim(), take);
            for i in 0..take {
                let extra = columns.row(at + i, &mut coords);
                chunk.set_row(i, &coords, extra);
            }
            w.write_chunk(&chunk).unwrap();
            at += take;
        }
        let file_bytes = w.finish().unwrap();

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
                SamplingMode::OnePassSpeculative => {
                    run_one_pass(&p, &mut source, &cfg, &mut rng_file)
                }
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
