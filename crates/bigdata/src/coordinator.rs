//! Theorem 2: Algorithm 1 in the coordinator model (Lemma 3.7).
//!
//! A site's partition is local state, so a site here is a consecutive
//! row range of the caller's input: it samples the rows of its range and
//! scans its range of one shared columnar transpose. Every site hears
//! each basis and its verdict (the coordinator broadcasts both), so any
//! site can maintain its local weights — not by recomputing `F^{a(c)}`
//! from the basis history each round, but incrementally: each site is
//! one [`SiteWeights`] holder, the same one RAM runs on, and applies ×`F`
//! to just the violators of each *accepted* basis (`O(|V_i| log n_i)` per
//! accepted round instead of an `O(n_i · t · d)` rebuild). The sites draw
//! each net into the solve's one [`NetBuffer`]. Weights are derived state
//! and never travel, so the metered protocol is unchanged; the meter is
//! charged each message's size in bits. With one site the protocol is
//! RAM's loop, bit for bit.
//! One iteration of Algorithm 1 costs three model rounds:
//!
//! 1. coordinator → sites: accept/reject verdict of the previous basis
//!    (a 1-bit flag, metered as one byte); sites → coordinator: local
//!    total weights `w(S_i)`.
//! 2. coordinator → sites: multinomially split sample counts `y_i`
//!    (Lemma 3.7); sites → coordinator: `y_i` locally drawn constraints.
//! 3. coordinator → sites: the new basis `f(B)`; sites → coordinator:
//!    local violator weight `w(V_i)` and count.
//!
//! Total: `O(νr)` rounds and `Õ((λn^{1/r}ν + k)·ν)·bit(S)` communication.

use crate::BigDataError;
use llp_core::clarkson::{NetBuffer, SiteWeights};
use llp_core::lptype::ColumnarProblem;
use llp_core::ClarksonConfig;
use llp_geom::ConstraintColumns;
use llp_models::coordinator::CoordMeter;
use llp_num::ScaledF64;
use rand::Rng;

/// A verdict flag on the wire.
const VERDICT_BITS: u64 = 8;
/// A scaled weight as (mantissa, exponent): the `O(ℓ/r · log n)`-bit
/// weight encoding of Lemma 3.7.
const WEIGHT_BITS: u64 = 128;
/// A sample count or a violator count.
const COUNT_BITS: u64 = 64;

/// Statistics of a coordinator run (experiment T3). `PartialEq` backs the
/// parallel-determinism differential suite: meter readings must match
/// exactly across thread counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoordinatorStats {
    /// Model rounds.
    pub rounds: u64,
    /// Total communication in bits.
    pub total_bits: u64,
    /// Bits from sites to the coordinator.
    pub bits_up: u64,
    /// Bits from the coordinator to sites.
    pub bits_down: u64,
    /// Iterations of Algorithm 1.
    pub iterations: usize,
    /// Successful iterations.
    pub successful_iterations: usize,
    /// ε-net size `m`.
    pub net_size: usize,
    /// Number of sites.
    pub k: usize,
    /// Heaviest single round, in bits (congestion read-out for skewed
    /// partitions).
    pub max_round_bits: u64,
}

/// Runs Algorithm 1 over constraints partitioned round-robin across `k`
/// sites: the rows are laid out site by site (site `i` holds rows `i`,
/// `i + k`, …, in that order) and transposed once.
///
/// # Panics
/// Panics if `data` is empty or `k == 0`.
pub fn solve<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    k: usize,
    cfg: &ClarksonConfig,
    rng: &mut R,
) -> Result<(P::Solution, CoordinatorStats), BigDataError> {
    assert!(!data.is_empty(), "empty input");
    assert!(k >= 1, "need at least one site");
    let laid: Vec<P::Constraint> = (0..k)
        .flat_map(|i| data.iter().skip(i).step_by(k).cloned())
        .collect();
    let sizes: Vec<usize> = (0..k)
        .map(|i| data.len().saturating_sub(i).div_ceil(k))
        .collect();
    let columns = problem.to_columns(&laid);
    solve_partitioned(problem, &laid, &columns, &sizes, cfg, rng)
}

/// Runs Algorithm 1 with site `i` holding the `i`-th consecutive row
/// range of `data`, of length `sizes[i]`. `columns` must be
/// `problem.to_columns(data)`. The model allows arbitrary (e.g.
/// geometrically skewed) layouts, and the protocol is
/// partition-oblivious; only the meter readings change.
///
/// # Panics
/// Panics if `data` is empty, `sizes` do not sum to `data.len()`, or
/// `columns` has a different length.
pub fn solve_partitioned<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    columns: &ConstraintColumns,
    sizes: &[usize],
    cfg: &ClarksonConfig,
    rng: &mut R,
) -> Result<(P::Solution, CoordinatorStats), BigDataError> {
    let n = data.len();
    assert!(n > 0, "empty input");
    let covered: usize = sizes.iter().sum();
    assert_eq!(covered, n, "site sizes must cover the data exactly");
    assert_eq!(columns.len(), n, "columns/constraints length mismatch");
    let k = sizes.len();
    let params = cfg.params(problem, n);
    let cbits = problem.constraint_bits();
    let mut meter = CoordMeter::default();
    // Persistent per-site weight indices: every site tracks its own
    // range's weights incrementally from the violator lists it scans
    // anyway in round 3, so no round ever recomputes a weight.
    let mut sites = SiteWeights::partition(sizes, params.factor);
    // The sites draw each net into this one buffer, refilled in place.
    let mut buffer = NetBuffer::new();

    let mut stats = CoordinatorStats {
        net_size: params.net_size,
        k,
        ..CoordinatorStats::default()
    };
    // The accept/reject verdict the sites have not heard yet.
    let mut pending: Option<bool> = None;

    let result = loop {
        if stats.iterations >= cfg.max_iterations {
            break Err(BigDataError::IterationLimit);
        }
        stats.iterations += 1;

        // ---- Round 1: verdict down, site weights up. ----
        meter.begin_round();
        if let Some(accepted) = pending.take() {
            for site in &mut sites {
                meter.charge_down(VERDICT_BITS);
                site.resolve(accepted);
            }
        }
        let mut site_weights: Vec<ScaledF64> = Vec::with_capacity(k);
        let mut total_weight = ScaledF64::ZERO;
        for site in &sites {
            // O(1) off the standing index.
            let w = site.total();
            meter.charge_up(WEIGHT_BITS);
            site_weights.push(w);
            total_weight += w;
        }

        // ---- Round 2: sample counts down, sampled constraints up. ----
        meter.begin_round();
        let net: &[P::Constraint] = if params.net_size >= n {
            // The ε-net formula covers the whole input: sites ship
            // everything (a trivially valid net), which is `data` itself.
            for &size in sizes {
                meter.charge_down(COUNT_BITS);
                meter.charge_up(size as u64 * cbits);
            }
            data
        } else {
            let weights_f64: Vec<f64> =
                site_weights.iter().map(|w| w.ratio(total_weight)).collect();
            let counts =
                llp_sampling::discrete::multinomial(params.net_size as u64, &weights_f64, rng);
            buffer.clear();
            for (site, &count) in sites.iter().zip(&counts) {
                meter.charge_down(COUNT_BITS);
                if count == 0 {
                    continue;
                }
                // The site inverts its draws directly against its index —
                // O(log n_i) each, no prefix table.
                let picked = site.draw_into(data, count as usize, rng, &mut buffer);
                meter.charge_up(picked as u64 * cbits);
            }
            buffer.rows()
        };

        // ---- Coordinator computes the basis locally. ----
        let solution = problem.solve_subset(net, rng).map_err(BigDataError::from)?;

        // ---- Round 3: basis down, violator weights up. ----
        meter.begin_round();
        let mut w_violators = ScaledF64::ZERO;
        let mut violator_count = 0usize;
        for site in &mut sites {
            meter.charge_down(problem.solution_bits());
            // The site's fused violation-test + weight scan runs on the
            // llp_par pool over its range of the shared columns, reading
            // weights off its index; the violator indices are staged
            // locally for next round's verdict. The metered messages
            // below are identical to the sequential protocol — the staged
            // list never travels.
            let (local_w, local_count) = site.scan_and_stage(problem, &solution, columns);
            meter.charge_up(WEIGHT_BITS); // w(V_i)
            meter.charge_up(COUNT_BITS); // |V_i|
            w_violators += local_w;
            violator_count += local_count;
        }

        let success = w_violators.ratio(total_weight) <= params.eps;
        if success {
            if violator_count == 0 {
                break Ok(solution);
            }
            stats.successful_iterations += 1;
            pending = Some(true);
        } else if cfg.failure_policy == llp_core::clarkson::FailurePolicy::Abort {
            break Err(BigDataError::NetFailure);
        } else {
            pending = Some(false);
        }
    };

    stats.rounds = meter.rounds();
    stats.total_bits = meter.total_bits();
    stats.bits_up = meter.bits_up();
    stats.bits_down = meter.bits_down();
    stats.max_round_bits = meter.max_round_bits();
    result.map(|s| (s, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::instances::lp::LpProblem;
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
    fn solves_with_three_rounds_per_iteration() {
        let (p, cs) = random_lp(4000, 2, 51);
        let mut rng = StdRng::seed_from_u64(52);
        let (sol, stats) = solve(&p, &cs, 4, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        assert_eq!(stats.rounds as usize, 3 * stats.iterations);
        assert!(stats.total_bits > 0);
    }

    #[test]
    fn works_with_k_equal_2_and_k_large() {
        let (p, cs) = random_lp(3000, 2, 61);
        for k in [2usize, 16, 64] {
            let mut rng = StdRng::seed_from_u64(62);
            let (sol, stats) = solve(&p, &cs, k, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
            assert_eq!(count_violations(&p, &sol, &cs), 0, "k={k}");
            assert_eq!(stats.k, k);
        }
    }

    #[test]
    fn communication_grows_with_k_term() {
        // Theorem 2 has an additive k·ν² term: communication at k = 64
        // strictly exceeds k = 2 on the same instance.
        let (p, cs) = random_lp(3000, 2, 71);
        let mut rng = StdRng::seed_from_u64(72);
        let (_, s2) = solve(&p, &cs, 2, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(72);
        let (_, s64) = solve(&p, &cs, 64, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let per_iter_2 = s2.total_bits as f64 / s2.iterations as f64;
        let per_iter_64 = s64.total_bits as f64 / s64.iterations as f64;
        assert!(per_iter_64 > per_iter_2, "{per_iter_64} vs {per_iter_2}");
    }

    #[test]
    fn skewed_partition_agrees_with_round_robin() {
        let (p, cs) = random_lp(4000, 2, 85);
        let mut rng = StdRng::seed_from_u64(86);
        let (balanced, _) = solve(&p, &cs, 8, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        // Geometric skew: site i holds 2^i-ish shares of the input.
        let sizes = [31usize, 62, 125, 250, 500, 1000, 1032, 1000];
        assert_eq!(sizes.iter().sum::<usize>(), cs.len());
        let cfg = ClarksonConfig::calibrated(2);
        let (skewed, stats) =
            solve_partitioned(&p, &cs, &p.to_columns(&cs), &sizes, &cfg, &mut rng).unwrap();
        assert_eq!(count_violations(&p, &skewed, &cs), 0);
        assert!(
            (p.objective_value(&skewed) - p.objective_value(&balanced)).abs()
                < 1e-5 * p.objective_value(&balanced).abs().max(1.0)
        );
        assert_eq!(stats.k, 8);
        assert!(stats.max_round_bits > 0);
        assert!(stats.max_round_bits <= stats.total_bits);
    }

    #[test]
    fn round_robin_equals_the_site_by_site_layout() {
        // `solve` must be `solve_partitioned` over the rows laid out site
        // by site (site i holds rows i, i + k, …), bit for bit, also for
        // k > n, where the trailing sites hold no rows. At n = 20,000 the
        // sites sample their nets over two iterations, so a contiguous
        // layout would draw other rows.
        let (p, cs) = random_lp(20_000, 3, 41);
        let cfg = ClarksonConfig::lean(3);
        for (n, k) in [(20_000usize, 3usize), (40, 64)] {
            let cs = &cs[..n];
            let mut laid = Vec::with_capacity(n);
            let mut sizes = Vec::with_capacity(k);
            for i in 0..k {
                let before = laid.len();
                laid.extend((0..n).filter(|j| j % k == i).map(|j| cs[j].clone()));
                sizes.push(laid.len() - before);
            }
            let bits = |sol: &Vec<f64>| sol.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut rng = StdRng::seed_from_u64(42);
            let (want, want_stats) = solve(&p, cs, k, &cfg, &mut rng).unwrap();
            let mut rng = StdRng::seed_from_u64(42);
            let (got, got_stats) =
                solve_partitioned(&p, &laid, &p.to_columns(&laid), &sizes, &cfg, &mut rng).unwrap();
            assert_eq!(bits(&got), bits(&want), "n={n} k={k}");
            assert_eq!(got_stats, want_stats, "n={n} k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "cover the data exactly")]
    fn sizes_must_cover_the_data() {
        let (p, cs) = random_lp(5, 2, 43);
        let cfg = ClarksonConfig::calibrated(2);
        let mut rng = StdRng::seed_from_u64(44);
        let _ = solve_partitioned(&p, &cs, &p.to_columns(&cs), &[2, 2], &cfg, &mut rng);
    }

    #[test]
    fn matches_ram_objective() {
        let (p, cs) = random_lp(3000, 3, 81);
        let mut rng = StdRng::seed_from_u64(82);
        let (sol, _) = solve(&p, &cs, 8, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let (ram, _) =
            llp_core::clarkson_solve(&p, &cs, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let (v1, v2) = (p.objective_value(&sol), p.objective_value(&ram));
        assert!((v1 - v2).abs() < 1e-5 * v1.abs().max(1.0), "{v1} vs {v2}");

        // With one site the protocol runs RAM's loop on the same holder:
        // the same draws, bases, verdicts and weights, bit for bit. Nets
        // far below Eq. (1) make some iterations fail the ε test, where
        // neither may reweight (the site hears the verdict a round later).
        use rand::RngCore;
        let small = ClarksonConfig {
            net_multiplier: 1.0 / 4096.0,
            net_floor_coeff: 0.25,
            ..ClarksonConfig::paper(3)
        };
        let bits = |sol: &Vec<f64>| sol.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut failed = 0;
        for seed in 0..3 {
            let (p, cs) = random_lp(20_000, 3, 83 + seed);
            let mut rng_ram = StdRng::seed_from_u64(seed);
            let (ram, ram_stats) = llp_core::clarkson_solve(&p, &cs, &small, &mut rng_ram).unwrap();
            let mut rng_coord = StdRng::seed_from_u64(seed);
            let (coord, stats) = solve(&p, &cs, 1, &small, &mut rng_coord).unwrap();
            assert_eq!(bits(&coord), bits(&ram), "seed {seed}");
            assert_eq!(stats.iterations, ram_stats.iterations, "seed {seed}");
            assert_eq!(
                stats.successful_iterations, ram_stats.successful_iterations,
                "seed {seed}"
            );
            assert_eq!(rng_coord.next_u64(), rng_ram.next_u64(), "seed {seed}");
            failed += ram_stats.iterations - ram_stats.successful_iterations - 1;
        }
        assert!(
            failed > 0,
            "the one-site case must include failed iterations"
        );
    }
}
