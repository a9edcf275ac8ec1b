//! Theorem 2: Algorithm 1 in the coordinator model (Lemma 3.7).
//!
//! Every site hears each basis and its verdict (the coordinator
//! broadcasts both), so any site can maintain its local weights — not by
//! recomputing `F^{a(c)}` from the basis history each round, but
//! incrementally: each site carries a persistent
//! [`SiteWeights`] index and applies ×`F` to
//! just the violators of each *accepted* basis (`O(|V_i| log n_i)` per
//! accepted round instead of an `O(n_i · t · d)` rebuild). Weights are
//! derived state and never travel, so the metered protocol is unchanged.
//! One iteration of Algorithm 1 costs three model rounds:
//!
//! 1. coordinator → sites: accept/reject verdict of the previous basis
//!    (1 bit); sites → coordinator: local total weights `w(S_i)`.
//! 2. coordinator → sites: multinomially split sample counts `y_i`
//!    (Lemma 3.7); sites → coordinator: `y_i` locally drawn constraints.
//! 3. coordinator → sites: the new basis `f(B)`; sites → coordinator:
//!    local violator weight `w(V_i)` and count.
//!
//! Total: `O(νr)` rounds and `Õ((λn^{1/r}ν + k)·ν)·bit(S)` communication.

use crate::common::SiteWeights;
use crate::BigDataError;
use llp_core::lptype::ColumnarProblem;
use llp_core::ClarksonConfig;
use llp_geom::ConstraintColumns;
use llp_models::coordinator::CoordSim;
use llp_num::ScaledF64;
use rand::Rng;

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
/// sites.
///
/// # Panics
/// Panics if `data` is empty or `k == 0`.
pub fn solve<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: Vec<P::Constraint>,
    k: usize,
    cfg: &ClarksonConfig,
    rng: &mut R,
) -> Result<(P::Solution, CoordinatorStats), BigDataError> {
    assert!(!data.is_empty(), "empty input");
    assert!(k >= 1, "need at least one site");
    let mut sites: Vec<Vec<P::Constraint>> = (0..k).map(|_| Vec::new()).collect();
    for (i, c) in data.into_iter().enumerate() {
        sites[i % k].push(c);
    }
    solve_partitioned(problem, sites, cfg, rng)
}

/// Runs Algorithm 1 over an explicit site partition — the model allows
/// arbitrary (e.g. geometrically skewed) layouts, and the protocol is
/// partition-oblivious; only the meter readings change.
///
/// # Panics
/// Panics if the partition is empty or holds no constraints overall.
pub fn solve_partitioned<P: ColumnarProblem, R: Rng>(
    problem: &P,
    partitions: Vec<Vec<P::Constraint>>,
    cfg: &ClarksonConfig,
    rng: &mut R,
) -> Result<(P::Solution, CoordinatorStats), BigDataError> {
    let n: usize = partitions.iter().map(Vec::len).sum();
    assert!(n > 0, "empty input");
    let k = partitions.len();
    let params = cfg.params(problem, n);
    let mut sim = CoordSim::from_partitions(partitions);
    // Persistent per-site weight indices: every site tracks its own
    // partition's weights incrementally from the violator lists it scans
    // anyway in round 3, so no round ever recomputes a weight.
    let mut sites: Vec<SiteWeights> = (0..k)
        .map(|i| SiteWeights::new(sim.site(i).len(), params.factor))
        .collect();
    // Each site's columnar mirror of its partition, transposed once and
    // scanned every round-3; local storage, so the meters are untouched.
    let site_columns: Vec<ConstraintColumns> =
        (0..k).map(|i| problem.to_columns(sim.site(i))).collect();

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
        sim.begin_round();
        if let Some(accepted) = pending.take() {
            for site in &mut sites {
                sim.charge_down(&0u8); // 1-byte verdict flag
                site.resolve(accepted);
            }
        }
        let mut site_weights: Vec<ScaledF64> = Vec::with_capacity(k);
        let mut total_weight = ScaledF64::ZERO;
        for site in &sites {
            // O(1) off the standing index. A scaled weight travels as
            // (mantissa, exponent) = 128 bits — the O(ℓ/r · log n)-bit
            // weight encoding of Lemma 3.7.
            let w = site.total();
            sim.charge_up(&(0.0f64, 0u64));
            site_weights.push(w);
            total_weight += w;
        }

        // ---- Round 2: sample counts down, sampled constraints up. ----
        sim.begin_round();
        let mut net: Vec<P::Constraint> = Vec::with_capacity(params.net_size.min(n));
        if params.net_size >= n {
            // The ε-net formula covers the whole input: sites ship
            // everything (a trivially valid net).
            for i in 0..k {
                sim.charge_down(&0u64);
                sim.charge_up(&RawBits(
                    sim.site(i).len() as u64 * problem.constraint_bits(),
                ));
                net.extend_from_slice(sim.site(i));
            }
        } else {
            let weights_f64: Vec<f64> =
                site_weights.iter().map(|w| w.ratio(total_weight)).collect();
            let counts =
                llp_sampling::discrete::multinomial(params.net_size as u64, &weights_f64, rng);
            for i in 0..k {
                sim.charge_down(&(counts[i]));
                if counts[i] == 0 {
                    continue;
                }
                // The site inverts its draws directly against its index —
                // O(log n_i) each, no prefix table.
                let picked = sites[i].sample_constraints(sim.site(i), counts[i] as usize, rng);
                sim.charge_up(&RawBits(picked.len() as u64 * problem.constraint_bits()));
                net.extend(picked);
            }
        }

        // ---- Coordinator computes the basis locally. ----
        let solution = problem
            .solve_subset(&net, rng)
            .map_err(BigDataError::from)?;

        // ---- Round 3: basis down, violator weights up. ----
        sim.begin_round();
        let mut w_violators = ScaledF64::ZERO;
        let mut violator_count = 0usize;
        for i in 0..k {
            sim.charge_down(&RawBits(problem.solution_bits()));
            // The site's fused violation-test + weight scan runs on the
            // llp_par pool over its columnar mirror, reading weights off
            // its index; the violator indices are staged locally for next
            // round's verdict. The metered messages below are identical
            // to the sequential protocol — the staged list never travels.
            let (local_w, local_count) =
                sites[i].scan_and_stage(problem, &solution, &site_columns[i]);
            sim.charge_up(&(0.0f64, 0u64)); // w(V_i): 128 bits
            sim.charge_up(&0u64); // count: 64 bits
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

    stats.rounds = sim.meter.rounds();
    stats.total_bits = sim.meter.total_bits();
    stats.bits_up = sim.meter.bits_up();
    stats.bits_down = sim.meter.bits_down();
    stats.max_round_bits = sim.meter.max_round_bits();
    result.map(|s| (s, stats))
}

/// Raw bit payload for metering odd-sized messages.
struct RawBits(u64);

impl llp_models::cost::BitCost for RawBits {
    fn bits(&self) -> u64 {
        self.0
    }
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
        let (sol, stats) =
            solve(&p, cs.clone(), 4, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        assert_eq!(stats.rounds as usize, 3 * stats.iterations);
        assert!(stats.total_bits > 0);
    }

    #[test]
    fn works_with_k_equal_2_and_k_large() {
        let (p, cs) = random_lp(3000, 2, 61);
        for k in [2usize, 16, 64] {
            let mut rng = StdRng::seed_from_u64(62);
            let (sol, stats) =
                solve(&p, cs.clone(), k, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
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
        let (_, s2) = solve(&p, cs.clone(), 2, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(72);
        let (_, s64) = solve(&p, cs.clone(), 64, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let per_iter_2 = s2.total_bits as f64 / s2.iterations as f64;
        let per_iter_64 = s64.total_bits as f64 / s64.iterations as f64;
        assert!(per_iter_64 > per_iter_2, "{per_iter_64} vs {per_iter_2}");
    }

    #[test]
    fn skewed_partition_agrees_with_round_robin() {
        let (p, cs) = random_lp(4000, 2, 85);
        let mut rng = StdRng::seed_from_u64(86);
        let (balanced, _) =
            solve(&p, cs.clone(), 8, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        // Geometric skew: site i holds 2^i-ish shares of the input.
        let sizes = [31usize, 62, 125, 250, 500, 1000, 1032, 1000];
        assert_eq!(sizes.iter().sum::<usize>(), cs.len());
        let mut it = cs.clone().into_iter();
        let parts: Vec<Vec<Halfspace>> = sizes
            .iter()
            .map(|&s| it.by_ref().take(s).collect())
            .collect();
        let (skewed, stats) =
            solve_partitioned(&p, parts, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
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
    fn matches_ram_objective() {
        let (p, cs) = random_lp(3000, 3, 81);
        let mut rng = StdRng::seed_from_u64(82);
        let (sol, _) = solve(&p, cs.clone(), 8, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let (ram, _) =
            llp_core::clarkson_solve(&p, &cs, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let (v1, v2) = (p.objective_value(&sol), p.objective_value(&ram));
        assert!((v1 - v2).abs() < 1e-5 * v1.abs().max(1.0), "{v1} vs {v2}");
    }
}
