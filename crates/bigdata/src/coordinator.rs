//! Theorem 2: Algorithm 1 in the coordinator model (Lemma 3.7).
//!
//! Lemma 3.7 runs Algorithm 1 unchanged, each step carried by messages,
//! so the sites and the coordinator's meter are one holder in the loop
//! every model runs (`llp_core::clarkson::run`), holding the caller's
//! rows and their columnar transpose: its draw, scan and verdict calls
//! make the protocol's rounds and charge each message's size in bits. A
//! site's partition is local state, so a site here is a consecutive row
//! range of the caller's input: it samples the rows of its range, and
//! the sites' scans are one sweep of the one shared transpose, split by
//! site. Every site hears each basis and its verdict (the coordinator
//! broadcasts both), so each site keeps its weights incrementally: the
//! sites are the parts of one [`SiteWeights`], the weights RAM runs on,
//! which keeps each row's exponent `a(c)` and each site's class
//! histogram, and moves just the violators of each *accepted* basis up
//! one class. Weights are derived state and never travel: a site ships
//! its evaluated total as one 128-bit weight. With one site the
//! protocol is RAM's run, bit for bit. One iteration of Algorithm 1
//! costs three model rounds:
//!
//! 1. coordinator → sites: accept/reject verdict of the previous basis
//!    (a 1-bit flag, metered as one byte); sites → coordinator: local
//!    total weights `w(S_i)`.
//! 2. coordinator → sites: multinomially split sample counts `y_i`
//!    (Lemma 3.7); sites → coordinator: `y_i` locally drawn constraints.
//! 3. coordinator → sites: the new basis `f(B)`; sites → coordinator:
//!    local violator weight `w(V_i)` and count.
//!
//! The sites apply a verdict as soon as the loop reaches it; its message
//! is charged in the next iteration's round 1, and the final basis's
//! verdict is never sent.
//!
//! Total: `O(νr)` rounds and `Õ((λn^{1/r}ν + k)·ν)·bit(S)` communication.

use crate::{BigDataError, COUNT_BITS, VERDICT_BITS, WEIGHT_BITS};
use llp_core::clarkson::{self, ClarksonStats, Holder, NetBuffer, SiteWeights};
use llp_core::lptype::ColumnarProblem;
use llp_core::ClarksonConfig;
use llp_geom::ConstraintColumns;
use llp_models::coordinator::CoordMeter;
use llp_num::ScaledF64;
use rand::Rng;

/// Statistics of a coordinator run (experiment T3). `PartialEq` backs the
/// parallel-determinism differential suite: meter readings must match
/// exactly across thread counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoordinatorStats {
    /// Algorithm 1's own statistics: iterations, successes, net size
    /// and the Eq. (2) and violator traces.
    pub clarkson: ClarksonStats,
    /// Model rounds.
    pub rounds: u64,
    /// Total communication in bits.
    pub total_bits: u64,
    /// Bits from sites to the coordinator.
    pub bits_up: u64,
    /// Bits from the coordinator to sites.
    pub bits_down: u64,
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
    let covered: usize = sizes.iter().sum();
    assert_eq!(covered, n, "site sizes must cover the data exactly");
    assert_eq!(columns.len(), n, "columns/constraints length mismatch");
    let mut sites = Sites {
        sites: SiteWeights::new(sizes, cfg.factor.value(n)),
        data,
        columns,
        net: NetBuffer::new(),
        meter: CoordMeter::default(),
        verdict_owed: false,
    };
    let (solution, clarkson) = clarkson::run(problem, n, cfg, &mut sites, rng)?;
    let meter = &sites.meter;
    let stats = CoordinatorStats {
        clarkson,
        rounds: meter.rounds(),
        total_bits: meter.total_bits(),
        bits_up: meter.bits_up(),
        bits_down: meter.bits_down(),
        k: sizes.len(),
        max_round_bits: meter.max_round_bits(),
    };
    Ok((solution, stats))
}

/// The sites, their rows and columns, and the coordinator's meter as one
/// holder in Algorithm 1's loop. The sites are the parts of one
/// [`SiteWeights`]: each keeps its range's weights incrementally from
/// its violators, so no round recomputes a weight. Each method makes its
/// protocol rounds and charges their messages, a row at `bit(S)` bits.
struct Sites<'a, C> {
    sites: SiteWeights,
    data: &'a [C],
    columns: &'a ConstraintColumns,
    net: NetBuffer<C>,
    meter: CoordMeter,
    /// The sites have applied a verdict that has not been charged yet:
    /// it travels in the next draw's first round.
    verdict_owed: bool,
}

impl<P: ColumnarProblem> Holder<P> for Sites<'_, P::Constraint> {
    /// `Σ_i w(S_i)`, added in site order.
    fn total(&self) -> ScaledF64 {
        self.sites.parts().map(|i| self.sites.total(i)).sum()
    }

    /// Round 1: the verdict down, the site totals `w(S_i)` up. Round 2:
    /// the multinomially split sample counts `y_i` down (Lemma 3.7), the
    /// `y_i` rows each site draws up — or, when the net covers the
    /// input, every site's whole range.
    fn draw_net<R: Rng>(
        &mut self,
        problem: &P,
        count: usize,
        rng: &mut R,
    ) -> Result<&[P::Constraint], BigDataError> {
        let k = self.sites.parts().len() as u64;
        self.meter.begin_round();
        if std::mem::take(&mut self.verdict_owed) {
            self.meter.charge_down(k * VERDICT_BITS);
        }
        self.meter.charge_up(k * WEIGHT_BITS);

        self.meter.begin_round();
        self.meter.charge_down(k * COUNT_BITS);
        if count >= self.data.len() {
            self.meter
                .charge_up(self.data.len() as u64 * problem.constraint_bits());
            return Ok(self.data);
        }
        let total = Holder::<P>::total(self);
        let sites = &self.sites;
        let weights: Vec<f64> = sites.parts().map(|i| sites.total(i).ratio(total)).collect();
        let counts = llp_sampling::discrete::multinomial(count as u64, &weights, rng);
        self.net.clear();
        for (i, &y) in counts.iter().enumerate() {
            // The site maps its draws to exponent classes and ranks and
            // emits the rows in one sweep over its range.
            sites.draw_into(i, self.data, y as usize, rng, &mut self.net);
        }
        let rows = self.net.rows();
        self.meter
            .charge_up(rows.len() as u64 * problem.constraint_bits());
        Ok(rows)
    }

    /// Round 3: the basis down, each site's violator weight `w(V_i)` and
    /// count `|V_i|` up, added in site order. The sites' scans are one
    /// sweep of the shared columns on the llp_par pool, split by site;
    /// the staged violators never travel.
    fn scan_and_stage<R: Rng>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
        _: &mut R,
    ) -> Result<(ScaledF64, usize), BigDataError> {
        let k = self.sites.parts().len() as u64;
        self.meter.begin_round();
        self.meter.charge_down(k * problem.solution_bits());
        self.meter.charge_up(k * (WEIGHT_BITS + COUNT_BITS));
        Ok(self
            .sites
            .scan_and_stage(problem, solution, self.columns)
            .iter()
            .fold((ScaledF64::ZERO, 0), |(w, n), &(site_w, site_n)| {
                (w + site_w, n + site_n)
            }))
    }

    /// Every site applies the verdict now; the message that carries it
    /// is charged when the next iteration opens its first round.
    fn resolve(&mut self, accepted: bool) {
        self.sites.resolve(accepted);
        self.verdict_owed = true;
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
        let (sol, stats) = solve(&p, &cs, 4, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        assert_eq!(stats.rounds as usize, 3 * stats.clarkson.iterations);
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
        let per_iter_2 = s2.total_bits as f64 / s2.clarkson.iterations as f64;
        let per_iter_64 = s64.total_bits as f64 / s64.clarkson.iterations as f64;
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
    fn a_net_covering_the_input_is_still_metered() {
        // paper(1) asks for a net of all n rows, so every site ships its
        // whole range and the first basis is the answer: one iteration,
        // three rounds, and no verdict on the wire.
        let (p, cs) = random_lp(300, 2, 45);
        let mut rng = StdRng::seed_from_u64(46);
        let (_, stats) = solve(&p, &cs, 4, &ClarksonConfig::paper(1), &mut rng).unwrap();
        let (k, n) = (4, cs.len() as u64);
        assert_eq!(
            (stats.clarkson.net_size, stats.clarkson.iterations),
            (300, 1)
        );
        assert_eq!(stats.rounds, 3);
        let rows_up = n * p.constraint_bits();
        assert_eq!(
            stats.bits_up,
            k * WEIGHT_BITS + rows_up + k * (WEIGHT_BITS + COUNT_BITS)
        );
        assert_eq!(stats.bits_down, k * COUNT_BITS + k * p.solution_bits());
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

        // With one site the protocol runs RAM's loop on the same weights:
        // the same draws, bases, verdicts, weights and traces, bit for bit. Nets
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
            assert_eq!(stats.clarkson, ram_stats, "seed {seed}");
            assert_eq!(rng_coord.next_u64(), rng_ram.next_u64(), "seed {seed}");
            failed += ram_stats.iterations - ram_stats.successful_iterations - 1;
        }
        assert!(
            failed > 0,
            "the one-site case must include failed iterations"
        );
    }
}
