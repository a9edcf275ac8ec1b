//! Theorem 3: Algorithm 1 in the MPC model.
//!
//! With load budget `Õ(n^δ)` the input needs `k = ⌈n^{1-δ}⌉` machines, so
//! the coordinator protocol cannot exchange even one bit with every
//! machine directly. A machine is a consecutive row range of the
//! caller's input, scanned in one shared columnar transpose, as the
//! coordinator's sites are. Following \[23\] (and Section 3.4), machine
//! 0 plays the coordinator and all coordinator↔sites traffic flows over
//! an `f = ⌈n^δ⌉`-ary tree of depth `D = O(1/δ)`:
//!
//! * verdict of the previous basis: broadcast down the tree (D rounds);
//! * total weight: converge-cast of subtree sums (D rounds);
//! * sample counts: hierarchical multinomial split down the tree — each
//!   node splits its count among its own elements and its children's
//!   subtrees (D rounds, exact multinomial overall);
//! * sampled constraints: one direct round to machine 0 (`Õ(n^δ)` load);
//! * new basis: broadcast (D rounds); violator weights: converge-cast
//!   (D rounds).
//!
//! With `r = ⌈1/δ⌉` outer iterations parameter, the total is `O(ν/δ²)`
//! rounds at `Õ(λ n^δ ν²)·bit(S)` load, matching Theorem 3.
//!
//! The machines, their rows and columns, their tree and the load meter
//! are one holder in the loop every model runs
//! (`llp_core::clarkson::run`), as the coordinator's sites are: its
//! draw, scan and verdict calls make the tree rounds above and charge
//! each message's size in bits, and its total is the converge-cast sum,
//! added in tree order. The machines are the parts of one
//! [`SiteWeights`], the weights RAM runs on: each keeps its rows' weight
//! exponents and its class histogram, draws its share of the net, and
//! applies each verdict as the loop reaches it; their scans are one
//! sweep of the shared transpose, split by machine. The verdict's
//! broadcast is charged when the next iteration opens. Weight sums
//! travel as evaluated 128-bit totals, so every message keeps its size.

use crate::{BigDataError, COUNT_BITS, VERDICT_BITS, WEIGHT_BITS};
use llp_core::clarkson::{self, ClarksonStats, Holder, NetBuffer, SiteWeights, WeightFactor};
use llp_core::lptype::ColumnarProblem;
use llp_core::ClarksonConfig;
use llp_geom::ConstraintColumns;
use llp_models::mpc::MpcMeter;
use llp_num::ScaledF64;
use rand::Rng;

/// Configuration of the MPC run.
#[derive(Clone, Copy, Debug)]
pub struct MpcConfig {
    /// Load exponent δ ∈ (0, 1): load `Õ(n^δ)`, machines `⌈n^{1-δ}⌉`.
    pub delta: f64,
    /// Algorithm 1's configuration. Its weight factor must be
    /// `NthRoot { r }` for [`MpcConfig::r`]: Theorem 3's load bound ties
    /// `n^{1/r}` to δ, and [`solve_partitioned`] asserts it.
    pub clarkson: ClarksonConfig,
}

impl MpcConfig {
    /// Calibrated configuration for a given δ
    /// (`ClarksonConfig::calibrated(⌈1/δ⌉)`).
    pub fn calibrated(delta: f64) -> Self {
        Self::with(delta, ClarksonConfig::calibrated)
    }

    /// The lean configuration (`ClarksonConfig::lean(⌈1/δ⌉)`).
    pub fn lean(delta: f64) -> Self {
        Self::with(delta, ClarksonConfig::lean)
    }

    /// The pass parameter `r = ⌈1/δ⌉` implied by δ.
    pub fn r(&self) -> u32 {
        pass_parameter(self.delta)
    }

    fn with(delta: f64, clarkson: fn(u32) -> ClarksonConfig) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        MpcConfig {
            delta,
            clarkson: clarkson(pass_parameter(delta)),
        }
    }
}

/// `r = ⌈1/δ⌉`, the pass parameter of load exponent δ.
fn pass_parameter(delta: f64) -> u32 {
    (1.0 / delta).ceil() as u32
}

/// Statistics of an MPC run (experiment T4). `PartialEq` backs the
/// parallel-determinism differential suite.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MpcStats {
    /// Algorithm 1's own statistics: iterations, successes, net size
    /// and the Eq. (2) and violator traces.
    pub clarkson: ClarksonStats,
    /// BSP rounds.
    pub rounds: u64,
    /// Maximum per-machine per-round load in bits.
    pub max_load_bits: u64,
    /// Sum over rounds of the per-round maximum load (critical-path
    /// traffic; congestion read-out for skewed partitions).
    pub total_load_bits: u64,
    /// Machines used.
    pub k: usize,
    /// Tree fanout `⌈n^δ⌉`.
    pub fanout: usize,
}

/// Tree helpers over machine ids 0..k with fanout f (root 0).
struct Tree {
    k: usize,
    fanout: usize,
}

impl Tree {
    fn parent(&self, i: usize) -> Option<usize> {
        (i > 0).then(|| (i - 1) / self.fanout)
    }

    fn children(&self, i: usize) -> std::ops::Range<usize> {
        let first = i * self.fanout + 1;
        first.min(self.k)..(first + self.fanout).min(self.k)
    }

    /// Depth of the tree (number of levels below the root).
    fn depth(&self) -> usize {
        let mut d = 0;
        let mut span = 1usize;
        let mut covered = 1usize;
        while covered < self.k {
            span *= self.fanout;
            covered += span;
            d += 1;
        }
        d
    }

    /// Machines at tree level `l` (root = level 0).
    fn level(&self, l: usize) -> std::ops::Range<usize> {
        // Level l starts at (f^l - 1)/(f - 1) for fanout f.
        let f = self.fanout;
        let start = (f.pow(l as u32) - 1) / (f - 1);
        let end = ((f.pow(l as u32 + 1) - 1) / (f - 1)).min(self.k);
        start.min(self.k)..end
    }

    /// For each node, the sum of `local` over its subtree, added level
    /// by level from the deepest, as a converge-cast adds it.
    fn subtree_sums(&self, depth: usize, local: &[ScaledF64]) -> Vec<ScaledF64> {
        let mut acc = local.to_vec();
        for l in (1..=depth).rev() {
            for node in self.level(l) {
                if let Some(p) = self.parent(node) {
                    let v = acc[node];
                    acc[p] += v;
                }
            }
        }
        acc
    }
}

/// The machine count Theorem 3 prescribes for `n` constraints at load
/// exponent δ: `⌈n^{1-δ}⌉`, clamped to `[1, n]`. The single source of
/// truth for [`machine_sizes`] and any caller building an explicit
/// layout for [`solve_partitioned`].
pub fn machine_count(n: usize, delta: f64) -> usize {
    ((n as f64).powf(1.0 - delta).ceil() as usize).clamp(1, n)
}

/// The layout [`solve`] uses: [`machine_count`] machines of
/// `⌈n / k⌉` consecutive rows each, the last ones short or empty.
pub fn machine_sizes(n: usize, delta: f64) -> Vec<usize> {
    let k = machine_count(n, delta);
    let chunk = n.div_ceil(k);
    (0..k)
        .map(|i| n.saturating_sub(i * chunk).min(chunk))
        .collect()
}

/// Runs Algorithm 1 over constraints laid out evenly across
/// `⌈n^{1-δ}⌉` machines ([`machine_sizes`]), transposed once.
///
/// # Panics
/// Panics if `data` is empty or as [`solve_partitioned`] does.
pub fn solve<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    cfg: &MpcConfig,
    rng: &mut R,
) -> Result<(P::Solution, MpcStats), BigDataError> {
    assert!(!data.is_empty(), "empty input");
    let sizes = machine_sizes(data.len(), cfg.delta);
    solve_partitioned(problem, data, &problem.to_columns(data), &sizes, cfg, rng)
}

/// Runs Algorithm 1 with machine `i` holding the `i`-th consecutive row
/// range of `data`, of length `sizes[i]` (machine count = `sizes.len()`;
/// the `⌈n^δ⌉`-ary tree topology is unchanged). `columns` must be
/// `problem.to_columns(data)`. The model allows arbitrary — e.g.
/// geometrically skewed — layouts; the protocol is partition-oblivious
/// and only the load meter readings change.
///
/// # Panics
/// Panics if `data` is empty, `sizes` do not sum to `data.len()`,
/// `columns` has a different length, or `cfg.clarkson.factor` is not
/// `NthRoot { r: cfg.r() }`.
pub fn solve_partitioned<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    columns: &ConstraintColumns,
    sizes: &[usize],
    cfg: &MpcConfig,
    rng: &mut R,
) -> Result<(P::Solution, MpcStats), BigDataError> {
    let n = data.len();
    let covered: usize = sizes.iter().sum();
    assert_eq!(covered, n, "machine sizes must cover the data exactly");
    assert_eq!(columns.len(), n, "columns/constraints length mismatch");
    assert_eq!(
        cfg.clarkson.factor,
        WeightFactor::NthRoot { r: cfg.r() },
        "the weight factor must be n^(1/r) for r = ⌈1/δ⌉"
    );
    let k = sizes.len();
    let fanout = ((n as f64).powf(cfg.delta).ceil() as usize).max(2);
    let tree = Tree { k, fanout };
    let mut machines = Machines {
        machines: SiteWeights::new(sizes, cfg.clarkson.factor.value(n)),
        data,
        columns,
        net: NetBuffer::new(),
        depth: tree.depth(),
        tree,
        meter: MpcMeter::new(k),
        verdict_owed: false,
    };
    let (solution, clarkson) = clarkson::run(problem, n, &cfg.clarkson, &mut machines, rng)?;
    let meter = &machines.meter;
    let stats = MpcStats {
        clarkson,
        rounds: meter.rounds(),
        max_load_bits: meter.max_load_bits(),
        total_load_bits: meter.total_load_bits(),
        k,
        fanout,
    };
    Ok((solution, stats))
}

/// The machines, their rows and columns, their tree and the load meter
/// as one holder in Algorithm 1's loop. The machines are the parts of
/// one [`SiteWeights`]: each keeps its range's weights incrementally
/// from its violators, and every weight sum reaches the root by
/// converge-cast. Each method makes its tree rounds and charges their
/// messages, a row at `bit(S)` bits.
struct Machines<'a, C> {
    machines: SiteWeights,
    data: &'a [C],
    columns: &'a ConstraintColumns,
    net: NetBuffer<C>,
    tree: Tree,
    depth: usize,
    meter: MpcMeter,
    /// The machines have applied a verdict that has not been charged
    /// yet: its broadcast opens the next draw.
    verdict_owed: bool,
}

impl<P: ColumnarProblem> Holder<P> for Machines<'_, P::Constraint> {
    /// The machine totals summed up the tree, in the order the root's
    /// converge-cast adds them.
    fn total(&self) -> ScaledF64 {
        let machines = &self.machines;
        let local: Vec<_> = machines.parts().map(|i| machines.total(i)).collect();
        self.tree.subtree_sums(self.depth, &local)[0]
    }

    /// The verdict broadcast, the converge-cast of subtree weights, the
    /// hierarchical multinomial split of the `count` draws, and one
    /// direct round that ships the drawn rows to the root. When the net
    /// covers the input, every machine ships its whole range instead of
    /// a split.
    fn draw_net<R: Rng>(
        &mut self,
        problem: &P,
        count: usize,
        rng: &mut R,
    ) -> Result<&[P::Constraint], BigDataError> {
        let (meter, tree, depth) = (&mut self.meter, &self.tree, self.depth);
        if std::mem::take(&mut self.verdict_owed) {
            broadcast_down(meter, tree, depth, VERDICT_BITS);
        }
        let machines = &self.machines;
        let local: Vec<_> = machines.parts().map(|i| machines.total(i)).collect();
        converge_up(meter, tree, depth, WEIGHT_BITS);
        let take_all = count >= self.data.len();
        let counts = if take_all {
            Vec::new()
        } else {
            let subtree = tree.subtree_sums(depth, &local);
            split_counts(meter, tree, depth, count as u64, &local, &subtree, rng)
        };
        self.net.clear();
        meter.begin_round();
        for i in machines.parts() {
            let sampled = if take_all {
                machines.rows(i).len()
            } else {
                // Class-rank draws over the machine's exponents.
                machines.draw_into(i, self.data, counts[i] as usize, rng, &mut self.net)
            };
            if i != 0 {
                meter.charge(i, 0, sampled as u64 * problem.constraint_bits());
            }
        }
        meter.end_round();
        Ok(if take_all { self.data } else { self.net.rows() })
    }

    /// The basis broadcast, the machines' scans — one sweep of the
    /// shared columns on the llp_par pool, split by machine — and the
    /// converge-cast of the violator weights and counts. The staged
    /// violators never travel.
    fn scan_and_stage<R: Rng>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
        _: &mut R,
    ) -> Result<(ScaledF64, usize), BigDataError> {
        let (meter, tree, depth) = (&mut self.meter, &self.tree, self.depth);
        broadcast_down(meter, tree, depth, problem.solution_bits());
        let sums = self
            .machines
            .scan_and_stage(problem, solution, self.columns);
        let weights: Vec<ScaledF64> = sums.iter().map(|&(w, _)| w).collect();
        let count = sums.iter().map(|&(_, n)| n).sum();
        converge_up(meter, tree, depth, WEIGHT_BITS + COUNT_BITS);
        Ok((tree.subtree_sums(depth, &weights)[0], count))
    }

    /// Every machine applies the verdict now; its broadcast is charged
    /// when the next iteration opens.
    fn resolve(&mut self, accepted: bool) {
        self.machines.resolve(accepted);
        self.verdict_owed = true;
    }
}

/// Broadcasts a payload of `bits` from the root to every machine, one tree
/// level per round.
fn broadcast_down(meter: &mut MpcMeter, tree: &Tree, depth: usize, bits: u64) {
    for l in 0..depth {
        meter.begin_round();
        for node in tree.level(l) {
            for ch in tree.children(node) {
                meter.charge(node, ch, bits);
            }
        }
        meter.end_round();
    }
}

/// Charges a converge-cast toward the root: one `bits` message per tree
/// edge, one tree level per round, bottom-up.
fn converge_up(meter: &mut MpcMeter, tree: &Tree, depth: usize, bits: u64) {
    for l in (1..=depth).rev() {
        meter.begin_round();
        for node in tree.level(l) {
            if let Some(p) = tree.parent(node) {
                meter.charge(node, p, bits);
            }
        }
        meter.end_round();
    }
}

/// Splits `m` multinomial draws down the tree: each node receives its
/// subtree's count from its parent and partitions it among {its own local
/// elements} ∪ {children subtrees} by weight.
fn split_counts<R: Rng>(
    meter: &mut MpcMeter,
    tree: &Tree,
    depth: usize,
    m: u64,
    local: &[ScaledF64],
    subtree: &[ScaledF64],
    rng: &mut R,
) -> Vec<u64> {
    let k = local.len();
    let mut subtree_count = vec![0u64; k];
    let mut own_count = vec![0u64; k];
    subtree_count[0] = m;
    for l in 0..=depth {
        let round_needed = l < depth;
        if round_needed {
            meter.begin_round();
        }
        for node in tree.level(l) {
            let c = subtree_count[node];
            if c == 0 {
                continue;
            }
            // Bins: own local weight + each child's subtree weight.
            let children = tree.children(node);
            if children.is_empty() {
                own_count[node] = c;
                continue;
            }
            let total = subtree[node];
            if total.is_zero() {
                own_count[node] = c;
                continue;
            }
            let mut bins: Vec<f64> = Vec::with_capacity(children.len() + 1);
            bins.push(local[node].ratio(total));
            for ch in children.clone() {
                bins.push(subtree[ch].ratio(total));
            }
            let split = llp_sampling::discrete::multinomial(c, &bins, rng);
            own_count[node] = split[0];
            for (j, ch) in children.enumerate() {
                subtree_count[ch] = split[j + 1];
                if round_needed {
                    meter.charge(node, ch, COUNT_BITS);
                }
            }
        }
        if round_needed {
            meter.end_round();
        }
    }
    own_count
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
    fn tree_structure_sane() {
        let t = Tree { k: 14, fanout: 3 };
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(4), Some(1));
        let ch0: Vec<usize> = t.children(0).collect();
        assert_eq!(ch0, vec![1, 2, 3]);
        assert_eq!(t.depth(), 3); // 1 + 3 + 9 = 13 < 14
        assert_eq!(t.level(0), 0..1);
        assert_eq!(t.level(1), 1..4);
        assert_eq!(t.level(2), 4..13);
    }

    #[test]
    fn machine_sizes_cut_the_div_ceil_layout() {
        // k = ⌈10^0.55⌉ = 4 machines of ⌈10/4⌉ = 3 rows, the last short.
        assert_eq!(machine_sizes(10, 0.45), [3, 3, 3, 1]);
        // k = ⌈9^0.6⌉ = 4 machines of 3 rows leave the last one empty.
        assert_eq!(machine_sizes(9, 0.4), [3, 3, 3, 0]);
    }

    #[test]
    fn solves_random_lp() {
        let (p, cs) = random_lp(5000, 2, 91);
        let mut rng = StdRng::seed_from_u64(92);
        let (sol, stats) = solve(&p, &cs, &MpcConfig::calibrated(0.4), &mut rng).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        assert!(stats.k > 1);
        assert!(stats.rounds > 0);
        assert!(stats.max_load_bits > 0);
    }

    #[test]
    fn smaller_delta_means_more_rounds_less_load() {
        let (p, cs) = random_lp(20_000, 2, 93);
        let mut rng = StdRng::seed_from_u64(94);
        let (_, tight) = solve(&p, &cs, &MpcConfig::calibrated(0.25), &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(94);
        let (_, loose) = solve(&p, &cs, &MpcConfig::calibrated(0.55), &mut rng).unwrap();
        assert!(
            tight.rounds as f64 / tight.clarkson.iterations as f64
                >= loose.rounds as f64 / loose.clarkson.iterations as f64,
            "tight {tight:?} loose {loose:?}"
        );
        assert!(
            tight.max_load_bits <= loose.max_load_bits * 4,
            "{tight:?} vs {loose:?}"
        );
    }

    #[test]
    fn matches_ram_objective() {
        let (p, cs) = random_lp(4000, 3, 95);
        let mut rng = StdRng::seed_from_u64(96);
        let (sol, _) = solve(&p, &cs, &MpcConfig::calibrated(0.4), &mut rng).unwrap();
        let (ram, _) =
            llp_core::clarkson_solve(&p, &cs, &ClarksonConfig::calibrated(2), &mut rng).unwrap();
        let (v1, v2) = (p.objective_value(&sol), p.objective_value(&ram));
        assert!((v1 - v2).abs() < 1e-5 * v1.abs().max(1.0), "{v1} vs {v2}");

        // With one machine the tree has no edges and the protocol runs
        // RAM's loop on the same weights, bit for bit and trace for trace,
        // as the one-site coordinator does — failed iterations included.
        use rand::RngCore;
        let small = ClarksonConfig {
            net_multiplier: 1.0 / 4096.0,
            net_floor_coeff: 0.25,
            ..ClarksonConfig::paper(3)
        };
        let cfg = MpcConfig {
            clarkson: small,
            ..MpcConfig::calibrated(1.0 / 3.0)
        };
        let bits = |sol: &Vec<f64>| sol.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut failed = 0;
        for seed in 0..6 {
            let (p, cs) = random_lp(20_000, 3, 83 + seed);
            let mut rng_ram = StdRng::seed_from_u64(seed);
            let (ram, ram_stats) = llp_core::clarkson_solve(&p, &cs, &small, &mut rng_ram).unwrap();
            let mut rng_mpc = StdRng::seed_from_u64(seed);
            let columns = p.to_columns(&cs);
            let (mpc, stats) =
                solve_partitioned(&p, &cs, &columns, &[cs.len()], &cfg, &mut rng_mpc).unwrap();
            assert_eq!(bits(&mpc), bits(&ram), "seed {seed}");
            assert_eq!(stats.clarkson, ram_stats, "seed {seed}");
            assert_eq!(rng_mpc.next_u64(), rng_ram.next_u64(), "seed {seed}");
            failed += ram_stats.iterations - ram_stats.successful_iterations - 1;
        }
        assert!(
            failed > 0,
            "the one-machine case must include failed iterations"
        );
    }

    #[test]
    #[should_panic(expected = "the weight factor must be n^(1/r)")]
    fn a_weight_factor_not_tied_to_delta_is_refused() {
        let (p, cs) = random_lp(200, 2, 7);
        // δ = 1/4 needs r = 4; the struct update keeps r = 2's factor.
        let cfg = MpcConfig {
            delta: 0.25,
            ..MpcConfig::calibrated(0.5)
        };
        let _ = solve(&p, &cs, &cfg, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn skewed_machines_agree_with_balanced() {
        let (p, cs) = random_lp(4000, 2, 99);
        let mut rng = StdRng::seed_from_u64(100);
        let cfg = MpcConfig::calibrated(0.4);
        let (balanced, _) = solve(&p, &cs, &cfg, &mut rng).unwrap();
        // A deliberately lopsided layout: one machine holds half the data.
        let k = 16usize;
        let mut sizes = vec![2000usize];
        sizes.extend(std::iter::repeat_n(2000 / (k - 1), k - 1));
        let rem = 4000 - sizes.iter().sum::<usize>();
        sizes[k - 1] += rem;
        let (skewed, stats) =
            solve_partitioned(&p, &cs, &p.to_columns(&cs), &sizes, &cfg, &mut rng).unwrap();
        assert_eq!(count_violations(&p, &skewed, &cs), 0);
        assert!(
            (p.objective_value(&skewed) - p.objective_value(&balanced)).abs()
                < 1e-5 * p.objective_value(&balanced).abs().max(1.0)
        );
        assert_eq!(stats.k, k);
        assert!(stats.max_load_bits > 0);
        // The critical-path total dominates any single round's peak.
        assert!(stats.total_load_bits >= stats.max_load_bits);
        assert!(stats.total_load_bits <= stats.rounds * stats.max_load_bits);
    }

    #[test]
    fn a_net_covering_the_input_is_still_metered() {
        // A net of all n rows: every machine but the root ships its whole
        // range to the root in one round, so the root's load that round
        // is the rows of every other machine.
        let (p, cs) = random_lp(300, 2, 47);
        let mut rng = StdRng::seed_from_u64(48);
        let sizes = [100usize, 120, 80];
        let cfg = MpcConfig::calibrated(0.5);
        let (_, stats) =
            solve_partitioned(&p, &cs, &p.to_columns(&cs), &sizes, &cfg, &mut rng).unwrap();
        assert_eq!(
            (stats.clarkson.net_size, stats.clarkson.iterations),
            (300, 1)
        );
        assert_eq!(stats.max_load_bits, 200 * p.constraint_bits());
    }

    #[test]
    fn single_machine_degenerates_gracefully() {
        let (p, cs) = random_lp(200, 2, 97);
        let mut rng = StdRng::seed_from_u64(98);
        // delta close to 1: k = n^{1-δ} small.
        let (sol, stats) = solve(&p, &cs, &MpcConfig::calibrated(0.95), &mut rng).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        assert!(stats.k >= 1);
    }
}
