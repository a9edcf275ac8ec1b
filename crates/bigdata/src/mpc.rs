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
//! Each machine is one [`SiteWeights`] holder, the one RAM and the
//! coordinator sites run on: it draws its share of the net into the
//! solve's one [`NetBuffer`], scans its range, and applies each verdict
//! when the broadcast reaches it. The load meter is charged each
//! message's size in bits.

use crate::BigDataError;
use llp_core::clarkson::{NetBuffer, SiteWeights};
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
    /// ε-net failure budget per iteration.
    pub net_delta: f64,
    /// Scale on the Eq. (1) net-size constants.
    pub net_multiplier: f64,
    /// Floor on the net size as a multiple of `λ/ε` (see
    /// `ClarksonConfig::net_floor_coeff`).
    pub net_floor_coeff: f64,
    /// Behaviour on failed iterations (Remark 3.6).
    pub failure_policy: llp_core::clarkson::FailurePolicy,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl MpcConfig {
    /// Calibrated configuration for a given δ.
    pub fn calibrated(delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        MpcConfig {
            delta,
            net_delta: 1.0 / 3.0,
            net_multiplier: 1.0 / 16.0,
            net_floor_coeff: 0.0,
            failure_policy: llp_core::clarkson::FailurePolicy::Retry,
            max_iterations: 10_000,
        }
    }

    /// The lean configuration (see `ClarksonConfig::lean`).
    pub fn lean(delta: f64) -> Self {
        MpcConfig {
            net_multiplier: 1.0 / 4096.0,
            net_floor_coeff: 2.0,
            ..Self::calibrated(delta)
        }
    }

    /// The pass parameter `r = ⌈1/δ⌉` implied by δ.
    pub fn r(&self) -> u32 {
        (1.0 / self.delta).ceil() as u32
    }

    fn clarkson(&self) -> ClarksonConfig {
        ClarksonConfig {
            factor: llp_core::clarkson::WeightFactor::NthRoot { r: self.r() },
            net_delta: self.net_delta,
            net_multiplier: self.net_multiplier,
            net_floor_coeff: self.net_floor_coeff,
            failure_policy: self.failure_policy,
            max_iterations: self.max_iterations,
        }
    }
}

/// Statistics of an MPC run (experiment T4). `PartialEq` backs the
/// parallel-determinism differential suite.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MpcStats {
    /// BSP rounds.
    pub rounds: u64,
    /// Maximum per-machine per-round load in bits.
    pub max_load_bits: u64,
    /// Sum over rounds of the per-round maximum load (critical-path
    /// traffic; congestion read-out for skewed partitions).
    pub total_load_bits: u64,
    /// Iterations of Algorithm 1.
    pub iterations: usize,
    /// Successful iterations.
    pub successful_iterations: usize,
    /// Machines used.
    pub k: usize,
    /// Tree fanout `⌈n^δ⌉`.
    pub fanout: usize,
    /// ε-net size.
    pub net_size: usize,
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
/// Panics if `data` is empty.
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
/// Panics if `data` is empty, `sizes` do not sum to `data.len()`, or
/// `columns` has a different length.
pub fn solve_partitioned<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    columns: &ConstraintColumns,
    sizes: &[usize],
    cfg: &MpcConfig,
    rng: &mut R,
) -> Result<(P::Solution, MpcStats), BigDataError> {
    let n = data.len();
    assert!(n > 0, "empty input");
    let covered: usize = sizes.iter().sum();
    assert_eq!(covered, n, "machine sizes must cover the data exactly");
    assert_eq!(columns.len(), n, "columns/constraints length mismatch");
    let k = sizes.len();
    let fanout = ((n as f64).powf(cfg.delta).ceil() as usize).max(2);
    let clarkson = cfg.clarkson();
    let params = clarkson.params(problem, n);

    let mut meter = MpcMeter::new(k);
    let tree = Tree { k, fanout };
    let depth = tree.depth();
    // Persistent per-machine weight indices, updated incrementally from
    // the violator lists each machine scans anyway — the basis verdicts
    // broadcast down the tree keep every index in sync, and no round
    // recomputes a weight from the basis history.
    let mut machines = SiteWeights::partition(sizes, params.factor);
    // The machines draw each net into this one buffer, refilled in place.
    let mut buffer = NetBuffer::new();
    let cbits = problem.constraint_bits();

    let mut stats = MpcStats {
        k,
        fanout,
        net_size: params.net_size,
        ..MpcStats::default()
    };
    let mut pending: Option<bool> = None;

    let result = loop {
        if stats.iterations >= clarkson.max_iterations {
            break Err(BigDataError::IterationLimit);
        }
        stats.iterations += 1;

        // ---- Verdict broadcast (1 byte down the tree). ----
        if let Some(accepted) = pending.take() {
            broadcast_down(&mut meter, &tree, depth, 8);
            for machine in &mut machines {
                machine.resolve(accepted);
            }
        }

        // ---- Subtree weights converge-cast (128 bits per edge). ----
        let local_weights: Vec<ScaledF64> = machines.iter().map(SiteWeights::total).collect();
        let subtree_weights = converge_sum(&mut meter, &tree, depth, &local_weights, 128);
        let total_weight = subtree_weights[0];

        // ---- Hierarchical multinomial split of the m draws; when the
        // ε-net formula covers the whole input, every machine ships its
        // full range (a trivially valid net). ----
        let take_all = params.net_size >= n;
        let counts: Vec<u64> = if take_all {
            sizes.iter().map(|&s| s as u64).collect()
        } else {
            split_counts(
                &mut meter,
                &tree,
                depth,
                params.net_size as u64,
                &local_weights,
                &subtree_weights,
                rng,
            )
        };

        // ---- Samples to the root (one direct round). When every
        // machine ships its whole range, the net is `data` itself. ----
        meter.begin_round();
        buffer.clear();
        for (i, machine) in machines.iter().enumerate() {
            if counts[i] == 0 {
                continue;
            }
            let sampled = if take_all {
                machine.rows().len()
            } else {
                // Inversion draws straight off the machine's index.
                machine.draw_into(data, counts[i] as usize, rng, &mut buffer)
            };
            if i != 0 {
                meter.charge(i, 0, sampled as u64 * cbits);
            }
        }
        meter.end_round();
        let net = if take_all { data } else { buffer.rows() };

        // ---- Root computes the basis. ----
        let solution = problem.solve_subset(net, rng).map_err(BigDataError::from)?;

        // ---- Basis broadcast down the tree. ----
        broadcast_down(&mut meter, &tree, depth, problem.solution_bits());

        // ---- Violator weights converge-cast. Each machine's fused
        // violation-test + weight scan runs on the llp_par pool over its
        // range of the shared columns, reading weights off its index and
        // staging the violator indices for the next verdict broadcast
        // (the staged lists never travel). ----
        let local_viol: Vec<(ScaledF64, usize)> = machines
            .iter_mut()
            .map(|machine| machine.scan_and_stage(problem, &solution, columns))
            .collect();
        let viol_w: Vec<ScaledF64> = local_viol.iter().map(|v| v.0).collect();
        let agg_w = converge_sum(&mut meter, &tree, depth, &viol_w, 192);
        let w_violators = agg_w[0];
        let violator_count: usize = local_viol.iter().map(|v| v.1).sum();

        let success = w_violators.ratio(total_weight) <= params.eps;
        if success {
            if violator_count == 0 {
                break Ok(solution);
            }
            stats.successful_iterations += 1;
            pending = Some(true);
        } else if clarkson.failure_policy == llp_core::clarkson::FailurePolicy::Abort {
            break Err(BigDataError::NetFailure);
        } else {
            pending = Some(false);
        }
    };

    stats.rounds = meter.rounds();
    stats.max_load_bits = meter.max_load_bits();
    stats.total_load_bits = meter.total_load_bits();
    result.map(|s| (s, stats))
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

/// Converge-casts subtree sums toward the root: one tree level per round,
/// bottom-up. Returns, for each node, the sum over its whole subtree.
fn converge_sum(
    meter: &mut MpcMeter,
    tree: &Tree,
    depth: usize,
    local: &[ScaledF64],
    bits_per_msg: u64,
) -> Vec<ScaledF64> {
    let mut acc: Vec<ScaledF64> = local.to_vec();
    for l in (1..=depth).rev() {
        meter.begin_round();
        for node in tree.level(l) {
            if let Some(p) = tree.parent(node) {
                meter.charge(node, p, bits_per_msg);
                let v = acc[node];
                acc[p] += v;
            }
        }
        meter.end_round();
    }
    acc
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
                    meter.charge(node, ch, 64);
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
            tight.rounds as f64 / tight.iterations as f64
                >= loose.rounds as f64 / loose.iterations as f64,
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
    fn single_machine_degenerates_gracefully() {
        let (p, cs) = random_lp(200, 2, 97);
        let mut rng = StdRng::seed_from_u64(98);
        // delta close to 1: k = n^{1-δ} small.
        let (sol, stats) = solve(&p, &cs, &MpcConfig::calibrated(0.95), &mut rng).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        assert!(stats.k >= 1);
    }
}
