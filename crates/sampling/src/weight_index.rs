//! Incremental weight index: O(log n) multiplicative updates + weighted
//! sampling, correct past `f64` overflow.
//!
//! Algorithm 1 changes only the violators' weights between iterations
//! (Line 8), yet a prefix-sum table over the weights — the structure
//! Lemma 2.2 sampling inverts against — costs O(n) to rebuild. A
//! [`WeightIndex`] is a Fenwick (binary indexed) tree over [`ScaledF64`]
//! weights that closes that gap:
//!
//! * [`WeightIndex::multiply`] — reweight one element by a factor `F ≥ 1`
//!   in O(log n);
//! * [`WeightIndex::total`] — the current total weight `w(S)` in O(1);
//! * [`WeightIndex::sample`] — the first index whose weight prefix
//!   exceeds a target `t` (one inversion draw) by a single O(log n) tree
//!   descent, no materialized prefix array;
//! * [`WeightIndex::draw_many`] — a whole ε-net of `m` draws in one
//!   batched descent.
//!
//! A Clarkson iteration with `|V|` violators and `m` net draws therefore
//! costs `O(|V| log n)` for the reweighting plus one batched descent,
//! instead of the `O(n + m log n)` rebuild-and-search it replaces — the
//! Section 3.2 bookkeeping made concrete. The batched descent sends the
//! `m` sorted targets down the tree together, splitting each node's
//! target range at the node's prefix sum, so a node sum is added once per
//! distinct path rather than once per draw: never more than the
//! `O(m log n)` additions of `m` single draws, and about
//! `m·(log₂(n/m) + 2)` when the paths share their top `log₂ m` levels.
//!
//! The batch is bit-identical to `m` separate
//! [`draw`](WeightIndex::draw)s. The targets are the same values in
//! sorted order: the uniforms are drawn in the same order, and sorting
//! them before scaling by the total equals sorting after, because the
//! rounded product is monotone (see [`weighted`]). On the tree, every
//! target meets the same node sums, accumulated by the same additions in
//! the same order, as its own descent, so it takes the same branches and
//! lands on the same index.
//!
//! Weights reach `F^{Θ(νr)} = n^{Θ(ν)}` over a run, far past
//! `f64::MAX` for realistic `n`, so every node stores a [`ScaledF64`].
//!
//! All operations are sequential and deterministic; the index never
//! touches the `llp_par` pool, so thread-count invariance of callers is
//! preserved by construction.

use crate::weighted::{self, target};
use llp_num::ScaledF64;
use rand::Rng;

/// A Fenwick-tree-backed dynamic weight table over `ScaledF64`.
///
/// Invariants: weights are non-negative (zero-weight elements are never
/// returned by [`sample`](Self::sample)); updates are multiplicative with
/// factors `≥ 1`, so node sums only grow — the saturating `ScaledF64`
/// subtraction never enters the tree.
#[derive(Clone, Debug)]
pub struct WeightIndex {
    /// Point weights `w_i` (the leaf values), kept exactly as the product
    /// of their update factors.
    weights: Vec<ScaledF64>,
    /// 1-indexed Fenwick array padded to a power of two; `tree[i]` holds
    /// the weight sum over `(i − lowbit(i), i]`. Padding slots weigh zero.
    tree: Vec<ScaledF64>,
    /// Power-of-two capacity (0 for an empty index). `tree[cap]` covers
    /// the whole range, making `total()` a single read.
    cap: usize,
}

/// Reusable buffers for [`WeightIndex::draw_many`]: one net's sorted
/// uniforms and the targets they scale to. Kept across iterations, they
/// make the draws allocation-free once warm.
#[derive(Clone, Debug, Default)]
pub struct DrawScratch {
    uniforms: Vec<f64>,
    targets: Vec<ScaledF64>,
}

impl WeightIndex {
    /// An index of `n` elements, all at weight 1 (Line 2 of Algorithm 1).
    ///
    /// Built in closed form: node `i` covers `(i − lowbit(i), i]`, so its
    /// sum is the count of real elements in that range — an integer below
    /// 2^53, which the pairwise additions of
    /// [`from_weights`](Self::from_weights) reach exactly. Each node is
    /// therefore that count, bit for bit.
    pub fn uniform(n: usize) -> Self {
        if n == 0 {
            return Self::from_weights(&[]);
        }
        let cap = n.next_power_of_two();
        let tree = (0..=cap)
            .map(|i| {
                let lo = i - (i & i.wrapping_neg());
                ScaledF64::from_f64((i.min(n) - lo.min(n)) as f64)
            })
            .collect();
        WeightIndex {
            weights: vec![ScaledF64::ONE; n],
            tree,
            cap,
        }
    }

    /// Builds an index over explicit weights in O(n).
    pub fn from_weights(weights: &[ScaledF64]) -> Self {
        let n = weights.len();
        if n == 0 {
            return WeightIndex {
                weights: Vec::new(),
                tree: vec![ScaledF64::ZERO],
                cap: 0,
            };
        }
        let cap = n.next_power_of_two();
        let mut tree = vec![ScaledF64::ZERO; cap + 1];
        tree[1..=n].copy_from_slice(weights);
        for i in 1..cap {
            let parent = i + (i & i.wrapping_neg());
            if parent <= cap {
                let v = tree[i];
                tree[parent] += v;
            }
        }
        WeightIndex {
            weights: weights.to_vec(),
            tree,
            cap,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True iff the index holds no elements.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight of element `i`.
    pub fn get(&self, i: usize) -> ScaledF64 {
        self.weights[i]
    }

    /// The total weight `w(S)` — O(1): the tree root covers everything.
    pub fn total(&self) -> ScaledF64 {
        self.tree[self.cap]
    }

    /// Sum of the first `i` weights — O(log n). Diagnostic/test helper;
    /// the sampling path never materializes prefixes.
    pub fn prefix(&self, i: usize) -> ScaledF64 {
        assert!(i <= self.len(), "prefix({i}) out of bounds");
        let mut acc = ScaledF64::ZERO;
        let mut j = i;
        while j > 0 {
            acc += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        acc
    }

    /// Multiplies element `i`'s weight by `factor` in O(log n).
    ///
    /// Restricted to `factor ≥ 1`: Clarkson weights only grow, and the
    /// restriction keeps every tree update a non-negative addition
    /// (`ScaledF64` subtraction saturates and would silently decouple the
    /// nodes from the leaves).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds or `factor` is not finite and `≥ 1`.
    pub fn multiply(&mut self, i: usize, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "weight factor must be finite and >= 1, got {factor}"
        );
        let old = self.weights[i];
        if old.is_zero() || factor == 1.0 {
            return;
        }
        self.weights[i] = old * ScaledF64::from_f64(factor);
        // The additive delta w·(F−1): exact in the same sense as the leaf
        // product, and non-negative by the factor restriction.
        let delta = old * ScaledF64::from_f64(factor - 1.0);
        if delta.is_zero() {
            return;
        }
        let mut j = i + 1;
        while j <= self.cap {
            self.tree[j] += delta;
            j += j & j.wrapping_neg();
        }
    }

    /// The first index whose weight prefix strictly exceeds `t` — the
    /// inversion-sampling primitive of Lemma 2.2 — by one O(log n) tree
    /// descent. Targets at or beyond the total clamp to the last element;
    /// zero-weight elements are never returned (the nearest
    /// positive-weight element is, preferring the forward direction —
    /// mathematically a zero-weight landing is impossible, but descent
    /// rounding can produce one at a plateau boundary).
    ///
    /// # Panics
    /// Panics if the total weight is zero (nothing to sample).
    pub fn sample(&self, t: ScaledF64) -> usize {
        assert!(!self.total().is_zero(), "sampling from an all-zero index");
        self.resolve(self.descend_one(t, 0, ScaledF64::ZERO, self.cap))
    }

    /// The descent of [`sample`](Self::sample) from an intermediate state:
    /// `pos` counts the elements whose cumulative weight `acc` is ≤ `t`,
    /// and `half` is the next probe width. Each probed node `pos + half`
    /// covers `(pos, pos + half]`, so `acc` stays an exact node-sum prefix
    /// — no subtraction.
    fn descend_one(
        &self,
        t: ScaledF64,
        mut pos: usize,
        mut acc: ScaledF64,
        mut half: usize,
    ) -> usize {
        while half > 0 {
            let next = pos + half;
            if next <= self.cap {
                let cand = acc + self.tree[next];
                if cand <= t {
                    pos = next;
                    acc = cand;
                }
            }
            half >>= 1;
        }
        pos
    }

    /// Maps a descent's end position to the element it selects: clamped
    /// to the last element, then moved off a zero weight (see
    /// [`sample`](Self::sample)). Monotone in `pos`.
    fn resolve(&self, pos: usize) -> usize {
        let idx = pos.min(self.len() - 1);
        if !self.weights[idx].is_zero() {
            return idx;
        }
        match self.weights[idx + 1..].iter().position(|w| !w.is_zero()) {
            Some(off) => idx + 1 + off,
            None => self.weights[..idx]
                .iter()
                .rposition(|w| !w.is_zero())
                .expect("total weight is positive"),
        }
    }

    /// Draws one index i.i.d. proportional to weight: one uniform in
    /// `[0, 1)` scaled by the total, then [`sample`](Self::sample). The
    /// RNG consumption (one `f64` draw) matches the prefix-table sampler
    /// it replaces.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let t = target(self.total(), rng.random_range(0.0..1.0f64));
        self.sample(t)
    }

    /// Draws `count` indices i.i.d. proportional to weight into `out`
    /// (replacing its contents), in ascending order: the same RNG draws,
    /// and the same index multiset, as `count` calls to
    /// [`draw`](Self::draw), which stays the reference.
    ///
    /// The targets are built by `weighted::sorted_uniforms` and
    /// `weighted::target`, then descend the tree together: at each node
    /// the sorted range splits at `acc + tree[next]` with one
    /// `partition_point`, so each node sum is added once per distinct
    /// path while every target makes the branch decisions, against the
    /// same partial sums, of its own [`sample`](Self::sample) descent.
    /// Targets leave the tree in sorted order and `sample` is monotone in
    /// its target, so `out` comes out ascending.
    ///
    /// # Panics
    /// Panics if `count > 0` and the total weight is zero.
    pub fn draw_many<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        scratch: &mut DrawScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if count == 0 {
            return;
        }
        assert!(!self.total().is_zero(), "sampling from an all-zero index");
        weighted::sorted_uniforms(count, rng, &mut scratch.uniforms);
        let total = self.total();
        scratch.targets.clear();
        scratch
            .targets
            .extend(scratch.uniforms.iter().map(|&u| target(total, u)));
        self.descend_many(&scratch.targets, 0, ScaledF64::ZERO, self.cap, out);
    }

    /// The batched descent of [`draw_many`](Self::draw_many) over the
    /// sorted `targets` that share the state `(pos, acc, half)`.
    fn descend_many(
        &self,
        targets: &[ScaledF64],
        pos: usize,
        acc: ScaledF64,
        half: usize,
        out: &mut Vec<usize>,
    ) {
        match targets {
            [] => {}
            &[t] => out.push(self.resolve(self.descend_one(t, pos, acc, half))),
            _ if half == 0 => {
                out.extend(std::iter::repeat_n(self.resolve(pos), targets.len()));
            }
            _ if pos + half > self.cap => self.descend_many(targets, pos, acc, half >> 1, out),
            _ => {
                let next = pos + half;
                let cand = acc + self.tree[next];
                // `sample` moves right iff `cand <= t`: the targets below
                // `cand` form the sorted range's prefix.
                let k = targets.partition_point(|t| *t < cand);
                self.descend_many(&targets[..k], pos, acc, half >> 1, out);
                self.descend_many(&targets[k..], next, cand, half >> 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn from_f64s(ws: &[f64]) -> WeightIndex {
        let ws: Vec<ScaledF64> = ws.iter().map(|&w| ScaledF64::from_f64(w)).collect();
        WeightIndex::from_weights(&ws)
    }

    #[test]
    fn uniform_total_is_n() {
        for n in [1usize, 2, 3, 7, 64, 1000] {
            let idx = WeightIndex::uniform(n);
            assert_eq!(idx.len(), n);
            assert!((idx.total().to_f64() - n as f64).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn empty_index_is_inert() {
        let idx = WeightIndex::uniform(0);
        assert!(idx.is_empty());
        assert!(idx.total().is_zero());
        assert!(idx.prefix(0).is_zero());
    }

    #[test]
    fn prefix_matches_naive_fold() {
        let idx = from_f64s(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]);
        let mut acc = 0.0;
        for (i, w) in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0].iter().enumerate() {
            assert!((idx.prefix(i).to_f64() - acc).abs() < 1e-9, "prefix {i}");
            acc += w;
            assert!((idx.prefix(i + 1).to_f64() - acc).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_inverts_prefix_boundaries() {
        let idx = from_f64s(&[2.0, 3.0, 5.0]);
        let cases = [
            (0.0, 0),
            (1.999, 0),
            (2.0, 1), // boundary: prefix(1) == t selects the next element
            (4.999, 1),
            (5.0, 2),
            (9.999, 2),
            (10.0, 2), // t == total clamps to the last element
            (50.0, 2), // beyond-total clamps too
        ];
        for (t, expect) in cases {
            assert_eq!(idx.sample(ScaledF64::from_f64(t)), expect, "t={t}");
        }
    }

    #[test]
    fn sample_never_returns_zero_weight() {
        // Zero tail: the clamp would land on the trailing zero.
        let idx = from_f64s(&[1.0, 0.0]);
        for t in [0.0, 0.5, 0.999, 1.0, 2.0] {
            assert_eq!(idx.sample(ScaledF64::from_f64(t)), 0, "t={t}");
        }
        // Zero head and an interior plateau.
        let idx = from_f64s(&[0.0, 1.0, 0.0, 0.0, 2.0, 0.0]);
        for t in [0.0, 0.5, 1.0, 1.5, 2.999, 3.0, 99.0] {
            let got = idx.sample(ScaledF64::from_f64(t));
            assert!(got == 1 || got == 4, "t={t} selected zero-weight {got}");
        }
    }

    #[test]
    fn single_element_always_selected() {
        let mut idx = WeightIndex::uniform(1);
        idx.multiply(0, 1e6);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(idx.draw(&mut rng), 0);
        }
    }

    #[test]
    fn multiply_updates_total_and_prefixes() {
        let mut idx = WeightIndex::uniform(5);
        idx.multiply(2, 10.0);
        idx.multiply(2, 10.0);
        idx.multiply(4, 3.0);
        assert!((idx.total().to_f64() - (1.0 + 1.0 + 100.0 + 1.0 + 3.0)).abs() < 1e-9);
        assert!((idx.get(2).to_f64() - 100.0).abs() < 1e-9);
        assert!((idx.prefix(3).to_f64() - 102.0).abs() < 1e-9);
    }

    #[test]
    fn survives_magnitudes_past_f64_overflow() {
        // 600 doublings per element: weights near 2^600, totals past any
        // single f64 after a few multiplies of a 2^1000 base.
        let base: Vec<ScaledF64> = (0..8).map(|_| ScaledF64::powi(2.0, 1000)).collect();
        let mut idx = WeightIndex::from_weights(&base);
        for _ in 0..200 {
            idx.multiply(3, 4.0); // element 3 gains 2^400
        }
        assert!((idx.get(3).log2() - 1400.0).abs() < 1e-6);
        // Total ≈ 2^1400 (element 3 dominates); must stay finite & ordered.
        assert!((idx.total().log2() - 1400.0).abs() < 1e-3);
        // Sampling still lands on the dominating element for mid targets.
        let t = idx.total() * ScaledF64::from_f64(0.5);
        assert_eq!(idx.sample(t), 3);
    }

    #[test]
    fn draw_respects_weights() {
        let mut idx = WeightIndex::uniform(3);
        idx.multiply(2, 3.0);
        let mut rng = StdRng::seed_from_u64(31);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[idx.draw(&mut rng)] += 1;
        }
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn uniform_nodes_match_pairwise_sums_bit_for_bit() {
        let sizes = (1..=70).chain([40_000, 48_000, 50_000, 64_000]);
        for n in sizes {
            let closed = WeightIndex::uniform(n);
            let summed = WeightIndex::from_weights(&vec![ScaledF64::ONE; n]);
            assert_eq!(closed.cap, summed.cap, "n={n}");
            assert_eq!(closed.weights, summed.weights, "n={n}");
            // Mantissas are never NaN or -0.0, so `==` on the fields is
            // equality of their bits.
            for (i, (a, b)) in closed.tree.iter().zip(&summed.tree).enumerate() {
                assert_eq!(a, b, "n={n} node {i}");
            }
            assert_eq!(closed.tree.len(), summed.tree.len(), "n={n}");
        }
    }

    /// A seeded index of `n` elements with zero runs at the head, the
    /// tail and inside, other weights spread over `2^±1000` magnitudes
    /// and then reweighted by `multiply`, and at least one positive
    /// weight.
    fn adversarial_index(n: usize, rng: &mut StdRng) -> WeightIndex {
        let base = match rng.random_range(0..3) {
            0 => ScaledF64::ONE,
            1 => ScaledF64::exp2(1000.0),
            _ => ScaledF64::exp2(-1000.0),
        };
        let head = rng.random_range(0..=n / 4);
        let tail = rng.random_range(0..=n / 4);
        let mut ws: Vec<ScaledF64> = (0..n)
            .map(|i| {
                let plateau = rng.random_range(0..8) == 0;
                if i < head || i >= n - tail || plateau {
                    ScaledF64::ZERO
                } else {
                    base * ScaledF64::from_f64(rng.random_range(0.5..4.0))
                }
            })
            .collect();
        if ws.iter().all(|w| w.is_zero()) {
            ws[rng.random_range(0..n)] = base;
        }
        let mut idx = WeightIndex::from_weights(&ws);
        for _ in 0..rng.random_range(0..=n) {
            let i = rng.random_range(0..n);
            idx.multiply(i, rng.random_range(1.0..1e6));
        }
        idx
    }

    #[test]
    fn draw_many_matches_single_draws_and_leaves_the_rng_in_step() {
        let mut cases = StdRng::seed_from_u64(17);
        let mut scratch = DrawScratch::default();
        let mut batched = Vec::new();
        for case in 0..300 {
            let n = match case % 4 {
                0 => 1,
                1 => cases.random_range(2..=64),
                2 => cases.random_range(65..=3000),
                _ => 1 << cases.random_range(0..12),
            };
            let idx = adversarial_index(n, &mut cases);
            let count = match case % 5 {
                0 => 0,
                1 => 1,
                _ => cases.random_range(2..=2 * n + 8),
            };
            let seed = cases.next_u64();
            let mut single_rng = StdRng::seed_from_u64(seed);
            let mut singles: Vec<usize> = (0..count).map(|_| idx.draw(&mut single_rng)).collect();
            singles.sort_unstable();
            let mut batch_rng = StdRng::seed_from_u64(seed);
            idx.draw_many(count, &mut batch_rng, &mut scratch, &mut batched);
            assert_eq!(batched, singles, "case {case}: n={n} count={count}");
            assert_eq!(
                batch_rng.next_u64(),
                single_rng.next_u64(),
                "case {case}: RNG out of step"
            );
        }
    }

    #[test]
    fn batched_descent_matches_sample_on_boundary_targets() {
        // Targets exactly on prefix sums, at the total and past it, with
        // duplicates: each must resolve as its own `sample` call does.
        let idx = from_f64s(&[0.0, 2.0, 0.0, 0.0, 3.0, 1.0, 0.0]);
        let targets: Vec<ScaledF64> = [0.0, 0.0, 1.0, 2.0, 2.0, 4.999, 5.0, 5.5, 6.0, 6.0, 9.0]
            .iter()
            .map(|&t| ScaledF64::from_f64(t))
            .collect();
        let mut out = Vec::new();
        idx.descend_many(&targets, 0, ScaledF64::ZERO, idx.cap, &mut out);
        let expect: Vec<usize> = targets.iter().map(|&t| idx.sample(t)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn draw_many_of_zero_draws_touches_nothing() {
        let idx = from_f64s(&[0.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = vec![7];
        idx.draw_many(0, &mut rng, &mut DrawScratch::default(), &mut out);
        assert!(out.is_empty());
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(5).next_u64());
    }

    #[test]
    #[should_panic(expected = "all-zero index")]
    fn sample_rejects_all_zero() {
        let idx = from_f64s(&[0.0, 0.0]);
        let _ = idx.sample(ScaledF64::ZERO);
    }

    #[test]
    #[should_panic(expected = "factor must be finite and >= 1")]
    fn multiply_rejects_shrinking_factor() {
        let mut idx = WeightIndex::uniform(2);
        idx.multiply(0, 0.5);
    }
}
