//! Weighted i.i.d. sampling (with replacement).
//!
//! Lemma 2.2 requires each of the `m` net members to be drawn
//! independently with probability proportional to its weight. This
//! module holds the pieces every ε-net draw shares, and two samplers:
//!
//! * `sorted_uniforms` and `target` — one net's inversion targets.
//!   The `m` uniforms are drawn in the order `m` single draws take them
//!   and sorted as plain floats; each target is `total · u`. Scaling is
//!   monotone in `u` (every rounding step of the `ScaledF64` product is),
//!   so scaling the sorted uniforms gives exactly the sequence that
//!   scaling first and sorting the scaled values would, bit for bit.
//!   [`SortedTargetSampler`] builds its targets this way.
//! * [`SortedTargetSampler`] — the streaming primitive: given the total
//!   weight `W` (which the streaming solver maintains exactly from one
//!   iteration to the next, see `llp-bigdata::streaming`), intersect the
//!   sorted targets with the running prefix sum in a single pass over the
//!   stream. [`SortedTargetSampler::feed`] takes one weight at a time;
//!   [`SortedTargetSampler::feed_run`] takes a chunk of rows weighed from
//!   a table (row `i` weighs `table[exponents[i]]`, Section 3.2's
//!   `F^{a(c)}`) and returns the rows a target lands on. The run advances
//!   the prefix through [`ScaledF64::add_run`], which performs the same
//!   additions in the same order as `feed` and leaves its tight loop only
//!   at a row that passes the next target or moves the prefix's
//!   exponent, so both paths agree row for row.
//! * [`sample_iid`] — prefix sums over a plain `f64` weight slice and `m`
//!   binary searches; it generates the `serve` load mixes.

use llp_num::ScaledF64;
use rand::Rng;

/// Draws `m` indices i.i.d. with probability `w_i / Σw` from a slice of
/// weights. Zero-weight elements are never selected.
///
/// # Panics
/// Panics if all weights are zero or any weight is negative/non-finite.
pub fn sample_iid<R: Rng + ?Sized>(weights: &[f64], m: usize, rng: &mut R) -> Vec<usize> {
    assert!(!weights.is_empty(), "sampling from an empty population");
    let mut prefix = Vec::with_capacity(weights.len());
    let mut acc = 0.0f64;
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
        acc += w;
        prefix.push(acc);
    }
    assert!(acc > 0.0, "total weight must be positive");
    let mut out = Vec::with_capacity(m);
    for _ in 0..m {
        let t = rng.random_range(0.0..acc);
        out.push(index_for_target(&prefix, weights, t));
    }
    out
}

/// Draws `m` uniforms in `[0, 1)` into `uniforms` — one `f64` draw each,
/// in the order `m` single inversion draws take them — and sorts them
/// ascending as plain floats. Scale each with [`target`]; the module doc
/// explains why the result equals scale-then-sort.
fn sorted_uniforms<R: Rng + ?Sized>(m: usize, rng: &mut R, uniforms: &mut Vec<f64>) {
    uniforms.clear();
    uniforms.extend((0..m).map(|_| rng.random_range(0.0..1.0f64)));
    uniforms.sort_unstable_by(f64::total_cmp);
}

/// The inversion target `total · u` of a uniform `u ∈ [0, 1)`: the value
/// one weighted draw resolves against the prefix sums.
#[inline]
fn target(total: ScaledF64, u: f64) -> ScaledF64 {
    total * ScaledF64::from_f64(u)
}

/// Resolves one inversion target against a prefix table: the first index
/// whose prefix strictly exceeds `t`, never a zero-weight element.
///
/// `partition_point(|&p| p <= t)` steps past every prefix equal to `t`.
/// On interior flat plateaus that is already correct — a zero weight adds
/// exactly `0.0`, so the search can never *stop* on one — but when `t`
/// reaches the final prefix (a rounded draw hitting the upper bound, or a
/// caller's `t` equal to the total) the `.min` clamp lands on the last
/// index, which may sit on a zero-weight tail plateau. Walk back to the
/// nearest positive weight in that case.
fn index_for_target(prefix: &[f64], weights: &[f64], t: f64) -> usize {
    let idx = prefix.partition_point(|&p| p <= t).min(weights.len() - 1);
    if weights[idx] > 0.0 {
        return idx;
    }
    weights[..idx]
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("total weight is positive")
}

/// One-pass i.i.d. weighted sampling against a known total weight.
///
/// Construct with the number of draws and the exact total weight `W`;
/// feed elements in stream order via [`SortedTargetSampler::feed`], which
/// returns how many of the `m` draws landed on that element. Because the
/// `m` uniforms are drawn up front and sorted, each `feed` is amortized
/// O(1).
#[derive(Debug)]
pub struct SortedTargetSampler {
    /// The sorted uniforms (`sorted_uniforms`); the targets in `[0, W)`
    /// they scale to are built one at a time as the cursor reaches them,
    /// so the sampler holds `m` plain floats and never a second buffer.
    uniforms: Vec<f64>,
    total: ScaledF64,
    /// `target(total, uniforms[cursor])` while `cursor < m`.
    next: ScaledF64,
    cursor: usize,
    acc: ScaledF64,
    /// [`ScaledF64::add_run`]'s aligned-table scratch for
    /// [`feed_run`](Self::feed_run).
    rel: Vec<f64>,
}

impl SortedTargetSampler {
    /// Draws `m` sorted uniform targets in `[0, total)`.
    ///
    /// # Panics
    /// Panics if `total` is zero.
    pub fn new<R: Rng + ?Sized>(m: usize, total: ScaledF64, rng: &mut R) -> Self {
        assert!(!total.is_zero(), "total weight must be positive");
        let mut uniforms = Vec::new();
        sorted_uniforms(m, rng, &mut uniforms);
        let next = uniforms
            .first()
            .map_or(ScaledF64::ZERO, |&u| target(total, u));
        SortedTargetSampler {
            uniforms,
            total,
            next,
            cursor: 0,
            acc: ScaledF64::ZERO,
            rel: Vec::new(),
        }
    }

    /// Advances the prefix sum by `weight` and returns the number of
    /// targets falling in the covered interval — i.e. how many i.i.d.
    /// draws selected this element.
    pub fn feed(&mut self, weight: ScaledF64) -> usize {
        self.acc += weight;
        self.take_passed()
    }

    /// Feeds a chunk of rows whose weights come from a table — row `i`
    /// weighs `table[exponents[i]]` — and fills `hits` with the rows at
    /// least one target lands on, ascending. Row for row, these are the
    /// rows for which [`feed`](Self::feed)`(table[exponents[i]])` returns
    /// nonzero, and the sampler ends in the same state; `feed` stays the
    /// reference. The prefix advances through [`ScaledF64::add_run`],
    /// which stops only at a row that passes the next target.
    pub fn feed_run(&mut self, exponents: &[u32], table: &[ScaledF64], hits: &mut Vec<usize>) {
        hits.clear();
        let mut row = 0;
        while row < exponents.len() {
            let stop = (self.cursor < self.uniforms.len()).then_some(self.next);
            row += self
                .acc
                .add_run(table, &exponents[row..], stop, &mut self.rel);
            if self.take_passed() > 0 {
                hits.push(row - 1);
            }
        }
    }

    /// Moves the cursor past every target below the prefix and returns
    /// how many it passed: the draws that landed on the last fed row.
    fn take_passed(&mut self) -> usize {
        let start = self.cursor;
        while self.cursor < self.uniforms.len() && self.next < self.acc {
            self.cursor += 1;
            if let Some(&u) = self.uniforms.get(self.cursor) {
                self.next = target(self.total, u);
            }
        }
        self.cursor - start
    }

    /// Number of draws not yet assigned (should be 0 after a full pass if
    /// the fed weights sum to the declared total).
    pub fn remaining(&self) -> usize {
        self.uniforms.len() - self.cursor
    }

    /// Declares the stream complete and returns the number of draws that
    /// were never assigned by [`feed`](Self::feed).
    ///
    /// `ScaledF64` rounding can leave the fed running prefix strictly
    /// below the declared total (the total is maintained incrementally by
    /// the solver while the fed weights are recomputed per element), in
    /// which case trailing targets satisfy `target ≥ Σ fed` and would be
    /// silently dropped — the net ends up smaller than `m`. Lemma 2.2
    /// wants every draw assigned: the caller must credit the returned
    /// leftover count to the final fed element, which owns the half-open
    /// tail interval `[Σ fed, W)`. The sampler is spent afterwards
    /// (`remaining() == 0`).
    pub fn finish(&mut self) -> usize {
        let leftover = self.remaining();
        self.cursor = self.uniforms.len();
        leftover
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn iid_respects_weights() {
        let weights = [1.0, 0.0, 3.0];
        let mut r = rng();
        let samples = sample_iid(&weights, 40_000, &mut r);
        let mut counts = [0usize; 3];
        for s in samples {
            counts[s] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight element selected");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn iid_single_element() {
        let samples = sample_iid(&[5.0], 10, &mut rng());
        assert!(samples.iter().all(|&i| i == 0));
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn iid_rejects_all_zero() {
        let _ = sample_iid(&[0.0, 0.0], 1, &mut rng());
    }

    #[test]
    fn sorted_targets_cover_all_draws() {
        let mut r = rng();
        let weights: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let total: ScaledF64 = weights.iter().map(|&w| ScaledF64::from_f64(w)).sum();
        let m = 500;
        let mut sampler = SortedTargetSampler::new(m, total, &mut r);
        let mut assigned = 0;
        for &w in &weights {
            assigned += sampler.feed(ScaledF64::from_f64(w));
        }
        assert_eq!(assigned, m);
        assert_eq!(sampler.remaining(), 0);
    }

    #[test]
    fn sorted_targets_match_weight_distribution() {
        let mut r = rng();
        // Element 9 has weight 10x the rest combined.
        let mut weights = [1.0; 10];
        weights[9] = 90.0;
        let total: ScaledF64 = weights.iter().map(|&w| ScaledF64::from_f64(w)).sum();
        let m = 20_000;
        let mut sampler = SortedTargetSampler::new(m, total, &mut r);
        let counts: Vec<usize> = weights
            .iter()
            .map(|&w| sampler.feed(ScaledF64::from_f64(w)))
            .collect();
        let frac9 = counts[9] as f64 / m as f64;
        assert!((frac9 - 0.909).abs() < 0.02, "heavy element got {frac9}");
    }

    #[test]
    fn iid_zero_tail_never_selected_even_at_the_clamp() {
        // Regression: with a zero-weight tail the prefix ends in a flat
        // plateau; a target reaching the final prefix value (clamped
        // upper-bound draw, or t == total) used to select the zero-weight
        // last element through the `.min(len - 1)` clamp. Drive the
        // resolver directly with the adversarial targets the RNG cannot
        // be forced to produce.
        let weights = [1.0f64, 0.0];
        let prefix = [1.0f64, 1.0];
        for t in [0.0, 0.5, 0.999, 1.0, 2.0] {
            assert_eq!(index_for_target(&prefix, &weights, t), 0, "t={t}");
        }
        // Interior plateau + zero head: only positive-weight indices come
        // back, including exactly on the plateau boundaries.
        let weights = [0.0f64, 2.0, 0.0, 0.0, 3.0, 0.0];
        let mut prefix = Vec::new();
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            prefix.push(acc);
        }
        for t in [0.0, 1.0, 2.0, 2.5, 4.999, 5.0, 9.0] {
            let idx = index_for_target(&prefix, &weights, t);
            assert!(idx == 1 || idx == 4, "t={t} selected zero-weight {idx}");
        }
        // And through the public API: the documented contract holds.
        let samples = sample_iid(&[1.0, 0.0], 5000, &mut rng());
        assert!(samples.iter().all(|&i| i == 0), "zero tail selected");
    }

    #[test]
    fn finish_assigns_leftover_draws_to_the_tail() {
        // The declared total exceeds what feeding accumulates: [1, 2^-53,
        // 2^-53] fed in order rounds each tiny addend away (ties-to-even
        // at 1.0), while summing the tiny pair first yields 1 + 2^-52
        // exactly — the adversarial-rounding gap of the streaming
        // bookkeeping in miniature.
        let w_big = ScaledF64::from_f64(1.0);
        let w_tiny = ScaledF64::exp2(-53.0);
        let fed_sum = w_big + w_tiny + w_tiny;
        let declared = w_big + (w_tiny + w_tiny);
        assert!(fed_sum < declared, "association gap failed to materialize");

        // With a gap this small no uniform target lands inside it, so the
        // loss mechanism is exercised with a magnified gap: the same
        // shape, scaled to what hours of incremental total drift produce.
        let mut r = rng();
        let m = 4000;
        let feeds = [2.0f64, 1.0, 0.5];
        let drifted_total = ScaledF64::from_f64(feeds.iter().sum::<f64>() * 1.01);
        let mut sampler = SortedTargetSampler::new(m, drifted_total, &mut r);
        let assigned: usize = feeds
            .iter()
            .map(|&w| sampler.feed(ScaledF64::from_f64(w)))
            .sum();
        let lost = sampler.remaining();
        assert!(lost > 0, "seeded run must land targets in the gap");
        // Before the fix these draws vanished; finish() surfaces them for
        // the caller to credit to the final fed element, restoring m.
        assert_eq!(sampler.finish(), lost);
        assert_eq!(assigned + lost, m);
        assert_eq!(sampler.remaining(), 0);
        assert_eq!(sampler.finish(), 0, "finish is idempotent");
    }

    /// The reference targets: scale every uniform as it is drawn, then
    /// sort the scaled values by `partial_cmp`.
    fn scale_then_sort(m: usize, total: ScaledF64, rng: &mut StdRng) -> Vec<ScaledF64> {
        let mut targets: Vec<ScaledF64> = (0..m)
            .map(|_| total * ScaledF64::from_f64(rng.random_range(0.0..1.0f64)))
            .collect();
        targets.sort_by(|a, b| a.partial_cmp(b).expect("weights are ordered"));
        targets
    }

    fn totals() -> Vec<ScaledF64> {
        let mut totals = vec![
            ScaledF64::ONE,
            ScaledF64::from_f64(3.7),
            ScaledF64::from_f64(64_000.0),
            ScaledF64::from_f64(f64::MAX),
            ScaledF64::from_f64(f64::MIN_POSITIVE),
        ];
        for e in [-1000.0, -999.0, 999.0, 1000.0, 1001.5] {
            totals.push(ScaledF64::exp2(e));
            totals.push(ScaledF64::exp2(e) * ScaledF64::from_f64(1.999_999_999));
        }
        totals
    }

    #[test]
    fn sorted_uniforms_scale_to_the_scale_then_sort_targets() {
        let mut uniforms = Vec::new();
        for (k, total) in totals().into_iter().enumerate() {
            for m in [0usize, 1, 2, 1000, 12_800] {
                let seed = 100 + k as u64;
                let mut reference_rng = StdRng::seed_from_u64(seed);
                let expect = scale_then_sort(m, total, &mut reference_rng);
                let mut rng = StdRng::seed_from_u64(seed);
                sorted_uniforms(m, &mut rng, &mut uniforms);
                let got: Vec<ScaledF64> = uniforms.iter().map(|&u| target(total, u)).collect();
                assert_eq!(got, expect, "total {total:?}, m {m}");
                assert_eq!(rng.next_u64(), reference_rng.next_u64(), "RNG out of step");
            }
        }
    }

    #[test]
    fn sampler_feeds_exactly_as_with_eager_targets() {
        // Lazily scaled targets assign every fed weight the same count as
        // the eagerly scaled, sorted targets would.
        let weights: Vec<ScaledF64> = (0..500)
            .map(|i| ScaledF64::exp2(-1000.0) * ScaledF64::from_f64(1.0 + (i % 7) as f64))
            .collect();
        let total: ScaledF64 = weights.iter().copied().sum();
        let m = 2000;
        let targets = scale_then_sort(m, total, &mut rng());
        let mut sampler = SortedTargetSampler::new(m, total, &mut rng());
        let (mut acc, mut cursor) = (ScaledF64::ZERO, 0usize);
        for &w in &weights {
            acc += w;
            let start = cursor;
            while cursor < targets.len() && targets[cursor] < acc {
                cursor += 1;
            }
            assert_eq!(sampler.feed(w), cursor - start);
        }
        assert_eq!(sampler.finish(), m - cursor);
    }

    /// A table of `len` weights `m · 2^e` with `e` in `-span..=span`.
    fn table(len: usize, span: i32, r: &mut StdRng) -> Vec<ScaledF64> {
        (0..len)
            .map(|_| {
                ScaledF64::exp2(f64::from(r.random_range(-span..=span)))
                    * ScaledF64::from_f64(r.random_range(1.0..2.0))
            })
            .collect()
    }

    /// Feeds `exponents` to a `feed` reference and to `feed_run` in chunks
    /// of random sizes, carrying both samplers across chunks: every chunk
    /// must hit the same rows and leave the same `remaining()`, and both
    /// must end with the same `finish()` and RNG state.
    fn assert_run_matches_feed(
        exponents: &[u32],
        table: &[ScaledF64],
        mut reference: SortedTargetSampler,
        mut sampler: SortedTargetSampler,
        chunks: &mut StdRng,
    ) {
        let mut hits = Vec::new();
        let mut at = 0;
        while at < exponents.len() {
            let len = chunks.random_range(1..=(exponents.len() - at).min(900));
            let rows = &exponents[at..at + len];
            let want: Vec<usize> = (0..len)
                .filter(|&i| reference.feed(table[rows[i] as usize]) > 0)
                .collect();
            sampler.feed_run(rows, table, &mut hits);
            assert_eq!(hits, want, "rows {at}..{}", at + len);
            assert_eq!(
                sampler.remaining(),
                reference.remaining(),
                "after row {}",
                at + len
            );
            at += len;
        }
        assert_eq!(sampler.finish(), reference.finish());
    }

    #[test]
    fn feed_run_hits_the_rows_feed_hits() {
        let mut cases = StdRng::seed_from_u64(77);
        for case in 0..240 {
            // Tables from one binade to 2^-1000..2^1000; mostly-light
            // runs carry the prefix across many binades between targets.
            let span = [0, 2, 12, 60, 1000][case % 5];
            let len = cases.random_range(1..=6);
            let table = table(len, span, &mut cases);
            let rows = cases.random_range(0..4000);
            let heavy = cases.random_range(0.0..0.3);
            let exponents: Vec<u32> = (0..rows)
                .map(|_| {
                    if cases.random_bool(heavy) {
                        cases.random_range(0..len as u32)
                    } else {
                        0
                    }
                })
                .collect();
            // The fed sum, or a total the fed prefix falls short of, so
            // `finish` has stranded targets to report.
            let mut total: ScaledF64 = exponents.iter().map(|&a| table[a as usize]).sum();
            if case % 4 == 3 {
                total = total * ScaledF64::from_f64(1.01);
            }
            if total.is_zero() {
                total = ScaledF64::ONE;
            }
            let m = match case % 6 {
                0 => 0,
                1 => 1,
                2 => 2 * rows + 7,
                _ => cases.random_range(0..=rows / 4 + 1),
            };
            let seed = cases.next_u64();
            let mut ref_rng = StdRng::seed_from_u64(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let reference = SortedTargetSampler::new(m, total, &mut ref_rng);
            let sampler = SortedTargetSampler::new(m, total, &mut rng);
            assert_run_matches_feed(&exponents, &table, reference, sampler, &mut cases);
            assert_eq!(
                rng.next_u64(),
                ref_rng.next_u64(),
                "case {case}: RNG out of step"
            );
        }
    }

    #[test]
    fn feed_run_passes_a_target_equal_to_a_prefix_only_on_the_next_row() {
        // Weights 1, 1, 1, ... against a total of 8: the targets 2, 4, 4
        // and 7.5 equal the prefix after rows 1 and 3, where a target
        // must not land (targets are passed strictly), so rows 2 and 4
        // take them; 7.5 lands on row 7.
        let total = ScaledF64::from_f64(8.0);
        let sampler = |uniforms: &[f64]| SortedTargetSampler {
            uniforms: uniforms.to_vec(),
            total,
            next: target(total, uniforms[0]),
            cursor: 0,
            acc: ScaledF64::ZERO,
            rel: Vec::new(),
        };
        let uniforms = [0.25, 0.5, 0.5, 0.9375];
        let exponents = [0u32; 8];
        let table = [ScaledF64::ONE];
        let mut hits = Vec::new();
        let mut run = sampler(&uniforms);
        run.feed_run(&exponents, &table, &mut hits);
        assert_eq!(hits, [2, 4, 7]);
        let mut one = sampler(&uniforms);
        let counts: Vec<usize> = exponents.iter().map(|_| one.feed(table[0])).collect();
        assert_eq!(counts, [0, 0, 1, 0, 2, 0, 0, 1]);
        let mut chunks = StdRng::seed_from_u64(3);
        assert_run_matches_feed(
            &exponents,
            &table,
            sampler(&uniforms),
            sampler(&uniforms),
            &mut chunks,
        );
    }

    #[test]
    fn sorted_targets_with_huge_scaled_weights() {
        // Weights beyond f64 range still sample sanely.
        let mut r = rng();
        let w_small = ScaledF64::powi(2.0, 1000);
        let w_big = ScaledF64::powi(2.0, 1002); // 4x the small one
        let total = w_small + w_big;
        let m = 10_000;
        let mut s = SortedTargetSampler::new(m, total, &mut r);
        let c_small = s.feed(w_small);
        let c_big = s.feed(w_big);
        assert_eq!(c_small + c_big, m);
        let frac = c_big as f64 / m as f64;
        assert!((frac - 0.8).abs() < 0.03, "frac {frac}");
    }
}
