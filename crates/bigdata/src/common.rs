//! Machinery shared by the three model implementations.
//!
//! The central trick of Section 3.2: the weight of a constraint is never
//! stored. After `t` successful iterations with stored basis solutions
//! `B_1, …, B_t`, constraint `c` has weight `F^{a(c)}` where
//! `a(c) = |{ j : c violates B_j }|`. Everyone who holds the basis history
//! (the streaming algorithm's memory, every coordinator site, every MPC
//! machine) can therefore recompute any weight in `O(t · d)` time.
//!
//! Where a holder is *not* space-bounded — every coordinator site and MPC
//! machine keeps its whole partition resident — per-round recomputation is
//! pure waste: only the violators of an accepted basis change weight. Such
//! holders carry a [`SiteWeights`]: a persistent Fenwick-backed
//! [`WeightIndex`] over the holder's consecutive row range of the shared
//! input, updated in `O(|V| log n)` from each round's violator list, with
//! O(1) totals and batched inversion sampling. A partition is that range,
//! not a copy: every holder reads the caller's rows and scans its range
//! of one shared transpose. Weights are derived state — they never
//! travel — so the communication meters are unaffected.
//! The streaming model stays on the [`WeightOracle`] recompute path: its
//! space bound forbids materializing per-element weights, so it weighs
//! each streamed chunk in columnar form
//! ([`WeightOracle::exponents_columnar`] plus
//! [`WeightOracle::power_table`]). A holder's violation scan
//! ([`SiteWeights::scan_and_stage`]) runs the column kernel on the
//! `llp_par` pool with fixed chunk boundaries, counted from the range
//! start, and ordered merges: results are bit-identical for any
//! `LLP_THREADS`, and the metered communication is untouched because the
//! meters charge outside the scan.

use llp_core::lptype::{ColumnarProblem, LpTypeProblem};
use llp_geom::{ColumnsView, ConstraintColumns};
use llp_num::ScaledF64;
use llp_sampling::weight_index::{DrawScratch, WeightIndex};
use rand::Rng;
use std::ops::Range;

/// The basis history of successful iterations plus the derived weight
/// accounting the space-bounded streaming memory keeps.
#[derive(Clone, Debug)]
pub struct WeightOracle<P: LpTypeProblem> {
    /// Solutions of the accepted (successful) iterations, in order.
    bases: Vec<P::Solution>,
    /// The weight factor `F` (`n^{1/r}` or the ablation value).
    factor: f64,
}

impl<P: LpTypeProblem> WeightOracle<P> {
    /// An empty history with the given factor.
    pub fn new(factor: f64) -> Self {
        assert!(factor > 1.0, "weight factor must exceed 1");
        WeightOracle {
            bases: Vec::new(),
            factor,
        }
    }

    /// Records an accepted basis.
    pub fn push(&mut self, basis: P::Solution) {
        self.bases.push(basis);
    }

    /// The violation count `a(c)` of a constraint.
    pub fn exponent(&self, problem: &P, c: &P::Constraint) -> u32 {
        self.bases.iter().filter(|b| problem.violates(b, c)).count() as u32
    }

    /// Fills `table` with `F^a` for every exponent `a` the history can
    /// produce (0 up to the number of stored bases): the weight of a
    /// constraint `c` is `table[exponent(c)]`, with one `powi` per
    /// exponent instead of one per constraint.
    pub fn power_table(&self, table: &mut Vec<ScaledF64>) {
        table.clear();
        table.extend((0..=self.bases.len() as u32).map(|a| ScaledF64::powi(self.factor, a)));
    }
}

impl<P: ColumnarProblem> WeightOracle<P> {
    /// The exponents `a(c)` of every row of a columnar block, in row
    /// order: one `scan_columns` sweep per stored basis, counting each
    /// row's hits. `counts[i]` equals [`exponent`](Self::exponent) of
    /// row `i` (the column kernels classify rows exactly as `violates`
    /// does) without rebuilding any constraint. `hits` is the caller's
    /// scratch for each sweep's violator indices.
    pub fn exponents_columnar(
        &self,
        problem: &P,
        view: &ColumnsView<'_>,
        counts: &mut Vec<u32>,
        hits: &mut Vec<usize>,
    ) {
        counts.clear();
        counts.resize(view.len(), 0);
        for basis in &self.bases {
            hits.clear();
            problem.scan_columns(basis, view, hits);
            for &i in hits.iter() {
                counts[i - view.start()] += 1;
            }
        }
    }
}

/// The persistent incremental weight state of one holder (a coordinator
/// site or an MPC machine): a [`WeightIndex`] over the holder's row range
/// of the shared input, updated from each round's violator list instead
/// of recomputed from the basis history. Local index `i` is row
/// `rows.start + i`.
///
/// Protocol shape: the verdict on a basis arrives one round *after* the
/// holder scanned for its violators, so the scan result is **staged**
/// ([`scan_and_stage`](Self::scan_and_stage)) and then either committed —
/// every staged index ×`F` — or discarded by
/// [`resolve`](Self::resolve). Weights are derived state and never
/// shipped; all metering stays in the callers.
#[derive(Clone, Debug)]
pub struct SiteWeights {
    index: WeightIndex,
    factor: f64,
    /// The rows of the shared input this holder owns.
    rows: Range<usize>,
    /// Local violator indices of the basis whose verdict is pending.
    staged: Vec<usize>,
}

impl SiteWeights {
    /// All-ones weights over the rows `rows` (Line 2 of Algorithm 1).
    pub fn new(rows: Range<usize>, factor: f64) -> Self {
        assert!(factor > 1.0, "weight factor must exceed 1");
        SiteWeights {
            index: WeightIndex::uniform(rows.len()),
            factor,
            rows,
            staged: Vec::new(),
        }
    }

    /// One holder per consecutive row range of the given sizes, in order
    /// from row 0: the site or machine layout of a partitioned run.
    pub fn partition(sizes: &[usize], factor: f64) -> Vec<SiteWeights> {
        let mut start = 0;
        sizes
            .iter()
            .map(|&len| {
                start += len;
                SiteWeights::new(start - len..start, factor)
            })
            .collect()
    }

    /// The rows of the shared input this holder owns.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// The holder's total local weight `w(S_i)` — O(1), no recompute.
    pub fn total(&self) -> ScaledF64 {
        self.index.total()
    }

    /// The weight of local constraint `i` (row `rows.start + i`).
    pub fn weight(&self, i: usize) -> ScaledF64 {
        self.index.get(i)
    }

    /// Finds the violators of `solution` among the holder's rows of the
    /// shared `columns`, stages their local indices for the next verdict,
    /// and returns their weight `w(V_i)` and count. The column kernel runs
    /// chunk-parallel with an ordered merge (bit-identical for any thread
    /// count), each weight is an O(1) index read instead of an O(t·d)
    /// recompute, and the staged buffer is refilled in place. `columns`
    /// must be the transposition of the whole input the ranges cut.
    pub fn scan_and_stage<P: ColumnarProblem>(
        &mut self,
        problem: &P,
        solution: &P::Solution,
        columns: &ConstraintColumns,
    ) -> (ScaledF64, usize) {
        let w = llp_core::lptype::scan_violators_weighted_columnar(
            problem,
            solution,
            columns,
            self.rows(),
            &self.index,
            &mut self.staged,
        );
        (w, self.staged.len())
    }

    /// Applies the coordinator's verdict on the staged basis: accepted ⇒
    /// every staged violator's weight ×`F` (`O(|V| log n)`); rejected ⇒
    /// weights unchanged. Either way the staged list is consumed.
    pub fn resolve(&mut self, accepted: bool) {
        let staged = std::mem::take(&mut self.staged);
        if accepted {
            for i in staged {
                self.index.multiply(i, self.factor);
            }
        }
    }

    /// Draws `count` i.i.d. local indices proportional to weight — one
    /// batched descent of sorted targets through the index — sorted and
    /// deduplicated (net membership is a set). Empty when the holder has
    /// no weight.
    pub fn sample_indices<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        let mut idxs = Vec::new();
        if count == 0 || self.index.total().is_zero() {
            return idxs;
        }
        self.index
            .draw_many(count, rng, &mut DrawScratch::default(), &mut idxs);
        idxs.dedup();
        idxs
    }

    /// [`sample_indices`](Self::sample_indices) resolved against the
    /// shared input `data`: appends clones of the sampled rows to `net`
    /// (the net contribution the coordinator/MPC legs ship upward) and
    /// returns how many it appended.
    pub fn sample_into<C: Clone, R: Rng + ?Sized>(
        &self,
        data: &[C],
        count: usize,
        rng: &mut R,
        net: &mut Vec<C>,
    ) -> usize {
        let local = &data[self.rows()];
        let picked = self.sample_indices(count, rng);
        net.extend(picked.iter().map(|&j| local[j].clone()));
        picked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::instances::lp::LpProblem;
    use llp_geom::Halfspace;

    #[test]
    fn exponent_counts_violated_bases() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        let mut oracle: WeightOracle<LpProblem> = WeightOracle::new(10.0);
        // Basis solutions are just points.
        oracle.push(vec![0.0, 0.0]);
        oracle.push(vec![5.0, 5.0]);
        // Constraint x + y ≤ 2 is satisfied by (0,0), violated by (5,5).
        let c = Halfspace::new(vec![1.0, 1.0], 2.0);
        assert_eq!(oracle.exponent(&p, &c), 1);
        let mut powers = Vec::new();
        oracle.power_table(&mut powers);
        let w = powers[oracle.exponent(&p, &c) as usize];
        assert!((w.to_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn columnar_exponents_and_power_table_match_per_row_weights() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        let mut oracle: WeightOracle<LpProblem> = WeightOracle::new(3.0);
        // x + y ≤ b for b = 0..10: row b violates the bases with x > b.
        oracle.push(vec![0.5, 0.0]);
        oracle.push(vec![2.5, 0.0]);
        oracle.push(vec![4.5, 0.0]);
        let cs: Vec<Halfspace> = (0..10)
            .map(|b| Halfspace::new(vec![1.0, 1.0], f64::from(b)))
            .collect();
        let columns = p.to_columns(&cs);
        let (mut counts, mut hits, mut powers) = (Vec::new(), Vec::new(), Vec::new());
        oracle.power_table(&mut powers);
        assert_eq!(powers.len(), 4);
        oracle.exponents_columnar(&p, &columns.full_view(), &mut counts, &mut hits);
        assert_eq!(counts, [3, 2, 2, 1, 1, 0, 0, 0, 0, 0]);
        // A view that starts past row 0 (scan indices are absolute).
        oracle.exponents_columnar(&p, &columns.view(3, 10), &mut counts, &mut hits);
        assert_eq!(counts, [1, 1, 0, 0, 0, 0, 0]);
        for (i, &a) in counts.iter().enumerate() {
            assert_eq!(a, oracle.exponent(&p, &cs[3 + i]));
            assert_eq!(powers[a as usize], ScaledF64::powi(3.0, a));
        }
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
        let mut site = SiteWeights::new(0..cs.len(), 3.0);
        assert!((site.total().to_f64() - 10.0).abs() < 1e-9);

        let probe = vec![4.5, 0.0];
        let (w, count) = site.scan_and_stage(&p, &probe, &columns);
        assert_eq!(count, 5);
        assert!((w.to_f64() - 5.0).abs() < 1e-9);

        // Rejected verdict: nothing changes.
        site.resolve(false);
        assert!((site.total().to_f64() - 10.0).abs() < 1e-9);

        // Accepted verdict: the five violators triple.
        let _ = site.scan_and_stage(&p, &probe, &columns);
        site.resolve(true);
        assert!((site.total().to_f64() - (5.0 * 3.0 + 5.0)).abs() < 1e-9);
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
    fn site_weights_sampling_prefers_heavy_elements() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = LpProblem::new(vec![1.0, 1.0]);
        let cs: Vec<Halfspace> = (0..4)
            .map(|b| Halfspace::new(vec![1.0, 1.0], f64::from(b)))
            .collect();
        let mut site = SiteWeights::new(0..cs.len(), 1000.0);
        // Make element 0 dominate: (0.5, 0) violates only b = 0.
        let probe = vec![0.5, 0.0];
        let _ = site.scan_and_stage(&p, &probe, &p.to_columns(&cs));
        site.resolve(true);
        let mut rng = StdRng::seed_from_u64(7);
        let picked = site.sample_indices(64, &mut rng);
        assert!(picked.contains(&0), "dominant element missing: {picked:?}");
        assert!(site.sample_indices(0, &mut rng).is_empty());
    }
}
