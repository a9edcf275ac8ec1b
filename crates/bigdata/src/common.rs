//! The streaming model's weight machinery.
//!
//! The central trick of Section 3.2: the weight of a constraint is never
//! stored. After `t` successful iterations with stored basis solutions
//! `B_1, …, B_t`, constraint `c` has weight `F^{a(c)}` where
//! `a(c) = |{ j : c violates B_j }|`. Everyone who holds the basis history
//! can therefore recompute any weight in `O(t · d)` time, and the
//! space-bounded streaming memory must: it cannot materialize
//! per-element weights. A [`WeightOracle`] is that history. It weighs a
//! streamed chunk in columnar form: [`WeightOracle::exponents_columnar`]
//! gives every row's exponent with one column sweep per stored basis, and
//! [`WeightOracle::power_table`] turns exponents into weights.
//!
//! Holders that are *not* space-bounded — the RAM machine, every
//! coordinator site and MPC machine — keep their rows resident, so
//! per-round recomputation would be pure waste. They run on
//! `llp_core::clarkson::SiteWeights`, a persistent Fenwick-backed weight
//! index over the holder's row range, updated from each accepted basis's
//! violator list.

use llp_core::lptype::{ColumnarProblem, LpTypeProblem};
use llp_geom::ColumnsView;
use llp_num::ScaledF64;

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

    /// Fills `table` with `F^a` for every exponent `a` the history can
    /// produce (0 up to the number of stored bases): the weight of a
    /// constraint `c` is `table[a(c)]`, with one `powi` per exponent
    /// instead of one per constraint.
    pub fn power_table(&self, table: &mut Vec<ScaledF64>) {
        table.clear();
        table.extend((0..=self.bases.len() as u32).map(|a| ScaledF64::powi(self.factor, a)));
    }
}

impl<P: ColumnarProblem> WeightOracle<P> {
    /// The exponents `a(c)` — the number of stored bases `c` violates —
    /// of every row of a columnar block, in row order: one
    /// `scan_columns` sweep per stored basis, counting each row's hits.
    /// The column kernels classify rows exactly as `violates` does, so
    /// `counts[i]` is row `i`'s `a(c)` without rebuilding any constraint.
    /// No sweep runs while no basis is stored. `hits` is the caller's
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

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::instances::lp::LpProblem;
    use llp_geom::Halfspace;

    #[test]
    fn columnar_exponents_and_power_table_match_per_row_weights() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        // x + y ≤ b for b = 0..10: row b violates the bases with x > b.
        let cs: Vec<Halfspace> = (0..10)
            .map(|b| Halfspace::new(vec![1.0, 1.0], f64::from(b)))
            .collect();
        let columns = p.to_columns(&cs);
        let (mut counts, mut hits, mut powers) = (Vec::new(), Vec::new(), Vec::new());
        // No stored basis: every exponent is 0 and every weight is 1.
        let mut oracle: WeightOracle<LpProblem> = WeightOracle::new(3.0);
        oracle.exponents_columnar(&p, &columns.full_view(), &mut counts, &mut hits);
        assert_eq!(counts, [0; 10]);
        oracle.power_table(&mut powers);
        assert_eq!(powers, [ScaledF64::ONE]);

        let bases = [vec![0.5, 0.0], vec![2.5, 0.0], vec![4.5, 0.0]];
        bases.iter().cloned().for_each(|b| oracle.push(b));
        oracle.power_table(&mut powers);
        assert_eq!(powers.len(), 4);
        oracle.exponents_columnar(&p, &columns.full_view(), &mut counts, &mut hits);
        assert_eq!(counts, [3, 2, 2, 1, 1, 0, 0, 0, 0, 0]);
        // A view that starts past row 0 (scan indices are absolute).
        oracle.exponents_columnar(&p, &columns.view(3, 10), &mut counts, &mut hits);
        assert_eq!(counts, [1, 1, 0, 0, 0, 0, 0]);
        // Each count is the row's per-row `violates` count against the
        // stored bases, and its weight is F^a.
        for (i, &a) in counts.iter().enumerate() {
            let violated = bases.iter().filter(|b| p.violates(b, &cs[3 + i])).count();
            assert_eq!(a as usize, violated);
            assert_eq!(powers[a as usize], ScaledF64::powi(3.0, a));
        }

        // Bases (0, 0) and (5, 5) against x + y ≤ 2: one violated, so the
        // weight is F = 10.
        let mut oracle: WeightOracle<LpProblem> = WeightOracle::new(10.0);
        oracle.push(vec![0.0, 0.0]);
        oracle.push(vec![5.0, 5.0]);
        let columns = p.to_columns(&[Halfspace::new(vec![1.0, 1.0], 2.0)]);
        oracle.exponents_columnar(&p, &columns.full_view(), &mut counts, &mut hits);
        assert_eq!(counts, [1]);
        oracle.power_table(&mut powers);
        assert!((powers[counts[0] as usize].to_f64() - 10.0).abs() < 1e-9);
    }
}
