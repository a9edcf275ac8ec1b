//! Permutation adversaries for the streaming model.
//!
//! Algorithm 1 is order-oblivious in distribution, but specific orders are
//! worst cases for anything that peeks at prefixes: putting the binding
//! constraints *last* defeats prefix heuristics, maximizes the lifetime of
//! wrong speculative bases in the one-pass sampler, and forces the
//! two-pass sampler to keep re-learning weights at the end of the stream.

use llp_core::instances::lp::LpProblem;
use llp_core::lptype::LpTypeProblem;
use llp_geom::Halfspace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reorders LP constraints so the ones binding at the optimum stream
/// *last*: solves the instance directly (with a seeded RNG) and sorts by
/// slack at the optimum, descending. Ties (exact duplicates) keep a
/// stable order.
pub fn binding_last_lp(problem: &LpProblem, mut cs: Vec<Halfspace>, seed: u64) -> Vec<Halfspace> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sol = problem
        .solve_subset(&cs, &mut rng)
        .expect("ordering requires a solvable instance");
    // Each slack once, then a stable sort of (slack, position) pairs: the
    // order a stable sort of the constraints on their slacks gives.
    let mut keys: Vec<(f64, usize)> = cs.iter().map(|h| h.slack(&sol)).zip(0..).collect();
    keys.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite slacks"));
    keys.into_iter()
        .map(|(_, i)| Halfspace::new(std::mem::take(&mut cs[i].a), cs[i].b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::random_lp;

    #[test]
    fn binding_last_puts_tight_constraints_at_the_end() {
        let (p, cs) = random_lp(2000, 2, 42);
        let ordered = binding_last_lp(&p, cs, 43);
        let mut rng = StdRng::seed_from_u64(44);
        let sol = p.solve_subset(&ordered, &mut rng).unwrap();
        // The last element's slack is (near) the minimum over the input.
        let last = ordered.last().unwrap().slack(&sol);
        let min = ordered
            .iter()
            .map(|h| h.slack(&sol))
            .fold(f64::INFINITY, f64::min);
        assert!(last <= min + 1e-9, "last {last} vs min {min}");
        // And slacks are non-increasing along the stream.
        for w in ordered.windows(2) {
            assert!(w[0].slack(&sol) >= w[1].slack(&sol) - 1e-12);
        }
    }
}
