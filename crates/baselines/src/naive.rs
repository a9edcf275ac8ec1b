//! The naive streaming baseline: one pass, worst-case space. Read
//! everything into memory in one pass and solve — the `O(n)`-space point
//! every sublinear algorithm is measured against.

use llp_core::lptype::{LpTypeProblem, SolveError};
use llp_models::streaming::StreamSession;
use rand::Rng;

/// One-pass, store-everything streaming solve. Returns the solution plus
/// (passes, peak bits).
pub fn streaming_store_all<P: LpTypeProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    rng: &mut R,
) -> Result<(P::Solution, u64, u64), SolveError> {
    let mut session = StreamSession::new(data);
    let mut stored: Vec<P::Constraint> = Vec::with_capacity(data.len());
    for c in session.pass() {
        session.space.alloc_raw(problem.constraint_bits(), 1);
        stored.push(c.clone());
    }
    let sol = problem.solve_subset(&stored, rng)?;
    Ok((sol, session.passes(), session.space.peak_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::instances::lp::LpProblem;
    use llp_geom::Halfspace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lp() -> (LpProblem, Vec<Halfspace>) {
        let p = LpProblem::new(vec![-1.0, -1.0]);
        let cs = vec![
            Halfspace::new(vec![1.0, 2.0], 4.0),
            Halfspace::new(vec![3.0, 1.0], 6.0),
            Halfspace::new(vec![1.0, 0.0], 3.0),
        ];
        (p, cs)
    }

    #[test]
    fn store_all_uses_one_pass_and_linear_space() {
        let (p, cs) = lp();
        let mut rng = StdRng::seed_from_u64(1);
        let (sol, passes, bits) = streaming_store_all(&p, &cs, &mut rng).unwrap();
        assert_eq!(passes, 1);
        assert_eq!(bits, 3 * 64 * 3);
        assert!((p.objective_value(&sol) + 2.8).abs() < 1e-6);
    }
}
