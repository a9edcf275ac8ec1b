//! Classic Clarkson reweighting \[16\] — the fixed-factor ablation.
//!
//! Clarkson's original iterative reweighting doubles the weight of every
//! violator; the expected number of successful iterations is `O(ν·log n)`.
//! The paper's single change — multiplying by `n^{1/r}` instead — cuts
//! this to `O(ν·r)`, which is the whole pass/round saving. This module
//! packages the fixed-factor configuration so benches can compare the two
//! rates on identical inputs (experiment T8).

use llp_bigdata::streaming::{self, SamplingMode, StreamingStats};
use llp_bigdata::BigDataError;
use llp_core::clarkson::{ClarksonConfig, WeightFactor};
use llp_core::lptype::ColumnarProblem;
use rand::Rng;

/// The classic configuration: weight factor 2, otherwise identical to the
/// calibrated paper configuration.
pub fn config() -> ClarksonConfig {
    ClarksonConfig {
        factor: WeightFactor::Fixed(2.0),
        max_iterations: 1_000_000,
        ..ClarksonConfig::calibrated(1)
    }
}

/// Streaming solve with the classic factor (for head-to-head pass counts
/// against Theorem 1's `n^{1/r}` rate).
pub fn solve_streaming<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    rng: &mut R,
) -> Result<(P::Solution, StreamingStats), BigDataError> {
    streaming::solve(problem, data, &config(), SamplingMode::TwoPassIid, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::instances::lp::LpProblem;
    use llp_core::lptype::count_violations;
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
    fn classic_is_correct_but_uses_more_passes() {
        let (p, cs) = random_lp(20_000, 2, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let (sol, classic) = solve_streaming(&p, &cs, &mut rng).unwrap();
        assert_eq!(count_violations(&p, &sol, &cs), 0);

        let mut rng = StdRng::seed_from_u64(4);
        let (_, paper) = streaming::solve(
            &p,
            &cs,
            &ClarksonConfig::calibrated(2),
            SamplingMode::TwoPassIid,
            &mut rng,
        )
        .unwrap();
        // The n^{1/r} rate must not lose to the classic rate on passes
        // (usually it wins decisively; allow equality for tiny runs).
        assert!(
            paper.passes <= classic.passes,
            "paper {} passes vs classic {}",
            paper.passes,
            classic.passes
        );
    }
}
