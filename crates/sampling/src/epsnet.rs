//! ε-net sample sizes (Lemma 2.2 / Eq. (1) of the paper).
//!
//! A random sample of
//! `m_{ε,λ,δ} = max( (8λ/ε)·log(8λ/ε), (4/ε)·log(2/δ) )`
//! elements drawn with probability proportional to weight is an ε-net of a
//! set system with VC dimension λ with probability ≥ 1 − δ
//! (Haussler–Welzl \[25\]).
//!
//! The constants in the classical bound are loose: for small inputs the
//! formula exceeds `n` itself, in which case any implementation should
//! just take everything. [`EpsNetSpec`] exposes the verbatim formula plus
//! a `multiplier` knob; experiment **T9** measures the empirical net
//! failure rate as the multiplier shrinks, which justifies the `1/16`
//! of `ClarksonConfig::calibrated` in `llp_core`.

/// Parameters of an ε-net sample.
#[derive(Clone, Copy, Debug)]
pub struct EpsNetSpec {
    /// Net parameter ε ∈ (0, 1).
    pub eps: f64,
    /// VC dimension λ of the set system.
    pub lambda: usize,
    /// Failure probability δ ∈ (0, 1).
    pub delta: f64,
    /// Scale on the final size (1.0 = the verbatim Eq. (1) constants).
    pub multiplier: f64,
}

impl EpsNetSpec {
    /// The spec with the paper's verbatim constants.
    pub fn paper(eps: f64, lambda: usize, delta: f64) -> Self {
        EpsNetSpec {
            eps,
            lambda,
            delta,
            multiplier: 1.0,
        }
    }

    /// The sample size `m_{ε,λ,δ}` of Eq. (1), scaled by `multiplier`.
    ///
    /// # Panics
    /// Panics unless `0 < eps < 1`, `0 < delta < 1`, `lambda ≥ 1`.
    pub fn size(&self) -> usize {
        assert!(
            self.eps > 0.0 && self.eps < 1.0,
            "eps must be in (0,1), got {}",
            self.eps
        );
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "delta must be in (0,1)"
        );
        assert!(self.lambda >= 1, "VC dimension must be positive");
        let lam = self.lambda as f64;
        let a = 8.0 * lam / self.eps;
        let first = a * a.ln().max(1.0);
        let second = (4.0 / self.eps) * (2.0 / self.delta).ln();
        let m = first.max(second) * self.multiplier;
        (m.ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formula_monotone_in_eps() {
        let big = EpsNetSpec::paper(0.01, 3, 0.33).size();
        let small = EpsNetSpec::paper(0.1, 3, 0.33).size();
        assert!(big > small);
    }

    #[test]
    fn paper_formula_monotone_in_lambda() {
        let lo = EpsNetSpec::paper(0.05, 2, 0.33).size();
        let hi = EpsNetSpec::paper(0.05, 8, 0.33).size();
        assert!(hi > lo);
    }

    #[test]
    fn second_term_kicks_in_for_tiny_delta() {
        // With eps fixed and delta → 0, the size must grow.
        let loose = EpsNetSpec::paper(0.05, 1, 0.5).size();
        let tight = EpsNetSpec::paper(0.05, 1, 1e-12).size();
        assert!(tight >= loose);
    }

    #[test]
    fn verbatim_value_matches_hand_computation() {
        // eps = 0.1, lambda = 1, delta = 2/3:
        // a = 80, first = 80 ln 80 ≈ 350.56, second = 40·ln 3 ≈ 43.9.
        let m = EpsNetSpec::paper(0.1, 1, 2.0 / 3.0).size();
        assert_eq!(m, (80.0f64 * 80.0f64.ln()).ceil() as usize);
    }

    #[test]
    fn multiplier_scales_linearly() {
        let base = EpsNetSpec::paper(0.05, 3, 0.33);
        let halved = EpsNetSpec {
            multiplier: 0.5,
            ..base
        };
        let (a, b) = (base.size(), halved.size());
        assert!((a as f64 / b as f64 - 2.0).abs() < 0.01, "{a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "eps must be in")]
    fn rejects_bad_eps() {
        let _ = EpsNetSpec::paper(1.5, 2, 0.3).size();
    }
}
