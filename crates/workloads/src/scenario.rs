//! The scenario registry: named, seeded, enumerable workloads.
//!
//! A [`Scenario`] is a fully specified experiment input — family,
//! size, dimension, pass parameter, partition skew, and an explicit seed —
//! so any harness (the `experiments` binary, integration tests, CI) can
//! regenerate it byte-for-byte and run it against all four models. The
//! [`registry`] lists every scenario; [`RunBudget`] scales the sizes so
//! the quick tier is a *real subset* of the full run: same scenarios, same
//! seeds, same dimensions — only `n` shrinks.

use crate::{lp, meb, order, svm};
use llp_core::instances::lp::LpProblem;
use llp_core::instances::meb::MebProblem;
use llp_core::instances::svm::{SvmPoint, SvmProblem};
use llp_geom::Halfspace;

/// How much work a run is allowed: `Quick` for CI / integration tests,
/// `Full` for the recorded experiment tables. One budget value threads
/// from the `experiments --quick` flag through every table and scenario —
/// no per-call ad-hoc sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunBudget {
    /// Shrunken sizes; the whole suite runs in seconds.
    Quick,
    /// The sizes recorded in the experiment tables.
    Full,
    /// Out-of-core sizes (`n ≥ 10^8` for the largest scenarios): inputs
    /// are streamed through the chunked store (`llp_store`), never
    /// materialized. Only the `ooc` experiment accepts this tier.
    Huge,
}

impl RunBudget {
    /// Parses the `--quick` flag.
    pub fn from_quick_flag(quick: bool) -> Self {
        if quick {
            RunBudget::Quick
        } else {
            RunBudget::Full
        }
    }

    /// True for [`RunBudget::Quick`].
    pub fn is_quick(self) -> bool {
        self == RunBudget::Quick
    }

    /// The budget's wire name (`"quick"` / `"full"` / `"huge"`).
    pub fn name(self) -> &'static str {
        match self {
            RunBudget::Quick => "quick",
            RunBudget::Full => "full",
            RunBudget::Huge => "huge",
        }
    }

    /// Parses a wire name back into a budget.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(RunBudget::Quick),
            "full" => Some(RunBudget::Full),
            "huge" => Some(RunBudget::Huge),
            _ => None,
        }
    }

    /// Picks the quick or full variant of a parameter. The huge tier
    /// reuses the full-tier value: it differs from full only in `n`.
    pub fn pick<T: Copy>(self, quick: T, full: T) -> T {
        match self {
            RunBudget::Quick => quick,
            RunBudget::Full | RunBudget::Huge => full,
        }
    }

    /// Scales a full-run input size down for the quick tier (÷8, floored
    /// at 4000). The floor is load-bearing: registry scenarios pair these
    /// sizes with `r = 3` so the lean-config ε-net floor
    /// `2λ/ε = 20νλ·n^{1/r}` stays *below* `n` even in quick mode — the
    /// sampling and weight-update paths must actually run, not degenerate
    /// into ship-everything.
    pub fn scale(self, full_n: usize) -> usize {
        match self {
            RunBudget::Full => full_n,
            RunBudget::Quick => (full_n / 8).max(4_000).min(full_n),
            // ×2048 lifts the largest full size (64 000) past 10^8 rows —
            // the out-of-core regime the chunked store exists for.
            RunBudget::Huge => full_n * 2_048,
        }
    }
}

/// The workload families the registry draws from. Benign families verify
/// the headline claims; adversarial ones each stress a named mechanism
/// (see the generator docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Benign random bounded-feasible LP ([`lp::random_lp`]).
    RandomLp,
    /// Chebyshev L∞ regression LP ([`lp::chebyshev_regression`]).
    ChebyshevLp,
    /// Degenerate duplicate pack with a tied optimal face
    /// ([`lp::degenerate_box_lp`]).
    DegenerateDuplicateLp,
    /// Near-ties at the optimum ([`lp::near_tie_lp`]).
    NearTieLp,
    /// Weight-explosion needle ([`lp::needle_lp`]).
    WeightExplosionLp,
    /// Benign LP streamed binding-constraints-last
    /// ([`order::binding_last_lp`]).
    AdversarialOrderLp,
    /// Benign LP over geometrically skewed sites/machines
    /// ([`crate::partition::skewed_sizes`]).
    SkewedPartitionLp,
    /// Benign separable SVM cloud ([`svm::separable_clouds`]).
    SeparableSvm,
    /// Heavy-tailed SVM cloud ([`svm::heavy_tailed_clouds`]).
    HeavyTailSvm,
    /// Benign MEB sphere shell ([`meb::sphere_shell`]).
    SphereShellMeb,
    /// Clustered MEB with planted exact radius ([`meb::clustered_cloud`]).
    ClusteredMeb,
}

impl Family {
    /// Every family, in registry order.
    pub const ALL: &'static [Family] = &[
        Family::RandomLp,
        Family::ChebyshevLp,
        Family::DegenerateDuplicateLp,
        Family::NearTieLp,
        Family::WeightExplosionLp,
        Family::AdversarialOrderLp,
        Family::SkewedPartitionLp,
        Family::SeparableSvm,
        Family::HeavyTailSvm,
        Family::SphereShellMeb,
        Family::ClusteredMeb,
    ];

    /// The family's wire name (stable — it appears in report JSON).
    pub fn name(self) -> &'static str {
        match self {
            Family::RandomLp => "random_lp",
            Family::ChebyshevLp => "chebyshev_lp",
            Family::DegenerateDuplicateLp => "degenerate_duplicate_lp",
            Family::NearTieLp => "near_tie_lp",
            Family::WeightExplosionLp => "weight_explosion_lp",
            Family::AdversarialOrderLp => "adversarial_order_lp",
            Family::SkewedPartitionLp => "skewed_partition_lp",
            Family::SeparableSvm => "separable_svm",
            Family::HeavyTailSvm => "heavy_tail_svm",
            Family::SphereShellMeb => "sphere_shell_meb",
            Family::ClusteredMeb => "clustered_meb",
        }
    }

    /// Parses a wire name back into a family — the inverse of
    /// [`name`](Self::name), used when reconstructing a scenario from a
    /// store file's provenance header.
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.name() == s)
    }
}

/// One fully specified, regenerable workload.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable registry name (appears in report JSON and CLI output).
    pub name: &'static str,
    /// Generator family.
    pub family: Family,
    /// Number of constraints/points to generate.
    pub n: usize,
    /// Ambient dimension `d`.
    pub d: usize,
    /// The explicit generator seed — the *only* source of randomness in
    /// the instance bytes.
    pub seed: u64,
    /// Pass/round parameter `r` for the RAM/streaming/coordinator runs.
    pub r: u32,
    /// Geometric partition skew for the coordinator/MPC models
    /// (`None` = balanced/round-robin).
    pub skew: Option<f64>,
}

/// A materialized scenario: the problem plus its constraint sequence, in
/// stream order.
#[derive(Clone, Debug)]
pub enum ScenarioData {
    /// A linear program.
    Lp(LpProblem, Vec<Halfspace>),
    /// A hard-margin SVM instance.
    Svm(SvmProblem, Vec<SvmPoint>),
    /// A minimum-enclosing-ball instance.
    Meb(MebProblem, Vec<Vec<f64>>),
}

impl ScenarioData {
    /// Number of constraints/points.
    pub fn len(&self) -> usize {
        match self {
            ScenarioData::Lp(_, cs) => cs.len(),
            ScenarioData::Svm(_, pts) => pts.len(),
            ScenarioData::Meb(_, pts) => pts.len(),
        }
    }

    /// True iff the instance is empty (never, for registry scenarios).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A scenario's problem *without* its constraints: what a consumer of a
/// chunked store file needs to interpret the rows it reads. Rebuilt from
/// the scenario parameters alone (replaying generator RNG draws where an
/// objective is random), so it is bit-identical to the problem
/// [`Scenario::generate`] pairs with the materialized data.
#[derive(Clone, Debug)]
pub enum ScenarioProblem {
    /// A linear program.
    Lp(LpProblem),
    /// A hard-margin SVM instance.
    Svm(SvmProblem),
    /// A minimum-enclosing-ball instance.
    Meb(MebProblem),
}

impl Scenario {
    /// Regenerates the instance from the scenario's own seed —
    /// byte-for-byte identical on every call.
    pub fn generate(&self) -> ScenarioData {
        match self.family {
            Family::RandomLp | Family::SkewedPartitionLp => {
                let (p, cs) = lp::random_lp(self.n, self.d, self.seed);
                ScenarioData::Lp(p, cs)
            }
            Family::ChebyshevLp => {
                // 2 constraints per data point.
                let (p, cs, _) = lp::chebyshev_regression(self.n / 2, self.d, 0.05, self.seed);
                ScenarioData::Lp(p, cs)
            }
            Family::DegenerateDuplicateLp => {
                let (p, cs) = lp::degenerate_box_lp(self.n, self.d, self.seed);
                ScenarioData::Lp(p, cs)
            }
            Family::NearTieLp => {
                let (p, cs) = lp::near_tie_lp(self.n, self.d, self.seed);
                ScenarioData::Lp(p, cs)
            }
            Family::WeightExplosionLp => {
                let (p, cs) = lp::needle_lp(self.n, self.d, 4, self.seed);
                ScenarioData::Lp(p, cs)
            }
            Family::AdversarialOrderLp => {
                let (p, cs) = lp::random_lp(self.n, self.d, self.seed);
                let cs = order::binding_last_lp(&p, cs, self.seed ^ 0xdead_beef);
                ScenarioData::Lp(p, cs)
            }
            Family::SeparableSvm => {
                let (pts, _) = svm::separable_clouds(self.n, self.d, 0.5, self.seed);
                ScenarioData::Svm(SvmProblem::new(self.d), pts)
            }
            Family::HeavyTailSvm => {
                let (pts, _) = svm::heavy_tailed_clouds(self.n, self.d, 0.5, self.seed);
                ScenarioData::Svm(SvmProblem::new(self.d), pts)
            }
            Family::SphereShellMeb => {
                let pts = meb::sphere_shell(self.n, self.d, 3.0, self.seed);
                ScenarioData::Meb(MebProblem::new(self.d), pts)
            }
            Family::ClusteredMeb => {
                let pts = meb::clustered_cloud(self.n, self.d, 2.0, 5, self.seed);
                ScenarioData::Meb(MebProblem::new(self.d), pts)
            }
        }
    }

    /// Rebuilds the scenario's problem without materializing any
    /// constraints. Families with a random objective replay exactly the
    /// RNG draws their generator performs before (or instead of)
    /// emitting it, so the objective bits match [`generate`](Self::generate);
    /// the rest have fixed or dimension-only problems.
    pub fn problem(&self) -> ScenarioProblem {
        use crate::lp::random_unit;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        match self.family {
            Family::RandomLp | Family::SkewedPartitionLp | Family::AdversarialOrderLp => {
                // random_lp draws the n constraint normals first, then the
                // objective; binding-last only reorders the constraints.
                let mut rng = StdRng::seed_from_u64(self.seed);
                for _ in 0..self.n {
                    let _ = random_unit(self.d, &mut rng);
                }
                ScenarioProblem::Lp(LpProblem::new(random_unit(self.d, &mut rng)))
            }
            Family::ChebyshevLp => {
                // min t over (w, t): the objective is the fixed unit vector
                // e_d in d+1 variables.
                let mut obj = vec![0.0; self.d + 1];
                obj[self.d] = 1.0;
                ScenarioProblem::Lp(LpProblem::new(obj))
            }
            Family::DegenerateDuplicateLp => {
                let mut obj = vec![0.0; self.d];
                obj[0] = 1.0;
                ScenarioProblem::Lp(LpProblem::new(obj))
            }
            Family::NearTieLp | Family::WeightExplosionLp => {
                // Both generators draw the objective before any constraint.
                let mut rng = StdRng::seed_from_u64(self.seed);
                ScenarioProblem::Lp(LpProblem::new(random_unit(self.d, &mut rng)))
            }
            Family::SeparableSvm | Family::HeavyTailSvm => {
                ScenarioProblem::Svm(SvmProblem::new(self.d))
            }
            Family::SphereShellMeb | Family::ClusteredMeb => {
                ScenarioProblem::Meb(MebProblem::new(self.d))
            }
        }
    }
}

/// The registry: every named scenario at the given budget. Quick and full
/// list the *same* scenarios (names, families, dimensions, seeds) — only
/// the sizes scale, so the quick tier is a genuine subset of the full
/// run's coverage.
pub fn registry(budget: RunBudget) -> Vec<Scenario> {
    let sc = |name, family, full_n: usize, d, seed, r, skew| Scenario {
        name,
        family,
        n: budget.scale(full_n),
        d,
        seed,
        r,
        skew,
    };
    // All scenarios run at r = 3: with the lean configuration the ε-net
    // floor is `20νλ·n^{1/r}`, and these (n, d) pairs keep it strictly
    // below n in both budgets, so every model exercises the weighted
    // sampling, violation-scan, and reweighting machinery rather than
    // shipping the whole input as a trivial net.
    vec![
        sc("lp_uniform", Family::RandomLp, 64_000, 3, 0xA1, 3, None),
        sc(
            "lp_chebyshev",
            Family::ChebyshevLp,
            48_000,
            2,
            0xA2,
            3,
            None,
        ),
        sc(
            "lp_degenerate_dup",
            Family::DegenerateDuplicateLp,
            48_000,
            3,
            0xA3,
            3,
            None,
        ),
        sc("lp_near_tie", Family::NearTieLp, 48_000, 3, 0xA4, 3, None),
        sc(
            "lp_weight_explosion",
            Family::WeightExplosionLp,
            50_000,
            2,
            0xA5,
            3,
            None,
        ),
        sc(
            "lp_binding_last",
            Family::AdversarialOrderLp,
            40_000,
            2,
            0xA6,
            3,
            None,
        ),
        sc(
            "lp_skewed_sites",
            Family::SkewedPartitionLp,
            40_000,
            2,
            0xA7,
            3,
            Some(4.0),
        ),
        sc(
            "svm_separable",
            Family::SeparableSvm,
            48_000,
            3,
            0xA8,
            3,
            None,
        ),
        sc(
            "svm_heavy_tail",
            Family::HeavyTailSvm,
            48_000,
            3,
            0xA9,
            3,
            None,
        ),
        sc(
            "meb_sphere_shell",
            Family::SphereShellMeb,
            48_000,
            3,
            0xAA,
            3,
            None,
        ),
        sc(
            "meb_clustered",
            Family::ClusteredMeb,
            48_000,
            3,
            0xAB,
            3,
            None,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cover_all_families() {
        let scenarios = registry(RunBudget::Full);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");
        for fam in Family::ALL {
            assert!(
                scenarios.iter().any(|s| s.family == *fam),
                "family {} not in the registry",
                fam.name()
            );
        }
    }

    #[test]
    fn quick_is_a_subset_of_full() {
        let quick = registry(RunBudget::Quick);
        let full = registry(RunBudget::Full);
        assert_eq!(quick.len(), full.len());
        for (q, f) in quick.iter().zip(&full) {
            assert_eq!(q.name, f.name);
            assert_eq!(q.family, f.family);
            assert_eq!(q.seed, f.seed);
            assert_eq!(q.d, f.d);
            assert_eq!(q.r, f.r);
            assert!(q.n <= f.n, "{}: quick n {} > full n {}", q.name, q.n, f.n);
        }
    }

    #[test]
    fn every_scenario_generates_its_declared_size() {
        for sc in registry(RunBudget::Quick) {
            let data = sc.generate();
            assert!(!data.is_empty());
            // Chebyshev produces 2 constraints per point (n/2 points);
            // near-tie adds a 2d bounding box.
            let expect = match sc.family {
                Family::ChebyshevLp => (sc.n / 2) * 2,
                Family::NearTieLp => sc.n + 2 * sc.d,
                _ => sc.n,
            };
            assert_eq!(data.len(), expect, "{}", sc.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for sc in registry(RunBudget::Quick) {
            let (a, b) = (sc.generate(), sc.generate());
            match (a, b) {
                (ScenarioData::Lp(_, x), ScenarioData::Lp(_, y)) => assert_eq!(x, y),
                (ScenarioData::Svm(_, x), ScenarioData::Svm(_, y)) => assert_eq!(x, y),
                (ScenarioData::Meb(_, x), ScenarioData::Meb(_, y)) => assert_eq!(x, y),
                _ => panic!("family changed between generations"),
            }
        }
    }

    #[test]
    fn reconstructed_problem_matches_generate() {
        for sc in registry(RunBudget::Quick) {
            match (sc.problem(), sc.generate()) {
                (ScenarioProblem::Lp(p), ScenarioData::Lp(q, _)) => {
                    assert_eq!(p.objective, q.objective, "{}", sc.name)
                }
                (ScenarioProblem::Svm(p), ScenarioData::Svm(q, _)) => {
                    use llp_core::lptype::LpTypeProblem;
                    assert_eq!(p.dim(), q.dim(), "{}", sc.name)
                }
                (ScenarioProblem::Meb(p), ScenarioData::Meb(q, _)) => {
                    use llp_core::lptype::LpTypeProblem;
                    assert_eq!(p.dim(), q.dim(), "{}", sc.name)
                }
                _ => panic!("{}: problem kind drifted from generate()", sc.name),
            }
        }
    }

    #[test]
    fn huge_budget_reaches_out_of_core_sizes() {
        assert_eq!(RunBudget::parse("huge"), Some(RunBudget::Huge));
        assert_eq!(RunBudget::Huge.name(), "huge");
        assert!(!RunBudget::Huge.is_quick());
        let huge = registry(RunBudget::Huge);
        let max_n = huge.iter().map(|s| s.n).max().unwrap();
        assert!(max_n >= 100_000_000, "largest huge scenario n = {max_n}");
        // Same scenarios as full — only n scales.
        for (h, f) in huge.iter().zip(&registry(RunBudget::Full)) {
            assert_eq!(h.name, f.name);
            assert_eq!(h.seed, f.seed);
            assert_eq!(h.n, f.n * 2_048);
        }
    }

    #[test]
    fn family_names_parse_back() {
        for fam in Family::ALL {
            assert_eq!(Family::parse(fam.name()), Some(*fam));
        }
        assert_eq!(Family::parse("no_such_family"), None);
    }

    #[test]
    fn partition_sizes_cover_n() {
        for sc in registry(RunBudget::Quick) {
            let n = sc.generate().len();
            let sizes = crate::partition::prescribed_sizes(n, 8, sc.skew);
            assert_eq!(sizes.iter().sum::<usize>(), n, "{}", sc.name);
            assert!(sizes.iter().all(|&s| s >= 1));
            if sc.skew.is_some() {
                assert!(sizes[7] > sizes[0], "skew missing: {sizes:?}");
            }
        }
    }
}
