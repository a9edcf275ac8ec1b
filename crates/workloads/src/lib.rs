//! Synthetic workload generators and the scenario registry.
//!
//! Every generator produces inputs with known structure so experiments can
//! check correctness, not just run: random LPs are feasible and bounded by
//! construction, regression instances embed a known ground-truth model,
//! SVM clouds have a guaranteed margin, and MEB instances have a known
//! radius. Beyond the benign families the crate carries *adversarial*
//! ones — degenerate duplicate packs, near-ties at the optimum,
//! weight-explosion needles, heavy-tailed and clustered clouds,
//! permutation-adversarial orders, and skewed partitions — each designed
//! to stress one specific mechanism of the reproduction (see the module
//! docs and DESIGN.md §6).
//!
//! Reproducibility contract: **every generator takes an explicit `seed`**
//! and builds its own deterministic RNG from it. No generator draws from a
//! caller-threaded RNG, so the bytes of an instance depend only on the
//! generator arguments — the same scenario regenerates identically in any
//! test, bench, CI leg, or example, regardless of what the caller sampled
//! before.
//!
//! The [`scenario`] module ties the families into a first-class registry:
//! named, seeded [`Scenario`]s that the experiment harness enumerates and
//! runs against all four models (RAM / streaming / coordinator / MPC),
//! emitting one machine-readable report cell per (scenario × model) pair.

#![forbid(unsafe_code)]

pub mod lp;
pub mod meb;
pub mod order;
pub mod partition;
pub mod scenario;
pub mod store_io;
pub mod stream;
pub mod svm;

pub use lp::{
    chebyshev_regression, degenerate_box_lp, near_tie_lp, needle_lp, random_lines, random_lp,
};
pub use meb::{ball_cloud, clustered_cloud, sphere_shell};
pub use order::{binding_last_lp, extremes_last_points, shuffled};
pub use partition::{partition_by_sizes, skewed_sizes};
pub use scenario::{registry, Family, RunBudget, Scenario, ScenarioData, ScenarioProblem};
pub use store_io::{matches_scenario, provenance, scenario_for_provenance, write_scenario};
pub use stream::ScenarioStream;
pub use svm::{heavy_tailed_clouds, separable_clouds};
