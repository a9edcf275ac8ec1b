//! The paper's primary contribution: LP-type problems and Algorithm 1.
//!
//! * [`lptype`] defines the [`lptype::LpTypeProblem`] trait — the class of
//!   problems of Section 2.1 restricted by Properties (P1)/(P2) of
//!   Section 3: each constraint carves out a subset of the solution range,
//!   `f(A)` is the minimal element of the intersection, and violation of a
//!   basis is a point-membership test.
//! * [`instances`] provides the three applications of Section 4: linear
//!   programming (lexicographically canonical optimum, Proposition 4.1),
//!   hard-margin linear SVM (Proposition 4.2), and minimum enclosing ball
//!   / Core Vector Machines (Proposition 4.3).
//! * [`clarkson`] implements Algorithm 1 — the ε-net sampling,
//!   `n^{1/r}`-weight-update meta-algorithm — in RAM, with full statistics
//!   (iteration counts for Lemma 3.3, per-iteration success for Claim 3.2,
//!   and the weight envelope of Eq. (2)). It also holds the one weight
//!   holder, [`clarkson::SiteWeights`], and the per-solve
//!   [`clarkson::NetBuffer`] that RAM, the coordinator sites and the MPC
//!   machines all run on.
//!
//! The model implementations (streaming/coordinator/MPC) live in
//! `llp-bigdata` and reuse everything here.

#![forbid(unsafe_code)]

pub mod clarkson;
pub mod instances;
pub mod lptype;

pub use clarkson::{
    solve as clarkson_solve, solve_with_columns as clarkson_solve_with_columns, ClarksonConfig,
    ClarksonOutcome, ClarksonStats, NetBuffer, SiteWeights,
};
pub use lptype::{ColumnarProblem, LpTypeProblem, SolveError};
