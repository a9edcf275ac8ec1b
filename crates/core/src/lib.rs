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
//!   `n^{1/r}`-weight-update meta-algorithm — with full statistics
//!   (iteration counts for Lemma 3.3, per-iteration success for Claim 3.2,
//!   and the weight envelope of Eq. (2)). Its loop, [`clarkson::run`], is
//!   written once over a [`clarkson::Holder<P>`](clarkson::Holder) that
//!   owns its input, and [`clarkson::ClarksonError`] is every model's
//!   error type. It also holds the weight state of an in-memory solve,
//!   [`clarkson::SiteWeights`], one per solve and cut into parts (RAM's
//!   rows, each coordinator site, each MPC machine) and scanned in one
//!   sweep; the per-solve [`clarkson::NetBuffer`]; and the stream's
//!   exponent sweep, [`clarkson::exponents_columnar`].
//!
//! The model implementations (streaming/coordinator/MPC) live in
//! `llp-bigdata` and reuse everything here; all three run as holders in
//! [`clarkson::run`].

#![forbid(unsafe_code)]

pub mod clarkson;
pub mod instances;
pub mod lptype;

pub use clarkson::{
    solve as clarkson_solve, solve_with_columns as clarkson_solve_with_columns, ClarksonConfig,
    ClarksonOutcome, ClarksonStats, NetBuffer, SiteWeights,
};
pub use lptype::{ColumnarProblem, LpTypeProblem, SolveError};
