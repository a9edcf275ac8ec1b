//! Algorithm 1 in the three big data models (Theorems 1, 2, and 3).
//!
//! Each module implements the paper's meta-algorithm on top of the
//! corresponding `llp-models` meter, using the common machinery in
//! [`common`]:
//!
//! * [`streaming`] — Theorem 1: `O(νr)` passes, `Õ(λn^{1/r}ν + ν²)·bit(S)`
//!   space. Weights are reconstructed on the fly from the stored bases of
//!   successful iterations (Section 3.2); both the faithful two-pass i.i.d.
//!   sampling mode and the speculative one-pass A-ExpJ mode are provided.
//! * [`coordinator`] — Theorem 2 / Lemma 3.7: `O(νr)` rounds,
//!   `Õ(λn^{1/r}ν² + kν²)·bit(S)` communication. Sites keep the shared
//!   basis history; per iteration the coordinator gathers site weights,
//!   splits the `m` draws multinomially, collects samples, and broadcasts
//!   the new basis.
//! * [`mpc`] — Theorem 3: `O(ν/δ²)` rounds, `Õ(λn^δν²)·bit(S)` load per
//!   machine, simulating the coordinator protocol over the `n^δ`-ary
//!   broadcast / converge-cast trees of \[23\].
//!
//! The coordinator and MPC models take the caller's rows plus one
//! columnar transpose of them; a site or machine is a consecutive row
//! range of both, so no partition is ever copied.

#![forbid(unsafe_code)]

pub mod common;
pub mod coordinator;
pub mod mpc;
pub mod ooc;
pub mod streaming;

/// Error type shared by the model implementations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BigDataError {
    /// The constraint set is infeasible.
    Infeasible,
    /// The problem is unbounded.
    Unbounded,
    /// The iteration cap was exhausted.
    IterationLimit,
    /// An iteration failed under the Monte-Carlo policy of Remark 3.6
    /// (`FailurePolicy::Abort`).
    NetFailure,
    /// The out-of-core chunk source failed (I/O error or a corrupt
    /// store file surfaced mid-run; see `llp_store::StoreError`).
    Store(String),
}

impl std::fmt::Display for BigDataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BigDataError::Infeasible => write!(f, "infeasible"),
            BigDataError::Unbounded => write!(f, "unbounded"),
            BigDataError::IterationLimit => write!(f, "iteration limit exceeded"),
            BigDataError::NetFailure => write!(f, "epsilon-net failure (Monte-Carlo mode)"),
            BigDataError::Store(e) => write!(f, "chunk source failed: {e}"),
        }
    }
}

impl std::error::Error for BigDataError {}

impl From<llp_core::SolveError> for BigDataError {
    fn from(e: llp_core::SolveError) -> Self {
        match e {
            llp_core::SolveError::Infeasible => BigDataError::Infeasible,
            llp_core::SolveError::Unbounded => BigDataError::Unbounded,
        }
    }
}
