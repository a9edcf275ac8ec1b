//! Algorithm 1 in the three big data models (Theorems 1, 2, and 3).
//!
//! Each module implements the paper's meta-algorithm on top of the
//! corresponding `llp-models` meter, as one holder in the loop every
//! model runs, `llp_core::clarkson::run`. Each holder owns its input.
//! The coordinator and MPC hold the caller's rows and their columns, in
//! sites or machines (the parts of one `llp_core::clarkson::SiteWeights`)
//! and their meter, whose calls make the protocol's rounds and charge
//! messages of the sizes named once here; a verdict is applied when the
//! loop reaches it and charged when the next iteration opens. The
//! stream holds a chunk source and recomputes weights from its basis
//! history with `llp_core::clarkson::exponents_columnar`. Every model
//! reports [`BigDataError`]:
//!
//! * [`streaming`] — Theorem 1: `O(νr)` passes, `Õ(λn^{1/r}ν + ν²)·bit(S)`
//!   space. Weights are reconstructed on the fly from the stored bases of
//!   successful iterations (Section 3.2); both the faithful two-pass i.i.d.
//!   sampling mode and the speculative one-pass A-ExpJ mode are provided.
//! * [`coordinator`] — Theorem 2 / Lemma 3.7: `O(νr)` rounds,
//!   `Õ(λn^{1/r}ν² + kν²)·bit(S)` communication. Sites keep their
//!   weights incrementally; per iteration the coordinator gathers site
//!   weights, splits the `m` draws multinomially, collects samples, and
//!   broadcasts the new basis.
//! * [`mpc`] — Theorem 3: `O(ν/δ²)` rounds, `Õ(λn^δν²)·bit(S)` load per
//!   machine, simulating the coordinator protocol over the `n^δ`-ary
//!   broadcast / converge-cast trees of \[23\].
//!
//! The coordinator and MPC models take the caller's rows plus one
//! columnar transpose of them; a site or machine is a consecutive row
//! range of both, so no partition is ever copied, and each scan is one
//! sweep of the transpose.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod mpc;
pub mod ooc;
pub mod streaming;

/// A verdict flag on the wire: one bit, metered as one byte.
const VERDICT_BITS: u64 = 8;
/// A scaled weight as (mantissa, exponent): the `O(ℓ/r · log n)`-bit
/// weight encoding of Lemma 3.7.
const WEIGHT_BITS: u64 = 128;
/// A sample count or a violator count.
const COUNT_BITS: u64 = 64;

/// The one error type of Algorithm 1 in every model, under the name
/// the model implementations and their callers use.
pub use llp_core::clarkson::ClarksonError as BigDataError;
