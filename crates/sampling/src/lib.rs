//! Sampling machinery for the ε-net Clarkson meta-algorithm.
//!
//! Algorithm 1 of the paper samples, each iteration, a family `N` of
//! `m_{ε,λ,δ}` elements i.i.d. with probability proportional to their
//! weights (Lemma 2.2). The three computation models need three different
//! realizations of that primitive:
//!
//! * RAM / per-site: no sampler here. The RAM solver, every coordinator
//!   site and every MPC machine are parts of one solve's integer weight
//!   exponents in `llp_core::clarkson::SiteWeights`, which draws a
//!   part's net by exponent class and rank in one sweep over its rows.
//! * Streaming: [`weighted::SortedTargetSampler`] (one pass, total weight
//!   known from bookkeeping) and [`reservoir::WeightedReservoir`] (A-ExpJ,
//!   one pass, no total needed — used by the speculative one-pass mode).
//! * Coordinator / MPC: [`discrete::multinomial`] — the coordinator splits
//!   the `m` draws across sites according to site weights (Lemma 3.7),
//!   which needs exact binomial sampling.
//!
//! [`weighted::sample_iid`] (prefix sums over plain `f64` weights + binary
//! search) is no solver's path; it generates the `serve` load mixes.
//!
//! [`epsnet`] holds the sample-size formula of Eq. (1).

#![forbid(unsafe_code)]

pub mod discrete;
pub mod epsnet;
pub mod reservoir;
pub mod weighted;
