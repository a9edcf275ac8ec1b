//! Baselines for the comparison tables (experiment T5).
//!
//! * [`chan_chen`] — the prior state of the art in multi-pass streaming
//!   LP \[13\]: `O(r^{d-1})` passes with `O(n^{1/r})` space. Implemented for
//!   `d = 2` (grid refinement over the convex envelope); for `d > 2` the
//!   comparison tables quote the published pass formula.
//! * [`clarkson_classic`] — Clarkson's original reweighting rate (factor
//!   2) \[16\], the ablation showing why the paper's `n^{1/r}` rate is the
//!   source of the pass savings.
//! * [`naive`] — the store-everything streaming algorithm: one pass, but
//!   linear space.

#![forbid(unsafe_code)]

pub mod chan_chen;
pub mod clarkson_classic;
pub mod naive;
