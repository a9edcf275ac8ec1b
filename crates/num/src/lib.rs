//! Numeric substrates for the low-dimensional LP library.
//!
//! This crate provides the numeric foundations that the rest of the
//! workspace builds on:
//!
//! * [`ScaledF64`] — a floating-point number with an explicit power-of-two
//!   exponent, used for the multiplicative weights of Algorithm 1 of the
//!   paper. Weights grow as `n^{O(ν)}` and their *totals* are summed over
//!   millions of elements, so a plain `f64` would overflow for larger
//!   combinatorial dimensions; `ScaledF64` keeps roughly 52 bits of
//!   precision at any magnitude.
//! * [`Rat`] — an exact rational over `i128`, used by the lower-bound
//!   construction of Section 5 (slopes in the hard distribution grow as
//!   `N^{O(r)}` and must be compared exactly) and by the exact 2-D LP
//!   solver.
//! * [`linalg`] — small dense linear algebra (Gaussian elimination with
//!   partial pivoting) for the `d × d` systems that appear in basis
//!   computations, circumsphere solves, and active-set SVM steps.
//! * [`float`] — the relative tolerance shared by the floating-point
//!   solvers.

#![forbid(unsafe_code)]

pub mod float;
pub mod linalg;
pub mod rational;
pub mod scaled;

pub use rational::Rat;
pub use scaled::ScaledF64;
