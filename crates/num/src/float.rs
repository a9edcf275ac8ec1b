//! The floating-point tolerance shared by the geometric solvers.
//!
//! All floating-point solvers in the workspace compare quantities against a
//! *relative* tolerance scaled by the magnitudes involved, so that the same
//! code is robust for constraints with coefficients of order `1` and of
//! order `10^6` (the lower-bound instances reach such slopes).

/// Default relative tolerance used by the floating-point LP/QP/MEB solvers.
pub const DEFAULT_EPS: f64 = 1e-9;
