//! Row emission: the one interface every registry family's generator
//! writes through.
//!
//! Each family is a seeded loop that builds one row at a time
//! in a reused buffer and pushes its coordinates and extra scalar into a
//! caller's [`Sink`] — exactly what `ColumnarProblem::to_columns` would
//! store for the row, in stream order. Whoever needs the rows picks the
//! sink: the public generators and `Scenario::generate` collect them as
//! constraints, the store writer fills chunk frames, and
//! `Scenario::problem` drops them. A family's RNG draw order is therefore
//! written once, in its emitter.

use llp_core::instances::svm::SvmPoint;
use llp_geom::{Halfspace, Point};
use std::convert::Infallible;

/// Receives each emitted row: its coordinates and its extra scalar (the
/// LP right-hand side, the SVM label as `±1.0`, `0.0` for MEB). Any
/// `FnMut(&[f64], f64) -> Result<(), E>` closure is a sink; an `Err`
/// stops the emitter and is returned from it.
pub(crate) trait Sink<E>: FnMut(&[f64], f64) -> Result<(), E> {}

impl<E, F: FnMut(&[f64], f64) -> Result<(), E>> Sink<E> for F {}

/// A constraint type built from one emitted row.
pub(crate) trait FromRow {
    fn from_row(coords: &[f64], extra: f64) -> Self;
}

impl FromRow for Halfspace {
    #[inline]
    fn from_row(coords: &[f64], extra: f64) -> Self {
        Halfspace::new(coords.to_vec(), extra)
    }
}

impl FromRow for SvmPoint {
    #[inline]
    fn from_row(coords: &[f64], extra: f64) -> Self {
        SvmPoint {
            x: coords.to_vec(),
            y: if extra > 0.0 { 1 } else { -1 },
        }
    }
}

impl FromRow for Point {
    #[inline]
    fn from_row(coords: &[f64], _extra: f64) -> Self {
        coords.to_vec()
    }
}

/// A sink that appends every row to `out` as a `C`; it never fails.
pub(crate) fn push_rows<C: FromRow>(
    out: &mut Vec<C>,
) -> impl FnMut(&[f64], f64) -> Result<(), Infallible> + '_ {
    |coords, extra| {
        out.push(C::from_row(coords, extra));
        Ok(())
    }
}
