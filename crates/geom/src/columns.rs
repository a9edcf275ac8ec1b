//! Columnar (struct-of-arrays) constraint storage.
//!
//! The AoS types ([`Halfspace`](crate::Halfspace), labeled points,
//! plain points) are one heap allocation per constraint, so the O(n)
//! violation scan of Algorithm 1 chases a pointer per element. A
//! [`ConstraintColumns`] stores the same data as `d` contiguous `f64`
//! coordinate columns plus one *extra* column (the LP right-hand side
//! `b`, the SVM label as `±1.0`, or zeros for MEB), with `d` known up
//! front. A scan then walks each column linearly — one stream per
//! coordinate, no per-element indirection — and the flat
//! `coords`/`extra` layout is byte-identical to the forthcoming
//! on-disk block format (ROADMAP item 3): a block is exactly a
//! `ConstraintColumns` with a header.
//!
//! The type is deliberately dumb storage: problem-specific conversion
//! and scan kernels live with the problem implementations
//! (`llp_core::instances`), behind the `ColumnarProblem` trait.

/// Struct-of-arrays storage for `len` constraints in `dim` dimensions:
/// one contiguous column per coordinate plus one extra column.
///
/// Column `j` (`0 ≤ j < dim`) occupies `coords[j*len .. (j+1)*len]`;
/// element `i`'s coordinate `j` is `coords[j*len + i]`. The extra
/// column carries the per-constraint scalar that is not a coordinate.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstraintColumns {
    dim: usize,
    len: usize,
    /// All coordinate columns, column-major: `dim * len` values.
    coords: Vec<f64>,
    /// The `b`/label/radius column: `len` values.
    extra: Vec<f64>,
}

impl ConstraintColumns {
    /// Allocates zero-filled columns for `len` constraints in `dim`
    /// dimensions. Fill rows with [`set_row`](Self::set_row);
    /// column-major storage makes appending a row O(d) scattered
    /// writes, so the length is fixed up front instead of grown.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn zeroed(dim: usize, len: usize) -> Self {
        assert!(dim >= 1, "columns in zero dimensions");
        ConstraintColumns {
            dim,
            len,
            coords: vec![0.0; dim * len],
            extra: vec![0.0; len],
        }
    }

    /// Writes constraint `i`: its coordinates and its extra scalar.
    ///
    /// # Panics
    /// Panics if `i >= len` or `coords.len() != dim`.
    #[inline]
    pub fn set_row(&mut self, i: usize, coords: &[f64], extra: f64) {
        assert!(i < self.len);
        assert_eq!(coords.len(), self.dim);
        for (j, &v) in coords.iter().enumerate() {
            self.coords[j * self.len + i] = v;
        }
        self.extra[i] = extra;
    }

    /// Ambient dimension `d` (number of coordinate columns).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of constraints stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no constraints are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of rows `start..end` (half-open), the unit the chunked
    /// scans hand to a kernel.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len`.
    #[inline]
    pub fn view(&self, start: usize, end: usize) -> ColumnsView<'_> {
        assert!(start <= end && end <= self.len);
        ColumnsView {
            cols: self,
            start,
            end,
        }
    }

    /// The view of every row.
    #[inline]
    pub fn full_view(&self) -> ColumnsView<'_> {
        self.view(0, self.len)
    }

    /// Resizes the block to `len` rows in place, keeping its allocations,
    /// and lends its raw column-major coordinate array (`dim * len`
    /// values) and extra column (`len` values) for the caller to fill —
    /// the decode direction of the on-disk block format (`llp_store`).
    /// Values left from before land in unspecified places, so the caller
    /// must overwrite every one.
    pub fn resize_raw(&mut self, len: usize) -> (&mut [f64], &mut [f64]) {
        self.len = len;
        self.coords.resize(self.dim * len, 0.0);
        self.extra.resize(len, 0.0);
        (&mut self.coords, &mut self.extra)
    }

    /// The raw column-major coordinate array (`dim * len` values) — the
    /// encode direction of the on-disk block format.
    #[inline]
    pub fn raw_coords(&self) -> &[f64] {
        &self.coords
    }

    /// The raw extra column (`len` values).
    #[inline]
    pub fn raw_extra(&self) -> &[f64] {
        &self.extra
    }

    /// Copies row `i`'s coordinates into `coords` (cleared first) and
    /// returns its extra scalar — the inverse of [`set_row`](Self::set_row).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn row(&self, i: usize, coords: &mut Vec<f64>) -> f64 {
        assert!(i < self.len);
        coords.clear();
        for j in 0..self.dim {
            coords.push(self.coords[j * self.len + i]);
        }
        self.extra[i]
    }
}

/// A borrowed row range of a [`ConstraintColumns`]. Kernels read one
/// coordinate column at a time via [`col`](Self::col); indices within
/// the view are relative (`0..self.len()`), and [`start`](Self::start)
/// recovers the absolute row offset.
#[derive(Clone, Copy, Debug)]
pub struct ColumnsView<'a> {
    cols: &'a ConstraintColumns,
    start: usize,
    end: usize,
}

impl<'a> ColumnsView<'a> {
    /// Coordinate column `j` of this row range, contiguous.
    ///
    /// # Panics
    /// Panics if `j >= dim`.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        assert!(j < self.cols.dim);
        let base = j * self.cols.len;
        &self.cols.coords[base + self.start..base + self.end]
    }

    /// The extra column (`b`/label/zeros) of this row range.
    #[inline]
    pub fn extra(&self) -> &'a [f64] {
        &self.cols.extra[self.start..self.end]
    }

    /// Absolute row index of the view's first row.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of rows in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True iff the view spans no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Ambient dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.cols.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ConstraintColumns {
        let mut c = ConstraintColumns::zeroed(2, 3);
        c.set_row(0, &[1.0, 2.0], 10.0);
        c.set_row(1, &[3.0, 4.0], 20.0);
        c.set_row(2, &[5.0, 6.0], 30.0);
        c
    }

    #[test]
    fn rows_land_in_columns() {
        let c = demo();
        let v = c.full_view();
        assert_eq!(v.col(0), &[1.0, 3.0, 5.0]);
        assert_eq!(v.col(1), &[2.0, 4.0, 6.0]);
        assert_eq!(v.extra(), &[10.0, 20.0, 30.0]);
        assert_eq!(c.dim(), 2);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn views_are_relative_with_absolute_start() {
        let c = demo();
        let v = c.view(1, 3);
        assert_eq!(v.start(), 1);
        assert_eq!(v.len(), 2);
        assert_eq!(v.col(0), &[3.0, 5.0]);
        assert_eq!(v.col(1), &[4.0, 6.0]);
        assert_eq!(v.extra(), &[20.0, 30.0]);
        let empty = c.view(2, 2);
        assert!(empty.is_empty());
        assert_eq!(empty.col(0), &[] as &[f64]);
    }

    #[test]
    fn raw_round_trip_is_lossless() {
        let c = demo();
        // Grow from empty, then shrink from a longer block: either way
        // the refilled block equals the original.
        for start in [0, 5] {
            let mut d = ConstraintColumns::zeroed(c.dim(), start);
            let (coords, extra) = d.resize_raw(c.len());
            coords.copy_from_slice(c.raw_coords());
            extra.copy_from_slice(c.raw_extra());
            assert_eq!(c, d);
            let mut buf = Vec::new();
            assert_eq!(d.row(1, &mut buf), 20.0);
            assert_eq!(buf, vec![3.0, 4.0]);
            assert_eq!(d.row(2, &mut buf), 30.0);
            assert_eq!(buf, vec![5.0, 6.0]);
        }
    }

    #[test]
    #[should_panic(expected = "zero dimensions")]
    fn zero_dim_panics() {
        let _ = ConstraintColumns::zeroed(0, 4);
    }

    #[test]
    #[should_panic]
    fn out_of_range_view_panics() {
        let c = demo();
        let _ = c.view(1, 4);
    }
}
