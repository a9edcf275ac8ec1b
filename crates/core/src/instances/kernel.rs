//! The block shape every column scan shares.
//!
//! Each instance's violation test is a sum over coordinates followed by
//! one compare: `acc = 0.0; acc += term(c_j, s_j)` for ascending `j`,
//! where `c_j` is the row's coordinate and `s_j` the solution's, then
//! `verdict(acc, extra)`. Written so, it is the AoS predicate's own
//! arithmetic in its own order, so each verdict is bit-identical to
//! `violates`. [`scan_view`] runs it over a view in blocks of four rows:
//! the four rows' verdicts form a mask, and the block branches once, on
//! that mask. Dimensions 2 to 4 get a loop with the dimension as a const
//! generic, with the column slices cut to the view length once; any other
//! dimension runs the same sum through the generic fallback.

use llp_geom::ColumnsView;

/// One instance's per-row violation test; see the module doc.
pub(crate) trait RowKernel {
    /// Coordinate `j`'s addend, from the row's coordinate `c` and the
    /// solution's `s`.
    fn term(&self, c: f64, s: f64) -> f64;
    /// Whether a row whose sum is `acc` and whose extra scalar is `extra`
    /// violates.
    fn verdict(&self, acc: f64, extra: f64) -> bool;
}

/// Pushes the absolute index of every row of `view` that `kernel` flags
/// against the solution coordinates `sol`, ascending.
pub(crate) fn scan_view<K: RowKernel>(
    kernel: &K,
    sol: &[f64],
    view: &ColumnsView<'_>,
    out: &mut Vec<usize>,
) {
    match view.dim() {
        2 => scan_fixed::<K, 2>(kernel, sol, view, out),
        3 => scan_fixed::<K, 3>(kernel, sol, view, out),
        4 => scan_fixed::<K, 4>(kernel, sol, view, out),
        _ => scan_any(kernel, sol, view, out),
    }
}

fn scan_fixed<K: RowKernel, const D: usize>(
    kernel: &K,
    sol: &[f64],
    view: &ColumnsView<'_>,
    out: &mut Vec<usize>,
) {
    let n = view.len();
    let cols: [&[f64]; D] = std::array::from_fn(|j| &view.col(j)[..n]);
    let s: [f64; D] = std::array::from_fn(|j| sol[j]);
    let extra = &view.extra()[..n];
    scan_blocks(kernel, D, |j| (cols[j], s[j]), extra, view.start(), out);
}

fn scan_any<K: RowKernel>(kernel: &K, sol: &[f64], view: &ColumnsView<'_>, out: &mut Vec<usize>) {
    let s = &sol[..view.dim()];
    scan_blocks(
        kernel,
        s.len(),
        |j| (view.col(j), s[j]),
        view.extra(),
        view.start(),
        out,
    );
}

/// Judges the rows of `extra`'s length in blocks of four, then the last
/// `n mod 4` one by one, and pushes `base + i` for every flagged row `i`.
/// `column(j)` is coordinate column `j` with the solution's coordinate
/// `j`, for `j < d`. A block sums its four rows side by side, forms
/// their verdict mask, and branches once, on the mask.
#[inline(always)]
fn scan_blocks<'a, K: RowKernel>(
    kernel: &K,
    d: usize,
    column: impl Fn(usize) -> (&'a [f64], f64),
    extra: &[f64],
    base: usize,
    out: &mut Vec<usize>,
) {
    let n = extra.len();
    let mut i = 0;
    while i + 4 <= n {
        let mut acc = [0.0f64; 4];
        for j in 0..d {
            let (col, s) = column(j);
            let c: &[f64; 4] = col[i..i + 4].try_into().expect("four rows");
            for k in 0..4 {
                acc[k] += kernel.term(c[k], s);
            }
        }
        let e: &[f64; 4] = extra[i..i + 4].try_into().expect("four rows");
        let mut mask = 0u8;
        for k in 0..4 {
            mask |= u8::from(kernel.verdict(acc[k], e[k])) << k;
        }
        if mask != 0 {
            for k in 0..4 {
                if mask & (1 << k) != 0 {
                    out.push(base + i + k);
                }
            }
        }
        i += 4;
    }
    for i in i..n {
        let mut acc = 0.0;
        for j in 0..d {
            let (col, s) = column(j);
            acc += kernel.term(col[i], s);
        }
        if kernel.verdict(acc, extra[i]) {
            out.push(base + i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_geom::ConstraintColumns;

    /// Flags rows whose coordinate sum exceeds the extra scalar.
    struct SumAbove;

    impl RowKernel for SumAbove {
        fn term(&self, c: f64, s: f64) -> f64 {
            c * s
        }
        fn verdict(&self, acc: f64, extra: f64) -> bool {
            acc > extra
        }
    }

    #[test]
    fn fixed_and_fallback_loops_flag_the_same_rows() {
        // Every dimension routes through one of the loops; each must
        // agree with a plain row-by-row evaluation on every view.
        for d in 1..=6 {
            let n = 23;
            let mut cols = ConstraintColumns::zeroed(d, n);
            for i in 0..n {
                let row: Vec<f64> = (0..d).map(|j| ((i * 7 + j * 3) % 11) as f64).collect();
                cols.set_row(i, &row, (i % 9) as f64 * d as f64);
            }
            let sol: Vec<f64> = (0..d).map(|j| 0.5 + j as f64 * 0.25).collect();
            for start in 0..=5 {
                for end in start..=n {
                    let view = cols.view(start, end);
                    let mut got = Vec::new();
                    scan_view(&SumAbove, &sol, &view, &mut got);
                    let mut coords = Vec::new();
                    let want: Vec<usize> = (start..end)
                        .filter(|&i| {
                            let extra = cols.row(i, &mut coords);
                            let acc = coords.iter().zip(&sol).fold(0.0, |a, (c, s)| a + c * s);
                            acc > extra
                        })
                        .collect();
                    assert_eq!(got, want, "d {d}, view {start}..{end}");
                }
            }
        }
    }
}
