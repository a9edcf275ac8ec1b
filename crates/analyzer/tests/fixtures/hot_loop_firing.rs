// Fixture: per-iteration allocations in a kernel loop body →
// hot-loop-alloc. Scanned under a KERNEL_FILES path.
fn scan_rows(rows: &[Vec<f64>], x: &[f64]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let local = row.to_vec();
        let dots: Vec<f64> = local.iter().zip(x).map(|(a, b)| a * b).collect();
        if dots.iter().sum::<f64>() < 0.0 {
            out.push(i);
        }
    }
    out
}
