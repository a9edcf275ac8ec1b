// Fixture: the hoisted twin — one scratch buffer reused across
// iterations; the loop body only borrows.
fn scan_rows(rows: &[Vec<f64>], x: &[f64]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut dot: f64 = 0.0;
    for (i, row) in rows.iter().enumerate() {
        dot = 0.0;
        for (a, b) in row.iter().zip(x) {
            dot += a * b;
        }
        if dot < 0.0 {
            out.push(i);
        }
    }
    out
}
