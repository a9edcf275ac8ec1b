//! Behavioural tests of `lexico::lex_min_optimum`: lexicographic
//! tie-breaking on degenerate faces, verdict propagation, and agreement
//! with plain Seidel on the optimal value.

use llp_geom::Halfspace;
use llp_num::linalg::{dot, norm};
use llp_solver::lexico::lex_min_optimum;
use llp_solver::seidel::{self, SeidelConfig};
use llp_solver::LpResult;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(99)
}

fn lex(cs: &[Halfspace], c: &[f64]) -> LpResult {
    lex_min_optimum(cs, c, &SeidelConfig::default(), &mut rng())
}

fn assert_pt(x: &[f64], want: &[f64]) {
    for i in 0..x.len() {
        assert!((x[i] - want[i]).abs() < 1e-5, "x = {x:?}, want {want:?}");
    }
}

#[test]
fn unique_vertex_unchanged() {
    let cs = vec![
        Halfspace::new(vec![1.0, 2.0], 4.0),
        Halfspace::new(vec![3.0, 1.0], 6.0),
    ];
    let r = lex(&cs, &[-1.0, -1.0]);
    assert_pt(r.point().unwrap(), &[1.6, 1.2]);
}

#[test]
fn degenerate_face_breaks_ties_lexicographically() {
    // min x + y on the square [0,1]^2: the whole edge from (0,0) is not
    // optimal — only (0,0) minimizes; instead use objective (1, 0): the
    // optimal face is the segment x = 0, y ∈ [0, 1]; lexicographic
    // tie-break must pick y = 0.
    let cs = vec![
        Halfspace::new(vec![-1.0, 0.0], 0.0),
        Halfspace::new(vec![0.0, -1.0], 0.0),
        Halfspace::new(vec![1.0, 0.0], 1.0),
        Halfspace::new(vec![0.0, 1.0], 1.0),
    ];
    let r = lex(&cs, &[1.0, 0.0]);
    assert_pt(r.point().unwrap(), &[0.0, 0.0]);
}

#[test]
fn zero_objective_gives_lex_smallest_feasible() {
    let cs = vec![
        Halfspace::new(vec![-1.0, 0.0], -2.0), // x ≥ 2
        Halfspace::new(vec![0.0, -1.0], -3.0), // y ≥ 3
        Halfspace::new(vec![1.0, 1.0], 100.0),
    ];
    let r = lex(&cs, &[0.0, 0.0]);
    assert_pt(r.point().unwrap(), &[2.0, 3.0]);
}

#[test]
fn infeasible_propagates() {
    let cs = vec![
        Halfspace::new(vec![1.0, 0.0], 0.0),
        Halfspace::new(vec![-1.0, 0.0], -1.0),
    ];
    assert_eq!(lex(&cs, &[1.0, 1.0]), LpResult::Infeasible);
}

#[test]
fn unbounded_detected() {
    // min 0 subject to x ≥ 0 only: lexicographic min sends y to -M.
    let cs = vec![Halfspace::new(vec![-1.0, 0.0], 0.0)];
    assert_eq!(lex(&cs, &[0.0, 0.0]), LpResult::Unbounded);
}

#[test]
fn three_dim_degenerate_face() {
    // Objective only on x0; optimal face is the square x0 = 0,
    // (x1, x2) ∈ [0,1]^2. Lexicographic pick: (0, 0, 0).
    let mut cs = Vec::new();
    for i in 0..3 {
        let mut lo = vec![0.0; 3];
        lo[i] = -1.0;
        let mut hi = vec![0.0; 3];
        hi[i] = 1.0;
        cs.push(Halfspace::new(lo, 0.0));
        cs.push(Halfspace::new(hi, 1.0));
    }
    let r = lex(&cs, &[1.0, 0.0, 0.0]);
    assert_pt(r.point().unwrap(), &[0.0, 0.0, 0.0]);
}

#[test]
fn respects_equality_like_pairs() {
    // x + y = 1 encoded as two inequalities; min x -> x as small as
    // possible: x ≥ 0 binds? No lower bound on x other than y ≤ 1 =>
    // x ≥ 0. Add y ≤ 1.
    let cs = vec![
        Halfspace::new(vec![1.0, 1.0], 1.0),
        Halfspace::new(vec![-1.0, -1.0], -1.0),
        Halfspace::new(vec![0.0, 1.0], 1.0),
    ];
    let r = lex(&cs, &[1.0, 0.0]);
    assert_pt(r.point().unwrap(), &[0.0, 1.0]);
}

#[test]
fn matches_plain_seidel_value_on_random_bounded_lps() {
    use rand::Rng;
    let mut r = rng();
    for _ in 0..25 {
        let d = 3;
        let mut cs = Vec::new();
        for _ in 0..60 {
            let mut a: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
            let n = norm(&a);
            if n < 1e-3 {
                continue;
            }
            a.iter_mut().for_each(|v| *v /= n);
            cs.push(Halfspace::new(a, 1.0));
        }
        let c: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
        let plain = seidel::solve(&cs, &c, &SeidelConfig::default(), &mut r);
        let lexed = lex_min_optimum(&cs, &c, &SeidelConfig::default(), &mut r);
        if let (LpResult::Optimal(p), LpResult::Optimal(q)) = (&plain, &lexed) {
            let (vp, vq) = (dot(&c, p), dot(&c, q));
            assert!(
                (vp - vq).abs() < 1e-5 * vp.abs().max(1.0),
                "objective mismatch: seidel {vp} vs lex {vq}"
            );
        }
    }
}
