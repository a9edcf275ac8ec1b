//! Behavioural tests of `seidel::solve`: base cases, vertices,
//! infeasibility and unboundedness, redundant and near-tie inputs.
//! (Bit-exact outputs are pinned by the workspace's basis-solver golden
//! fixture.)

use llp_geom::Halfspace;
use llp_num::linalg::dot;
use llp_solver::seidel::{solve, SeidelConfig};
use llp_solver::LpResult;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(7)
}

fn assert_pt(x: &[f64], want: &[f64]) {
    assert_eq!(x.len(), want.len());
    for i in 0..x.len() {
        assert!((x[i] - want[i]).abs() < 1e-6, "x = {x:?}, want {want:?}");
    }
}

#[test]
fn one_dim_interval() {
    // x ≤ 5, -x ≤ -2 (x ≥ 2); min x -> 2, max x (c = -1) -> 5.
    let cs = vec![
        Halfspace::new(vec![1.0], 5.0),
        Halfspace::new(vec![-1.0], -2.0),
    ];
    let r = solve(&cs, &[1.0], &SeidelConfig::default(), &mut rng());
    assert_pt(r.point().unwrap(), &[2.0]);
    let r = solve(&cs, &[-1.0], &SeidelConfig::default(), &mut rng());
    assert_pt(r.point().unwrap(), &[5.0]);
}

#[test]
fn one_dim_infeasible() {
    let cs = vec![
        Halfspace::new(vec![1.0], 1.0),
        Halfspace::new(vec![-1.0], -2.0),
    ];
    assert_eq!(
        solve(&cs, &[1.0], &SeidelConfig::default(), &mut rng()),
        LpResult::Infeasible
    );
}

#[test]
fn two_dim_vertex() {
    // min -x - y subject to x + 2y ≤ 4, 3x + y ≤ 6, in the box.
    // Optimum at intersection: x = 8/5, y = 6/5.
    let cs = vec![
        Halfspace::new(vec![1.0, 2.0], 4.0),
        Halfspace::new(vec![3.0, 1.0], 6.0),
    ];
    let r = solve(&cs, &[-1.0, -1.0], &SeidelConfig::default(), &mut rng());
    assert_pt(r.point().unwrap(), &[1.6, 1.2]);
}

#[test]
fn two_dim_unbounded_detected() {
    // min -x with only x ≥ 0: optimum runs to the box.
    let cs = vec![Halfspace::new(vec![-1.0, 0.0], 0.0)];
    assert_eq!(
        solve(&cs, &[-1.0, 0.0], &SeidelConfig::default(), &mut rng()),
        LpResult::Unbounded
    );
}

#[test]
fn two_dim_infeasible() {
    let cs = vec![
        Halfspace::new(vec![1.0, 0.0], 0.0),
        Halfspace::new(vec![-1.0, 0.0], -1.0), // x ≥ 1 and x ≤ 0
    ];
    assert_eq!(
        solve(&cs, &[1.0, 1.0], &SeidelConfig::default(), &mut rng()),
        LpResult::Infeasible
    );
}

#[test]
fn three_dim_simplex_corner() {
    // min -(x+y+z) s.t. x+y+z ≤ 1, -x ≤ 0, -y ≤ 0, -z ≤ 0.
    let cs = vec![
        Halfspace::new(vec![1.0, 1.0, 1.0], 1.0),
        Halfspace::new(vec![-1.0, 0.0, 0.0], 0.0),
        Halfspace::new(vec![0.0, -1.0, 0.0], 0.0),
        Halfspace::new(vec![0.0, 0.0, -1.0], 0.0),
    ];
    let r = solve(
        &cs,
        &[-1.0, -1.0, -1.0],
        &SeidelConfig::default(),
        &mut rng(),
    );
    let x = r.point().unwrap();
    let sum: f64 = x.iter().sum();
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "optimum on the simplex facet, got {x:?}"
    );
}

#[test]
fn redundant_constraints_ignored() {
    let mut cs = vec![
        Halfspace::new(vec![1.0, 0.0], 1.0),
        Halfspace::new(vec![0.0, 1.0], 1.0),
        Halfspace::new(vec![-1.0, 0.0], 0.0),
        Halfspace::new(vec![0.0, -1.0], 0.0),
    ];
    // Add many redundant copies far away.
    for k in 2..200 {
        cs.push(Halfspace::new(vec![1.0, 1.0], k as f64));
    }
    let r = solve(&cs, &[-1.0, -1.0], &SeidelConfig::default(), &mut rng());
    assert_pt(r.point().unwrap(), &[1.0, 1.0]);
}

#[test]
fn zero_normal_infeasible_constraint() {
    let cs = vec![Halfspace::new(vec![0.0, 0.0], -1.0)];
    assert_eq!(
        solve(&cs, &[1.0, 1.0], &SeidelConfig::default(), &mut rng()),
        LpResult::Infeasible
    );
}

#[test]
fn near_tie_cluster_is_not_falsely_infeasible() {
    // A cluster of near-parallel constraints, all passing within 1e-9
    // of a planted point, is the shape that used to come back falsely
    // `Infeasible` from the full stack: eliminating one cluster
    // constraint against another leaves a reduced constraint with
    // ‖a‖ ≈ spread, and without renormalization the 1-D base case
    // divided by that tiny coefficient and read the amplified rounding
    // error as an empty interval. The planted point is feasible by
    // construction, so `Infeasible` is always wrong here.
    use rand::Rng;
    let mut r = rng();
    for trial in 0..25 {
        let d = 2 + (trial % 2);
        let mut c: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
        let cn = llp_num::linalg::norm(&c);
        if cn < 1e-6 {
            continue;
        }
        c.iter_mut().for_each(|v| *v /= cn);
        let x_star: Vec<f64> = c.iter().map(|v| -v).collect();
        let mut cs = Vec::with_capacity(64 + 2 * d);
        for _ in 0..64 {
            let g: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
            let raw: Vec<f64> = (0..d).map(|j| -c[j] + 1e-3 * g[j]).collect();
            let nn = llp_num::linalg::norm(&raw);
            let a: Vec<f64> = raw.into_iter().map(|v| v / nn).collect();
            let b = dot(&a, &x_star) + r.random_range(0.0..1e-9);
            cs.push(Halfspace::new(a, b));
        }
        for j in 0..d {
            let mut hi = vec![0.0; d];
            hi[j] = 1.0;
            let mut lo = vec![0.0; d];
            lo[j] = -1.0;
            cs.push(Halfspace::new(hi, 2.0));
            cs.push(Halfspace::new(lo, 2.0));
        }
        let res = solve(&cs, &c, &SeidelConfig::default(), &mut r);
        assert!(
            !matches!(res, LpResult::Infeasible),
            "trial {trial}: planted point is feasible, got Infeasible"
        );
    }
}

#[test]
fn feasible_point_satisfies_all_constraints() {
    use rand::Rng;
    let mut r = rng();
    for trial in 0..30 {
        let d = 2 + (trial % 3);
        // Random halfspaces tangent to the unit sphere: a·x ≤ 1 with
        // ‖a‖ = 1 keeps the origin feasible and the region bounded once
        // enough directions accumulate.
        let m = 50;
        let mut cs = Vec::with_capacity(m);
        for _ in 0..m {
            let mut a: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
            let n = llp_num::linalg::norm(&a);
            if n < 1e-6 {
                continue;
            }
            a.iter_mut().for_each(|v| *v /= n);
            cs.push(Halfspace::new(a, 1.0));
        }
        let c: Vec<f64> = (0..d).map(|_| r.random_range(-1.0..1.0)).collect();
        match solve(&cs, &c, &SeidelConfig::default(), &mut r) {
            LpResult::Optimal(x) => {
                for h in &cs {
                    assert!(h.contains_eps(&x, 1e-6), "violated {h:?} at {x:?}");
                }
                // Optimal value must beat the origin (feasible).
                assert!(dot(&c, &x) <= 1e-9);
            }
            LpResult::Unbounded => {} // possible if directions don't surround
            LpResult::Infeasible => panic!("origin is feasible"),
        }
    }
}
