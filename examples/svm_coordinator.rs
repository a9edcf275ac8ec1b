//! Distributed hard-margin SVM training in the coordinator model
//! (Theorem 5): the training set is partitioned across `k` sites and the
//! coordinator learns the max-margin separator with communication
//! `~ n^(1/r) + k` instead of shipping the data.
//!
//! ```sh
//! cargo run --release --example svm_coordinator
//! ```

use lodim_lp::bigdata::coordinator;
use lodim_lp::core::clarkson::ClarksonConfig;
use lodim_lp::core::instances::svm::SvmProblem;
use lodim_lp::core::lptype::LpTypeProblem;
use lodim_lp::solver::svm_qp::margin;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let (n, d, true_margin, k) = (150_000, 3, 0.75, 16);

    let (points, normal) = lodim_lp::workloads::separable_clouds(n, d, true_margin, 42);
    println!(
        "SVM: {n} labeled points in d = {d}, separable with margin {true_margin} \
         around normal {normal:?}, partitioned over k = {k} sites"
    );

    let problem = SvmProblem::new(d);
    let ship_all_bits = n as u64 * problem.constraint_bits();

    let (u, stats) = coordinator::solve(&problem, &points, k, &ClarksonConfig::lean(3), &mut rng)
        .expect("the cloud is separable");

    let norm2 = problem.objective_value(&u);
    println!(
        "learned u = {:?} with ||u||^2 = {norm2:.5} (geometric margin {:.4})",
        u.iter()
            .map(|v| (v * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        1.0 / norm2.sqrt(),
    );
    println!(
        "rounds = {}, iterations = {}, communication = {} KiB \
         (naive ship-everything: {} KiB, saving {:.1}x)",
        stats.rounds,
        stats.clarkson.iterations,
        stats.total_bits / 8192,
        ship_all_bits / 8192,
        ship_all_bits as f64 / stats.total_bits as f64,
    );

    // Every margin constraint holds, and the learned margin is at least
    // the planted one (the planted separator is feasible for the QP after
    // scaling, so the optimum cannot be worse than 1/true_margin²).
    for p in &points {
        assert!(margin(&u, &p.x, p.y) >= 1.0 - 1e-6);
    }
    assert!(
        norm2 <= 1.0 / (true_margin * true_margin) + 1e-6,
        "margin worse than planted: ||u||^2 = {norm2}"
    );
    println!("OK: all {n} margin constraints satisfied; margin at least the planted one");
}
