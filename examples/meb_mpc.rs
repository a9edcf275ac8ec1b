//! Minimum enclosing ball (Core Vector Machine substrate) in the MPC
//! model (Theorem 6): `n^(1-δ)` machines, `O(d/δ²)` rounds, `~n^δ` load.
//!
//! ```sh
//! cargo run --release --example meb_mpc
//! ```

use lodim_lp::bigdata::mpc::{self, MpcConfig};
use lodim_lp::core::instances::meb::MebProblem;
use lodim_lp::core::lptype::count_violations;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (n, d, radius) = (200_000, 3, 4.0);

    // Points on a sphere of known radius: the MEB radius is checkable.
    let points = lodim_lp::workloads::sphere_shell(n, d, radius, 42);
    println!("MEB: {n} points on the {d}-sphere of radius {radius}");

    let problem = MebProblem::new(d);
    for delta in [0.3f64, 0.5] {
        let mut run_rng = StdRng::seed_from_u64(200 + (delta * 10.0) as u64);
        let (ball, stats) = mpc::solve(&problem, &points, &MpcConfig::lean(delta), &mut run_rng)
            .expect("MEB always exists");
        println!(
            "delta = {delta}: {} machines (fanout {}), {} rounds, max load {} KiB, \
             radius = {:.5}",
            stats.k,
            stats.fanout,
            stats.rounds,
            stats.max_load_bits / 8192,
            ball.radius,
        );
        assert_eq!(count_violations(&problem, &ball, &points), 0);
        assert!(ball.radius <= radius + 1e-6, "radius exceeds the sphere");
        assert!(ball.radius >= 0.9 * radius, "radius implausibly small");
    }
    println!("OK: every point enclosed; radius matches the planted sphere");
}
