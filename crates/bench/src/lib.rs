//! Experiment harness regenerating every table and figure of the
//! reproduction (see DESIGN.md §3 for the index).
//!
//! Each experiment is a function returning a [`Table`]; the `experiments`
//! binary prints them. A single [`RunBudget`] threads from the `--quick`
//! flag through every table *and* the scenario registry: `Quick` shrinks
//! input sizes so the full suite runs in seconds (used by integration
//! tests); `Full` uses the recorded sizes.
//!
//! The [`report`] module is the machine-readable side: it runs every
//! registered scenario (see `llp_workloads::scenario`) in all four models
//! and serializes the solver stats and meter readings to JSON, one cell
//! per (scenario × model). The [`ooc`] module solves a subset of the
//! same scenarios off chunked store files into cells that also carry
//! the file's byte meters. The [`serve`] module is the load harness: it
//! replays traffic mixes drawn from the same registry over a real TCP
//! socket against `llp_serve` shards and lands per-shard plus fleet
//! rows in the same report (DESIGN.md §7, §9).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ooc;
pub mod report;
pub mod serve;

pub use llp_workloads::scenario::RunBudget;

use llp_baselines::{chan_chen, clarkson_classic, naive};
use llp_bigdata::coordinator as coord_impl;
use llp_bigdata::mpc::{self as mpc_impl, MpcConfig};
use llp_bigdata::streaming::{self as stream_impl, SamplingMode};
use llp_core::clarkson::{ClarksonConfig, WeightFactor};
use llp_core::instances::lp::LpProblem;
use llp_core::instances::meb::MebProblem;
use llp_core::instances::svm::SvmProblem;
use llp_core::lptype::{count_violations, scan_violators_columnar, ColumnarProblem, LpTypeProblem};
use llp_geom::Halfspace;
use llp_lowerbound::{augindex, hard, protocol, reduction};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A printable result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table id and caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Solver RNG for an experiment cell with the given instance seed. The
/// XOR salt decouples the solver's PRNG stream from the generator's: the
/// workload generators seed their own `StdRng` from the same `u64`, and
/// replaying that exact stream for sampling would correlate the
/// algorithm's randomness with the instance bytes (exactly what the
/// iteration-count and failure-rate tables must average away).
pub fn solver_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15)
}

fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Fixture of the T13p experiment: a seeded random 3-D LP of `n`
/// constraints plus the basis of a small prefix — a solution violated by
/// a nontrivial fraction of the input, so the violation scan does real
/// work on both branches.
fn violation_scan_fixture(n: usize) -> (LpProblem, Vec<Halfspace>, llp_geom::Point) {
    let mut rng = solver_rng(14_500);
    let (p, cs) = llp_workloads::random_lp(n, 3, 14_500);
    let sol = p
        .solve_subset(&cs[..64], &mut rng)
        .expect("prefix solvable");
    (p, cs, sol)
}

// --------------------------------------------------------------------
// T1: iterations of Algorithm 1 vs the Lemma 3.3 bound.
// --------------------------------------------------------------------

/// T1 — iterations and per-iteration success rate (Lemma 3.3, Claim 3.2).
pub fn t1_meta_iterations(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T1  Algorithm 1 iterations vs Lemma 3.3 bound 20*nu*r/9 (random LP)",
        &["n", "d", "r", "iters", "succ", "bound", "succ_rate"],
    );
    let ns: &[usize] = budget.pick(&[20_000], &[100_000, 1_000_000]);
    for &n in ns {
        for d in [2usize, 3, 4] {
            for r in [1u32, 2, 4] {
                let seed = 1000 + d as u64 + u64::from(r);
                let mut rng = solver_rng(seed);
                let (p, cs) = llp_workloads::random_lp(n, d, seed);
                let (_, stats) =
                    llp_core::clarkson_solve(&p, &cs, &ClarksonConfig::lean(r), &mut rng)
                        .expect("solvable");
                let nu = p.combinatorial_dim();
                let bound = 20.0 * nu as f64 * f64::from(r) / 9.0;
                let succ_rate = (stats.successful_iterations + 1) as f64 / stats.iterations as f64;
                t.push(vec![
                    n.to_string(),
                    d.to_string(),
                    r.to_string(),
                    stats.iterations.to_string(),
                    stats.successful_iterations.to_string(),
                    f(bound),
                    f(succ_rate),
                ]);
            }
        }
    }
    t
}

// --------------------------------------------------------------------
// T2: streaming passes and space (Theorem 1).
// --------------------------------------------------------------------

/// T2 — streaming passes/space vs `r` (Theorem 1: space ~ n^{1/r}).
pub fn t2_streaming(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T2  Streaming: passes & peak space vs r (Theorem 1, space ~ n^(1/r))",
        &[
            "n",
            "d",
            "r",
            "mode",
            "passes",
            "iters",
            "net",
            "peak_KB",
            "KB/n^(1/r)",
        ],
    );
    let n = budget.pick(50_000, 1_000_000);
    for d in [2usize, 3] {
        for r in [1u32, 2, 3, 4] {
            for (mode, name) in [
                (SamplingMode::TwoPassIid, "2pass"),
                (SamplingMode::OnePassSpeculative, "1pass"),
            ] {
                let seed = 2000 + d as u64 * 10 + u64::from(r);
                let mut rng = solver_rng(seed);
                let (p, cs) = llp_workloads::random_lp(n, d, seed);
                let (sol, stats) =
                    stream_impl::solve(&p, &cs, &ClarksonConfig::lean(r), mode, &mut rng)
                        .expect("solvable");
                assert_eq!(count_violations(&p, &sol, &cs), 0);
                let root = (n as f64).powf(1.0 / f64::from(r));
                let kb = stats.peak_space_bits as f64 / 8192.0;
                t.push(vec![
                    n.to_string(),
                    d.to_string(),
                    r.to_string(),
                    name.to_string(),
                    stats.passes.to_string(),
                    stats.iterations.to_string(),
                    stats.net_size.to_string(),
                    f(kb),
                    f(kb / root),
                ]);
            }
        }
    }
    t
}

// --------------------------------------------------------------------
// T3: coordinator rounds and communication (Theorem 2).
// --------------------------------------------------------------------

/// T3 — coordinator rounds and total communication vs `r` and `k`.
pub fn t3_coordinator(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T3  Coordinator: rounds & communication vs r, k (Theorem 2)",
        &[
            "n", "r", "k", "rounds", "iters", "comm_KB", "KB_up", "KB_down",
        ],
    );
    let n = budget.pick(50_000, 1_000_000);
    for r in [1u32, 2, 4] {
        for k in [2usize, 8, 32] {
            let seed = 3000 + u64::from(r) * 100 + k as u64;
            let mut rng = solver_rng(seed);
            let (p, cs) = llp_workloads::random_lp(n, 2, seed);
            let (sol, stats) = coord_impl::solve(&p, &cs, k, &ClarksonConfig::lean(r), &mut rng)
                .expect("solvable");
            assert_eq!(count_violations(&p, &sol, &cs), 0);
            t.push(vec![
                n.to_string(),
                r.to_string(),
                k.to_string(),
                stats.rounds.to_string(),
                stats.clarkson.iterations.to_string(),
                f(stats.total_bits as f64 / 8192.0),
                f(stats.bits_up as f64 / 8192.0),
                f(stats.bits_down as f64 / 8192.0),
            ]);
        }
    }
    t
}

// --------------------------------------------------------------------
// T4: MPC rounds and load (Theorem 3).
// --------------------------------------------------------------------

/// T4 — MPC rounds and per-machine load vs δ.
pub fn t4_mpc(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T4  MPC: rounds & per-machine load vs delta (Theorem 3, load ~ n^delta)",
        &[
            "n",
            "delta",
            "k",
            "fanout",
            "rounds",
            "iters",
            "load_KB",
            "KB/n^delta",
        ],
    );
    let n = budget.pick(50_000, 1_000_000);
    for delta in [0.25f64, 1.0 / 3.0, 0.5] {
        let seed = 4000 + (delta * 100.0) as u64;
        let mut rng = solver_rng(seed);
        let (p, cs) = llp_workloads::random_lp(n, 2, seed);
        let (sol, stats) =
            mpc_impl::solve(&p, &cs, &MpcConfig::lean(delta), &mut rng).expect("solvable");
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        let load_kb = stats.max_load_bits as f64 / 8192.0;
        let pow = (n as f64).powf(delta);
        t.push(vec![
            n.to_string(),
            f(delta),
            stats.k.to_string(),
            stats.fanout.to_string(),
            stats.rounds.to_string(),
            stats.clarkson.iterations.to_string(),
            f(load_kb),
            f(load_kb / pow),
        ]);
    }
    t
}

// --------------------------------------------------------------------
// T5: comparison against baselines.
// --------------------------------------------------------------------

/// T5 — ours vs Chan–Chen vs classic Clarkson vs naive on 2-D LP.
pub fn t5_baselines(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T5  2-D LP streaming: ours vs Chan-Chen [13] vs classic Clarkson [16] vs naive",
        &["algorithm", "r", "passes", "space_items", "objective"],
    );
    let n = budget.pick(20_000, 500_000);
    let lines = llp_workloads::random_lines(n, 5000);
    // The same LP as halfspaces: y ≥ s·x + c  ⟺  s·x − y ≤ −c; min y.
    let cs: Vec<Halfspace> = lines
        .iter()
        .map(|l| Halfspace::new(vec![l.slope, -1.0], -l.intercept))
        .collect();
    let p = LpProblem::new(vec![0.0, 1.0]);

    for r in [2u32, 3] {
        let mut rng = StdRng::seed_from_u64(5100 + u64::from(r));
        let (sol, stats) = stream_impl::solve(
            &p,
            &cs,
            &ClarksonConfig::lean(r),
            SamplingMode::OnePassSpeculative,
            &mut rng,
        )
        .expect("solvable");
        t.push(vec![
            "ours (Thm 1)".into(),
            r.to_string(),
            stats.passes.to_string(),
            stats.peak_space_items.to_string(),
            f(p.objective_value(&sol)),
        ]);
    }
    for r in [2u32, 3] {
        let res = chan_chen::minimize_envelope(&lines, -1e6, 1e6, r);
        t.push(vec![
            "Chan-Chen [13]".into(),
            r.to_string(),
            res.passes.to_string(),
            res.peak_items.to_string(),
            f(res.y),
        ]);
    }
    {
        let mut rng = StdRng::seed_from_u64(5200);
        let (sol, stats) = clarkson_classic::solve_streaming(&p, &cs, &mut rng).expect("solvable");
        t.push(vec![
            "Clarkson factor-2 [16]".into(),
            "-".into(),
            stats.passes.to_string(),
            stats.peak_space_items.to_string(),
            f(p.objective_value(&sol)),
        ]);
    }
    {
        let mut rng = StdRng::seed_from_u64(5300);
        let (sol, passes, bits) = naive::streaming_store_all(&p, &cs, &mut rng).expect("solvable");
        t.push(vec![
            "naive store-all".into(),
            "-".into(),
            passes.to_string(),
            (bits / (64 * 3)).to_string(),
            f(p.objective_value(&sol)),
        ]);
    }
    t
}

// --------------------------------------------------------------------
// T6/T7: SVM and MEB across models (Theorems 5, 6).
// --------------------------------------------------------------------

/// T6 — hard-margin SVM in all three models (Theorem 5).
pub fn t6_svm(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T6  Linear SVM across models (Theorem 5)",
        &[
            "model",
            "n",
            "d",
            "passes/rounds",
            "space_KB/comm_KB/load_KB",
            "norm(u)^2",
            "viol",
        ],
    );
    let n = budget.pick(20_000, 200_000);
    for d in [2usize, 3] {
        let seed = 6000 + d as u64;
        let mut rng = solver_rng(seed);
        let (pts, _) = llp_workloads::separable_clouds(n, d, 0.5, seed);
        let (p, mode) = (SvmProblem::new(d), SamplingMode::TwoPassIid);
        three_models(&mut t, &p, &pts, (n, d), mode, &mut rng);
    }
    t
}

/// T7 — minimum enclosing ball in all three models (Theorem 6).
pub fn t7_meb(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T7  MEB / Core Vector Machine across models (Theorem 6)",
        &[
            "model",
            "n",
            "d",
            "passes/rounds",
            "space_KB/comm_KB/load_KB",
            "radius",
            "viol",
        ],
    );
    let n = budget.pick(20_000, 200_000);
    for d in [2usize, 3] {
        let seed = 7000 + d as u64;
        let mut rng = solver_rng(seed);
        let pts = llp_workloads::sphere_shell(n, d, 3.0, seed);
        let (p, mode) = (MebProblem::new(d), SamplingMode::OnePassSpeculative);
        three_models(&mut t, &p, &pts, (n, d), mode, &mut rng);
    }
    t
}

/// T6/T7's rows for one instance of `n` points in `d` dimensions:
/// streaming in `mode`, the coordinator with 8 sites and MPC at
/// δ = 1/3, on lean nets at `r = 2`, each with its passes or rounds, its
/// space, communication or load in KB, the answer's objective (`‖u‖²`
/// or the radius) and its violations.
fn three_models<P: ColumnarProblem>(
    t: &mut Table,
    p: &P,
    pts: &[P::Constraint],
    (n, d): (usize, usize),
    mode: SamplingMode,
    rng: &mut StdRng,
) {
    let mut push = |model: &str, sol: P::Solution, steps: u64, bits: u64| {
        t.push(vec![
            model.into(),
            n.to_string(),
            d.to_string(),
            steps.to_string(),
            f(bits as f64 / 8192.0),
            f(p.objective_value(&sol)),
            count_violations(p, &sol, pts).to_string(),
        ]);
    };
    let cfg = ClarksonConfig::lean(2);
    let (sol, s) = stream_impl::solve(p, pts, &cfg, mode, rng).expect("solvable");
    push("streaming", sol, s.passes, s.peak_space_bits);
    let (sol, s) = coord_impl::solve(p, pts, 8, &cfg, rng).expect("solvable");
    push("coordinator(k=8)", sol, s.rounds, s.total_bits);
    let (sol, s) = mpc_impl::solve(p, pts, &MpcConfig::lean(1.0 / 3.0), rng).expect("solvable");
    push("MPC(d=1/3)", sol, s.rounds, s.max_load_bits);
}

// --------------------------------------------------------------------
// T8: weight-factor ablation.
// --------------------------------------------------------------------

/// T8 — ablation of the weight update rate (the paper's key design
/// choice).
pub fn t8_ablation(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T8  Weight-factor ablation: n^(1/r) (paper) vs fixed rates",
        &["factor", "iters", "succ", "passes", "net", "peak_KB"],
    );
    let n = budget.pick(50_000, 500_000);
    let (p, cs) = llp_workloads::random_lp(n, 2, 8000);
    let run = |label: &str, factor: WeightFactor, t: &mut Table| {
        let cfg = ClarksonConfig {
            factor,
            max_iterations: 1_000_000,
            ..ClarksonConfig::lean(2)
        };
        let mut rng = StdRng::seed_from_u64(8100);
        let (sol, stats) =
            stream_impl::solve(&p, &cs, &cfg, SamplingMode::TwoPassIid, &mut rng).expect("ok");
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        t.push(vec![
            label.to_string(),
            stats.iterations.to_string(),
            stats.successful_iterations.to_string(),
            stats.passes.to_string(),
            stats.net_size.to_string(),
            f(stats.peak_space_bits as f64 / 8192.0),
        ]);
    };
    run("2 (classic)", WeightFactor::Fixed(2.0), &mut t);
    run("8", WeightFactor::Fixed(8.0), &mut t);
    run("n^(1/4)", WeightFactor::NthRoot { r: 4 }, &mut t);
    run(
        "n^(1/2) (paper r=2)",
        WeightFactor::NthRoot { r: 2 },
        &mut t,
    );
    run("n (paper r=1)", WeightFactor::NthRoot { r: 1 }, &mut t);
    t
}

// --------------------------------------------------------------------
// T9: eps-net constants calibration.
// --------------------------------------------------------------------

/// T9 — empirical iteration success rate vs the net-size multiplier
/// (justifies the calibrated constants; Lemma 2.2 budget is 1/3
/// failures).
pub fn t9_epsnet(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T9  eps-net size multiplier vs empirical iteration failure rate",
        &["multiplier", "net", "avg_iters", "fail_rate"],
    );
    let n = budget.pick(20_000, 200_000);
    let seeds = budget.pick(5, 20);
    let run = |label: String, cfg: ClarksonConfig, t: &mut Table| {
        let mut total_iters = 0usize;
        let mut total_failures = 0usize;
        let mut net = 0usize;
        for seed in 0..seeds {
            let mut rng = solver_rng(9000 + seed);
            let (p, cs) = llp_workloads::random_lp(n, 2, 9000 + seed);
            if let Ok((_, stats)) = llp_core::clarkson_solve(&p, &cs, &cfg, &mut rng) {
                total_iters += stats.iterations;
                // Failures = iterations that were neither successful nor
                // the final terminating one.
                total_failures += stats.iterations - stats.successful_iterations - 1;
                net = stats.net_size;
            }
        }
        let fail_rate = total_failures as f64 / total_iters.max(1) as f64;
        t.push(vec![
            label,
            net.to_string(),
            f(total_iters as f64 / seeds as f64),
            f(fail_rate),
        ]);
    };
    for mult in [1.0f64, 1.0 / 16.0, 1.0 / 256.0, 1.0 / 1024.0, 1.0 / 4096.0] {
        run(
            f(mult),
            ClarksonConfig {
                net_multiplier: mult,
                ..ClarksonConfig::paper(2)
            },
            &mut t,
        );
    }
    run("floor 2*lam/eps".into(), ClarksonConfig::lean(2), &mut t);
    t
}

// --------------------------------------------------------------------
// T10: the weight envelope of Eq. (2).
// --------------------------------------------------------------------

/// T10 — per-successful-iteration total weight vs the Eq. (2) envelope.
pub fn t10_weight_envelope(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T10  Weight growth vs Eq.(2): n^(t/nu*r) <= w_t(S) <= e^(t/10nu) * n",
        &["t", "log2_w", "lower", "upper", "ok"],
    );
    let n = budget.pick(50_000, 500_000);
    let r = 4u32;
    // Small instances may converge before any weight update; scan seeds
    // until a run with a non-empty trace appears.
    let mut stats = llp_core::clarkson::ClarksonStats::default();
    let mut nu = 3.0;
    let mut log2n = (n as f64).log2();
    for seed in 0..32u64 {
        let mut rng = solver_rng(10_000 + seed);
        let (p, cs) = llp_workloads::random_lp(n, 2, 10_000 + seed);
        let (_, s) =
            llp_core::clarkson_solve(&p, &cs, &ClarksonConfig::lean(r), &mut rng).expect("ok");
        nu = p.combinatorial_dim() as f64;
        log2n = (cs.len() as f64).log2();
        let keep = !s.weight_log2_trace.is_empty();
        stats = s;
        if keep {
            break;
        }
    }
    if stats.weight_log2_trace.is_empty() {
        t.push(vec![
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "converged without weight updates".into(),
        ]);
    }
    for (idx, &log2w) in stats.weight_log2_trace.iter().enumerate() {
        let tt = (idx + 1) as f64;
        let lower = tt / (nu * f64::from(r)) * log2n;
        let upper = tt / (10.0 * nu) * std::f64::consts::E.log2() + log2n;
        let ok = log2w >= lower - 1e-9 && log2w <= upper + 1e-9;
        t.push(vec![
            (idx + 1).to_string(),
            f(log2w),
            f(lower),
            f(upper),
            ok.to_string(),
        ]);
    }
    t
}

// --------------------------------------------------------------------
// T11: Aug-Index reduction (Lemma 5.6).
// --------------------------------------------------------------------

/// T11 — exhaustive/randomized verification of the Lemma 5.6 reduction.
pub fn t11_augindex(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T11  Aug-Index -> TCI reduction (Lemma 5.6): decoded-bit correctness",
        &["n", "cases", "correct", "valid_instances"],
    );
    let sizes: &[usize] = budget.pick(&[8, 32, 256], &[8, 32, 256, 2048]);
    for &n in sizes {
        let mut cases = 0usize;
        let mut correct = 0usize;
        let mut valid = 0usize;
        let mut rng = StdRng::seed_from_u64(11_000 + n as u64);
        use rand::Rng;
        let trials = if n <= 8 { 0 } else { 200 };
        if n <= 8 {
            // Exhaustive.
            for bits in 0..(1u32 << (n - 1)) {
                let x: Vec<u8> = (0..n - 1).map(|j| ((bits >> j) & 1) as u8).collect();
                for i_star in 1..n {
                    let inst = augindex::build_instance(&x, i_star, augindex::default_steep(n));
                    cases += 1;
                    if inst.validate().is_ok() {
                        valid += 1;
                    }
                    if augindex::decode(inst.answer_scan(), i_star) == x[i_star - 1] {
                        correct += 1;
                    }
                }
            }
        }
        for _ in 0..trials {
            let x: Vec<u8> = (0..n - 1).map(|_| u8::from(rng.random_bool(0.5))).collect();
            let i_star = rng.random_range(1..n);
            let inst = augindex::build_instance(&x, i_star, augindex::default_steep(n));
            cases += 1;
            if inst.validate().is_ok() {
                valid += 1;
            }
            if augindex::decode(inst.answer_scan(), i_star) == x[i_star - 1] {
                correct += 1;
            }
        }
        t.push(vec![
            n.to_string(),
            cases.to_string(),
            correct.to_string(),
            valid.to_string(),
        ]);
    }
    t
}

// --------------------------------------------------------------------
// T12: protocol communication scaling.
// --------------------------------------------------------------------

/// T12 — TCI protocol bits vs `r` and `n`; fits `c · r · n^{1/r}` against
/// the Ω(n^{1/r}/r²) lower bound.
pub fn t12_protocol_scaling(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T12  TCI r-round protocol bits vs lower bound (Theorem 7)",
        &["n", "r", "bits", "bits/(r*n^(1/r))", "LB n^(1/r)/r^2"],
    );
    let exps: &[u32] = budget.pick(&[10, 12], &[10, 12, 14, 16, 18]);
    for &e in exps {
        let n = 1usize << e;
        let x: Vec<u8> = (0..n - 1).map(|i| ((i * 13 + 5) % 2) as u8).collect();
        let inst = augindex::build_instance(&x, n / 3 + 1, augindex::default_steep(n));
        for r in [1u32, 2, 3, 4] {
            let (ans, stats) = protocol::r_round(&inst, r);
            assert_eq!(ans, inst.answer_scan());
            let root = (n as f64).powf(1.0 / f64::from(r));
            t.push(vec![
                n.to_string(),
                r.to_string(),
                stats.bits.to_string(),
                f(stats.bits as f64 / (f64::from(r) * root)),
                f(root / (f64::from(r) * f64::from(r))),
            ]);
        }
    }
    t
}

// --------------------------------------------------------------------
// F1: the Figure 1 construction.
// --------------------------------------------------------------------

/// F1 — Figure 1: a TCI instance and its 2-D LP reduction agree.
pub fn f1_tci_lp(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "F1  TCI -> 2-D LP reduction (Figure 1): scan vs LP answers",
        &["instance", "n", "scan", "via_LP", "match"],
    );
    let mut rng = StdRng::seed_from_u64(12_000);
    // The Figure 1a-like instance.
    {
        use llp_num::Rat;
        let ri = Rat::from_int;
        let inst = llp_lowerbound::TciInstance::new(
            vec![ri(0), ri(1), ri(3), ri(6), ri(10), ri(15), ri(21)],
            vec![ri(20), ri(18), ri(15), ri(11), ri(6), ri(0), ri(-7)],
        );
        let scan = inst.answer_scan();
        let lp = reduction::answer_via_lp(&inst, &mut rng);
        t.push(vec![
            "figure-1a".into(),
            inst.len().to_string(),
            scan.to_string(),
            lp.to_string(),
            (scan == lp).to_string(),
        ]);
    }
    let sizes: &[usize] = budget.pick(&[16, 64], &[16, 64, 256, 1024]);
    for &n in sizes {
        use rand::Rng;
        let x: Vec<u8> = (0..n - 1).map(|_| u8::from(rng.random_bool(0.5))).collect();
        let i_star = rng.random_range(1..n);
        let inst = augindex::build_instance(&x, i_star, augindex::default_steep(n));
        let scan = inst.answer_scan();
        let lp = reduction::answer_via_lp(&inst, &mut rng);
        t.push(vec![
            "random".into(),
            n.to_string(),
            scan.to_string(),
            lp.to_string(),
            (scan == lp).to_string(),
        ]);
    }
    t
}

// --------------------------------------------------------------------
// F2: the hard distribution D_r.
// --------------------------------------------------------------------

/// F2 — Figure 2 / Section 5.3.3: the hard distribution's promises and
/// the protocol cost on it.
pub fn f2_hard_distribution(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "F2  Hard distribution D_r (Figure 2): validity, answer embedding, protocol cost",
        &[
            "N",
            "r",
            "n=N^r",
            "valid",
            "ans_ok",
            "max_slope",
            "proto_bits(r)",
            "LB N/r^2",
        ],
    );
    let configs: &[(usize, u32)] =
        budget.pick(&[(8, 1), (8, 2)], &[(16, 1), (16, 2), (8, 3), (6, 4)]);
    for &(n_base, rounds) in configs {
        let params = hard::HardParams { n_base, rounds };
        let trials = budget.pick(5, 20);
        let mut valid = 0usize;
        let mut ans_ok = 0usize;
        let mut max_slope = 0f64;
        let mut bits = 0u64;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(13_000 + seed as u64);
            let h = hard::sample(&params, &mut rng);
            if h.inst.validate().is_ok() {
                valid += 1;
            }
            if h.inst.answer_scan() == h.expected_answer {
                ans_ok += 1;
            }
            max_slope = max_slope.max(h.inst.max_abs_slope().to_f64());
            let (ans, stats) = protocol::r_round(&h.inst, rounds);
            assert_eq!(ans, h.expected_answer);
            bits += stats.bits;
        }
        let lb = n_base as f64 / (f64::from(rounds) * f64::from(rounds));
        t.push(vec![
            n_base.to_string(),
            rounds.to_string(),
            params.total_len().to_string(),
            format!("{valid}/{trials}"),
            format!("{ans_ok}/{trials}"),
            f(max_slope),
            (bits / trials as u64).to_string(),
            f(lb),
        ]);
    }
    t
}

// --------------------------------------------------------------------
// T13: wall-clock scaling.
// --------------------------------------------------------------------

/// T13 — wall-clock time vs `n` (linearity of the per-pass work).
pub fn t13_scaling(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T13  Wall-clock scaling of the streaming solver (r=2)",
        &["n", "time_ms", "ns_per_constraint"],
    );
    let sizes: &[usize] = budget.pick(&[10_000, 40_000], &[10_000, 100_000, 1_000_000, 4_000_000]);
    for &n in sizes {
        let mut rng = solver_rng(14_000);
        let (p, cs) = llp_workloads::random_lp(n, 2, 14_000);
        // llp-analyzer: allow(wall-clock) -- T13/T13p measure wall clock by design; counts are asserted bit-identical separately
        let start = std::time::Instant::now();
        let (sol, _) = stream_impl::solve(
            &p,
            &cs,
            &ClarksonConfig::lean(2),
            SamplingMode::OnePassSpeculative,
            &mut rng,
        )
        .expect("ok");
        let elapsed = start.elapsed();
        assert_eq!(count_violations(&p, &sol, &cs), 0);
        t.push(vec![
            n.to_string(),
            f(elapsed.as_secs_f64() * 1000.0),
            f(elapsed.as_nanos() as f64 / n as f64),
        ]);
    }
    t
}

/// T13p — the t13 parallel variant: wall clock of the violator scan
/// every in-memory solve runs, `scan_violators_columnar`, over one
/// columnar transpose built outside the timer, at `threads=1` vs
/// `threads=N`, with identical counts asserted. The sequential leg is
/// the reference execution of the `llp_par` determinism contract; the
/// speedup column is what the multicore north-star buys (≈1 on a
/// single-core host, where spawn overhead is all that is measured).
pub fn t13p_parallel_scan(budget: RunBudget) -> Table {
    let mut t = Table::new(
        "T13p  Columnar violation scan (scan_violators_columnar) wall clock: threads=1 vs \
         threads=N (bit-identical counts)",
        &[
            "n",
            "threads",
            "t1_ms",
            "tN_ms",
            "speedup",
            "violators",
            "count_match",
        ],
    );
    let sizes: &[usize] = budget.pick(&[200_000], &[1_000_000, 4_000_000]);
    // Compare against the machine's parallelism, but always exercise at
    // least 2 workers so the parallel code path runs even on 1 core.
    let threads_n = llp_par::threads().max(2);
    for &n in sizes {
        let (p, cs, sol) = violation_scan_fixture(n);
        let columns = p.to_columns(&cs);
        let reps = budget.pick(3, 5);
        let timed = |workers: usize| {
            llp_par::with_threads(workers, || {
                let (mut best, mut violators) = (f64::INFINITY, Vec::new());
                for _ in 0..reps {
                    // llp-analyzer: allow(wall-clock) -- T13/T13p measure wall clock by design; counts are asserted bit-identical separately
                    let start = std::time::Instant::now();
                    scan_violators_columnar(&p, &sol, &columns, &mut violators);
                    best = best.min(start.elapsed().as_secs_f64() * 1000.0);
                }
                (best, violators.len())
            })
        };
        let (ms_1, count_1) = timed(1);
        let (ms_n, count_n) = timed(threads_n);
        t.push(vec![
            n.to_string(),
            threads_n.to_string(),
            f(ms_1),
            f(ms_n),
            f(ms_1 / ms_n),
            count_1.to_string(),
            (count_1 == count_n).to_string(),
        ]);
    }
    t
}

/// All experiment ids in order.
pub const ALL: &[&str] = &[
    "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11", "t12", "t13", "t13p", "f1",
    "f2",
];

/// Runs one experiment by id.
pub fn run(id: &str, budget: RunBudget) -> Vec<Table> {
    match id {
        "t1" => vec![t1_meta_iterations(budget)],
        "t2" => vec![t2_streaming(budget)],
        "t3" => vec![t3_coordinator(budget)],
        "t4" => vec![t4_mpc(budget)],
        "t5" => vec![t5_baselines(budget)],
        "t6" => vec![t6_svm(budget)],
        "t7" => vec![t7_meb(budget)],
        "t8" => vec![t8_ablation(budget)],
        "t9" => vec![t9_epsnet(budget)],
        "t10" => vec![t10_weight_envelope(budget)],
        "t11" => vec![t11_augindex(budget)],
        "t12" => vec![t12_protocol_scaling(budget)],
        "t13" => vec![t13_scaling(budget)],
        "t13p" => vec![t13p_parallel_scan(budget)],
        "f1" => vec![f1_tci_lp(budget)],
        "f2" => vec![f2_hard_distribution(budget)],
        "all" => ALL.iter().flat_map(|id| run(id, budget)).collect(),
        other => panic!("unknown experiment id {other:?}; known: {ALL:?} or 'all'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.push(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("bb"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }
}
