//! Golden fixtures that pin outputs bit for bit, generated before the
//! flat-row rewrite of the LP basis solvers and kept for every later
//! performance change:
//!
//! * `tests/golden/basis_solver.txt` — `lex_min_optimum` and
//!   `seidel::solve` on the LP generator families. A line records the
//!   `LpResult` variant, the hex bits of every coordinate of the optimum,
//!   and the next `u64` the solver's RNG yields after the solve, so the
//!   number of random draws is pinned too (Algorithm 1 shares that RNG
//!   with its ε-net sampler).
//! * `tests/golden/quick_grid.txt` — every quick-tier registry scenario
//!   in all four models (44 `solve_model` bodies): objective bits,
//!   violation, iteration, pass and round counts, and the space,
//!   communication, max-round, load and total-load meters in bits. The
//!   determinism contract makes the bodies independent of `LLP_THREADS`.
//! * `tests/golden/one_pass.txt` — every quick-tier registry scenario
//!   under one-pass speculative streaming (`ClarksonConfig::lean(r)`,
//!   the grid's streaming seed): objective bits, iteration, success and
//!   pass counts, peak space in bits and items, and the next `u64` of
//!   the run's RNG, so the reservoirs' draw count is pinned too.
//!
//! Solver, sampler, scan and streaming speed-ups must leave every line
//! as it is. Regenerating the fixtures is a deliberate act, taken only
//! when a change of output is intended (a new scenario, a changed
//! generator, a changed solver rule): run
//! `cargo test --release --test golden_outputs -- --ignored regenerate`
//! and commit the rewritten files together with the reason in CHANGES.md.

use llp_bench::report::{self, MODELS};
use llp_bench::RunBudget;
use llp_bigdata::streaming::{self, SamplingMode};
use llp_core::instances::lp::LpProblem;
use llp_core::lptype::ColumnarProblem;
use llp_core::ClarksonConfig;
use llp_geom::Halfspace;
use llp_solver::lexico::lex_min_optimum;
use llp_solver::seidel::{self, SeidelConfig};
use llp_solver::LpResult;
use llp_workloads::scenario::{registry, Scenario, ScenarioData};
use llp_workloads::{
    binding_last_lp, chebyshev_regression, degenerate_box_lp, near_tie_lp, needle_lp, random_lp,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt::Write as _;

const BASIS_FIXTURE: &str = include_str!("golden/basis_solver.txt");
const GRID_FIXTURE: &str = include_str!("golden/quick_grid.txt");
const ONE_PASS_FIXTURE: &str = include_str!("golden/one_pass.txt");
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Compares `actual` line by line against `fixture`, listing every line
/// that changed.
fn assert_matches(fixture: &str, actual: &str, what: &str) {
    let want: Vec<&str> = fixture.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    assert_eq!(got.len(), want.len(), "{what}: line count");
    let diffs: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} {what} changed:\n{}",
        diffs.len(),
        want.len(),
        diffs.join("\n")
    );
}

/// One named instance: constraints, objective and solver configuration.
struct Case {
    name: String,
    constraints: Vec<Halfspace>,
    objective: Vec<f64>,
    cfg: SeidelConfig,
}

fn case(name: String, (p, cs): (LpProblem, Vec<Halfspace>)) -> Case {
    Case {
        name,
        constraints: cs,
        objective: p.objective,
        cfg: SeidelConfig::default(),
    }
}

fn unit(d: usize, j: usize, sign: f64) -> Vec<f64> {
    let mut a = vec![0.0; d];
    a[j] = sign;
    a
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for d in 1..=5 {
        for (k, m) in [10usize, 100, 1_000, 10_000].into_iter().enumerate() {
            let seed = 1_000 + 10 * d as u64 + k as u64;
            out.push(case(
                format!("random_lp d={d} m={m}"),
                random_lp(m, d, seed),
            ));
        }
    }
    for d in 2..=4 {
        for m in [100usize, 1_000] {
            out.push(case(
                format!("degenerate_box_lp d={d} m={m}"),
                degenerate_box_lp(m, d, 20 + d as u64),
            ));
            out.push(case(
                format!("near_tie_lp d={d} m={m}"),
                near_tie_lp(m, d, 30 + d as u64),
            ));
        }
    }
    for d in [2usize, 3] {
        out.push(case(
            format!("needle_lp d={d} m=2000"),
            needle_lp(2_000, d, 4, 40 + d as u64),
        ));
        let (p, cs) = random_lp(2_000, d, 50 + d as u64);
        let ordered = binding_last_lp(&p, cs, 60 + d as u64);
        out.push(case(format!("binding_last_lp d={d} m=2000"), (p, ordered)));
    }
    let (p, cs, _) = chebyshev_regression(1_000, 2, 0.05, 70);
    out.push(case("chebyshev_regression d=3 m=2000".into(), (p, cs)));

    // x0 ≤ 0 and x0 ≥ 1 among feasible filler: empty.
    let (p, mut cs) = random_lp(200, 3, 80);
    cs.insert(57, Halfspace::new(unit(3, 0, 1.0), 0.0));
    cs.push(Halfspace::new(unit(3, 0, -1.0), -1.0));
    out.push(case("infeasible d=3 m=202".into(), (p, cs)));

    // A half-space of directions only: the objective runs off to the box.
    let cs = (0..100)
        .map(|i| {
            let t = i as f64 / 100.0;
            Halfspace::new(vec![-1.0, t - 0.5, 0.25 * t], 1.0)
        })
        .collect();
    out.push(case(
        "unbounded d=3 m=100".into(),
        (LpProblem::new(vec![-1.0, 0.0, 0.0]), cs),
    ));

    // A bounded region around (15, 0, 0) that reaches x0 ≈ 16, cut by a
    // regularization box of half-width 15.5: maximizing x0 pins the
    // optimum to the box face, which both solvers report as unbounded.
    let (_, cs) = random_lp(500, 3, 90);
    let shifted = cs
        .into_iter()
        .map(|h| {
            let b = h.b + 15.0 * h.a[0];
            Halfspace::new(h.a, b)
        })
        .collect::<Vec<_>>();
    out.push(Case {
        name: "box_pinned d=3 m=500 M=15.5".into(),
        constraints: shifted,
        objective: vec![-1.0, 0.25, 0.5],
        cfg: SeidelConfig {
            box_half_width: 15.5,
            eps: 1e-9,
        },
    });
    out
}

fn describe(r: &LpResult, rng: &mut StdRng) -> String {
    let mut s = match r {
        LpResult::Optimal(x) => {
            let bits: Vec<String> = x.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
            format!("Optimal {}", bits.join(","))
        }
        LpResult::Infeasible => "Infeasible".to_string(),
        LpResult::Unbounded => "Unbounded".to_string(),
    };
    let _ = write!(s, " rng_after={:016x}", rng.next_u64());
    s
}

/// The basis-solver fixture text the current solvers produce.
fn render_basis() -> String {
    let mut out = String::new();
    for (i, c) in cases().into_iter().enumerate() {
        let seed = 0x5EED_0000 + i as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let r = lex_min_optimum(&c.constraints, &c.objective, &c.cfg, &mut rng);
        let _ = writeln!(out, "{} | lex | {}", c.name, describe(&r, &mut rng));
        let mut rng = StdRng::seed_from_u64(seed);
        let r = seidel::solve(&c.constraints, &c.objective, &c.cfg, &mut rng);
        let _ = writeln!(out, "{} | seidel | {}", c.name, describe(&r, &mut rng));
    }
    out
}

/// The quick-grid fixture text the current code produces.
fn render_grid() -> String {
    let mut out = String::new();
    for c in report::run_scenarios(RunBudget::Quick, "golden").cells {
        let _ = writeln!(
            out,
            "{} {} n={} objective={:016x} violations={} iterations={} passes={} rounds={} \
             space={} comm={} max_round={} load={} total_load={}",
            c.scenario,
            c.model,
            c.n,
            c.objective.to_bits(),
            c.violations,
            c.iterations,
            c.passes,
            c.rounds,
            c.space_bits,
            c.comm_bits,
            c.max_round_bits,
            c.load_bits,
            c.total_load_bits,
        );
    }
    out
}

fn one_pass_line<P: ColumnarProblem>(sc: &Scenario, p: &P, data: &[P::Constraint]) -> String {
    let mut rng = StdRng::seed_from_u64(report::solver_seed(sc, "streaming"));
    let cfg = ClarksonConfig::lean(sc.r);
    let mut s = match streaming::solve(p, data, &cfg, SamplingMode::OnePassSpeculative, &mut rng) {
        Ok((sol, st)) => format!(
            "objective={:016x} iterations={} successful={} passes={} space_bits={} space_items={}",
            p.objective_value(&sol).to_bits(),
            st.iterations,
            st.successful_iterations,
            st.passes,
            st.peak_space_bits,
            st.peak_space_items,
        ),
        Err(e) => format!("error={e:?}"),
    };
    let _ = write!(s, " rng_after={:016x}", rng.next_u64());
    s
}

/// The one-pass streaming fixture text the current code produces.
fn render_one_pass() -> String {
    let mut out = String::new();
    for sc in registry(RunBudget::Quick) {
        let line = match sc.generate() {
            ScenarioData::Lp(p, cs) => one_pass_line(&sc, &p, &cs),
            ScenarioData::Svm(p, pts) => one_pass_line(&sc, &p, &pts),
            ScenarioData::Meb(p, pts) => one_pass_line(&sc, &p, &pts),
        };
        let _ = writeln!(out, "{} {line}", sc.name);
    }
    out
}

#[test]
fn basis_solvers_reproduce_the_golden_fixture() {
    for variant in ["Optimal", "Infeasible", "Unbounded"] {
        assert!(
            BASIS_FIXTURE
                .lines()
                .any(|l| l.contains(&format!("| {variant}"))),
            "no {variant} line in the fixture"
        );
    }
    assert_matches(BASIS_FIXTURE, &render_basis(), "basis solves");
}

#[test]
fn quick_grid_bodies_reproduce_the_golden_fixture() {
    assert_eq!(
        GRID_FIXTURE.lines().count(),
        registry(RunBudget::Quick).len() * MODELS.len(),
        "the fixture covers every quick cell"
    );
    assert_matches(GRID_FIXTURE, &render_grid(), "quick-grid bodies");
}

#[test]
fn one_pass_streaming_reproduces_the_golden_fixture() {
    assert_eq!(
        ONE_PASS_FIXTURE.lines().count(),
        registry(RunBudget::Quick).len(),
        "the fixture covers every quick scenario"
    );
    assert_matches(ONE_PASS_FIXTURE, &render_one_pass(), "one-pass runs");
}

/// Rewrites every fixture from the current code. Ignored: run it only
/// when a change of output is intended.
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(format!("{GOLDEN_DIR}/basis_solver.txt"), render_basis())
        .expect("write basis fixture");
    std::fs::write(format!("{GOLDEN_DIR}/quick_grid.txt"), render_grid())
        .expect("write grid fixture");
    std::fs::write(format!("{GOLDEN_DIR}/one_pass.txt"), render_one_pass())
        .expect("write one-pass fixture");
}
