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
//! * `tests/golden/full_grid.txt` — the same 44 bodies at the full
//!   budget, in the same line format. Unlike the quick grid, some of its
//!   coordinator and MPC runs reject a basis, so it pins the rounds and
//!   meters of a failed iteration too.
//! * `tests/golden/one_pass.txt` — every quick-tier registry scenario
//!   under one-pass speculative streaming (`ClarksonConfig::lean(r)`,
//!   the grid's streaming seed): objective bits, iteration, success and
//!   pass counts, peak space in bits and items, and the next `u64` of
//!   the run's RNG, so the reservoirs' draw count is pinned too.
//! * `tests/golden/streaming_paths.txt` — every quick-tier registry
//!   scenario in three streaming runs (two-pass in RAM, two-pass over a
//!   store file cut into 257-row chunks, one-pass in RAM), each under
//!   four configurations: small nets, the same under
//!   `FailurePolicy::Abort`, the same capped at two iterations, and
//!   `paper(1)`, whose net is the whole input, capped at three. A line
//!   holds the line format of `one_pass.txt` or the error, and the file
//!   run's `bytes_read`.
//! * `tests/golden/generated.txt` — the generated bytes themselves:
//!   every registry scenario at the quick and full budgets, and each
//!   public generator at one argument set outside the registry. A line
//!   records the row count, the column dimension, the LP objective bits,
//!   any planted truth, and an FNV-1a-64 hash over every row's
//!   coordinate and extra bits in stream order.
//! * `tests/golden/tables_quick.txt` — the quick experiment tables
//!   T1–T12, F1 and F2, as `experiments --quick` prints them (T13 and
//!   T13p print wall clock and are left out). They run every model,
//!   and `tests/experiments_quick.rs::all_experiments_produce_rows`,
//!   which renders every table anyway, checks this file.
//!
//! Solver, sampler, scan, streaming and generator changes must leave every line
//! as it is. Regenerating the fixtures is a deliberate act, taken only
//! when a change of output is intended (a new scenario, a changed
//! generator, a changed solver rule): run
//! `cargo test --release --test golden_outputs -- --ignored regenerate`
//! and commit the rewritten files together with the reason in CHANGES.md.

use llp_bench::report;
use llp_bench::RunBudget;
use llp_bigdata::ooc::{ChunkSource, FileSource};
use llp_bigdata::streaming::{self, SamplingMode, StreamingStats};
use llp_bigdata::BigDataError;
use llp_core::clarkson::FailurePolicy;
use llp_core::instances::lp::LpProblem;
use llp_core::instances::meb::MebProblem;
use llp_core::instances::svm::{SvmPoint, SvmProblem};
use llp_core::lptype::ColumnarProblem;
use llp_core::ClarksonConfig;
use llp_geom::Halfspace;
use llp_service::Model;
use llp_solver::lexico::lex_min_optimum;
use llp_solver::seidel::{self, SeidelConfig};
use llp_solver::LpResult;
use llp_workloads::scenario::{registry, Scenario, ScenarioData};
use llp_workloads::{
    binding_last_lp, chebyshev_regression, clustered_cloud, degenerate_box_lp, heavy_tailed_clouds,
    near_tie_lp, needle_lp, random_lp, separable_clouds, sphere_shell, write_scenario,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const BASIS_FIXTURE: &str = include_str!("golden/basis_solver.txt");
const GRID_FIXTURE: &str = include_str!("golden/quick_grid.txt");
const FULL_GRID_FIXTURE: &str = include_str!("golden/full_grid.txt");
const ONE_PASS_FIXTURE: &str = include_str!("golden/one_pass.txt");
const STREAMING_FIXTURE: &str = include_str!("golden/streaming_paths.txt");
const GENERATED_FIXTURE: &str = include_str!("golden/generated.txt");
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

/// The grid fixture text the current code produces at `budget`.
fn render_grid(budget: RunBudget) -> String {
    let mut out = String::new();
    for c in report::run_scenarios(budget, "golden").cells {
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

/// A streaming run's answer (objective bits, iteration, success and
/// pass counts, peak space in bits and items) or its error, then the
/// next `u64` of the run's RNG.
fn stream_line<P: ColumnarProblem>(
    p: &P,
    out: Result<(P::Solution, StreamingStats), BigDataError>,
    rng: &mut StdRng,
) -> String {
    let mut s = match out {
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

fn one_pass_line<P: ColumnarProblem>(sc: &Scenario, p: &P, data: &[P::Constraint]) -> String {
    let mut rng = StdRng::seed_from_u64(report::solver_seed(sc, "streaming"));
    let cfg = ClarksonConfig::lean(sc.r);
    let out = streaming::solve(p, data, &cfg, SamplingMode::OnePassSpeculative, &mut rng);
    stream_line(p, out, &mut rng)
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

/// The four configurations of `streaming_paths.txt`: nets far below
/// Eq. (1), so some iterations fail the ε test, under both failure
/// policies and capped at two iterations, and a net of the whole input.
fn stream_configs() -> [(&'static str, ClarksonConfig); 4] {
    let small = ClarksonConfig {
        net_multiplier: 1.0 / 4096.0,
        net_floor_coeff: 0.25,
        max_iterations: 20,
        ..ClarksonConfig::paper(3)
    };
    let abort = ClarksonConfig {
        failure_policy: FailurePolicy::Abort,
        ..small
    };
    let capped = ClarksonConfig {
        max_iterations: 2,
        ..small
    };
    let take_all = ClarksonConfig {
        max_iterations: 3,
        ..ClarksonConfig::paper(1)
    };
    [
        ("small", small),
        ("abort", abort),
        ("cap2", capped),
        ("take_all", take_all),
    ]
}

/// One scenario's `streaming_paths.txt` lines; `path` is its store file.
fn streaming_lines<P: ColumnarProblem>(
    sc: &Scenario,
    p: &P,
    data: &[P::Constraint],
    path: &Path,
    out: &mut String,
) {
    let seed = report::solver_seed(sc, "streaming");
    for (name, cfg) in stream_configs() {
        let mut rng = StdRng::seed_from_u64(seed);
        let ram = streaming::solve(p, data, &cfg, SamplingMode::TwoPassIid, &mut rng);
        let _ = writeln!(
            out,
            "{} two_pass {name} {}",
            sc.name,
            stream_line(p, ram, &mut rng)
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let mut source = FileSource::open(path).expect("open the store file");
        let file = streaming::solve_chunked(p, &mut source, &cfg, &mut rng);
        let line = stream_line(p, file, &mut rng);
        let _ = writeln!(
            out,
            "{} two_pass_file {name} {line} bytes_read={}",
            sc.name,
            source.bytes_read()
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let one = streaming::solve(p, data, &cfg, SamplingMode::OnePassSpeculative, &mut rng);
        let _ = writeln!(
            out,
            "{} one_pass {name} {}",
            sc.name,
            stream_line(p, one, &mut rng)
        );
    }
}

/// The streaming-paths fixture text the current code produces. Each
/// scenario is written to a store file in `dir` first.
fn render_streaming_paths(dir: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(dir);
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let mut out = String::new();
    for sc in registry(RunBudget::Quick) {
        let path = dir.join(format!("{}.llps", sc.name));
        write_scenario(&sc, &path, 257).expect("write the store file");
        match sc.generate() {
            ScenarioData::Lp(p, cs) => streaming_lines(&sc, &p, &cs, &path, &mut out),
            ScenarioData::Svm(p, pts) => streaming_lines(&sc, &p, &pts, &path, &mut out),
            ScenarioData::Meb(p, pts) => streaming_lines(&sc, &p, &pts, &path, &mut out),
        }
    }
    out
}

/// The quick tables of `tables_quick.txt`: every experiment but T13 and
/// T13p, each table followed by a blank line, as `experiments --quick`
/// prints it.
fn render_tables() -> String {
    let mut out = String::new();
    for id in llp_bench::ALL.iter().filter(|id| !id.starts_with("t13")) {
        for t in llp_bench::run(id, RunBudget::Quick) {
            let _ = writeln!(out, "{}", t.render());
        }
    }
    out
}

/// Hex bits of every value, comma-separated.
fn bits(values: &[f64]) -> String {
    let hex: Vec<String> = values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    hex.join(",")
}

/// Row count, column dimension, the extra fields, and an FNV-1a-64 hash
/// over every row's coordinate and extra bits (little-endian), in
/// stream order.
fn rows_line<P: ColumnarProblem>(p: &P, data: &[P::Constraint], fields: &str) -> String {
    let columns = p.to_columns(data);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut coords = Vec::new();
    for i in 0..columns.len() {
        let extra = columns.row(i, &mut coords);
        for v in coords.iter().chain([&extra]) {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!(
        "rows={} dim={}{fields} fnv={h:016x}",
        columns.len(),
        columns.dim()
    )
}

fn lp_line(p: &LpProblem, cs: &[Halfspace], truth: &[f64]) -> String {
    let mut fields = format!(" objective={}", bits(&p.objective));
    if !truth.is_empty() {
        let _ = write!(fields, " truth={}", bits(truth));
    }
    rows_line(p, cs, &fields)
}

fn svm_line(pts: &[SvmPoint], u: &[f64]) -> String {
    rows_line(
        &SvmProblem::new(u.len()),
        pts,
        &format!(" truth={}", bits(u)),
    )
}

/// The generated-bytes fixture text the current generators produce.
fn render_generated() -> String {
    let mut out = String::new();
    for budget in [RunBudget::Quick, RunBudget::Full] {
        for sc in registry(budget) {
            let line = match sc.generate() {
                ScenarioData::Lp(p, cs) => lp_line(&p, &cs, &[]),
                ScenarioData::Svm(p, pts) => rows_line(&p, &pts, ""),
                ScenarioData::Meb(p, pts) => rows_line(&p, &pts, ""),
            };
            let _ = writeln!(out, "{} {} {line}", budget.name(), sc.name);
        }
    }
    let mut gen = |args: &str, line: String| {
        let _ = writeln!(out, "{args} {line}");
    };
    let (p, cs) = random_lp(1_000, 4, 0x6E01);
    gen("random_lp n=1000 d=4", lp_line(&p, &cs, &[]));
    let (p, cs, w_star) = chebyshev_regression(700, 3, 0.2, 0x6E02);
    gen(
        "chebyshev_regression n=700 d=3 noise=0.2",
        lp_line(&p, &cs, &w_star),
    );
    let (p, cs) = degenerate_box_lp(1_001, 4, 0x6E03);
    gen("degenerate_box_lp n=1001 d=4", lp_line(&p, &cs, &[]));
    let (p, cs) = near_tie_lp(900, 4, 0x6E04);
    gen("near_tie_lp n=900 d=4", lp_line(&p, &cs, &[]));
    let (p, cs) = needle_lp(1_500, 3, 6, 0x6E05);
    gen("needle_lp n=1500 d=3 needles=6", lp_line(&p, &cs, &[]));
    let (p, cs) = random_lp(1_200, 3, 0x6E06);
    let cs = binding_last_lp(&p, cs, 0x6E07);
    gen("binding_last_lp n=1200 d=3", lp_line(&p, &cs, &[]));
    let (pts, u) = separable_clouds(800, 4, 0.25, 0x6E08);
    gen("separable_clouds n=800 d=4 margin=0.25", svm_line(&pts, &u));
    let (pts, u) = heavy_tailed_clouds(800, 2, 1.0, 0x6E09);
    gen("heavy_tailed_clouds n=800 d=2 margin=1", svm_line(&pts, &u));
    let pts = sphere_shell(600, 5, 1.5, 0x6E0A);
    gen(
        "sphere_shell n=600 d=5 radius=1.5",
        rows_line(&MebProblem::new(5), &pts, ""),
    );
    let pts = clustered_cloud(700, 4, 3.0, 3, 0x6E0B);
    let line = rows_line(&MebProblem::new(4), &pts, "");
    gen("clustered_cloud n=700 d=4 radius=3 clusters=3", line);
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
        registry(RunBudget::Quick).len() * Model::ALL.len(),
        "the fixture covers every quick cell"
    );
    assert_matches(
        GRID_FIXTURE,
        &render_grid(RunBudget::Quick),
        "quick-grid bodies",
    );
}

#[test]
fn full_grid_bodies_reproduce_the_golden_fixture() {
    assert_eq!(
        FULL_GRID_FIXTURE.lines().count(),
        registry(RunBudget::Full).len() * Model::ALL.len(),
        "the fixture covers every full cell"
    );
    assert_matches(
        FULL_GRID_FIXTURE,
        &render_grid(RunBudget::Full),
        "full-grid bodies",
    );
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

#[test]
fn streaming_paths_reproduce_the_golden_fixture() {
    assert_eq!(
        STREAMING_FIXTURE.lines().count(),
        12 * registry(RunBudget::Quick).len(),
        "the fixture covers three runs under four configurations per quick scenario"
    );
    let actual = render_streaming_paths("target/tmp-ooc-tests/golden-streaming");
    assert_matches(STREAMING_FIXTURE, &actual, "streaming runs");
}

#[test]
fn generators_reproduce_the_golden_fixture() {
    assert_eq!(
        GENERATED_FIXTURE.lines().count(),
        2 * registry(RunBudget::Quick).len() + 10,
        "the fixture covers every registry scenario at both budgets and ten generators"
    );
    assert_matches(
        GENERATED_FIXTURE,
        &render_generated(),
        "generated instances",
    );
}

/// Rewrites every fixture from the current code. Ignored: run it only
/// when a change of output is intended.
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(format!("{GOLDEN_DIR}/basis_solver.txt"), render_basis())
        .expect("write basis fixture");
    std::fs::write(
        format!("{GOLDEN_DIR}/quick_grid.txt"),
        render_grid(RunBudget::Quick),
    )
    .expect("write grid fixture");
    std::fs::write(
        format!("{GOLDEN_DIR}/full_grid.txt"),
        render_grid(RunBudget::Full),
    )
    .expect("write full grid fixture");
    std::fs::write(format!("{GOLDEN_DIR}/one_pass.txt"), render_one_pass())
        .expect("write one-pass fixture");
    std::fs::write(
        format!("{GOLDEN_DIR}/streaming_paths.txt"),
        render_streaming_paths("target/tmp-ooc-tests/golden-regenerate"),
    )
    .expect("write streaming-paths fixture");
    std::fs::write(format!("{GOLDEN_DIR}/generated.txt"), render_generated())
        .expect("write generated fixture");
    std::fs::write(format!("{GOLDEN_DIR}/tables_quick.txt"), render_tables())
        .expect("write quick tables fixture");
}
