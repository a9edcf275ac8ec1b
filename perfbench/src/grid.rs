//! `grid_full`: the 11 registry scenarios × 4 models at the Full budget,
//! solved one at a time in a fixed cycle through
//! `llp_service::solve_model`, with solver threads at their default.

use crate::load::{self, OpError, Timed};
use crate::trace::{self, Name, OpTree, Traced};
use crate::{Ctx, Layers, Workload};
use llp_bench::report::{solver_seed, COORD_SITES, MPC_DELTA, OBJECTIVE_TOL};
use llp_core::lptype::ColumnarProblem;
use llp_service::{solve_model, ExecOutcome, ExecParams, Model};
use llp_workloads::scenario::{registry, RunBudget, Scenario, ScenarioData};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::Instant;

pub struct Grid;

struct Cell {
    scenario: usize,
    model: Model,
    params: ExecParams,
    seed: u64,
}

pub struct GridState {
    scenarios: Vec<Scenario>,
    data: Vec<ScenarioData>,
    /// The cycle: every (scenario, model) cell once, in a seeded order.
    cells: Vec<Cell>,
    /// Per-scenario objective every model must agree with.
    reference: Vec<f64>,
    /// `(violates, from_row)` calls summed over traced ops.
    counted: Mutex<(u64, u64)>,
}

fn solve_cell<P: ColumnarProblem>(
    p: &P,
    data: &[P::Constraint],
    cell: &Cell,
) -> Result<ExecOutcome, String> {
    let mut rng = StdRng::seed_from_u64(cell.seed);
    solve_model(p, data, cell.model, &cell.params, &mut rng)
}

impl GridState {
    fn solve(&self, cell: &Cell, traced: bool) -> Result<ExecOutcome, String> {
        match (&self.data[cell.scenario], traced) {
            (ScenarioData::Lp(p, cs), false) => solve_cell(p, cs, cell),
            (ScenarioData::Lp(p, cs), true) => solve_cell(&Traced(p), cs, cell),
            (ScenarioData::Svm(p, pts), false) => solve_cell(p, pts, cell),
            (ScenarioData::Svm(p, pts), true) => solve_cell(&Traced(p), pts, cell),
            (ScenarioData::Meb(p, pts), false) => solve_cell(p, pts, cell),
            (ScenarioData::Meb(p, pts), true) => solve_cell(&Traced(p), pts, cell),
        }
    }

    fn check(&self, cell: &Cell, out: &ExecOutcome) -> Result<(), String> {
        let name = format!(
            "{}/{}",
            self.scenarios[cell.scenario].name,
            cell.model.name()
        );
        if out.body.violations != 0 {
            return Err(format!(
                "{name}: {} violated constraints",
                out.body.violations
            ));
        }
        let (o, r) = (out.body.objective, self.reference[cell.scenario]);
        if (o - r).abs() > OBJECTIVE_TOL * r.abs().max(o.abs()).max(1.0) {
            return Err(format!("{name}: objective {o} disagrees with {r}"));
        }
        Ok(())
    }
}

impl Workload for Grid {
    type State = GridState;

    fn setup(&self, ctx: &Ctx) -> Result<GridState, String> {
        let scenarios = registry(RunBudget::Full);
        let data: Vec<ScenarioData> = scenarios
            .iter()
            .map(|sc| trace::scope(Name::Generate, || sc.generate()))
            .collect();
        let mut cells = Vec::new();
        for (i, sc) in scenarios.iter().enumerate() {
            for &model in Model::ALL {
                cells.push(Cell {
                    scenario: i,
                    model,
                    params: ExecParams {
                        r: sc.r,
                        coord_sites: COORD_SITES,
                        mpc_delta: MPC_DELTA,
                        skew: sc.skew,
                    },
                    // The grid's own solver seed: every run does the
                    // same work, and `--seed` only orders the cycle.
                    seed: solver_seed(sc, model.name()),
                });
            }
        }
        cells.shuffle(&mut StdRng::seed_from_u64(load::mix(
            ctx.seed,
            "grid_full",
            0,
        )));
        let mut st = GridState {
            reference: vec![f64::NAN; scenarios.len()],
            scenarios,
            data,
            cells,
            counted: Mutex::new((0, 0)),
        };
        // Warm-up pass: every cell once. The RAM objective becomes the
        // scenario's reference, and every model must agree with it.
        let mut outs = Vec::new();
        for cell in &st.cells {
            let out = st.solve(cell, false)?;
            if cell.model == Model::Ram {
                st.reference[cell.scenario] = out.body.objective;
            }
            outs.push(out);
        }
        for (cell, out) in st.cells.iter().zip(&outs) {
            st.check(cell, out)?;
        }
        Ok(st)
    }

    fn shape(&self, st: &GridState) -> (usize, usize, u32) {
        (1, st.cells.len(), std::process::id())
    }

    fn op(&self, st: &GridState, _tid: usize, i: usize) -> Result<f64, OpError> {
        let cell = &st.cells[i % st.cells.len()];
        let traced = trace::enabled();
        let before = if traced { trace::counts() } else { (0, 0) };
        let t = Instant::now();
        let span = trace::open(Name::SolveModel);
        let out = st.solve(cell, traced);
        let wall_ns = out.as_ref().map_or(0, |o| (o.wall_ms * 1e6) as u64);
        trace::close(span, wall_ns, cell.model as u64);
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        if traced {
            let after = trace::counts();
            let mut c = st.counted.lock().expect("counter lock");
            c.0 += after.0 - before.0;
            c.1 += after.1 - before.1;
        }
        let out = out.map_err(OpError::Failed)?;
        st.check(cell, &out).map_err(OpError::Failed)?;
        Ok(ms)
    }

    fn layers(
        &self,
        st: &mut GridState,
        spans: Vec<trace::Span>,
        t: &Timed,
    ) -> Result<Layers, String> {
        let (ops, setup) = OpTree::group(spans);
        let n = ops.len() as f64;
        if ops.len() != t.attempted {
            return Err(format!("{} op traces for {} ops", ops.len(), t.attempted));
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        let (mut core_self, mut bigdata_self, mut exec_over, mut cols) = (0u64, 0u64, 0u64, 0u64);
        for tree in &ops {
            tree.check_nesting()?;
            let root = tree.root()?;
            let sm = tree
                .named(Name::SolveModel)
                .next()
                .ok_or("op without solve_model")?;
            let ram = sm.b == Model::Ram as u64;
            let wall = sm.a;
            // exec.rs builds the RAM model's columns before starting its
            // solve timer; every other model transposes inside it.
            let outside = |s: &trace::Span| ram && s.name == Name::ToColumns;
            let inner = tree.child_union(sm, |s| !outside(s));
            let outer = tree.child_union(sm, outside);
            let model_self = wall as i128 - inner as i128;
            let exec_self = sm.dur() as i128 - wall as i128 - outer as i128;
            let op_self = root.dur() as i128 - sm.dur() as i128;
            if model_self < 0 || exec_self < 0 || op_self < 0 {
                return Err(format!(
                    "negative self time (model {model_self} ns, exec {exec_self} ns, op {op_self} ns)"
                ));
            }
            if ram {
                core_self += model_self as u64;
            } else {
                bigdata_self += model_self as u64;
            }
            exec_over += sm.dur() - wall;
            cols += tree.busy(Name::ToColumns);
        }
        let generate: u64 = setup
            .iter()
            .filter(|s| s.name == Name::Generate)
            .map(|s| s.dur())
            .sum();
        let (violates, from_row) = *st.counted.lock().expect("counter lock");
        let mut l = Layers::new();
        trace::solver_layers(&ops, &mut l);
        l.insert("llp_workloads.generate_ms", ms(generate));
        l.insert("llp_core.to_columns_ms", ms(cols) / n);
        l.insert("llp_core.self_ms", ms(core_self) / n);
        l.insert("llp_bigdata.self_ms", ms(bigdata_self) / n);
        l.insert("llp_bigdata.from_row", from_row as f64 / n);
        l.insert("llp_bigdata.violates", violates as f64 / n);
        l.insert("llp_service.exec_overhead_ms", ms(exec_over) / n);
        Ok(l)
    }
}
