//! The file-backed out-of-core harness (`experiments ooc`).
//!
//! Each selected scenario is streamed to a chunked store file
//! (`llp_store` via `llp_workloads::write_scenario` — the generator
//! never materializes the instance), then solved with every constraint
//! byte coming back from that file:
//!
//! * **streaming** — `llp_bigdata::streaming::solve_chunked` over a
//!   [`FileSource`]: every pass of Algorithm 1 re-reads and
//!   re-checksums the file, so the cell's `bytes_read` is
//!   `passes × file_bytes` (plus the open-time header validation).
//!   With the grid's solver seed this run is bit-identical to the
//!   in-RAM grid cell — same iterations, passes, and objective bits.
//! * **ram / mpc** — one full load through the provenance-checked
//!   `read_scenario_data` loader, then the shared `llp_service`
//!   dispatch (the same code path as the report grid).
//! * **coordinator** — sites load their shards straight from the file
//!   through `read_scenario_partitioned` (geometrically skewed layouts
//!   included), then `llp_bigdata::coordinator::solve_partitioned`.
//!
//! At [`RunBudget::Huge`] only the streaming model runs — the whole
//! point of the tier is an instance (`n ≥ 10^8`) that is never held in
//! RAM — and the scenario set shrinks to `lp_uniform`.

use crate::report::{solver_seed, OocCell, COORD_SITES};
use crate::RunBudget;
use llp_bigdata::coordinator;
use llp_bigdata::ooc::{ChunkSource, FileSource};
use llp_bigdata::streaming::solve_chunked;
use llp_core::clarkson::ClarksonConfig;
use llp_core::lptype::ColumnarProblem;
use llp_service::{ExecParams, Model};
use llp_workloads::scenario::{registry, Scenario, ScenarioProblem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Scenario subset the ooc harness runs: one benign LP, the skewed
/// coordinator layout, one SVM, and one MEB — every problem kind and
/// the skewed partition loader, without quadrupling the grid.
pub const OOC_SCENARIOS: &[&str] = &[
    "lp_uniform",
    "lp_skewed_sites",
    "svm_separable",
    "meb_sphere_shell",
];

/// Rows per chunk frame at each budget. Quick keeps many chunks per
/// file even at test sizes; huge keeps the per-chunk decode buffer a
/// few MB against `n ≥ 10^8`.
pub fn chunk_len_for(budget: RunBudget) -> u32 {
    match budget {
        RunBudget::Quick => 4_096,
        RunBudget::Full => 65_536,
        RunBudget::Huge => 262_144,
    }
}

/// Runs the harness: writes each scenario's store file under `dir`
/// (created if needed, files overwritten) and solves it from disk in
/// every applicable model. Returns one [`OocCell`] per (scenario ×
/// model).
pub fn run_ooc(budget: RunBudget, dir: &Path) -> Vec<OocCell> {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create ooc dir {}: {e}", dir.display()));
    let chunk_len = chunk_len_for(budget);
    let huge = matches!(budget, RunBudget::Huge);
    let mut cells = Vec::new();
    for sc in registry(budget) {
        let wanted = if huge {
            sc.name == "lp_uniform"
        } else {
            OOC_SCENARIOS.contains(&sc.name)
        };
        if !wanted {
            continue;
        }
        let path = dir.join(format!("{}.llps", sc.name));
        let (header, bytes_written) = llp_workloads::write_scenario(&sc, &path, chunk_len)
            .unwrap_or_else(|e| panic!("{}: writing {}: {e}", sc.name, path.display()));
        assert!(
            llp_workloads::matches_scenario(&header, &sc),
            "{}: written header does not invert to the scenario",
            sc.name
        );
        let ctx = ScenarioCtx {
            sc: &sc,
            path: &path,
            file_bytes: header.file_bytes(),
            bytes_written,
            dim: header.dim as u64,
            rows: header.rows,
            chunk_len: chunk_len as u64,
        };
        match sc.problem() {
            ScenarioProblem::Lp(p) => cells_for(&ctx, &p, huge, &mut cells),
            ScenarioProblem::Svm(p) => cells_for(&ctx, &p, huge, &mut cells),
            ScenarioProblem::Meb(p) => cells_for(&ctx, &p, huge, &mut cells),
        }
    }
    cells
}

/// Everything about one written scenario file that every model cell
/// shares.
struct ScenarioCtx<'a> {
    sc: &'a Scenario,
    path: &'a Path,
    file_bytes: u64,
    bytes_written: u64,
    dim: u64,
    rows: u64,
    chunk_len: u64,
}

impl ScenarioCtx<'_> {
    fn cell(&self, model: &str) -> OocCell {
        OocCell {
            scenario: self.sc.name.to_string(),
            family: self.sc.family.name().to_string(),
            model: model.to_string(),
            n: self.rows,
            d: self.sc.d as u64,
            dim: self.dim,
            seed: self.sc.seed,
            chunk_len: self.chunk_len,
            file_bytes: self.file_bytes,
            bytes_written: self.bytes_written,
            bytes_read: 0,
            passes: 0,
            objective: 0.0,
            violations: 0,
            iterations: 0,
            wall_ms: 0.0,
            path: self.path.to_string_lossy().into_owned(),
        }
    }
}

fn cells_for<P: ColumnarProblem>(
    ctx: &ScenarioCtx<'_>,
    problem: &P,
    huge: bool,
    cells: &mut Vec<OocCell>,
) {
    cells.push(streaming_cell(ctx, problem));
    if huge {
        return;
    }
    cells.push(loaded_cell(ctx, problem, Model::Ram));
    cells.push(coordinator_cell(ctx, problem));
    cells.push(loaded_cell(ctx, problem, Model::Mpc));
}

/// The streaming cell: Algorithm 1 pulls every pass from the file.
fn streaming_cell<P: ColumnarProblem>(ctx: &ScenarioCtx<'_>, problem: &P) -> OocCell {
    let sc = ctx.sc;
    let mut source = FileSource::open(ctx.path)
        .unwrap_or_else(|e| panic!("{}: opening {}: {e}", sc.name, ctx.path.display()));
    let cfg = ClarksonConfig::lean(sc.r);
    let mut rng = StdRng::seed_from_u64(solver_seed(sc, "streaming"));
    // llp-analyzer: allow(wall-clock) -- wall_ms meters the solve; the reading never feeds solver state
    let start = std::time::Instant::now();
    let (sol, stats) = solve_chunked(problem, &mut source, &cfg, &mut rng)
        .unwrap_or_else(|e| panic!("{}/streaming: {e}", sc.name));
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let mut cell = ctx.cell("streaming");
    cell.bytes_read = source.bytes_read();
    cell.passes = stats.passes;
    cell.iterations = stats.iterations as u64;
    cell.objective = problem.objective_value(&sol);
    cell.violations = scan_file_violations(problem, &sol, ctx.path);
    cell.wall_ms = wall_ms;
    cell
}

/// Counts violations of `sol` with one extra (unmetered) sweep of the
/// file — the certificate stays out-of-core too.
fn scan_file_violations<P: ColumnarProblem>(problem: &P, sol: &P::Solution, path: &Path) -> u64 {
    let mut reader =
        llp_store::open_file(path).unwrap_or_else(|e| panic!("reopening {}: {e}", path.display()));
    let mut violators: Vec<usize> = Vec::new();
    let mut count = 0u64;
    loop {
        match reader.next_chunk() {
            Ok(Some(chunk)) => {
                violators.clear();
                problem.scan_columns(sol, &chunk.full_view(), &mut violators);
                count += violators.len() as u64;
            }
            Ok(None) => return count,
            Err(e) => panic!("verification sweep of {}: {e}", path.display()),
        }
    }
}

/// A ram/mpc cell: one provenance-checked full load, then the shared
/// `llp_service` dispatch (the same computation as the report grid).
fn loaded_cell<P: ColumnarProblem>(ctx: &ScenarioCtx<'_>, problem: &P, model: Model) -> OocCell {
    let sc = ctx.sc;
    let (data, _header, bytes_read) = llp_store::read_all(ctx.path, problem)
        .unwrap_or_else(|e| panic!("{}: loading {}: {e}", sc.name, ctx.path.display()));
    let params = ExecParams {
        r: sc.r,
        coord_sites: COORD_SITES,
        mpc_delta: crate::report::MPC_DELTA,
        skew: sc.skew,
    };
    let mut rng = StdRng::seed_from_u64(solver_seed(sc, model.name()));
    let out = llp_service::solve_model(problem, &data, model, &params, &mut rng)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", sc.name, model.name()));
    let mut cell = ctx.cell(model.name());
    cell.bytes_read = bytes_read;
    cell.iterations = out.body.iterations;
    cell.objective = out.body.objective;
    cell.violations = out.body.violations;
    cell.wall_ms = out.wall_ms;
    cell
}

/// The coordinator cell: each site's shard is loaded straight from the
/// file (`read_partitioned` honors the scenario's skewed layout), then
/// the sites run Lemma 3.7's protocol.
fn coordinator_cell<P: ColumnarProblem>(ctx: &ScenarioCtx<'_>, problem: &P) -> OocCell {
    let sc = ctx.sc;
    let sizes = sc.partition_sizes(ctx.rows as usize, COORD_SITES);
    let (parts, _header, bytes_read) = llp_store::read_partitioned(ctx.path, problem, &sizes)
        .unwrap_or_else(|e| panic!("{}: partition-loading {}: {e}", sc.name, ctx.path.display()));
    let cfg = ClarksonConfig::lean(sc.r);
    let mut rng = StdRng::seed_from_u64(solver_seed(sc, "coordinator"));
    // llp-analyzer: allow(wall-clock) -- wall_ms meters the solve; the reading never feeds solver state
    let start = std::time::Instant::now();
    let (sol, stats) = coordinator::solve_partitioned(problem, parts, &cfg, &mut rng)
        .unwrap_or_else(|e| panic!("{}/coordinator: {e:?}", sc.name));
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let mut cell = ctx.cell("coordinator");
    cell.bytes_read = bytes_read;
    cell.iterations = stats.iterations as u64;
    cell.objective = problem.objective_value(&sol);
    // The partitions were consumed by the protocol; certify with the
    // same chunk-wise sweep as the streaming cell.
    cell.violations = scan_file_violations(problem, &sol, ctx.path);
    cell.wall_ms = wall_ms;
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{self, validate, Report, SCHEMA_VERSION};

    fn scratch_dir(leaf: &str) -> std::path::PathBuf {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-ooc-tests")
            .join(leaf)
    }

    #[test]
    fn every_scenario_fits_the_store_cap_at_the_largest_chunk_len() {
        // The store refuses layouts whose full chunk exceeds
        // `MAX_CHUNK_PAYLOAD`; every registry scenario must still write
        // and read back at the huge tier's chunk length (the largest any
        // budget uses), with each file one partial chunk at quick size.
        let dir = scratch_dir("bench-cap");
        std::fs::create_dir_all(&dir).unwrap();
        let chunk_len = chunk_len_for(RunBudget::Huge);
        for sc in registry(RunBudget::Quick) {
            let path = dir.join(format!("{}.llps", sc.name));
            let (header, written) = llp_workloads::write_scenario(&sc, &path, chunk_len)
                .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            let (read_header, read) = llp_store::verify_file(&path).unwrap();
            assert_eq!((read_header, read), (header, written), "{}", sc.name);
        }
    }

    #[test]
    fn quick_ooc_block_validates_and_matches_the_grid() {
        let dir = scratch_dir("bench-ooc");
        let ooc = run_ooc(RunBudget::Quick, &dir);
        assert_eq!(ooc.len(), OOC_SCENARIOS.len() * report::MODELS.len());
        let report = Report {
            schema_version: SCHEMA_VERSION,
            label: "ooc-test".to_string(),
            budget: "quick".to_string(),
            cells: Vec::new(),
            service: Vec::new(),
            net: Vec::new(),
            ooc,
        };
        assert_eq!(validate(&report), Ok(()));
        assert_eq!(report::verify_ooc_files(&report), Ok(()));

        // The streaming cells replay the grid's RNG stream over file
        // bytes: same objective bits, iterations, and pass counts as the
        // in-RAM grid cell of the same (scenario, model).
        for sc in registry(RunBudget::Quick) {
            if !OOC_SCENARIOS.contains(&sc.name) {
                continue;
            }
            let grid = report::run_scenario(&sc);
            let grid_stream = grid.iter().find(|c| c.model == "streaming").unwrap();
            let ooc_stream = report
                .ooc
                .iter()
                .find(|c| c.scenario == sc.name && c.model == "streaming")
                .unwrap();
            assert_eq!(
                grid_stream.objective.to_bits(),
                ooc_stream.objective.to_bits(),
                "{}: file-backed streaming must be bit-identical to in-RAM",
                sc.name
            );
            assert_eq!(grid_stream.iterations, ooc_stream.iterations, "{}", sc.name);
            assert_eq!(grid_stream.passes, ooc_stream.passes, "{}", sc.name);
        }
    }
}
