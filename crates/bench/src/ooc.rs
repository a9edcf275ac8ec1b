//! The file-backed out-of-core harness (`experiments ooc`).
//!
//! Each selected scenario is streamed to a chunked store file
//! (`llp_store` via `llp_workloads::write_scenario` — the generator
//! never materializes the instance), then solved off that file in every
//! model through the shared `llp_service` dispatch
//! ([`llp_service::solve_source`] with a [`DataSource::File`]), the same
//! code path as the report grid:
//!
//! * **streaming** — `solve_chunked` over a `FileSource`: every pass of
//!   Algorithm 1 re-reads and re-checksums the file, so the cell's
//!   `bytes_read` is `passes × file_bytes` (plus the open-time header
//!   validation).
//! * **ram / coordinator / mpc** — one full load (`llp_store::read_all`)
//!   before the clock starts. Sites and machines are row ranges of the
//!   loaded rows (geometric sizes included), cut from the rows actually
//!   loaded.
//!
//! With the grid's solver seed every cell is bit-identical to the
//! in-RAM grid cell — same iterations, passes, and objective bits. The
//! dispatch certifies each solution with a separate sweep of the file
//! that `bytes_read` leaves out.
//!
//! At [`RunBudget::Huge`] only the streaming model runs — the whole
//! point of the tier is an instance (`n ≥ 10^8`) that is never held in
//! RAM — and the scenario set shrinks to `lp_uniform`.

use crate::report::{solver_seed, OocCell, COORD_SITES, MPC_DELTA};
use crate::RunBudget;
use llp_core::lptype::ColumnarProblem;
use llp_service::{solve_source, DataSource, ExecParams, Model};
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
    let models: &[Model] = if huge {
        &[Model::Streaming]
    } else {
        &[Model::Streaming, Model::Ram, Model::Coordinator, Model::Mpc]
    };
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
        let blank = OocCell {
            scenario: sc.name.to_string(),
            family: sc.family.name().to_string(),
            model: String::new(),
            n: header.rows,
            d: sc.d as u64,
            dim: header.dim as u64,
            seed: sc.seed,
            chunk_len: chunk_len as u64,
            file_bytes: header.file_bytes(),
            bytes_written,
            bytes_read: 0,
            passes: 0,
            objective: 0.0,
            violations: 0,
            iterations: 0,
            wall_ms: 0.0,
            path: path.to_string_lossy().into_owned(),
        };
        let problem = sc.problem();
        for &model in models {
            let cell = match &problem {
                ScenarioProblem::Lp(p) => solve_cell(&sc, p, &path, model, &blank),
                ScenarioProblem::Svm(p) => solve_cell(&sc, p, &path, model, &blank),
                ScenarioProblem::Meb(p) => solve_cell(&sc, p, &path, model, &blank),
            };
            cells.push(cell);
        }
    }
    cells
}

/// One (scenario, model) cell: the grid cell's parameters and solver
/// seed, with every constraint byte coming from the store file.
fn solve_cell<P: ColumnarProblem>(
    sc: &Scenario,
    problem: &P,
    path: &Path,
    model: Model,
    blank: &OocCell,
) -> OocCell {
    let params = ExecParams {
        r: sc.r,
        coord_sites: COORD_SITES,
        mpc_delta: MPC_DELTA,
        skew: sc.skew,
    };
    let mut rng = StdRng::seed_from_u64(solver_seed(sc, model.name()));
    let out = solve_source(problem, DataSource::File(path), model, &params, &mut rng)
        .unwrap_or_else(|e| panic!("{}/{e}", sc.name));
    OocCell {
        model: model.name().to_string(),
        bytes_read: out.bytes_read,
        passes: out.body.passes,
        objective: out.body.objective,
        violations: out.body.violations,
        iterations: out.body.iterations,
        wall_ms: out.wall_ms,
        ..blank.clone()
    }
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

        // Every cell replays the grid's RNG stream over file bytes: same
        // objective bits, iterations, passes, and violations as the
        // in-RAM grid cell of the same (scenario, model).
        for sc in registry(RunBudget::Quick) {
            if !OOC_SCENARIOS.contains(&sc.name) {
                continue;
            }
            for grid in report::run_scenario(&sc) {
                let ooc = report
                    .ooc
                    .iter()
                    .find(|c| c.scenario == sc.name && c.model == grid.model)
                    .unwrap();
                let what = format!("{}/{}", sc.name, grid.model);
                assert_eq!(
                    grid.objective.to_bits(),
                    ooc.objective.to_bits(),
                    "{what}: a file-backed run must be bit-identical to in-RAM"
                );
                assert_eq!(grid.iterations, ooc.iterations, "{what}");
                assert_eq!(grid.passes, ooc.passes, "{what}");
                assert_eq!(grid.violations, ooc.violations, "{what}");
            }
        }
    }
}
