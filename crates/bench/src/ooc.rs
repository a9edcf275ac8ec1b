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
//!   `bytes_read` meter is `passes × file_bytes` (plus the open-time
//!   header validation).
//! * **ram / coordinator / mpc** — one full load (`llp_store::read_all`)
//!   before the clock starts. Sites and machines are row ranges of the
//!   loaded rows (geometric sizes included), cut from the rows actually
//!   loaded.
//!
//! Each file cell is made by the grid's own cell function with the
//! grid's solver seed, so apart from its [`FileMeters`] and `wall_ms` it
//! equals the in-RAM grid cell of the same (scenario, model) field for
//! field. The dispatch certifies each solution with a separate sweep of
//! the file that `bytes_read` leaves out.
//!
//! At [`RunBudget::Huge`] only the streaming model runs — the whole
//! point of the tier is an instance (`n ≥ 10^8`) that is never held in
//! RAM — and the scenario set shrinks to `lp_uniform`.

use crate::report::{solve_cell, Cell, FileMeters};
use crate::RunBudget;
use llp_service::{DataSource, Model};
use llp_workloads::scenario::{registry, ScenarioProblem};
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
/// every applicable model. Returns one file [`Cell`] per (scenario ×
/// model).
pub fn run_ooc(budget: RunBudget, dir: &Path) -> Vec<Cell> {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create ooc dir {}: {e}", dir.display()));
    let chunk_len = chunk_len_for(budget);
    let huge = matches!(budget, RunBudget::Huge);
    let models: &[Model] = if huge {
        &[Model::Streaming]
    } else {
        Model::ALL
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
        let meters = FileMeters {
            dim: header.dim as u64,
            chunk_len: chunk_len as u64,
            file_bytes: header.file_bytes(),
            bytes_written,
            bytes_read: 0,
            path: path.to_string_lossy().into_owned(),
        };
        let problem = sc.problem();
        for &model in models {
            let file = Some(meters.clone());
            cells.push(match &problem {
                ScenarioProblem::Lp(p) => solve_cell(&sc, p, DataSource::File(&path), model, file),
                ScenarioProblem::Svm(p) => solve_cell(&sc, p, DataSource::File(&path), model, file),
                ScenarioProblem::Meb(p) => solve_cell(&sc, p, DataSource::File(&path), model, file),
            });
        }
    }
    cells
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
    fn quick_file_cells_validate_and_equal_their_grid_cells() {
        let dir = scratch_dir("bench-ooc");
        let file_cells = run_ooc(RunBudget::Quick, &dir);
        assert_eq!(file_cells.len(), OOC_SCENARIOS.len() * Model::ALL.len());
        let mut report = Report {
            schema_version: SCHEMA_VERSION,
            label: "ooc-test".to_string(),
            budget: "quick".to_string(),
            cells: file_cells.clone(),
            load: Vec::new(),
        };
        assert_eq!(validate(&report), Ok(()));
        assert_eq!(report::verify_ooc_files(&report), Ok(()));

        // Every file cell replays the grid's RNG stream over file bytes:
        // with its file meters and wall clock cleared it is the in-RAM
        // grid cell of the same (scenario, model), field for field.
        let untimed = |c: &Cell| Cell {
            wall_ms: 0.0,
            file: None,
            ..c.clone()
        };
        for sc in registry(RunBudget::Quick) {
            if !OOC_SCENARIOS.contains(&sc.name) {
                continue;
            }
            let grid = report::run_scenario(&sc);
            for ram in &grid {
                let file = file_cells
                    .iter()
                    .find(|c| c.scenario == sc.name && c.model == ram.model)
                    .unwrap();
                assert_eq!(
                    untimed(file),
                    untimed(ram),
                    "{}/{}: a file-backed run must be bit-identical to in-RAM",
                    sc.name,
                    ram.model
                );
            }
            report.cells.extend(grid);
        }
        // In-RAM and file cells of the same scenarios validate together.
        assert_eq!(validate(&report), Ok(()));
    }
}
