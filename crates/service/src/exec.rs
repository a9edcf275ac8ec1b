//! One model dispatch: solve an LP-type instance under any of the four
//! compute models, from an in-RAM slice or a chunked store file, and
//! collect the solver statistics and meter readings into a
//! [`ResponseBody`].
//!
//! This is the single solve path shared by the service workers and the
//! `llp_bench` report's cells (`solve_cell`, for in-RAM grid cells and
//! file cells alike), so a scenario solved through the service, in the
//! grid, or off its store file is *the same computation*: same site
//! layout, same meter charges, same determinism contract via `llp_par`.
//!
//! RAM, the coordinator and MPC share one input contract: the caller's
//! rows (borrowed, or loaded whole from a file) plus one columnar
//! transpose of them, with each coordinator site or MPC machine a
//! consecutive row range given by a `sizes` list. Nothing is copied per
//! site.
//!
//! One clock reading brackets each solve, so `wall_ms` is solve time
//! only. Loading a file and the RAM model's transpose happen before it
//! starts; the coordinator and MPC transpose inside it, and the
//! streaming model builds or reads its tape inside it. After it stops,
//! one columnar certificate, [`count_violators`], counts the solution's
//! violators chunk by chunk: over the columns the model holds for an
//! in-RAM input, or through a fresh [`FileSource`] that `bytes_read`
//! leaves out.

use crate::request::{Model, ResponseBody};
use llp_bigdata::coordinator as coord_impl;
use llp_bigdata::mpc::{self as mpc_impl, MpcConfig};
use llp_bigdata::ooc::{self, count_violators, ChunkSource, FileSource, SliceSource};
use llp_bigdata::streaming::solve_chunked;
use llp_bigdata::BigDataError;
use llp_core::clarkson::ClarksonConfig;
use llp_core::lptype::ColumnarProblem;
use llp_geom::ConstraintColumns;
use llp_workloads::partition::{prescribed_sizes, skewed_sizes};
use rand::Rng;
use std::borrow::Cow;
use std::fmt::Debug;
use std::path::Path;

/// Model-independent execution parameters (the registry defaults match
/// the report grid's constants).
#[derive(Clone, Debug)]
pub struct ExecParams {
    /// Pass/round parameter `r` of Algorithm 1.
    pub r: u32,
    /// Sites used by the coordinator leg.
    pub coord_sites: usize,
    /// Load exponent δ used by the MPC leg.
    pub mpc_delta: f64,
    /// Geometric partition skew for the coordinator/MPC legs
    /// (`None` = balanced/round-robin).
    pub skew: Option<f64>,
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams {
            r: 3,
            coord_sites: 8,
            mpc_delta: 0.4,
            skew: None,
        }
    }
}

/// A completed solve: the deterministic body plus its wall-clock.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The response body (bit-identical for fixed inputs + seed).
    pub body: ResponseBody,
    /// Wall-clock time of the solve, milliseconds.
    pub wall_ms: f64,
    /// Bytes read from a store file to feed the solve: every streaming
    /// pass plus the open-time header check, or one full load for the
    /// other models. 0 for in-RAM inputs.
    pub bytes_read: u64,
}

/// Where a solve's constraints come from.
#[derive(Debug)]
pub enum DataSource<'a, C> {
    /// An in-RAM constraint sequence.
    Ram(&'a [C]),
    /// A chunked store file (`llp_store`) of the problem's rows. The
    /// streaming model re-reads it every pass; the other models load it
    /// once, whole.
    File(&'a Path),
}

/// Solves in-RAM `data` under `model` and meters the run: the slice
/// form of [`solve_source`].
pub fn solve_model<P: ColumnarProblem, R: Rng>(
    problem: &P,
    data: &[P::Constraint],
    model: Model,
    params: &ExecParams,
    rng: &mut R,
) -> Result<ExecOutcome, String> {
    solve_source(problem, DataSource::Ram(data), model, params, rng)
}

/// Solves the constraints of `source` under `model` and meters the run.
/// Returns a deterministic error string, prefixed with the model name,
/// for an input with no rows (before any model runs), an infeasible or
/// unbounded instance, or a store file that fails to open or verify.
pub fn solve_source<P: ColumnarProblem, R: Rng>(
    problem: &P,
    source: DataSource<'_, P::Constraint>,
    model: Model,
    params: &ExecParams,
    rng: &mut R,
) -> Result<ExecOutcome, String> {
    let fail = |e: &dyn Debug| format!("{}: {e:?}", model.name());
    let n = match source {
        DataSource::Ram(data) => data.len(),
        DataSource::File(path) => FileSource::open(path).map_err(|e| fail(&e))?.len(),
    };
    if n == 0 {
        return Err(format!(
            "{}: empty input, no constraints to solve",
            model.name()
        ));
    }
    let cfg = ClarksonConfig::lean(params.r);
    let mut body = ResponseBody {
        n: n as u64,
        objective: 0.0,
        violations: 0,
        iterations: 0,
        passes: 0,
        rounds: 0,
        space_bits: 0,
        comm_bits: 0,
        max_round_bits: 0,
        load_bits: 0,
        total_load_bits: 0,
    };
    let mut bytes_read = 0;
    // Each arm stages its input, runs the model under the one clock, and
    // hands back what the certificate sweeps.
    let (solution, wall_ms, tape) = match model {
        Model::Ram => {
            let (data, read) = source.whole(problem).map_err(|e| fail(&e))?;
            bytes_read = read;
            let columns = problem.to_columns(&data);
            let (out, wall_ms) = timed(|| {
                llp_core::clarkson_solve_with_columns(problem, &data, &columns, &cfg, rng)
            });
            let (sol, stats) = out.map_err(|e| fail(&e))?;
            body.iterations = stats.iterations as u64;
            (sol, wall_ms, source.tape(columns))
        }
        Model::Streaming => {
            let (out, wall_ms, tape) = match source {
                DataSource::Ram(data) => {
                    let ((out, tape), wall_ms) = timed(|| {
                        let mut tape = SliceSource::new(problem.to_columns(data));
                        (solve_chunked(problem, &mut tape, &cfg, rng), tape)
                    });
                    (out, wall_ms, Tape::Held(tape))
                }
                DataSource::File(path) => {
                    let mut file = FileSource::open(path).map_err(|e| fail(&e))?;
                    let (out, wall_ms) = timed(|| solve_chunked(problem, &mut file, &cfg, rng));
                    bytes_read = file.bytes_read();
                    (out, wall_ms, Tape::File(path))
                }
            };
            let (sol, stats) = out.map_err(|e| fail(&e))?;
            body.iterations = stats.iterations as u64;
            body.passes = stats.passes;
            body.space_bits = stats.peak_space_bits;
            (sol, wall_ms, tape)
        }
        Model::Coordinator => {
            let (data, read) = source.whole(problem).map_err(|e| fail(&e))?;
            bytes_read = read;
            // Sizes come from the rows loaded, not the count read at open.
            let sizes = prescribed_sizes(data.len(), params.coord_sites, params.skew);
            let ((out, columns), wall_ms) = timed(|| {
                let columns = problem.to_columns(&data);
                let out =
                    coord_impl::solve_partitioned(problem, &data, &columns, &sizes, &cfg, rng);
                (out, columns)
            });
            let (sol, stats) = out.map_err(|e| fail(&e))?;
            body.iterations = stats.clarkson.iterations as u64;
            body.rounds = stats.rounds;
            body.comm_bits = stats.total_bits;
            body.max_round_bits = stats.max_round_bits;
            (sol, wall_ms, source.tape(columns))
        }
        Model::Mpc => {
            let (data, read) = source.whole(problem).map_err(|e| fail(&e))?;
            bytes_read = read;
            let mpc_cfg = MpcConfig::lean(params.mpc_delta);
            let n = data.len();
            // Skewed layouts cut the same machine count mpc::solve would
            // use, just with geometric sizes.
            let sizes = match params.skew {
                Some(s) => skewed_sizes(n, mpc_impl::machine_count(n, params.mpc_delta), s),
                None => mpc_impl::machine_sizes(n, params.mpc_delta),
            };
            let ((out, columns), wall_ms) = timed(|| {
                let columns = problem.to_columns(&data);
                let out =
                    mpc_impl::solve_partitioned(problem, &data, &columns, &sizes, &mpc_cfg, rng);
                (out, columns)
            });
            let (sol, stats) = out.map_err(|e| fail(&e))?;
            body.iterations = stats.clarkson.iterations as u64;
            body.rounds = stats.rounds;
            body.load_bits = stats.max_load_bits;
            body.total_load_bits = stats.total_load_bits;
            (sol, wall_ms, source.tape(columns))
        }
    };
    body.objective = problem.objective_value(&solution);
    body.violations = certify(problem, &solution, tape).map_err(|e| fail(&e))?;
    Ok(ExecOutcome {
        body,
        wall_ms,
        bytes_read,
    })
}

/// What the certificate sweeps: the columns a model holds for an in-RAM
/// input, or the store file a file input came from.
enum Tape<'a> {
    Held(SliceSource),
    File(&'a Path),
}

/// The dispatch's one certificate: counts the violators of `solution`
/// over the whole input in one columnar pass — over the held columns,
/// or through a fresh [`FileSource`] for a file.
fn certify<P: ColumnarProblem>(
    problem: &P,
    solution: &P::Solution,
    tape: Tape<'_>,
) -> Result<u64, BigDataError> {
    match tape {
        Tape::Held(mut columns) => count_violators(problem, solution, &mut columns),
        Tape::File(path) => count_violators(problem, solution, &mut FileSource::open(path)?),
    }
}

/// Runs `solve` under the dispatch's one clock, returning its output and
/// the elapsed milliseconds.
fn timed<T>(solve: impl FnOnce() -> T) -> (T, f64) {
    // llp-analyzer: allow(wall-clock) -- wall_ms meters the solve; the reading never feeds solver state
    let start = std::time::Instant::now();
    let out = solve();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

impl<'a, C: Clone> DataSource<'a, C> {
    /// The whole sequence and the bytes read for it: borrowed from RAM,
    /// or one full load of the file.
    fn whole<P: ColumnarProblem<Constraint = C>>(
        &self,
        problem: &P,
    ) -> Result<(Cow<'a, [C]>, u64), BigDataError> {
        match *self {
            DataSource::Ram(data) => Ok((Cow::Borrowed(data), 0)),
            DataSource::File(path) => {
                let (data, _, bytes) = ooc::read_all(path, problem).map_err(ooc::store_error)?;
                Ok((Cow::Owned(data), bytes))
            }
        }
    }

    /// The certificate's tape for a model holding `columns` of this
    /// input: the columns for an in-RAM input, the file for a file.
    fn tape(&self, columns: ConstraintColumns) -> Tape<'a> {
        match *self {
            DataSource::Ram(_) => Tape::Held(SliceSource::new(columns)),
            DataSource::File(path) => Tape::File(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_core::lptype::count_violations;
    use llp_workloads::scenario::{registry, RunBudget, ScenarioData};
    use llp_workloads::{random_lp, write_scenario};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn certificate_counts_real_violators_in_ram_and_on_file() {
        // Every grid cell certifies 0 violations, which a certificate
        // that skipped rows would also report. A basis of a prefix
        // violates real rows: the count must match the AoS reference
        // over a store file cut into 257-row chunks and over held
        // columns.
        let dir =
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp-ooc-tests");
        std::fs::create_dir_all(&dir).unwrap();
        for sc in registry(RunBudget::Quick) {
            if !["lp_uniform", "svm_separable", "meb_clustered"].contains(&sc.name) {
                continue;
            }
            let path = dir.join(format!("certificate_{}.llps", sc.name));
            write_scenario(&sc, &path, 257).unwrap();
            match sc.generate() {
                ScenarioData::Lp(p, cs) => check_certificate(&p, &cs, &path),
                ScenarioData::Svm(p, pts) => check_certificate(&p, &pts, &path),
                ScenarioData::Meb(p, pts) => check_certificate(&p, &pts, &path),
            }
        }
    }

    fn check_certificate<P: ColumnarProblem>(p: &P, data: &[P::Constraint], path: &Path) {
        // Generators may plant the defining rows first, so the basis comes
        // from the last 1/32 of the rows.
        let tail = &data[data.len() - data.len() / 32..];
        let sol = p.solve_subset(tail, &mut StdRng::seed_from_u64(3)).unwrap();
        let want = count_violations(p, &sol, data) as u64;
        let mut chunks_hit: Vec<usize> = (0..data.len())
            .filter(|&i| p.violates(&sol, &data[i]))
            .map(|i| i / 257)
            .collect();
        chunks_hit.dedup();
        assert!(chunks_hit.len() > 1, "violators must span several chunks");
        let held = Tape::Held(SliceSource::new(p.to_columns(data)));
        let counts = [
            certify(p, &sol, Tape::File(path)).unwrap(),
            certify(p, &sol, held).unwrap(),
        ];
        assert_eq!(counts, [want; 2], "file, held columns");
    }

    #[test]
    fn all_models_agree_on_a_benign_lp() {
        let (p, cs) = random_lp(6_000, 3, 99);
        let params = ExecParams::default();
        let mut objectives = Vec::new();
        for &m in Model::ALL {
            let mut rng = StdRng::seed_from_u64(1234);
            let out = solve_model(&p, &cs, m, &params, &mut rng).expect("benign LP solves");
            assert_eq!(out.body.violations, 0, "{}", m.name());
            assert_eq!(out.body.n, cs.len() as u64);
            objectives.push(out.body.objective);
        }
        for o in &objectives[1..] {
            let scale = objectives[0].abs().max(o.abs()).max(1.0);
            assert!(
                (o - objectives[0]).abs() <= 1e-5 * scale,
                "objectives diverged: {objectives:?}"
            );
        }
    }

    #[test]
    fn solve_is_seed_deterministic() {
        let (p, cs) = random_lp(5_000, 2, 5);
        let params = ExecParams::default();
        let run = || {
            let mut rng = StdRng::seed_from_u64(77);
            solve_model(&p, &cs, Model::Ram, &params, &mut rng)
                .unwrap()
                .body
        };
        assert_eq!(run(), run());
    }
}
