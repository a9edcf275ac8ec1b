//! Machine-readable experiment reports: every measurement of one
//! `experiments` run, serialized to one JSON document.
//!
//! A report holds two record kinds. A [`Cell`] is one (scenario × model)
//! solve through the shared `llp_service::solve_source` dispatch:
//! [`run_scenarios`] runs every registry scenario
//! (`llp_workloads::scenario::registry`) in all four models — RAM
//! (Algorithm 1 directly), streaming, coordinator, and MPC — from RAM,
//! and `crate::ooc` solves a subset of them off chunked store files,
//! recording the byte meters in the cell's [`FileMeters`]. A [`LoadRow`]
//! is one shard's (or the fleet's) counters under one traffic mix of the
//! socket load harness (`crate::serve`). The resulting [`Report`]
//! serializes to a standard JSON document (`BENCH_<label>.json`), parses
//! back losslessly ([`Report::from_json`]), and [`validate`] checks the
//! invariants CI relies on: full grid coverage, zero violations,
//! per-scenario objective agreement across models and inputs, the file
//! byte laws, and the load rows' conservation laws. Numbers round-trip
//! exactly — the writer emits Rust's shortest-round-trip float
//! formatting.

use crate::RunBudget;
use llp_core::lptype::ColumnarProblem;
use llp_service::{solve_source, DataSource, ExecParams, Model};
use llp_workloads::scenario::{registry, Scenario, ScenarioData};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Bumped whenever a [`Cell`]/[`FileMeters`]/[`LoadRow`]/[`Report`]
/// field changes meaning; consumers (CI `--check`) refuse unknown
/// versions. v2 added the `service` block (the in-process load harness);
/// v3 added the `columnar` block (AoS-vs-SoA violation-scan comparison
/// cells); v4 added the `net` block (the socket loadgen: per-shard rows
/// plus a fleet-aggregate row per mix); v5 added the `ooc` block
/// (file-backed runs over chunked store files with
/// bytes-written/bytes-read meters); v6 removed the `columnar` block
/// along with the AoS scan it timed; v7 made a file-backed run a
/// [`Cell`] with [`FileMeters`] (the `ooc` block is gone), renamed the
/// `net` block `load`, and removed the `service` block along with the
/// in-process harness.
pub const SCHEMA_VERSION: u64 = 7;

/// Sites used by the coordinator leg of every scenario.
pub const COORD_SITES: usize = 8;

/// Load exponent δ used by the MPC leg of every scenario.
pub const MPC_DELTA: f64 = 0.4;

/// One (scenario × model) measurement. Fields that a model does not
/// produce are zero (e.g. `passes` outside streaming, `comm_bits` outside
/// the coordinator model).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Registry scenario name.
    pub scenario: String,
    /// Generator family wire name.
    pub family: String,
    /// `"ram" | "streaming" | "coordinator" | "mpc"`.
    pub model: String,
    /// Materialized constraint/point count.
    pub n: u64,
    /// Ambient dimension.
    pub d: u64,
    /// The scenario's explicit generator seed.
    pub seed: u64,
    /// Objective value of the returned solution.
    pub objective: f64,
    /// Violations of the returned solution over the full input (must be
    /// 0). A file cell counts them by a separate sweep of the file that
    /// `bytes_read` leaves out.
    pub violations: u64,
    /// Iterations of Algorithm 1.
    pub iterations: u64,
    /// Stream passes (streaming model only).
    pub passes: u64,
    /// Model rounds (coordinator/MPC only).
    pub rounds: u64,
    /// Peak retained space in bits (streaming only).
    pub space_bits: u64,
    /// Total communication in bits (coordinator only).
    pub comm_bits: u64,
    /// Heaviest single round in bits (coordinator only).
    pub max_round_bits: u64,
    /// Max per-machine per-round load in bits (MPC only).
    pub load_bits: u64,
    /// Sum over rounds of the per-round max load (MPC only; the
    /// critical-path congestion figure skewed partitions distort).
    pub total_load_bits: u64,
    /// Wall-clock time of the solve, milliseconds. A file cell's
    /// streaming solve reads the file inside it; its other models load
    /// the file before it starts.
    pub wall_ms: f64,
    /// The store file the constraints came from, with its byte meters;
    /// `None` for an in-RAM cell.
    pub file: Option<FileMeters>,
}

/// The store-file meters of a file cell (`experiments ooc`): the
/// scenario was streamed to a chunked store file (`llp_store`), then
/// solved with every constraint byte coming from that file. The
/// streaming model reads the file pass by pass through
/// `llp_bigdata::ooc::FileSource` (so `bytes_read` grows with the cell's
/// `passes`); the other models load it once, whole
/// (`llp_store::read_all`), and cut their sites or machines as row
/// ranges of it. `bytes_written` is metered at write time and must
/// equal the file size the header predicts — [`validate`] enforces both
/// meters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FileMeters {
    /// Stored row width (can exceed `d`, e.g. Chebyshev stores `d + 1`).
    pub dim: u64,
    /// Rows per chunk frame.
    pub chunk_len: u64,
    /// File size the header predicts, bytes.
    pub file_bytes: u64,
    /// Bytes the chunk writer emitted (must equal `file_bytes`).
    pub bytes_written: u64,
    /// Bytes read from the file to feed this model's solve.
    pub bytes_read: u64,
    /// Path of the store file, as written.
    pub path: String,
}

/// One row of the load block (`experiments serve`): one service shard's
/// counters under one load mix, or the fleet-aggregate row
/// (`shard == "fleet"`). Counters mirror `llp_service::ServiceStats` per
/// shard; the fleet row's counters are field-wise sums and its
/// percentiles are recomputed from the concatenated raw samples
/// (percentiles do not compose from per-shard summaries). The
/// classification counters are worker-count deterministic per shard —
/// routing is a pure function of the request fingerprint and the shard
/// count (DESIGN.md §9), so replaying the same stream at the same shard
/// count must reproduce them bit-for-bit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoadRow {
    /// Mix name (`"uniform"`, `"hot_key"`, `"heavy_tail"`).
    pub mix: String,
    /// Shard index rendered as text (`"0"`, `"1"`, …) or `"fleet"` for
    /// the aggregate row.
    pub shard: String,
    /// Total shard count behind the server.
    pub shards: u64,
    /// Worker threads per shard of the harness's loopback server; 0 when
    /// the harness drove an external server (`--connect`), whose worker
    /// count is not known to the loadgen.
    pub workers: u64,
    /// Times the request stream was replayed (wave 2+ exercises the
    /// per-shard cache).
    pub waves: u64,
    /// Requests routed to this shard (fleet: all requests offered).
    pub submitted: u64,
    /// Responses delivered.
    pub completed: u64,
    /// Requests dropped by admission control.
    pub shed: u64,
    /// Requests refused before queueing (unknown scenario).
    pub rejected: u64,
    /// Batches executed by a worker.
    pub solves: u64,
    /// Requests coalesced into an in-flight batch.
    pub batched: u64,
    /// Requests answered from the shard's result cache.
    pub cache_hits: u64,
    /// Median end-to-end latency, milliseconds (0 when the shard saw no
    /// completed requests).
    pub p50_ms: f64,
    /// p95 end-to-end latency, milliseconds.
    pub p95_ms: f64,
    /// p99 end-to-end latency, milliseconds.
    pub p99_ms: f64,
    /// Worst end-to-end latency, milliseconds.
    pub max_ms: f64,
    /// Mean end-to-end latency, milliseconds.
    pub mean_ms: f64,
    /// p95 queue wait, milliseconds.
    pub queue_p95_ms: f64,
    /// Completed requests per second over the mix's wall-clock.
    pub throughput_rps: f64,
    /// Wall-clock of the whole mix run, milliseconds (same value on
    /// every row of a mix).
    pub wall_ms: f64,
}

/// One `experiments` run: the file format of `BENCH_<label>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Free-form run label (CI passes a timestamp or branch name).
    pub label: String,
    /// `"quick"`, `"full"` or `"huge"`.
    pub budget: String,
    /// In-RAM cells, one per (scenario × model) and scenario-major in
    /// registry order, followed by file cells. Empty when neither the
    /// grid nor the `ooc` harness ran.
    pub cells: Vec<Cell>,
    /// Load-harness rows from `experiments serve`: per mix, one row per
    /// shard plus one fleet row. Empty when the harness did not run.
    pub load: Vec<LoadRow>,
}

impl Report {
    /// Parses a report from a JSON document.
    pub fn from_json(s: &str) -> Result<Self, serde::Error> {
        <Self as Deserialize>::from_json(s)
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        Serialize::to_json(self)
    }

    /// A human summary of the cells (one row per cell; the file columns
    /// read `-` on in-RAM cells).
    pub fn summary_table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            &format!(
                "S1  Scenario cells ({} budget, label {:?})",
                self.budget, self.label
            ),
            &[
                "scenario",
                "family",
                "model",
                "n",
                "objective",
                "viol",
                "iters",
                "passes",
                "rounds",
                "space_KB",
                "comm_KB",
                "load_KB",
                "file_MB",
                "read_MB",
                "ms",
            ],
        );
        let kb = |bits: u64| {
            if bits == 0 {
                "-".to_string()
            } else {
                format!("{:.2}", bits as f64 / 8192.0)
            }
        };
        let ct = |v: u64| {
            if v == 0 {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        let mb = |bytes: Option<u64>| {
            bytes.map_or_else(
                || "-".to_string(),
                |b| format!("{:.2}", b as f64 / (1024.0 * 1024.0)),
            )
        };
        for c in &self.cells {
            t.push(vec![
                c.scenario.clone(),
                c.family.clone(),
                c.model.clone(),
                c.n.to_string(),
                format!("{:.6}", c.objective),
                c.violations.to_string(),
                c.iterations.to_string(),
                ct(c.passes),
                ct(c.rounds),
                kb(c.space_bits),
                kb(c.comm_bits),
                kb(c.load_bits),
                mb(c.file.as_ref().map(|f| f.file_bytes)),
                mb(c.file.as_ref().map(|f| f.bytes_read)),
                format!("{:.1}", c.wall_ms),
            ]);
        }
        t
    }

    /// A human summary of the load harness (one row per shard per mix,
    /// fleet rows included).
    pub fn load_summary_table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            &format!(
                "S2  Load harness: per-shard load ({} budget, label {:?})",
                self.budget, self.label
            ),
            &[
                "mix",
                "shard",
                "submitted",
                "completed",
                "shed",
                "solves",
                "batched",
                "cache_hits",
                "p50_ms",
                "p95_ms",
                "p99_ms",
                "rps",
                "wall_ms",
            ],
        );
        for c in &self.load {
            t.push(vec![
                c.mix.clone(),
                c.shard.clone(),
                c.submitted.to_string(),
                c.completed.to_string(),
                c.shed.to_string(),
                c.solves.to_string(),
                c.batched.to_string(),
                c.cache_hits.to_string(),
                format!("{:.3}", c.p50_ms),
                format!("{:.3}", c.p95_ms),
                format!("{:.3}", c.p99_ms),
                format!("{:.0}", c.throughput_rps),
                format!("{:.1}", c.wall_ms),
            ]);
        }
        t
    }
}

/// Runs the full scenario × model grid at the given budget.
pub fn run_scenarios(budget: RunBudget, label: &str) -> Report {
    Report {
        schema_version: SCHEMA_VERSION,
        label: label.to_string(),
        budget: budget.name().to_string(),
        cells: registry(budget).iter().flat_map(run_scenario).collect(),
        load: Vec::new(),
    }
}

/// Runs one scenario in all four models.
pub fn run_scenario(sc: &Scenario) -> Vec<Cell> {
    match sc.generate() {
        ScenarioData::Lp(p, cs) => grid(sc, &p, &cs),
        ScenarioData::Svm(p, pts) => grid(sc, &p, &pts),
        ScenarioData::Meb(p, pts) => grid(sc, &p, &pts),
    }
}

fn grid<P: ColumnarProblem>(sc: &Scenario, problem: &P, data: &[P::Constraint]) -> Vec<Cell> {
    Model::ALL
        .iter()
        .map(|&model| solve_cell(sc, problem, DataSource::Ram(data), model, None))
        .collect()
}

/// A deterministic per-(scenario, model) solver seed, decoupled from the
/// generator seed so re-seeding one never perturbs the other. A file
/// cell uses it too, so it replays the grid cell's exact RNG stream.
pub fn solver_seed(sc: &Scenario, model: &str) -> u64 {
    let mut h = sc.seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in model.bytes() {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b));
    }
    h
}

/// Solves one (scenario, model) cell with the grid's parameters and
/// solver seed through the dispatch the solve service also runs
/// (`llp_service::solve_source`), so the partition layouts, meter
/// charges and timer placement are the service's. `file` carries the
/// write-time meters when `source` is a store file (the cell records the
/// dispatch's `bytes_read` in it) and is `None` for an in-RAM source.
pub(crate) fn solve_cell<P: ColumnarProblem>(
    sc: &Scenario,
    problem: &P,
    source: DataSource<'_, P::Constraint>,
    model: Model,
    file: Option<FileMeters>,
) -> Cell {
    let params = ExecParams {
        r: sc.r,
        coord_sites: COORD_SITES,
        mpc_delta: MPC_DELTA,
        skew: sc.skew,
    };
    let mut rng = StdRng::seed_from_u64(solver_seed(sc, model.name()));
    let out = solve_source(problem, source, model, &params, &mut rng)
        .unwrap_or_else(|e| panic!("{}/{e}", sc.name));
    Cell {
        scenario: sc.name.to_string(),
        family: sc.family.name().to_string(),
        model: model.name().to_string(),
        n: out.body.n,
        d: sc.d as u64,
        seed: sc.seed,
        objective: out.body.objective,
        violations: out.body.violations,
        iterations: out.body.iterations,
        passes: out.body.passes,
        rounds: out.body.rounds,
        space_bits: out.body.space_bits,
        comm_bits: out.body.comm_bits,
        max_round_bits: out.body.max_round_bits,
        load_bits: out.body.load_bits,
        total_load_bits: out.body.total_load_bits,
        wall_ms: out.wall_ms,
        file: file.map(|f| FileMeters {
            bytes_read: out.bytes_read,
            ..f
        }),
    }
}

/// Relative tolerance for cross-model objective agreement.
pub const OBJECTIVE_TOL: f64 = 1e-5;

/// Checks the invariants CI relies on, self-contained (no registry or
/// filesystem access, so reports from other commits still validate):
/// schema version, known budget, and at least one record. Over the
/// cells: known model names, zero violations, one cell per (scenario,
/// model) among in-RAM cells and among file cells, every scenario with
/// in-RAM cells covering all four models, the byte laws on every file
/// cell, and per-scenario objective agreement within [`OBJECTIVE_TOL`]
/// across in-RAM and file cells alike. Over the load rows: per mix
/// exactly one fleet row plus one row per shard index, the conservation
/// laws (`completed + shed + rejected == submitted`,
/// `cache_hits + solves + batched == completed`) on *every* row, fleet
/// counters equal to the field-wise sum of the shard rows, ordered
/// percentiles, positive fleet throughput, and fleet cache hits on the
/// hot-key mix (its second wave replays warmed keys by construction).
pub fn validate(report: &Report) -> Result<(), String> {
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema version {} (expected {SCHEMA_VERSION})",
            report.schema_version
        ));
    }
    if RunBudget::parse(&report.budget).is_none() {
        return Err(format!("unknown budget {:?}", report.budget));
    }
    if report.cells.is_empty() && report.load.is_empty() {
        return Err("empty report (no cells or load rows)".into());
    }
    validate_cells(&report.cells)?;
    validate_load(&report.load)
}

/// The cell leg of [`validate`].
fn validate_cells(cells: &[Cell]) -> Result<(), String> {
    for c in cells {
        let ctx = |what: &str| format!("cell {}/{}: {what}", c.scenario, c.model);
        let model = Model::parse(&c.model).ok_or_else(|| ctx("unknown model"))?;
        if c.violations != 0 {
            return Err(ctx(&format!("{} violations", c.violations)));
        }
        if let Some(f) = &c.file {
            check_file_meters(c, model, f).map_err(|e| ctx(&e))?;
        }
    }
    let mut keys: Vec<(&str, &str, bool)> = cells
        .iter()
        .map(|c| (c.scenario.as_str(), c.model.as_str(), c.file.is_some()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    if keys.len() != cells.len() {
        return Err("duplicate (scenario, model) cells".into());
    }
    let mut scenarios: Vec<&str> = cells.iter().map(|c| c.scenario.as_str()).collect();
    scenarios.sort_unstable();
    scenarios.dedup();
    for name in scenarios {
        let group: Vec<&Cell> = cells.iter().filter(|c| c.scenario == name).collect();
        let ram: Vec<&str> = group
            .iter()
            .filter(|c| c.file.is_none())
            .map(|c| c.model.as_str())
            .collect();
        if !ram.is_empty() {
            if let Some(m) = Model::ALL.iter().find(|m| !ram.contains(&m.name())) {
                return Err(format!(
                    "scenario {name:?}: model {:?} has no in-RAM cell",
                    m.name()
                ));
            }
        }
        let reference = group[0];
        for c in &group[1..] {
            let scale = reference.objective.abs().max(c.objective.abs()).max(1.0);
            if (c.objective - reference.objective).abs() > OBJECTIVE_TOL * scale {
                return Err(format!(
                    "scenario {name:?}: objective disagreement — {} ({}) vs {} ({})",
                    reference.model, reference.objective, c.model, c.objective
                ));
            }
        }
    }
    Ok(())
}

/// The byte laws of a file cell: a sane file geometry
/// (`chunk_len > 0`, `bytes_written == file_bytes > 0`, non-empty path)
/// and honest read meters — the streaming model must have read at least
/// `passes × file_bytes` and at most one extra file's worth (the
/// open-time header validation), every other model exactly one file.
fn check_file_meters(c: &Cell, model: Model, f: &FileMeters) -> Result<(), String> {
    if f.path.is_empty() {
        return Err("empty file path".into());
    }
    if f.chunk_len == 0 || c.n == 0 {
        return Err("zero chunk_len or row count".into());
    }
    if f.file_bytes == 0 || f.bytes_written != f.file_bytes {
        return Err(format!(
            "bytes_written {} != predicted file size {}",
            f.bytes_written, f.file_bytes
        ));
    }
    if model == Model::Streaming {
        if c.passes == 0 {
            return Err("streaming cell with zero passes".into());
        }
        let floor = c.passes * f.file_bytes;
        if f.bytes_read < floor || f.bytes_read > floor + f.file_bytes {
            return Err(format!(
                "bytes_read {} is not passes x file size ({} passes x {} bytes)",
                f.bytes_read, c.passes, f.file_bytes
            ));
        }
    } else {
        if c.passes != 0 {
            return Err("non-streaming cell with stream passes".into());
        }
        if f.bytes_read != f.file_bytes {
            return Err(format!(
                "bytes_read {} != file size {} (one full load expected)",
                f.bytes_read, f.file_bytes
            ));
        }
    }
    Ok(())
}

/// The load leg of [`validate`]: structural shape (one fleet row plus
/// shard rows `0..shards-1` per mix), the conservation laws per shard
/// *and* in aggregate, fleet counters as field-wise sums, percentile
/// ordering on every row, and positive fleet throughput.
fn validate_load(rows: &[LoadRow]) -> Result<(), String> {
    let mut mixes: Vec<&str> = rows.iter().map(|c| c.mix.as_str()).collect();
    mixes.sort_unstable();
    mixes.dedup();
    for mix in mixes {
        let rows: Vec<&LoadRow> = rows.iter().filter(|c| c.mix == mix).collect();
        let ctx = |what: &str| format!("load mix {mix:?}: {what}");
        let shards = rows[0].shards;
        if shards == 0 {
            return Err(ctx("zero shards"));
        }
        if rows
            .iter()
            .any(|r| r.shards != shards || r.workers != rows[0].workers || r.waves != rows[0].waves)
        {
            return Err(ctx("rows disagree on shards/workers/waves"));
        }
        if rows.len() as u64 != shards + 1 {
            return Err(ctx(&format!(
                "{} rows for {shards} shards (expected shards + fleet)",
                rows.len()
            )));
        }
        let fleet: Vec<&&LoadRow> = rows.iter().filter(|r| r.shard == "fleet").collect();
        if fleet.len() != 1 {
            return Err(ctx(&format!("{} fleet rows (expected 1)", fleet.len())));
        }
        let fleet = *fleet[0];
        for i in 0..shards {
            let want = i.to_string();
            if rows.iter().filter(|r| r.shard == want).count() != 1 {
                return Err(ctx(&format!("shard {want:?} does not appear exactly once")));
            }
        }
        for r in &rows {
            let rctx = |what: &str| format!("load mix {mix:?} shard {:?}: {what}", r.shard);
            if r.completed + r.shed + r.rejected != r.submitted {
                return Err(rctx(&format!(
                    "completed {} + shed {} + rejected {} != submitted {}",
                    r.completed, r.shed, r.rejected, r.submitted
                )));
            }
            if r.cache_hits + r.solves + r.batched != r.completed {
                return Err(rctx(&format!(
                    "cache_hits {} + solves {} + batched {} != completed {}",
                    r.cache_hits, r.solves, r.batched, r.completed
                )));
            }
            let quantiles = [r.p50_ms, r.p95_ms, r.p99_ms, r.max_ms];
            if quantiles.iter().any(|v| v.is_nan()) || quantiles.windows(2).any(|w| w[0] > w[1]) {
                return Err(rctx(&format!(
                    "latency percentiles out of order: p50 {} p95 {} p99 {} max {}",
                    r.p50_ms, r.p95_ms, r.p99_ms, r.max_ms
                )));
            }
        }
        let shard_rows: Vec<&&LoadRow> = rows.iter().filter(|r| r.shard != "fleet").collect();
        let sum = |f: fn(&LoadRow) -> u64| shard_rows.iter().map(|r| f(r)).sum::<u64>();
        let sums: [(u64, u64, &str); 7] = [
            (sum(|r| r.submitted), fleet.submitted, "submitted totals"),
            (sum(|r| r.completed), fleet.completed, "completed totals"),
            (sum(|r| r.shed), fleet.shed, "shed totals"),
            (sum(|r| r.rejected), fleet.rejected, "rejected totals"),
            (sum(|r| r.solves), fleet.solves, "solves totals"),
            (sum(|r| r.batched), fleet.batched, "batched totals"),
            (sum(|r| r.cache_hits), fleet.cache_hits, "cache_hits totals"),
        ];
        for (got, want, field) in sums {
            if got != want {
                return Err(ctx(&format!(
                    "fleet {field} {want} != sum of shard rows {got}"
                )));
            }
        }
        if fleet.completed == 0 {
            return Err(ctx("fleet completed no requests"));
        }
        if fleet.throughput_rps.is_nan() || fleet.throughput_rps <= 0.0 {
            return Err(ctx("non-positive fleet throughput"));
        }
        if mix == "hot_key" && fleet.waves >= 2 && fleet.cache_hits == 0 {
            return Err(ctx("hot-key mix produced zero cache hits"));
        }
    }
    Ok(())
}

/// Re-opens every store file a file cell references and re-verifies its
/// header and chunk checksums end to end, also checking the on-disk size
/// against the cell's recorded `file_bytes`. Separate from [`validate`]
/// (which must stay filesystem-free so archived reports still validate):
/// CI's `--check` calls this too, so a corrupted chunk store fails the
/// gate.
pub fn verify_ooc_files(report: &Report) -> Result<(), String> {
    let mut files: Vec<&FileMeters> = report
        .cells
        .iter()
        .filter_map(|c| c.file.as_ref())
        .collect();
    files.sort_unstable_by(|a, b| a.path.cmp(&b.path));
    files.dedup_by(|a, b| a.path == b.path);
    for f in files {
        let (header, bytes) = llp_store::verify_file(std::path::Path::new(&f.path))
            .map_err(|e| format!("store file {}: {e}", f.path))?;
        if bytes != f.file_bytes || header.file_bytes() != f.file_bytes {
            return Err(format!(
                "store file {}: on-disk size {bytes} != recorded file_bytes {}",
                f.path, f.file_bytes
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_cell(scenario: &str, model: Model, objective: f64) -> Cell {
        Cell {
            scenario: scenario.to_string(),
            family: "random_lp".to_string(),
            model: model.name().to_string(),
            n: 4000,
            d: 2,
            seed: 7,
            objective,
            violations: 0,
            iterations: 9,
            passes: if model == Model::Streaming { 18 } else { 0 },
            rounds: 0,
            space_bits: 4096,
            comm_bits: 0,
            max_round_bits: 0,
            load_bits: 0,
            total_load_bits: 0,
            wall_ms: 1.25,
            file: None,
        }
    }

    fn demo_file_cell(model: Model) -> Cell {
        let file_bytes = 100_000;
        let cell = demo_cell("s1", model, -0.75);
        Cell {
            wall_ms: 3.5,
            file: Some(FileMeters {
                dim: 2,
                chunk_len: 512,
                file_bytes,
                bytes_written: file_bytes,
                bytes_read: if cell.passes == 0 {
                    file_bytes
                } else {
                    cell.passes * file_bytes + 70
                },
                path: "llp_ooc_chunks/s1.llps".to_string(),
            }),
            ..cell
        }
    }

    fn demo_load_row(mix: &str, shard: &str, submitted: u64) -> LoadRow {
        // completed = submitted - 2 (one shed, one rejected);
        // completed = cache_hits + solves + batched with a 3/1/1 split
        // remainder on solves.
        let completed = submitted - 2;
        let cache_hits = completed / 2;
        let batched = completed / 4;
        LoadRow {
            mix: mix.to_string(),
            shard: shard.to_string(),
            shards: 2,
            workers: 2,
            waves: 2,
            submitted,
            completed,
            shed: 1,
            rejected: 1,
            solves: completed - cache_hits - batched,
            batched,
            cache_hits,
            p50_ms: 1.0,
            p95_ms: 4.0,
            p99_ms: 9.0,
            max_ms: 12.0,
            mean_ms: 2.0,
            queue_p95_ms: 0.5,
            throughput_rps: 800.0,
            wall_ms: 100.0,
        }
    }

    fn demo_load_mix(mix: &str) -> Vec<LoadRow> {
        let a = demo_load_row(mix, "0", 42);
        let b = demo_load_row(mix, "1", 62);
        let mut fleet = demo_load_row(mix, "fleet", 104);
        fleet.shed = a.shed + b.shed;
        fleet.rejected = a.rejected + b.rejected;
        fleet.completed = a.completed + b.completed;
        fleet.cache_hits = a.cache_hits + b.cache_hits;
        fleet.batched = a.batched + b.batched;
        fleet.solves = a.solves + b.solves;
        vec![a, b, fleet]
    }

    /// Four in-RAM cells (indices 0–3, `Model::ALL` order), the same four
    /// models from a file (4–7), and the uniform (0–2) and hot-key (3–5)
    /// load mixes.
    fn demo_report() -> Report {
        let mut cells: Vec<Cell> = Model::ALL
            .iter()
            .map(|&m| demo_cell("s1", m, -0.75))
            .collect();
        cells.extend(Model::ALL.iter().map(|&m| demo_file_cell(m)));
        let mut load = demo_load_mix("uniform");
        load.extend(demo_load_mix("hot_key"));
        Report {
            schema_version: SCHEMA_VERSION,
            label: "demo".to_string(),
            budget: "quick".to_string(),
            cells,
            load,
        }
    }

    const RAM_MPC: usize = 3;
    const FILE_RAM: usize = 4;
    const FILE_STREAMING: usize = 5;
    const FILE_MPC: usize = 7;

    fn err(r: &Report) -> String {
        validate(r).expect_err("the mutated report must be refused")
    }

    #[test]
    fn report_roundtrips_exactly() {
        let r = demo_report();
        let parsed = Report::from_json(&r.to_json()).expect("parse back");
        assert_eq!(parsed, r);
    }

    #[test]
    fn validate_accepts_the_demo_report() {
        assert_eq!(validate(&demo_report()), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_model() {
        let mut r = demo_report();
        r.cells.remove(RAM_MPC);
        assert!(err(&r).contains("mpc"));
    }

    #[test]
    fn validate_rejects_objective_disagreement() {
        let mut r = demo_report();
        r.cells[RAM_MPC].objective = -0.80;
        assert!(err(&r).contains("disagreement"));
    }

    #[test]
    fn validate_accepts_partial_reports_but_not_empty_ones() {
        let full = demo_report();
        let mut r = full.clone();
        r.cells.clear();
        assert_eq!(validate(&r), Ok(()), "load-only is fine");
        r.cells = full.cells[FILE_RAM..].to_vec();
        assert_eq!(validate(&r), Ok(()), "file cells + load is fine");
        r.load.clear();
        assert_eq!(validate(&r), Ok(()), "file-cells-only is fine");
        r.cells = full.cells[..FILE_RAM].to_vec();
        assert_eq!(validate(&r), Ok(()), "grid-only is fine");
        r.cells.clear();
        assert!(err(&r).contains("empty report"));
    }

    #[test]
    fn validate_rejects_bad_file_cells() {
        fn meters(r: &mut Report, i: usize) -> &mut FileMeters {
            r.cells[i].file.as_mut().expect("a file cell")
        }
        // Violations are a hard failure.
        let mut r = demo_report();
        r.cells[FILE_RAM].violations = 1;
        assert!(err(&r).contains("violations"));
        // The writer meter must equal the header-predicted file size.
        let mut r = demo_report();
        meters(&mut r, FILE_RAM).bytes_written -= 1;
        assert!(err(&r).contains("bytes_written"));
        // Streaming must read the file once per pass (plus at most one
        // extra header-validation open).
        let mut r = demo_report();
        let m = meters(&mut r, FILE_STREAMING);
        m.bytes_read = m.file_bytes;
        assert!(err(&r).contains("passes x file size"));
        // Non-streaming models load the file exactly once.
        let mut r = demo_report();
        meters(&mut r, FILE_RAM).bytes_read *= 2;
        assert!(err(&r).contains("one full load"));
        // A streaming cell records its pass count.
        let mut r = demo_report();
        r.cells[FILE_STREAMING].passes = 0;
        assert!(err(&r).contains("zero passes"));
        // Objectives agree per scenario across file and in-RAM cells.
        let mut r = demo_report();
        r.cells[FILE_MPC].objective = -0.80;
        assert!(err(&r).contains("disagreement"));
        // (scenario, model) keys are unique among file cells.
        let mut r = demo_report();
        let dup = r.cells[FILE_RAM].clone();
        r.cells.push(dup);
        assert!(err(&r).contains("duplicate"));
        // Unknown model names are refused.
        let mut r = demo_report();
        r.cells[FILE_RAM + 2].model = "warp".to_string();
        assert!(err(&r).contains("unknown model"));
    }

    #[test]
    fn verify_ooc_files_round_trips_a_real_file() {
        use llp_workloads::scenario::{registry, RunBudget};
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-ooc-tests/bench-verify");
        std::fs::create_dir_all(&dir).unwrap();
        let sc = registry(RunBudget::Quick)
            .into_iter()
            .find(|s| s.name == "lp_uniform")
            .unwrap();
        let path = dir.join("lp_uniform.llps");
        let (header, written) = llp_workloads::write_scenario(&sc, &path, 256).unwrap();
        let mut r = demo_report();
        r.cells = vec![r.cells[FILE_RAM].clone()];
        let m = r.cells[0].file.as_mut().unwrap();
        m.path = path.to_string_lossy().into_owned();
        m.file_bytes = header.file_bytes();
        m.bytes_written = written;
        assert_eq!(verify_ooc_files(&r), Ok(()));

        // A recorded size that disagrees with the file is refused...
        let mut lied = r.clone();
        let m = lied.cells[0].file.as_mut().unwrap();
        m.file_bytes += 1;
        m.bytes_written += 1;
        assert!(verify_ooc_files(&lied).unwrap_err().contains("size"));
        // ...and so is a corrupted byte anywhere in the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(verify_ooc_files(&r).is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_load_rows() {
        // Per-shard conservation broken.
        let mut r = demo_report();
        r.load[0].shed += 1;
        assert!(err(&r).contains("submitted"));
        // Fleet counters must be the field-wise sum of the shard rows.
        let mut r = demo_report();
        r.load[2].submitted += 1;
        r.load[2].completed += 1;
        r.load[2].solves += 1;
        assert!(err(&r).contains("sum of shard rows"));
        // Completion-split conservation broken on the fleet row.
        let mut r = demo_report();
        r.load[2].cache_hits += 1;
        r.load[2].solves -= 1;
        assert!(err(&r).contains("sum of shard rows"));
        // Exactly one fleet row per mix.
        let mut r = demo_report();
        r.load[2].shard = "1".to_string();
        assert!(err(&r).contains("fleet"));
        // Shard indices must each appear exactly once.
        let mut r = demo_report();
        r.load[1].shard = "0".to_string();
        assert!(err(&r).contains("exactly once"));
        // Percentiles ordered on every row, shard rows included.
        let mut r = demo_report();
        r.load[1].p95_ms = 100.0;
        assert!(err(&r).contains("percentiles"));
        // Fleet must have completed traffic at positive throughput.
        let mut r = demo_report();
        for row in &mut r.load {
            row.throughput_rps = 0.0;
        }
        assert!(err(&r).contains("throughput"));
        // Hot-key fleet must hit the cache when waves >= 2.
        let mut r = demo_report();
        for row in &mut r.load {
            if row.mix == "hot_key" {
                row.solves += row.cache_hits;
                row.cache_hits = 0;
            }
        }
        assert!(err(&r).contains("cache hits"));
    }

    #[test]
    fn validate_rejects_broken_counter_laws_and_duplicate_mixes() {
        // Offered-load conservation broken on the fleet row.
        let mut r = demo_report();
        r.load[2].shed += 1;
        assert!(err(&r).contains("submitted"));
        // Completion-split conservation broken on a shard row.
        let mut r = demo_report();
        r.load[0].batched += 1;
        assert!(err(&r).contains("completed"));
        // The hot-key mix must hit the cache even when its misses
        // coalesced rather than solved.
        let mut r = demo_report();
        for row in &mut r.load[3..] {
            row.batched += row.cache_hits;
            row.cache_hits = 0;
        }
        assert!(err(&r).contains("cache hits"));
        // Percentiles ordered on the fleet row too.
        let mut r = demo_report();
        r.load[2].p95_ms = 100.0;
        assert!(err(&r).contains("percentiles"));
        // A duplicated mix is refused.
        let mut r = demo_report();
        for row in &mut r.load[3..] {
            row.mix = "uniform".to_string();
        }
        assert!(err(&r).contains("rows for 2 shards"));
    }

    #[test]
    fn validate_rejects_violations_and_bad_version() {
        let mut r = demo_report();
        r.cells[1].violations = 2;
        assert!(err(&r).contains("violations"));
        let mut r = demo_report();
        r.schema_version = 999;
        assert!(err(&r).contains("schema"));
        let mut r = demo_report();
        r.budget = "warp".to_string();
        assert!(err(&r).contains("budget"));
    }
}
