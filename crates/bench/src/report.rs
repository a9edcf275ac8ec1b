//! Machine-readable experiment reports: the scenario × model grid
//! serialized to JSON.
//!
//! [`run_scenarios`] enumerates the scenario registry
//! (`llp_workloads::scenario::registry`) and runs every scenario in all
//! four models — RAM (Algorithm 1 directly), streaming, coordinator, and
//! MPC — collecting solver statistics and the existing meter readings
//! (space, communication, rounds, iterations) into one [`Cell`] per
//! (scenario × model) pair. The resulting [`Report`] serializes to a
//! standard JSON document (`BENCH_<label>.json`), parses back losslessly
//! ([`Report::from_json`]), and [`validate`] checks the invariants CI
//! relies on: full grid coverage, zero violations, and per-scenario
//! objective agreement across models. Numbers round-trip exactly — the
//! writer emits Rust's shortest-round-trip float formatting.

use crate::RunBudget;
use llp_core::lptype::ColumnarProblem;
use llp_service::{ExecParams, Model};
use llp_workloads::scenario::{registry, Scenario, ScenarioData};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Bumped whenever a [`Cell`]/[`Report`]/[`ServiceCell`]/[`NetCell`]
/// /[`OocCell`] field changes meaning; consumers (CI `--check`) refuse
/// unknown versions. v2 added the `service` block (the `experiments
/// serve` load-harness results); v3 added the `columnar` block
/// (AoS-vs-SoA violation-scan comparison cells); v4 added the `net`
/// block (`experiments net-serve` socket loadgen: per-shard rows plus a
/// fleet-aggregate row per mix); v5 added the `ooc` block (`experiments
/// ooc`: file-backed runs over chunked store files with
/// bytes-written/bytes-read meters); v6 removed the `columnar` block
/// along with the AoS scan it timed.
pub const SCHEMA_VERSION: u64 = 6;

/// The models every scenario runs under, in report order.
pub const MODELS: &[&str] = &["ram", "streaming", "coordinator", "mpc"];

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
    /// Violations of the returned solution over the full input (must be 0).
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
    /// Wall-clock time of the solve, milliseconds.
    pub wall_ms: f64,
}

/// One load-mix measurement of the solve service (`experiments serve`).
/// Counter fields mirror `llp_service::ServiceStats`; latency fields are
/// nearest-rank percentiles of end-to-end request latency.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceCell {
    /// Mix name (`"uniform"`, `"hot_key"`, `"heavy_tail"`).
    pub mix: String,
    /// Service worker threads.
    pub workers: u64,
    /// `llp_par` threads per worker solve.
    pub solver_threads: u64,
    /// Bounded-queue capacity (batches).
    pub queue_capacity: u64,
    /// LRU result-cache capacity (entries).
    pub cache_capacity: u64,
    /// Times the request stream was replayed (wave 2+ exercises the
    /// cache).
    pub waves: u64,
    /// Requests offered.
    pub submitted: u64,
    /// Responses delivered.
    pub completed: u64,
    /// Requests dropped by admission control.
    pub shed: u64,
    /// Requests refused before queueing (unknown scenario, closed
    /// service).
    pub rejected: u64,
    /// Batches executed by a worker.
    pub solves: u64,
    /// Requests coalesced into an in-flight batch.
    pub batched: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Median end-to-end latency, milliseconds.
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
    /// Wall-clock of the whole mix run, milliseconds.
    pub wall_ms: f64,
}

/// One row of the socket-loadgen block (`experiments net-serve`): one
/// service shard's counters under one load mix, or the fleet-aggregate
/// row (`shard == "fleet"`). Counters mirror `llp_service::ServiceStats`
/// per shard; the fleet row's counters are field-wise sums and its
/// percentiles are recomputed from the concatenated raw samples
/// (percentiles do not compose from per-shard summaries). The
/// classification counters are worker-count deterministic per shard —
/// routing is a pure function of the request fingerprint and the shard
/// count (DESIGN.md §9), so replaying the same stream at the same shard
/// count must reproduce them bit-for-bit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetCell {
    /// Mix name (`"uniform"`, `"hot_key"`, `"heavy_tail"`).
    pub mix: String,
    /// Shard index rendered as text (`"0"`, `"1"`, …) or `"fleet"` for
    /// the aggregate row.
    pub shard: String,
    /// Total shard count behind the server.
    pub shards: u64,
    /// Worker threads per shard.
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

/// One file-backed out-of-core measurement (`experiments ooc`): a
/// scenario streamed to a chunked store file (`llp_store`), then solved
/// in one model through `llp_service::solve_source` with every
/// constraint byte coming from that file. The streaming model reads the
/// file pass by pass through `llp_bigdata::ooc::FileSource` (so
/// `bytes_read` grows with `passes`); the other models load it once,
/// whole (`llp_store::read_all`), and cut their sites or machines as
/// row ranges of it. `bytes_written` is metered at write time and
/// must equal the file size the header predicts — [`validate`] enforces
/// both meters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OocCell {
    /// Registry scenario name.
    pub scenario: String,
    /// Generator family wire name (also in the file's provenance header).
    pub family: String,
    /// `"ram" | "streaming" | "coordinator" | "mpc"`.
    pub model: String,
    /// Rows in the store file (materialized constraint/point count).
    pub n: u64,
    /// Ambient dimension of the scenario.
    pub d: u64,
    /// Stored row width (can exceed `d`, e.g. Chebyshev stores `d + 1`).
    pub dim: u64,
    /// The scenario's explicit generator seed.
    pub seed: u64,
    /// Rows per chunk frame.
    pub chunk_len: u64,
    /// File size the header predicts, bytes.
    pub file_bytes: u64,
    /// Bytes the chunk writer emitted (must equal `file_bytes`).
    pub bytes_written: u64,
    /// Bytes read from the file to feed this model's solve.
    pub bytes_read: u64,
    /// Stream passes (streaming model only; 0 elsewhere).
    pub passes: u64,
    /// Objective value of the returned solution.
    pub objective: f64,
    /// Violations of the returned solution over the full input (must be
    /// 0), counted in every model by a separate sweep of the file that
    /// `bytes_read` leaves out.
    pub violations: u64,
    /// Iterations of Algorithm 1.
    pub iterations: u64,
    /// Wall-clock time of the solve, milliseconds. Streaming reads the
    /// file inside it; the other models load the file before it starts.
    pub wall_ms: f64,
    /// Path of the store file, as written.
    pub path: String,
}

/// A full scenario-grid run: the file format of `BENCH_<label>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Free-form run label (CI passes a timestamp or branch name).
    pub label: String,
    /// `"quick"` or `"full"`.
    pub budget: String,
    /// One cell per (scenario × model), scenario-major in registry order.
    /// Empty for serve-only reports.
    pub cells: Vec<Cell>,
    /// One cell per load mix from `experiments serve`. Empty when the
    /// serve harness did not run.
    pub service: Vec<ServiceCell>,
    /// Socket-loadgen rows from `experiments net-serve`: per mix, one
    /// row per shard plus one fleet row. Empty when that leg did not
    /// run.
    pub net: Vec<NetCell>,
    /// File-backed out-of-core rows from `experiments ooc`: one row per
    /// (scenario × model) solved from a chunked store file. Empty when
    /// that leg did not run.
    pub ooc: Vec<OocCell>,
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

    /// A human summary of the grid (one row per cell).
    pub fn summary_table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            &format!(
                "S1  Scenario grid ({} budget, label {:?})",
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
                format!("{:.1}", c.wall_ms),
            ]);
        }
        t
    }

    /// A human summary of the service load mixes (one row per mix).
    pub fn service_summary_table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            &format!(
                "S2  Service load mixes ({} budget, label {:?})",
                self.budget, self.label
            ),
            &[
                "mix",
                "workers",
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
        for c in &self.service {
            t.push(vec![
                c.mix.clone(),
                c.workers.to_string(),
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

    /// A human summary of the socket loadgen (one row per shard per
    /// mix, fleet rows included).
    pub fn net_summary_table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            &format!(
                "S4  Network serve: per-shard load ({} budget, label {:?})",
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
        for c in &self.net {
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

    /// A human summary of the out-of-core runs (one row per cell).
    pub fn ooc_summary_table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            &format!(
                "S5  Out-of-core: file-backed runs ({} budget, label {:?})",
                self.budget, self.label
            ),
            &[
                "scenario",
                "model",
                "n",
                "chunk_len",
                "file_MB",
                "read_MB",
                "passes",
                "objective",
                "viol",
                "iters",
                "ms",
            ],
        );
        let mb = |bytes: u64| format!("{:.2}", bytes as f64 / (1024.0 * 1024.0));
        for c in &self.ooc {
            t.push(vec![
                c.scenario.clone(),
                c.model.clone(),
                c.n.to_string(),
                c.chunk_len.to_string(),
                mb(c.file_bytes),
                mb(c.bytes_read),
                if c.passes == 0 {
                    "-".to_string()
                } else {
                    c.passes.to_string()
                },
                format!("{:.6}", c.objective),
                c.violations.to_string(),
                c.iterations.to_string(),
                format!("{:.1}", c.wall_ms),
            ]);
        }
        t
    }
}

/// Runs the full scenario × model grid at the given budget.
pub fn run_scenarios(budget: RunBudget, label: &str) -> Report {
    let mut cells = Vec::new();
    for sc in registry(budget) {
        cells.extend(run_scenario(&sc));
    }
    Report {
        schema_version: SCHEMA_VERSION,
        label: label.to_string(),
        budget: budget.name().to_string(),
        cells,
        service: Vec::new(),
        net: Vec::new(),
        ooc: Vec::new(),
    }
}

/// Runs one scenario in all four models.
pub fn run_scenario(sc: &Scenario) -> Vec<Cell> {
    match sc.generate() {
        ScenarioData::Lp(p, cs) => grid(sc, &p, cs),
        ScenarioData::Svm(p, pts) => grid(sc, &p, pts),
        ScenarioData::Meb(p, pts) => grid(sc, &p, pts),
    }
}

fn grid<P: ColumnarProblem>(sc: &Scenario, problem: &P, data: Vec<P::Constraint>) -> Vec<Cell> {
    MODELS
        .iter()
        .map(|model| run_cell(sc, problem, &data, model))
        .collect()
}

/// A deterministic per-(scenario, model) solver seed, decoupled from the
/// generator seed so re-seeding one never perturbs the other. Shared
/// with the out-of-core harness (`crate::ooc`), so a file-backed run of
/// the same (scenario, model) replays the grid cell's exact RNG stream.
pub fn solver_seed(sc: &Scenario, model: &str) -> u64 {
    let mut h = sc.seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in model.bytes() {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b));
    }
    h
}

fn run_cell<P: ColumnarProblem>(
    sc: &Scenario,
    problem: &P,
    data: &[P::Constraint],
    model: &str,
) -> Cell {
    let m =
        Model::parse(model).unwrap_or_else(|| panic!("unknown model {model:?}; known: {MODELS:?}"));
    // The grid cell is the same computation the solve service performs:
    // one shared dispatch (`llp_service::exec`) carries the partition
    // layouts, meter charges, and timer placement for both.
    let params = ExecParams {
        r: sc.r,
        coord_sites: COORD_SITES,
        mpc_delta: MPC_DELTA,
        skew: sc.skew,
    };
    let mut rng = StdRng::seed_from_u64(solver_seed(sc, model));
    let out = llp_service::solve_model(problem, data, m, &params, &mut rng)
        .unwrap_or_else(|e| panic!("{}/{model}: {e}", sc.name));
    Cell {
        scenario: sc.name.to_string(),
        family: sc.family.name().to_string(),
        model: model.to_string(),
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
    }
}

/// Relative tolerance for cross-model objective agreement.
pub const OBJECTIVE_TOL: f64 = 1e-5;

/// Checks the invariants CI relies on, self-contained (no registry
/// access, so reports from other commits still validate):
/// schema version, known budget, at least one non-empty block, and then
/// per block — grid: every scenario present in all four models exactly
/// once, zero violations everywhere, per-scenario objective agreement
/// across models within [`OBJECTIVE_TOL`]; service: counter conservation
/// (`completed + shed == submitted`,
/// `cache_hits + solves + batched == completed`), ordered latency
/// percentiles, positive throughput, and a non-zero cache-hit count on
/// the hot-key mix (its second wave replays warmed keys by
/// construction); net: per mix exactly one fleet row plus one row
/// per shard index, the same conservation laws on *every* row (per
/// shard and in aggregate), fleet counters equal to the field-wise sum
/// of the shard rows, ordered percentiles, and positive fleet
/// throughput.
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
    if report.cells.is_empty()
        && report.service.is_empty()
        && report.net.is_empty()
        && report.ooc.is_empty()
    {
        return Err("empty report (no grid, service, net, or ooc cells)".into());
    }
    validate_service(&report.service)?;
    validate_net(&report.net)?;
    validate_ooc(&report.ooc)?;
    if report.cells.is_empty() {
        return Ok(());
    }
    let mut scenarios: Vec<&str> = report.cells.iter().map(|c| c.scenario.as_str()).collect();
    scenarios.sort_unstable();
    scenarios.dedup();
    for name in scenarios {
        let cells: Vec<&Cell> = report.cells.iter().filter(|c| c.scenario == name).collect();
        for model in MODELS {
            let found = cells.iter().filter(|c| c.model == *model).count();
            if found != 1 {
                return Err(format!(
                    "scenario {name:?}: model {model:?} appears {found} times (expected 1)"
                ));
            }
        }
        if cells.len() != MODELS.len() {
            return Err(format!(
                "scenario {name:?}: {} cells for {} models",
                cells.len(),
                MODELS.len()
            ));
        }
        for c in &cells {
            if c.violations != 0 {
                return Err(format!(
                    "scenario {name:?}, model {:?}: {} violations",
                    c.model, c.violations
                ));
            }
        }
        let reference = cells[0].objective;
        for c in &cells[1..] {
            let scale = reference.abs().max(c.objective.abs()).max(1.0);
            if (c.objective - reference).abs() > OBJECTIVE_TOL * scale {
                return Err(format!(
                    "scenario {name:?}: objective disagreement — {} ({}) vs {} ({})",
                    cells[0].model, reference, c.model, c.objective
                ));
            }
        }
    }
    Ok(())
}

/// The service-block leg of [`validate`].
fn validate_service(cells: &[ServiceCell]) -> Result<(), String> {
    let mut mixes: Vec<&str> = cells.iter().map(|c| c.mix.as_str()).collect();
    mixes.sort_unstable();
    mixes.dedup();
    if mixes.len() != cells.len() {
        return Err("duplicate service mix names".into());
    }
    for c in cells {
        let ctx = |what: &str| format!("service mix {:?}: {what}", c.mix);
        if c.completed + c.shed + c.rejected != c.submitted {
            return Err(ctx(&format!(
                "completed {} + shed {} + rejected {} != submitted {}",
                c.completed, c.shed, c.rejected, c.submitted
            )));
        }
        if c.cache_hits + c.solves + c.batched != c.completed {
            return Err(ctx(&format!(
                "cache_hits {} + solves {} + batched {} != completed {}",
                c.cache_hits, c.solves, c.batched, c.completed
            )));
        }
        if c.completed == 0 {
            return Err(ctx("no completed requests"));
        }
        let quantiles = [c.p50_ms, c.p95_ms, c.p99_ms, c.max_ms];
        if quantiles.iter().any(|v| v.is_nan()) || quantiles.windows(2).any(|w| w[0] > w[1]) {
            return Err(ctx(&format!(
                "latency percentiles out of order: p50 {} p95 {} p99 {} max {}",
                c.p50_ms, c.p95_ms, c.p99_ms, c.max_ms
            )));
        }
        if c.throughput_rps.is_nan() || c.throughput_rps <= 0.0 {
            return Err(ctx("non-positive throughput"));
        }
        if c.mix == "hot_key" && c.waves >= 2 && c.cache_hits == 0 {
            return Err(ctx("hot-key mix produced zero cache hits"));
        }
    }
    Ok(())
}

/// The net-block leg of [`validate`]: structural shape (one fleet row
/// plus shard rows `0..shards-1` per mix), the conservation laws per
/// shard *and* in aggregate, fleet counters as field-wise sums,
/// percentile ordering on every row, and positive fleet throughput.
fn validate_net(cells: &[NetCell]) -> Result<(), String> {
    let mut mixes: Vec<&str> = cells.iter().map(|c| c.mix.as_str()).collect();
    mixes.sort_unstable();
    mixes.dedup();
    for mix in mixes {
        let rows: Vec<&NetCell> = cells.iter().filter(|c| c.mix == mix).collect();
        let ctx = |what: &str| format!("net mix {mix:?}: {what}");
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
        let fleet: Vec<&&NetCell> = rows.iter().filter(|r| r.shard == "fleet").collect();
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
            let rctx = |what: &str| format!("net mix {mix:?} shard {:?}: {what}", r.shard);
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
        let shard_rows: Vec<&&NetCell> = rows.iter().filter(|r| r.shard != "fleet").collect();
        let sum = |f: fn(&NetCell) -> u64| shard_rows.iter().map(|r| f(r)).sum::<u64>();
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

/// The ooc-block leg of [`validate`]: unique (scenario, model) keys,
/// known model names, zero violations, a sane file geometry
/// (`chunk_len > 0`, `bytes_written == file_bytes > 0`, non-empty
/// path), honest read meters — the streaming model must have read at
/// least `passes × file_bytes` and at most one extra file's worth (the
/// open-time header validation), every other model exactly one file —
/// and per-scenario objective agreement across models within
/// [`OBJECTIVE_TOL`].
fn validate_ooc(cells: &[OocCell]) -> Result<(), String> {
    let mut keys: Vec<(&str, &str)> = cells
        .iter()
        .map(|c| (c.scenario.as_str(), c.model.as_str()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    if keys.len() != cells.len() {
        return Err("duplicate ooc (scenario, model) cells".into());
    }
    for c in cells {
        let ctx = |what: &str| format!("ooc cell {}/{}: {what}", c.scenario, c.model);
        if !MODELS.contains(&c.model.as_str()) {
            return Err(ctx("unknown model"));
        }
        if c.violations != 0 {
            return Err(ctx(&format!("{} violations", c.violations)));
        }
        if c.path.is_empty() {
            return Err(ctx("empty file path"));
        }
        if c.chunk_len == 0 || c.n == 0 {
            return Err(ctx("zero chunk_len or row count"));
        }
        if c.file_bytes == 0 || c.bytes_written != c.file_bytes {
            return Err(ctx(&format!(
                "bytes_written {} != predicted file size {}",
                c.bytes_written, c.file_bytes
            )));
        }
        if c.model == "streaming" {
            if c.passes == 0 {
                return Err(ctx("streaming cell with zero passes"));
            }
            let floor = c.passes * c.file_bytes;
            if c.bytes_read < floor || c.bytes_read > floor + c.file_bytes {
                return Err(ctx(&format!(
                    "bytes_read {} is not passes x file size ({} passes x {} bytes)",
                    c.bytes_read, c.passes, c.file_bytes
                )));
            }
        } else {
            if c.passes != 0 {
                return Err(ctx("non-streaming cell with stream passes"));
            }
            if c.bytes_read != c.file_bytes {
                return Err(ctx(&format!(
                    "bytes_read {} != file size {} (one full load expected)",
                    c.bytes_read, c.file_bytes
                )));
            }
        }
    }
    let mut scenarios: Vec<&str> = cells.iter().map(|c| c.scenario.as_str()).collect();
    scenarios.sort_unstable();
    scenarios.dedup();
    for name in scenarios {
        let group: Vec<&OocCell> = cells.iter().filter(|c| c.scenario == name).collect();
        let reference = group[0].objective;
        for c in &group[1..] {
            let scale = reference.abs().max(c.objective.abs()).max(1.0);
            if (c.objective - reference).abs() > OBJECTIVE_TOL * scale {
                return Err(format!(
                    "ooc scenario {name:?}: objective disagreement — {} ({}) vs {} ({})",
                    group[0].model, reference, c.model, c.objective
                ));
            }
        }
    }
    Ok(())
}

/// Re-opens every store file an ooc block references and re-verifies its
/// header and chunk checksums end to end, also checking the on-disk size
/// against the cell's recorded `file_bytes`. Separate from [`validate`]
/// (which must stay filesystem-free so archived reports still validate):
/// CI's `--check` calls this too, so a corrupted chunk store fails the
/// gate.
pub fn verify_ooc_files(report: &Report) -> Result<(), String> {
    let mut paths: Vec<&OocCell> = report.ooc.iter().collect();
    paths.sort_unstable_by(|a, b| a.path.cmp(&b.path));
    paths.dedup_by(|a, b| a.path == b.path);
    for c in paths {
        let (header, bytes) = llp_store::verify_file(std::path::Path::new(&c.path))
            .map_err(|e| format!("ooc file {}: {e}", c.path))?;
        if bytes != c.file_bytes || header.file_bytes() != c.file_bytes {
            return Err(format!(
                "ooc file {}: on-disk size {bytes} != recorded file_bytes {}",
                c.path, c.file_bytes
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_cell(scenario: &str, model: &str, objective: f64) -> Cell {
        Cell {
            scenario: scenario.to_string(),
            family: "random_lp".to_string(),
            model: model.to_string(),
            n: 1000,
            d: 2,
            seed: 7,
            objective,
            violations: 0,
            iterations: 9,
            passes: 18,
            rounds: 0,
            space_bits: 4096,
            comm_bits: 0,
            max_round_bits: 0,
            load_bits: 0,
            total_load_bits: 0,
            wall_ms: 1.25,
        }
    }

    fn demo_service_cell(mix: &str) -> ServiceCell {
        ServiceCell {
            mix: mix.to_string(),
            workers: 2,
            solver_threads: 1,
            queue_capacity: 64,
            cache_capacity: 256,
            waves: 2,
            submitted: 100,
            completed: 95,
            shed: 4,
            rejected: 1,
            solves: 30,
            batched: 15,
            cache_hits: 50,
            p50_ms: 1.0,
            p95_ms: 4.0,
            p99_ms: 9.0,
            max_ms: 12.0,
            mean_ms: 2.0,
            queue_p95_ms: 0.5,
            throughput_rps: 950.0,
            wall_ms: 100.0,
        }
    }

    fn demo_net_cell(mix: &str, shard: &str, submitted: u64) -> NetCell {
        // completed = submitted - 2 (one shed, one rejected);
        // completed = cache_hits + solves + batched with a 3/1/1 split
        // remainder on solves.
        let completed = submitted - 2;
        let cache_hits = completed / 2;
        let batched = completed / 4;
        NetCell {
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

    fn demo_net_mix(mix: &str) -> Vec<NetCell> {
        let a = demo_net_cell(mix, "0", 42);
        let b = demo_net_cell(mix, "1", 62);
        let mut fleet = demo_net_cell(mix, "fleet", 104);
        fleet.shed = a.shed + b.shed;
        fleet.rejected = a.rejected + b.rejected;
        fleet.completed = a.completed + b.completed;
        fleet.cache_hits = a.cache_hits + b.cache_hits;
        fleet.batched = a.batched + b.batched;
        fleet.solves = a.solves + b.solves;
        vec![a, b, fleet]
    }

    fn demo_ooc_cell(model: &str) -> OocCell {
        let streaming = model == "streaming";
        OocCell {
            scenario: "s1".to_string(),
            family: "random_lp".to_string(),
            model: model.to_string(),
            n: 4000,
            d: 2,
            dim: 2,
            seed: 7,
            chunk_len: 512,
            file_bytes: 100_000,
            bytes_written: 100_000,
            bytes_read: if streaming {
                18 * 100_000 + 70
            } else {
                100_000
            },
            passes: if streaming { 18 } else { 0 },
            objective: -0.75,
            violations: 0,
            iterations: 9,
            wall_ms: 3.5,
            path: "llp_ooc_chunks/s1.llps".to_string(),
        }
    }

    fn demo_report() -> Report {
        let mut net = demo_net_mix("uniform");
        net.extend(demo_net_mix("hot_key"));
        Report {
            schema_version: SCHEMA_VERSION,
            label: "demo".to_string(),
            budget: "quick".to_string(),
            cells: MODELS.iter().map(|m| demo_cell("s1", m, -0.75)).collect(),
            service: vec![demo_service_cell("uniform"), demo_service_cell("hot_key")],
            net,
            ooc: MODELS.iter().map(|m| demo_ooc_cell(m)).collect(),
        }
    }

    #[test]
    fn report_roundtrips_exactly() {
        let r = demo_report();
        let parsed = Report::from_json(&r.to_json()).expect("parse back");
        assert_eq!(parsed, r);
    }

    #[test]
    fn validate_accepts_the_demo_grid() {
        assert_eq!(validate(&demo_report()), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_model() {
        let mut r = demo_report();
        r.cells.pop();
        assert!(validate(&r).unwrap_err().contains("mpc"));
    }

    #[test]
    fn validate_rejects_objective_disagreement() {
        let mut r = demo_report();
        r.cells[3].objective = -0.80;
        assert!(validate(&r).unwrap_err().contains("disagreement"));
    }

    #[test]
    fn validate_accepts_partial_reports_but_not_empty_ones() {
        let mut r = demo_report();
        r.cells.clear();
        assert_eq!(validate(&r), Ok(()), "serve+net+ooc-only is fine");
        r.service.clear();
        assert_eq!(validate(&r), Ok(()), "net+ooc-only is fine");
        r.net.clear();
        assert_eq!(validate(&r), Ok(()), "ooc-only is fine");
        r.ooc.clear();
        assert!(validate(&r).unwrap_err().contains("empty report"));
    }

    #[test]
    fn validate_rejects_bad_ooc_cells() {
        // Violations are a hard failure.
        let mut r = demo_report();
        r.ooc[0].violations = 1;
        assert!(validate(&r).unwrap_err().contains("violations"));
        // The writer meter must equal the header-predicted file size.
        let mut r = demo_report();
        r.ooc[0].bytes_written -= 1;
        assert!(validate(&r).unwrap_err().contains("bytes_written"));
        // Streaming must read the file once per pass (plus at most one
        // extra header-validation open).
        let mut r = demo_report();
        r.ooc[1].bytes_read = r.ooc[1].file_bytes;
        assert!(validate(&r).unwrap_err().contains("passes x file size"));
        // Non-streaming models load the file exactly once.
        let mut r = demo_report();
        r.ooc[0].bytes_read *= 2;
        assert!(validate(&r).unwrap_err().contains("one full load"));
        // A streaming cell records its pass count.
        let mut r = demo_report();
        r.ooc[1].passes = 0;
        assert!(validate(&r).unwrap_err().contains("zero passes"));
        // Objectives agree across models per scenario.
        let mut r = demo_report();
        r.ooc[3].objective = -0.80;
        assert!(validate(&r).unwrap_err().contains("disagreement"));
        // (scenario, model) keys are unique.
        let mut r = demo_report();
        let dup = r.ooc[0].clone();
        r.ooc.push(dup);
        assert!(validate(&r).unwrap_err().contains("duplicate ooc"));
        // Unknown model names are refused.
        let mut r = demo_report();
        r.ooc[2].model = "warp".to_string();
        assert!(validate(&r).unwrap_err().contains("unknown model"));
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
        r.ooc.truncate(1);
        r.ooc[0].path = path.to_string_lossy().into_owned();
        r.ooc[0].file_bytes = header.file_bytes();
        r.ooc[0].bytes_written = written;
        assert_eq!(verify_ooc_files(&r), Ok(()));

        // A recorded size that disagrees with the file is refused...
        let mut lied = r.clone();
        lied.ooc[0].file_bytes += 1;
        lied.ooc[0].bytes_written += 1;
        assert!(verify_ooc_files(&lied).unwrap_err().contains("size"));
        // ...and so is a corrupted byte anywhere in the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(verify_ooc_files(&r).is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_net_rows() {
        // Per-shard conservation broken.
        let mut r = demo_report();
        r.net[0].shed += 1;
        assert!(validate(&r).unwrap_err().contains("submitted"));
        // Fleet counters must be the field-wise sum of the shard rows.
        let mut r = demo_report();
        r.net[2].submitted += 1;
        r.net[2].completed += 1;
        r.net[2].solves += 1;
        assert!(validate(&r).unwrap_err().contains("sum of shard rows"));
        // Completion-split conservation broken on the fleet row.
        let mut r = demo_report();
        r.net[2].cache_hits += 1;
        r.net[2].solves -= 1;
        assert!(validate(&r).unwrap_err().contains("sum of shard rows"));
        // Exactly one fleet row per mix.
        let mut r = demo_report();
        r.net[2].shard = "1".to_string();
        assert!(validate(&r).unwrap_err().contains("fleet"));
        // Shard indices must each appear exactly once.
        let mut r = demo_report();
        r.net[1].shard = "0".to_string();
        assert!(validate(&r).unwrap_err().contains("exactly once"));
        // Percentiles ordered on every row, shard rows included.
        let mut r = demo_report();
        r.net[1].p95_ms = 100.0;
        assert!(validate(&r).unwrap_err().contains("percentiles"));
        // Fleet must have completed traffic at positive throughput.
        let mut r = demo_report();
        for row in &mut r.net {
            row.throughput_rps = 0.0;
        }
        assert!(validate(&r).unwrap_err().contains("throughput"));
        // Hot-key fleet must hit the cache when waves >= 2.
        let mut r = demo_report();
        for row in &mut r.net {
            if row.mix == "hot_key" {
                row.solves += row.cache_hits;
                row.cache_hits = 0;
            }
        }
        assert!(validate(&r).unwrap_err().contains("cache hits"));
    }

    #[test]
    fn validate_rejects_inconsistent_service_counters() {
        let mut r = demo_report();
        r.service[0].shed = 6; // completed + shed != submitted
        assert!(validate(&r).unwrap_err().contains("submitted"));
        let mut r = demo_report();
        r.service[0].batched = 16; // hits + solves + batched != completed
        assert!(validate(&r).unwrap_err().contains("completed"));
        let mut r = demo_report();
        r.service[1].cache_hits = 0;
        r.service[1].solves = 80;
        assert!(
            validate(&r).unwrap_err().contains("cache hits"),
            "hot-key mix must hit the cache"
        );
        let mut r = demo_report();
        r.service[0].p95_ms = 100.0; // > p99
        assert!(validate(&r).unwrap_err().contains("percentiles"));
        let mut r = demo_report();
        r.service[1].mix = "uniform".to_string();
        assert!(validate(&r).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn validate_rejects_violations_and_bad_version() {
        let mut r = demo_report();
        r.cells[1].violations = 2;
        assert!(validate(&r).unwrap_err().contains("violations"));
        let mut r = demo_report();
        r.schema_version = 999;
        assert!(validate(&r).unwrap_err().contains("schema"));
        let mut r = demo_report();
        r.budget = "warp".to_string();
        assert!(validate(&r).unwrap_err().contains("budget"));
    }
}
