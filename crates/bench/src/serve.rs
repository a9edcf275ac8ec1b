//! The `experiments serve` load harness: drive `llp_serve` shards over
//! TCP with scenario-registry traffic mixes and meter the serving layer
//! (latency percentiles, throughput, cache/batch/shed counters) into
//! per-shard plus fleet-aggregate [`LoadRow`]s of the machine-readable
//! report.
//!
//! Three mixes, all drawn from the same 11-scenario registry with a
//! fixed per-mix seed so the request streams are reproducible:
//!
//! * `uniform` — every scenario equally likely (worst case for the
//!   cache: keys spread across the whole registry × model grid);
//! * `hot_key` — one scenario dominates (~86 % of requests), the
//!   cache-friendly skew a production frontend sees on a viral key;
//! * `heavy_tail` — Zipf-like popularity (`w_i ∝ (i+1)^{-1.5}`), the
//!   AsymDPOP-style asymmetric workload where a few keys are hot and a
//!   long tail stays cold.
//!
//! Each mix runs [`WAVES`] barrier-separated replays of its stream,
//! spread across [`CLIENTS`] concurrent connections, so admission
//! control and batching race real worker timing — that is the
//! measurement. Consistent-hash routing pins every fingerprint to one
//! shard (DESIGN.md §9), so wave 2 replays warmed per-shard caches and
//! the hot-key mix's non-zero cache-hit count is structural: every
//! wave-2 key was solved (or coalesced) in wave 1.
//!
//! By default the harness boots a [`NetServer`] on a loopback port;
//! [`LoadOptions::connect`] drives an external server instead (e.g. a
//! separately started `llp_serve` binary — the README "Network serving"
//! quickstart). Either way all metering crosses the wire: a `Reset`
//! frame isolates each mix and a `Stats` frame collects the per-shard
//! and fleet rows afterwards.

use crate::report::LoadRow;
use crate::RunBudget;
use llp_sampling::weighted::sample_iid;
use llp_serve::codec::{ErrorCode, StatsReply, FLEET_SHARD};
use llp_serve::{ClientError, NetClient, NetServer, ServeConfig};
use llp_service::{Model, ServiceConfig, SolveRequest};
use llp_workloads::scenario::{registry, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The serve harness's mix names, in report order.
pub const MIXES: &[&str] = &["uniform", "hot_key", "heavy_tail"];

/// Concurrent client connections per wave.
pub const CLIENTS: usize = 4;

/// Barrier-separated replays of each mix's stream per run; wave 2
/// exercises the warmed per-shard caches.
pub const WAVES: usize = 2;

/// Load-harness knobs (`experiments serve` flags map onto this).
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Service worker threads per shard of the loopback server.
    pub workers: usize,
    /// Requests per wave per mix.
    pub requests: usize,
    /// Shards behind the loopback server.
    pub shards: usize,
    /// Port of the loopback server (`0` = ephemeral).
    pub port: u16,
    /// Drive an external server at this address instead of booting a
    /// loopback one; `workers`, `shards` and `port` then configure
    /// nothing.
    pub connect: Option<String>,
}

impl LoadOptions {
    /// Defaults for a budget: quick keeps the 3-mix run in CI seconds.
    /// Apart from `workers`, each loopback shard runs
    /// `ServiceConfig::default()`.
    pub fn for_budget(budget: RunBudget, shards: usize) -> Self {
        LoadOptions {
            workers: ServiceConfig::default().workers,
            requests: budget.pick(200, 2000),
            shards,
            port: 0,
            connect: None,
        }
    }
}

/// Per-scenario popularity weights of a mix over `k` registry entries.
fn mix_weights(mix: &str, k: usize) -> Vec<f64> {
    match mix {
        "uniform" => vec![1.0; k],
        // One dominant key: weight 60 vs 1 each for the rest — ~86 % of
        // requests land on scenario 0 at k = 11.
        "hot_key" => (0..k).map(|i| if i == 0 { 60.0 } else { 1.0 }).collect(),
        "heavy_tail" => (0..k).map(|i| ((i + 1) as f64).powf(-1.5)).collect(),
        other => panic!("unknown mix {other:?}; known: {MIXES:?}"),
    }
}

/// The solver seed a loadgen request uses: a deterministic function of
/// (scenario, model) — *not* of the request index — so repeated hits on
/// a popular key share a fingerprint and can batch and cache.
fn request_seed(sc: &Scenario, model: Model) -> u64 {
    let mut h = sc.seed ^ 0x51ce_ca11_0b5e_55ed;
    for b in model.name().bytes() {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(b));
    }
    h
}

/// A deterministic per-mix seed for the arrival stream.
fn mix_seed(mix: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in mix.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Generates one wave of a mix's request stream.
pub fn mix_stream(mix: &str, budget: RunBudget, requests: usize) -> Vec<SolveRequest> {
    let scenarios = registry(budget);
    let weights = mix_weights(mix, scenarios.len());
    let mut rng = StdRng::seed_from_u64(mix_seed(mix));
    let picks = sample_iid(&weights, requests, &mut rng);
    picks
        .into_iter()
        .map(|i| {
            let sc = &scenarios[i];
            let model = Model::ALL[rng.random_range(0..Model::ALL.len())];
            SolveRequest::scenario(sc.name, model, budget, request_seed(sc, model))
        })
        .collect()
}

/// Runs all three mixes (the `experiments serve` payload): boots a
/// loopback server unless `opts.connect` points at an external one,
/// then per mix — reset over the wire, replay the mix stream across
/// [`CLIENTS`] connections for [`WAVES`] waves, and turn the wire
/// `Stats` reply into per-shard + fleet [`LoadRow`]s.
pub fn run_load(budget: RunBudget, opts: &LoadOptions) -> Vec<LoadRow> {
    // Keep the loopback server alive across all mixes (resets happen
    // over the wire), and shut it down when this binding drops.
    let server: Option<NetServer> = opts.connect.is_none().then(|| {
        let cfg = ServeConfig {
            shards: opts.shards,
            service: ServiceConfig {
                workers: opts.workers,
                ..ServiceConfig::default()
            },
        };
        let addr = format!("127.0.0.1:{}", opts.port);
        NetServer::bind(&addr, cfg)
            .unwrap_or_else(|e| panic!("serve: cannot bind loopback server on {addr}: {e}"))
    });
    let (addr, workers) = match (&opts.connect, &server) {
        (Some(a), _) => (a.clone(), 0),
        (None, Some(s)) => (s.local_addr().to_string(), opts.workers as u64),
        (None, None) => unreachable!("either connect or a loopback server"),
    };
    MIXES
        .iter()
        .flat_map(|mix| run_load_mix(mix, &addr, budget, opts.requests, workers))
        .collect()
}

/// One mix against a running server at `addr`; `workers` is what the
/// rows record.
fn run_load_mix(
    mix: &str,
    addr: &str,
    budget: RunBudget,
    requests: usize,
    workers: u64,
) -> Vec<LoadRow> {
    let mut control = NetClient::connect(addr)
        .unwrap_or_else(|e| panic!("serve mix {mix:?}: cannot connect {addr}: {e}"));
    // Wire-level reset isolates this mix's counters — required for an
    // external server, harmless for the loopback one.
    control
        .reset()
        .unwrap_or_else(|e| panic!("serve mix {mix:?}: reset failed: {e}"));

    let stream = mix_stream(mix, budget, requests);
    // llp-analyzer: allow(wall-clock) -- loadgen timer behind wall_ms/throughput_rps; response bodies and classification counters stay clock-free
    let start = std::time::Instant::now();
    for _ in 0..WAVES {
        // One wave: every request crosses the wire once, spread
        // round-robin over the client connections. The join below is
        // the wave barrier that makes wave 2 a warmed-cache replay.
        let handles: Vec<std::thread::JoinHandle<()>> = (0..CLIENTS)
            .map(|c| {
                let chunk: Vec<SolveRequest> =
                    stream.iter().skip(c).step_by(CLIENTS).cloned().collect();
                let addr = addr.to_string();
                let mix = mix.to_string();
                std::thread::spawn(move || {
                    let mut client = NetClient::connect(&addr).unwrap_or_else(|e| {
                        panic!("serve mix {mix:?}: client cannot connect: {e}")
                    });
                    for req in &chunk {
                        match client.solve(req) {
                            Ok(resp) => {
                                if let Err(e) = &resp.body {
                                    panic!(
                                        "serve mix {mix:?}: registry scenario \
                                         failed to solve: {e}"
                                    );
                                }
                            }
                            // Shed is a legitimate loadgen outcome; the
                            // server counts it and conservation still
                            // holds. Anything else is a harness bug.
                            Err(ClientError::Server {
                                code: ErrorCode::Shed,
                                ..
                            }) => {}
                            Err(e) => {
                                panic!("serve mix {mix:?}: solve failed over the wire: {e}")
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            if h.join().is_err() {
                panic!("serve mix {mix:?}: a client thread panicked");
            }
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;

    let reply = control
        .stats()
        .unwrap_or_else(|e| panic!("serve mix {mix:?}: stats failed: {e}"));
    rows_from_stats(mix, &reply, workers, wall_ms)
}

/// Turns a wire stats reply into report rows (shard rows first, fleet
/// last — the order the server sends them).
fn rows_from_stats(mix: &str, reply: &StatsReply, workers: u64, wall_ms: f64) -> Vec<LoadRow> {
    reply
        .rows
        .iter()
        .map(|row| LoadRow {
            mix: mix.to_string(),
            shard: if row.shard == FLEET_SHARD {
                "fleet".to_string()
            } else {
                row.shard.to_string()
            },
            shards: u64::from(reply.shards),
            workers,
            waves: WAVES as u64,
            submitted: row.stats.submitted,
            completed: row.stats.completed,
            shed: row.stats.shed,
            rejected: row.stats.rejected,
            solves: row.stats.solves,
            batched: row.stats.batched,
            cache_hits: row.stats.cache_hits,
            p50_ms: row.latency.p50_ms,
            p95_ms: row.latency.p95_ms,
            p99_ms: row.latency.p99_ms,
            max_ms: row.latency.max_ms,
            mean_ms: row.latency.mean_ms,
            queue_p95_ms: row.queue_wait.p95_ms,
            throughput_rps: row.stats.completed as f64 / (wall_ms / 1000.0).max(1e-9),
            wall_ms,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_mix_shaped() {
        let a = mix_stream("hot_key", RunBudget::Quick, 300);
        let b = mix_stream("hot_key", RunBudget::Quick, 300);
        assert_eq!(a.len(), 300);
        let fp = |s: &[SolveRequest]| s.iter().map(SolveRequest::fingerprint).collect::<Vec<_>>();
        assert_eq!(fp(&a), fp(&b), "stream generation must be deterministic");
        // The hot scenario dominates.
        let hot = registry(RunBudget::Quick)[0].name;
        let hot_count = a
            .iter()
            .filter(|r| matches!(&r.input, llp_service::RequestInput::Scenario(n) if n == hot))
            .count();
        assert!(hot_count > 200, "hot key got only {hot_count}/300");
    }

    #[test]
    fn uniform_and_heavy_tail_differ_in_spread() {
        let spread = |mix: &str| {
            let stream = mix_stream(mix, RunBudget::Quick, 400);
            let mut names: Vec<String> = stream
                .iter()
                .map(|r| match &r.input {
                    llp_service::RequestInput::Scenario(n) => n.clone(),
                    _ => unreachable!("loadgen emits scenario requests"),
                })
                .collect();
            names.sort();
            names.dedup();
            names.len()
        };
        let registry_len = registry(RunBudget::Quick).len();
        assert_eq!(
            spread("uniform"),
            registry_len,
            "uniform must touch all scenarios"
        );
        assert!(spread("heavy_tail") >= 3, "heavy tail still has a tail");
    }

    #[test]
    #[should_panic(expected = "unknown mix")]
    fn unknown_mix_panics() {
        let _ = mix_weights("lukewarm", 11);
    }
}
