//! Differential suite for the solve service's determinism contract,
//! extending the `parallel_determinism.rs` pattern one layer up: for an
//! identical request stream, the service must produce **bit-identical
//! response bodies** and **identical cache/batch/shed counters** at any
//! worker count — only the timing fields of a response may differ.
//!
//! The runs use [`Service::run_replay`], which admits the whole stream
//! atomically; that makes the admission classification (cache hit vs
//! batch join vs fresh queue entry vs shed) a pure function of stream
//! order and cache state, so the counters are comparable across worker
//! counts. Bodies are deterministic regardless of the submission API:
//! solver randomness comes from the request seed, and the hot scans run
//! under `llp_par`'s thread-count-invariance contract.
//!
//! Two waves of the same stream run per service: wave 1 against a cold
//! cache (all fresh solves + coalesced joins), wave 2 against the warmed
//! cache (all hits when wave 1 shed nothing) — so the hot-key mix's
//! non-zero cache-hit count is asserted structurally, not statistically.

use llp_bench::serve::mix_stream;
use lodim_lp::service::{
    solve_model, ExecParams, Model, RequestInput, ResponseBody, Service, ServiceConfig,
    ServiceStats, SolveRequest, SubmitError,
};
use lodim_lp::workloads::scenario::{registry, RunBudget, ScenarioData};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The worker counts the acceptance criteria name.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Everything of a replay run that must be worker-count invariant: the
/// admission classification and the deterministic response bodies, per
/// request, plus the counter snapshot.
type Outcome = (
    Vec<Result<Result<ResponseBody, String>, SubmitError>>,
    ServiceStats,
);

/// Runs `stream` twice (cold wave + warm wave) on a fresh service with
/// the given worker count.
fn run_two_waves(stream: &[SolveRequest], workers: usize) -> (Outcome, Outcome) {
    let svc = Service::new(ServiceConfig {
        workers,
        queue_capacity: 128, // above the registry × model key count: no shed
        cache_capacity: 256,
    });
    let strip = |rs: Vec<Result<lodim_lp::service::SolveResponse, SubmitError>>| {
        rs.into_iter().map(|r| r.map(|resp| resp.body)).collect()
    };
    let wave1 = strip(svc.run_replay(stream.to_vec()));
    let stats1 = svc.stats();
    let wave2 = strip(svc.run_replay(stream.to_vec()));
    let stats2 = svc.stats();
    ((wave1, stats1), (wave2, stats2))
}

fn assert_worker_count_invariant(mix: &str, requests: usize) -> Vec<(Outcome, Outcome)> {
    let stream = mix_stream(mix, RunBudget::Quick, requests);
    let runs: Vec<(Outcome, Outcome)> = WORKER_COUNTS
        .iter()
        .map(|&w| run_two_waves(&stream, w))
        .collect();
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            runs[0], *run,
            "{mix}: workers={} diverged from workers={} (bodies or counters)",
            WORKER_COUNTS[i], WORKER_COUNTS[0]
        );
    }
    runs
}

#[test]
fn hot_key_mix_is_worker_count_invariant_with_cache_hits() {
    let requests = 36;
    let runs = assert_worker_count_invariant("hot_key", requests);
    let ((_, cold), (_, warm)) = &runs[0];
    // Cold wave: the cache starts empty and replay admission sees no
    // completions, so every request is a solve or a batch join.
    assert_eq!(cold.cache_hits, 0, "cold wave cannot hit the cache");
    assert!(
        cold.batched > 0,
        "a hot-key stream must coalesce duplicates"
    );
    assert_eq!(cold.shed, 0, "queue sized above the key space");
    // Warm wave: every key was solved in wave 1, so the entire replay is
    // served from the cache — the acceptance condition's non-zero
    // cache-hit count, made exact.
    assert_eq!(
        warm.cache_hits, requests as u64,
        "warm wave must be all cache hits"
    );
    assert_eq!(warm.solves, cold.solves, "warm wave must not re-solve");
    assert_eq!(cold.completed + warm.cache_hits, warm.completed);
}

#[test]
fn uniform_mix_is_worker_count_invariant() {
    let runs = assert_worker_count_invariant("uniform", 24);
    let ((bodies, cold), _) = &runs[0];
    assert_eq!(cold.submitted, 24);
    assert_eq!(cold.completed, 24);
    // Every response body is a real solve result with zero violations.
    for b in bodies {
        let body = b.as_ref().expect("admitted").as_ref().expect("solved");
        assert_eq!(body.violations, 0);
        assert!(body.n > 0);
    }
}

#[test]
fn heavy_tail_mix_is_worker_count_invariant() {
    assert_worker_count_invariant("heavy_tail", 24);
}

#[test]
fn shed_classification_is_worker_count_invariant() {
    // Distinct fingerprints against a 3-deep queue: replay admission must
    // shed exactly the same requests at every worker count.
    let reqs: Vec<SolveRequest> = (0..8)
        .map(|i| SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, 1000 + i))
        .collect();
    let run = |workers: usize| {
        let svc = Service::new(ServiceConfig {
            workers,
            queue_capacity: 3,
            cache_capacity: 64,
        });
        let pattern: Vec<bool> = svc
            .run_replay(reqs.clone())
            .iter()
            .map(|r| matches!(r, Err(SubmitError::Shed)))
            .collect();
        (pattern, svc.stats().shed)
    };
    let reference = run(1);
    assert_eq!(reference.1, 5, "8 distinct keys, 3 queue slots");
    for w in [2, 4] {
        assert_eq!(run(w), reference, "workers={w}");
    }
}

#[test]
fn service_bodies_match_the_direct_grid_solve() {
    // A scenario served through the pool is the same computation as a
    // direct `exec::solve_model` call (the report grid's path): same
    // seed in, bit-identical body out.
    let sc = registry(RunBudget::Quick)
        .into_iter()
        .find(|s| s.name == "lp_skewed_sites")
        .expect("registry scenario");
    let seed = 0xD1CE;
    for &model in Model::ALL {
        let req = SolveRequest {
            input: RequestInput::Scenario(sc.name.to_string()),
            model,
            budget: RunBudget::Quick,
            seed,
        };
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let served = svc
            .submit(req)
            .expect("admitted")
            .wait()
            .body
            .expect("solved");

        let params = ExecParams {
            r: sc.r,
            skew: sc.skew,
            ..ExecParams::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let direct = match sc.generate() {
            ScenarioData::Lp(p, cs) => solve_model(&p, &cs, model, &params, &mut rng),
            ScenarioData::Svm(p, pts) => solve_model(&p, &pts, model, &params, &mut rng),
            ScenarioData::Meb(p, pts) => solve_model(&p, &pts, model, &params, &mut rng),
        }
        .expect("direct solve")
        .body;
        assert_eq!(served, direct, "model {}", model.name());
    }
}
