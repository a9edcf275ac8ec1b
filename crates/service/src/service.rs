//! The concurrent batched solve service.
//!
//! Requests enter through [`Service::submit`] (live, lock-per-request) or
//! [`Service::run_replay`] (a whole stream admitted atomically). Admission
//! does three things under one mutex, in order:
//!
//! 1. **Cache probe** — a hit on the LRU result cache answers immediately
//!    (no queueing, no worker).
//! 2. **Batch coalescing** — a miss whose fingerprint already has an
//!    in-flight batch (queued *or* running) joins that batch as an extra
//!    waiter; the instance is solved once for all of them.
//! 3. **Admission control** — a genuinely new fingerprint creates a batch
//!    on the bounded pending queue; when the queue is full the request is
//!    **shed** (counted in [`ServiceStats::shed`]) instead of growing the
//!    backlog without bound.
//!
//! Workers pop batches FIFO, solve through [`crate::exec::solve_model`]
//! (so a served scenario is the same computation as its report-grid
//! cell), publish the body to the cache, and fan the response out to
//! every waiter with per-request metering (queue wait, solve time,
//! end-to-end latency).
//!
//! # Determinism
//!
//! The response *body* depends only on the request fingerprint — solver
//! randomness comes from the request seed and the hot scans run under
//! `llp_par`'s thread-count-invariance contract — so bodies are
//! bit-identical at any worker count. The *counters* are additionally
//! reproducible under [`Service::run_replay`], which admits the whole
//! stream while holding the state lock: cache/batch/shed classification
//! then depends only on the stream order and the cache state at entry,
//! never on worker timing. (Live [`Service::submit`] counters remain
//! timing-dependent — that's what the load harness measures.)

use crate::cache::LruCache;
use crate::exec::{solve_model, ExecParams};
use crate::request::{RequestInput, ResponseBody, ServedFrom, SolveRequest, SolveResponse};
use crate::stats::ServiceStats;
use llp_workloads::scenario::{registry, RunBudget, ScenarioData};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads solving batches.
    pub workers: usize,
    /// Bound on *queued* batches; admission sheds beyond it.
    pub queue_capacity: usize,
    /// LRU result-cache entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
        }
    }
}

/// Why admission refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Bounded queue full — request dropped by admission control.
    Shed,
    /// The named scenario is not in the registry.
    UnknownScenario(String),
    /// The service is shutting down.
    Closed,
}

/// A successful admission: either an immediate cache hit or a ticket for
/// a queued/coalesced solve.
#[derive(Debug)]
pub enum Admission {
    /// Answered from the result cache at admission time.
    Cached(SolveResponse),
    /// Queued (or coalesced); redeem with [`Ticket::wait`].
    Pending(Ticket),
}

impl Admission {
    /// Blocks until the response is available.
    pub fn wait(self) -> SolveResponse {
        match self {
            Admission::Cached(r) => r,
            Admission::Pending(t) => t.wait(),
        }
    }
}

/// A claim on a queued or coalesced solve.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<SolveResponse>,
}

impl Ticket {
    /// Blocks until the batch completes.
    ///
    /// A worker that dies mid-solve leaves its batch in flight: the
    /// result senders stay in the service state, so this blocks until
    /// the [`Service`] is dropped. Dropping it drops the senders, which
    /// surfaces here as an error body rather than a second panic on the
    /// requester's thread.
    pub fn wait(self) -> SolveResponse {
        self.rx.recv().unwrap_or_else(|_| SolveResponse {
            body: Err("service worker dropped the batch (worker died mid-solve)".to_string()),
            served_from: ServedFrom::Batch,
            queue_wait_ms: 0.0,
            solve_ms: 0.0,
            total_ms: 0.0,
        })
    }
}

struct Waiter {
    tx: mpsc::Sender<SolveResponse>,
    admitted_at: Instant,
}

struct Batch {
    // Arc so a worker pop clones a pointer, not the (possibly large
    // inline) request, while holding the state mutex.
    request: Arc<SolveRequest>,
    waiters: Vec<Waiter>,
}

/// Cap on the retained per-request timing samples: a long-lived service
/// must not grow memory with total request count. Once full, new samples
/// are dropped (the summaries then describe the first
/// `MAX_TIMING_SAMPLES` requests — ample for the load harness, whose
/// runs stay far below the cap).
const MAX_TIMING_SAMPLES: usize = 100_000;

struct State {
    pending: VecDeque<u128>,
    inflight: HashMap<u128, Batch>,
    cache: LruCache<ResponseBody>,
    stats: ServiceStats,
    latencies_ms: Vec<f64>,
    queue_waits_ms: Vec<f64>,
    closed: bool,
}

impl State {
    fn record_latency(&mut self, ms: f64) {
        if self.latencies_ms.len() < MAX_TIMING_SAMPLES {
            self.latencies_ms.push(ms);
        }
    }

    fn record_queue_wait(&mut self, ms: f64) {
        if self.queue_waits_ms.len() < MAX_TIMING_SAMPLES {
            self.queue_waits_ms.push(ms);
        }
    }
}

struct Shared {
    state: Mutex<State>,
    cond: Condvar,
    cfg: ServiceConfig,
}

/// The in-process solve service. Dropping it drains the queue and joins
/// the workers.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Spawns the worker pool.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(cfg.workers >= 1, "a service needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                inflight: HashMap::new(),
                cache: LruCache::new(cfg.cache_capacity),
                stats: ServiceStats::default(),
                latencies_ms: Vec::new(),
                queue_waits_ms: Vec::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("llp-service-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Service { shared, workers }
    }

    /// Admits one request live. Returns immediately: a cache hit carries
    /// the response, otherwise a [`Ticket`] (or a shed/reject error).
    pub fn submit(&self, req: SolveRequest) -> Result<Admission, SubmitError> {
        // Hash outside the lock: fingerprinting a large inline request is
        // the most expensive part of admission and must not serialize
        // other submitters or block workers publishing results.
        let key = req.fingerprint();
        let mut st = self.lock();
        let admission = admit_locked(&mut st, &self.shared.cfg, req, key);
        drop(st);
        if matches!(admission, Ok(Admission::Pending(_))) {
            self.shared.cond.notify_one();
        }
        admission
    }

    /// Admits a whole request stream **atomically** (the state lock is
    /// held across all admissions, so classification into
    /// cache-hit/batch/queue/shed depends only on stream order and the
    /// cache state at entry — not on worker timing), then blocks until
    /// every admitted request completes. Responses are returned in
    /// request order.
    pub fn run_replay(&self, reqs: Vec<SolveRequest>) -> Vec<Result<SolveResponse, SubmitError>> {
        let keyed: Vec<(SolveRequest, u128)> = reqs
            .into_iter()
            .map(|r| {
                let key = r.fingerprint(); // hash outside the lock
                (r, key)
            })
            .collect();
        let admissions: Vec<Result<Admission, SubmitError>> = {
            let mut st = self.lock();
            keyed
                .into_iter()
                .map(|(r, key)| admit_locked(&mut st, &self.shared.cfg, r, key))
                .collect()
        };
        self.shared.cond.notify_all();
        admissions
            .into_iter()
            .map(|a| a.map(Admission::wait))
            .collect()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.lock().stats
    }

    /// The raw end-to-end latency samples recorded so far (milliseconds,
    /// admission order, capped at `MAX_TIMING_SAMPLES`). The shard layer
    /// concatenates these across shards for fleet-aggregate percentiles —
    /// percentiles of a union cannot be derived from per-shard summaries.
    pub fn latency_samples(&self) -> Vec<f64> {
        self.lock().latencies_ms.clone()
    }

    /// The raw queue-wait samples recorded so far (milliseconds).
    pub fn queue_wait_samples(&self) -> Vec<f64> {
        self.lock().queue_waits_ms.clone()
    }

    /// Graceful shutdown: stop admitting (subsequent submits return
    /// [`SubmitError::Closed`]), let the workers drain the pending queue
    /// and complete every in-flight ticket. Idempotent; the workers are
    /// joined when the service drops.
    pub fn close(&self) {
        self.lock().closed = true;
        self.shared.cond.notify_all();
    }

    /// Resets the counters, latency samples, and result cache to a fresh
    /// state (the workers and queue capacity are untouched). Intended
    /// for load harnesses reusing one service across mixes; call only at
    /// quiescence — results still in flight complete against the fresh
    /// counters, which would break the conservation laws.
    pub fn reset(&self) {
        let mut st = self.lock();
        st.stats = ServiceStats::default();
        st.latencies_ms.clear();
        st.queue_waits_ms.clear();
        st.cache = LruCache::new(self.shared.cfg.cache_capacity);
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared.state.lock().expect("service state poisoned")
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.lock().closed = true;
        self.shared.cond.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Scenario names are budget-independent, so validation needs one
/// registry enumeration per process.
fn known_scenario(name: &str) -> bool {
    use std::sync::OnceLock;
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES
        .get_or_init(|| registry(RunBudget::Quick).iter().map(|s| s.name).collect())
        .contains(&name)
}

fn admit_locked(
    st: &mut State,
    cfg: &ServiceConfig,
    req: SolveRequest,
    key: u128,
) -> Result<Admission, SubmitError> {
    // llp-analyzer: allow(wall-clock) -- request-latency metering; replay classification never reads the clock
    let now = Instant::now();
    st.stats.submitted += 1;
    if st.closed {
        st.stats.rejected += 1;
        return Err(SubmitError::Closed);
    }
    if let RequestInput::Scenario(name) = &req.input {
        if !known_scenario(name) {
            st.stats.rejected += 1;
            return Err(SubmitError::UnknownScenario(name.clone()));
        }
    }
    if let Some(body) = st.cache.get(key) {
        st.stats.cache_hits += 1;
        st.stats.completed += 1;
        // The recorded sample is the same measured admission time the
        // response carries, so the aggregated percentiles agree with the
        // per-response metering (a hit never waits in the queue).
        let total_ms = now.elapsed().as_secs_f64() * 1000.0;
        st.record_latency(total_ms);
        return Ok(Admission::Cached(SolveResponse {
            body: Ok(body),
            served_from: ServedFrom::Cache,
            queue_wait_ms: 0.0,
            solve_ms: 0.0,
            total_ms,
        }));
    }
    if let Some(batch) = st.inflight.get_mut(&key) {
        let (tx, rx) = mpsc::channel();
        batch.waiters.push(Waiter {
            tx,
            admitted_at: now,
        });
        return Ok(Admission::Pending(Ticket { rx }));
    }
    if st.pending.len() >= cfg.queue_capacity {
        st.stats.shed += 1;
        return Err(SubmitError::Shed);
    }
    let (tx, rx) = mpsc::channel();
    st.inflight.insert(
        key,
        Batch {
            request: Arc::new(req),
            waiters: vec![Waiter {
                tx,
                admitted_at: now,
            }],
        },
    );
    st.pending.push_back(key);
    Ok(Admission::Pending(Ticket { rx }))
}

fn worker_loop(shared: &Shared) {
    // Each solve scans on one thread: the pool parallelizes across
    // requests, so nested scan parallelism would oversubscribe. The
    // override is thread-local, so each worker installs its own.
    llp_par::set_threads(Some(1));
    loop {
        // Pop the next batch (or exit once closed and drained).
        let (key, request, popped_at) = {
            let mut st = shared.state.lock().expect("service state poisoned");
            loop {
                if let Some(key) = st.pending.pop_front() {
                    // A pending key with no batch is a bookkeeping bug;
                    // shed the phantom key (no batch means no waiters
                    // to fail) rather than panicking under the state
                    // mutex and poisoning it for every peer.
                    let Some(batch) = st.inflight.get(&key) else {
                        continue;
                    };
                    // llp-analyzer: allow(wall-clock) -- request-latency metering; replay classification never reads the clock
                    break (key, batch.request.clone(), Instant::now());
                }
                if st.closed {
                    return;
                }
                st = shared
                    .cond
                    .wait(st)
                    .expect("service state poisoned while waiting");
            }
        };

        // llp-analyzer: allow(wall-clock) -- request-latency metering; replay classification never reads the clock
        let solve_start = Instant::now();
        let outcome = execute(&request);
        let solve_ms = solve_start.elapsed().as_secs_f64() * 1000.0;
        let (body, cacheable) = match outcome {
            Ok(body) => (Ok(body), true),
            Err(e) => (Err(e), false),
        };

        // llp-analyzer: allow(wall-clock) -- request-latency metering; replay classification never reads the clock
        let done = Instant::now();
        let mut st = shared.state.lock().expect("service state poisoned");
        // Only the worker that popped `key` removes it, so the batch is
        // present by construction — but a panic here would poison the
        // mutex for every peer, so a bookkeeping bug sheds the result
        // instead (no batch, no waiters to notify).
        let Some(batch) = st.inflight.remove(&key) else {
            continue;
        };
        st.stats.solves += 1;
        if !cacheable {
            st.stats.failed_solves += 1;
        }
        if let Ok(b) = &body {
            st.cache.insert(key, b.clone());
        }
        st.stats.batched += (batch.waiters.len() as u64).saturating_sub(1);
        for (i, w) in batch.waiters.into_iter().enumerate() {
            // Late joiners (admitted after the pop) waited in no queue.
            let queue_wait_ms = popped_at
                .saturating_duration_since(w.admitted_at)
                .as_secs_f64()
                * 1000.0;
            let total_ms = done.saturating_duration_since(w.admitted_at).as_secs_f64() * 1000.0;
            st.stats.completed += 1;
            st.record_latency(total_ms);
            st.record_queue_wait(queue_wait_ms);
            // A dropped ticket is not an error: the submitter gave up.
            // llp-analyzer: allow(lock-order) -- mpsc send is unbounded and never blocks; fan-out under the lock keeps counters, cache, and batch removal atomic
            let _ = w.tx.send(SolveResponse {
                body: body.clone(),
                served_from: if i == 0 {
                    ServedFrom::Solve
                } else {
                    ServedFrom::Batch
                },
                queue_wait_ms,
                solve_ms,
                total_ms,
            });
        }
    }
}

/// Resolves the request input and solves it. Scenario requests use the
/// scenario's own `r` and skew (grid-identical); inline requests use
/// `ExecParams::default()`.
fn execute(req: &SolveRequest) -> Result<ResponseBody, String> {
    let mut rng = StdRng::seed_from_u64(req.seed);
    let outcome = match &req.input {
        RequestInput::Scenario(name) => {
            let sc = registry(req.budget)
                .into_iter()
                .find(|s| s.name == name.as_str())
                .ok_or_else(|| format!("unknown scenario {name:?}"))?;
            let params = ExecParams {
                r: sc.r,
                skew: sc.skew,
                ..ExecParams::default()
            };
            match sc.generate() {
                ScenarioData::Lp(p, cs) => solve_model(&p, &cs, req.model, &params, &mut rng),
                ScenarioData::Svm(p, pts) => solve_model(&p, &pts, req.model, &params, &mut rng),
                ScenarioData::Meb(p, pts) => solve_model(&p, &pts, req.model, &params, &mut rng),
            }
        }
        RequestInput::InlineLp(p, cs) => {
            solve_model(p, cs, req.model, &ExecParams::default(), &mut rng)
        }
    }?;
    Ok(outcome.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Model;
    use crate::stats::LatencySummary;
    use llp_core::instances::lp::LpProblem;
    use llp_geom::Halfspace;

    fn quick_cfg() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 32,
        }
    }

    fn hot_request() -> SolveRequest {
        SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, 0xF00D)
    }

    #[test]
    fn solve_then_cache_hit() {
        let svc = Service::new(quick_cfg());
        let first = svc.submit(hot_request()).unwrap().wait();
        assert_eq!(first.served_from, ServedFrom::Solve);
        let body = first.body.expect("registry scenario solves");
        assert_eq!(body.violations, 0);

        let second = svc.submit(hot_request()).unwrap().wait();
        assert_eq!(second.served_from, ServedFrom::Cache);
        assert_eq!(second.body.as_ref().unwrap(), &body, "cached body differs");

        let stats = svc.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn duplicate_stream_coalesces_into_one_solve() {
        let svc = Service::new(quick_cfg());
        let reqs = vec![hot_request(); 6];
        let responses = svc.run_replay(reqs);
        assert_eq!(responses.len(), 6);
        let bodies: Vec<&ResponseBody> = responses
            .iter()
            .map(|r| r.as_ref().unwrap().body.as_ref().unwrap())
            .collect();
        assert!(bodies.windows(2).all(|w| w[0] == w[1]), "bodies diverged");
        let stats = svc.stats();
        assert_eq!(stats.solves, 1, "duplicates must solve once");
        assert_eq!(stats.batched, 5);
        assert_eq!(stats.completed, 6);
    }

    #[test]
    fn replay_sheds_deterministically_beyond_queue_capacity() {
        let cfg = ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 32,
        };
        let svc = Service::new(cfg);
        // Four *distinct* fingerprints admitted atomically against a
        // 2-deep queue: exactly the last two are shed, regardless of
        // worker timing.
        let reqs: Vec<SolveRequest> = (0..4)
            .map(|i| SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, i))
            .collect();
        let responses = svc.run_replay(reqs);
        let shed: Vec<bool> = responses
            .iter()
            .map(|r| matches!(r, Err(SubmitError::Shed)))
            .collect();
        assert_eq!(shed, vec![false, false, true, true]);
        assert_eq!(svc.stats().shed, 2);
        assert_eq!(svc.stats().completed, 2);
    }

    #[test]
    fn unknown_scenario_is_rejected_at_admission() {
        let svc = Service::new(quick_cfg());
        let req = SolveRequest::scenario("lp_not_a_scenario", Model::Ram, RunBudget::Quick, 1);
        match svc.submit(req) {
            Err(SubmitError::UnknownScenario(name)) => assert_eq!(name, "lp_not_a_scenario"),
            other => panic!("expected UnknownScenario, got {other:?}"),
        }
        assert_eq!(svc.stats().rejected, 1);
    }

    #[test]
    fn infeasible_inline_lp_reports_error_and_is_not_cached() {
        let p = LpProblem::new(vec![1.0, 1.0]);
        // x1 ≤ -1 and -x1 ≤ -1 (i.e. x1 ≥ 1): empty.
        let cs = vec![
            Halfspace::new(vec![1.0, 0.0], -1.0),
            Halfspace::new(vec![-1.0, 0.0], -1.0),
        ];
        let req = SolveRequest {
            input: RequestInput::InlineLp(p, cs),
            model: Model::Ram,
            budget: RunBudget::Quick,
            seed: 5,
        };
        let svc = Service::new(quick_cfg());
        let r1 = svc.submit(req.clone()).unwrap().wait();
        assert!(r1.body.is_err(), "infeasible LP must fail");
        let r2 = svc.submit(req).unwrap().wait();
        assert_eq!(
            r2.served_from,
            ServedFrom::Solve,
            "errors must not be cached"
        );
        assert_eq!(r1.body, r2.body, "errors are deterministic");
        let stats = svc.stats();
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.failed_solves, 2);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn empty_inline_lp_fails_typed_and_the_worker_keeps_serving() {
        // A zero-row inline LP must come back as an error body in every
        // model without killing the worker: with a single worker, the
        // valid request after it is answered only if that worker lived.
        // Waits are bounded, so a dead worker fails the test instead of
        // hanging it.
        let svc = Service::new(ServiceConfig {
            workers: 1,
            ..quick_cfg()
        });
        let answer = |req: SolveRequest| match svc.submit(req).expect("admitted") {
            Admission::Pending(t) => {
                t.rx.recv_timeout(std::time::Duration::from_secs(30))
                    .expect("the worker must answer within 30 s")
            }
            Admission::Cached(r) => r,
        };
        let (p, cs) = llp_workloads::random_lp(500, 2, 7);
        for &model in Model::ALL {
            let inline = |cs: Vec<Halfspace>| SolveRequest {
                input: RequestInput::InlineLp(p.clone(), cs),
                model,
                budget: RunBudget::Quick,
                seed: 11,
            };
            let err = answer(inline(Vec::new()))
                .body
                .expect_err("an empty LP has nothing to solve");
            assert!(err.starts_with(model.name()), "{err}");
            let ok = answer(inline(cs.clone()));
            assert_eq!(ok.served_from, ServedFrom::Solve, "{}", model.name());
            assert_eq!(ok.body.expect("a valid LP solves").violations, 0);
        }
        assert_eq!(svc.stats().failed_solves, Model::ALL.len() as u64);
    }

    #[test]
    fn latency_summaries_cover_completed_requests() {
        let svc = Service::new(quick_cfg());
        let _ = svc.run_replay(vec![hot_request(); 3]);
        let lat = LatencySummary::from_samples(&svc.latency_samples());
        assert_eq!(lat.count, 3);
        assert!(lat.p50_ms <= lat.p95_ms && lat.p95_ms <= lat.max_ms);
        assert!(!svc.queue_wait_samples().is_empty());
    }
}
