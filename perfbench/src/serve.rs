//! `serve_cold` and `serve_hot`: the `llp_serve` binary in its own
//! process (`--port 0 --shards 2 --workers 1`), driven by two closed-loop
//! client connections from this process.
//!
//! * cold: every request is a scenario × model cell with a fresh seed,
//!   so every request misses the cache and is solved.
//! * hot: the 44 cells with fixed seeds, which set-up's warm-up pass has
//!   already cached, so every request is a cache hit.

use crate::load::{self, OpError, Timed};
use crate::trace::{self, Name, OpTree};
use crate::{Ctx, Layers, Workload};
use llp_bench::report::{COORD_SITES, MPC_DELTA, OBJECTIVE_TOL};
use llp_serve::codec::{decode_payload, encode_frame, Frame, StatsReply};
use llp_serve::{ClientError, NetClient, FLEET_SHARD};
use llp_service::{solve_model, ExecParams, Model, ResponseBody, ServedFrom, SolveRequest};
use llp_workloads::scenario::{registry, RunBudget, Scenario, ScenarioData};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// Closed-loop client connections (= nproc on the reference host).
const CONNECTIONS: usize = 2;
/// Passes of the codec timing loop over the cycle's frames.
const CODEC_REPS: usize = 100;

pub struct Serve {
    pub hot: bool,
}

/// A running `llp_serve` process; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts the `llp_serve` binary built next to this one.
    fn spawn() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let bin = exe.with_file_name("llp_serve");
        let mut child = Command::new(&bin)
            .args(["--port", "0", "--shards", "2", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let server = Server {
            child,
            addr: addr.clone().unwrap_or_default(),
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!(
                "llp_serve did not report its address (got {line:?})"
            )),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Server-side timings of one traced reply, plus the client round trip.
struct Reply {
    rtt_ms: f64,
    queue_wait_ms: f64,
    solve_ms: f64,
    total_ms: f64,
}

pub struct ServeState {
    // Clients close before the server is killed (fields drop in order).
    clients: Vec<Mutex<NetClient>>,
    server: Server,
    scenarios: Vec<Scenario>,
    /// The cycle: (scenario index, model), every cell once, in an order
    /// drawn from `--seed`.
    cells: Vec<(usize, Model)>,
    /// The warm-up pass's requests and bodies (hot replays them).
    warm_requests: Vec<SolveRequest>,
    warm_bodies: Vec<ResponseBody>,
    /// cold: per-scenario reference objective, solved in this process.
    reference: Vec<f64>,
    replies: Mutex<Vec<Reply>>,
    stats_before: Option<StatsReply>,
}

impl Serve {
    fn name(&self) -> &'static str {
        if self.hot {
            "serve_hot"
        } else {
            "serve_cold"
        }
    }

    /// The request for cycle position `cell` in cycle `round` (0 is
    /// set-up's warm-up pass). Cold requests draw a fresh solver seed per
    /// round. The seeds depend on the cell and round only, not on
    /// `--seed`, so every run sends the same requests (in its own order)
    /// and does the same work.
    fn request(&self, st: &ServeState, round: u64, cell: usize) -> SolveRequest {
        let (sc, model) = st.cells[cell];
        let key = (sc as u64) << 8 | model as u64;
        let seed = load::mix(round, self.name(), key);
        SolveRequest::scenario(st.scenarios[sc].name, model, RunBudget::Full, seed)
    }

    fn check(
        &self,
        st: &ServeState,
        cell: usize,
        resp: &llp_service::SolveResponse,
    ) -> Result<(), String> {
        let (sc, model) = st.cells[cell];
        let name = format!("{}/{}", st.scenarios[sc].name, model.name());
        let body = resp
            .body
            .as_ref()
            .map_err(|e| format!("{name}: error body {e}"))?;
        if self.hot {
            if resp.served_from != ServedFrom::Cache {
                return Err(format!(
                    "{name}: served from {:?}, not the cache",
                    resp.served_from
                ));
            }
            let want = &st.warm_bodies[cell];
            if body != want || body.objective.to_bits() != want.objective.to_bits() {
                return Err(format!("{name}: body differs from the warm-up body"));
            }
            return Ok(());
        }
        if body.violations != 0 {
            return Err(format!("{name}: {} violated constraints", body.violations));
        }
        let (o, r) = (body.objective, st.reference[sc]);
        if (o - r).abs() > OBJECTIVE_TOL * r.abs().max(o.abs()).max(1.0) {
            return Err(format!("{name}: objective {o} disagrees with {r}"));
        }
        Ok(())
    }
}

fn reference_objective(sc: &Scenario) -> Result<f64, String> {
    let params = ExecParams {
        r: sc.r,
        coord_sites: COORD_SITES,
        mpc_delta: MPC_DELTA,
        skew: sc.skew,
    };
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let out = match trace::scope(Name::Generate, || sc.generate()) {
        ScenarioData::Lp(p, cs) => solve_model(&p, &cs, Model::Ram, &params, &mut rng),
        ScenarioData::Svm(p, pts) => solve_model(&p, &pts, Model::Ram, &params, &mut rng),
        ScenarioData::Meb(p, pts) => solve_model(&p, &pts, Model::Ram, &params, &mut rng),
    }?;
    Ok(out.body.objective)
}

fn net_err(e: ClientError) -> OpError {
    match e {
        ClientError::Server { code, message } => {
            OpError::Failed(format!("error frame {code:?}: {message}"))
        }
        other => OpError::Fatal(format!("connection lost: {other}")),
    }
}

/// Encodes then decodes one frame inside spans (the encode span carries
/// the frame's size).
fn codec_round(frame: &Frame) -> Result<(), String> {
    let s = trace::open(Name::Encode);
    let bytes = encode_frame(frame);
    trace::close(s, bytes.len() as u64, 0);
    let s = trace::open(Name::Decode);
    let decoded = decode_payload(bytes[5], &bytes[6..]);
    trace::close(s, (bytes.len() - 6) as u64, 0);
    decoded
        .map(drop)
        .map_err(|e| format!("codec round trip: {e}"))
}

/// Times the codec and fingerprint functions on the workload's frames:
/// each warm-up request and its reply, `CODEC_REPS` times. This runs
/// after the traced phase so the extra client work does not slow the
/// loop it describes. Returns spans outside any op.
fn codec_spans(st: &ServeState, served_from: ServedFrom) -> Result<Vec<trace::Span>, String> {
    for _ in 0..CODEC_REPS {
        for (req, body) in st.warm_requests.iter().zip(&st.warm_bodies) {
            let fingerprint = trace::scope(Name::Fingerprint, || req.fingerprint());
            codec_round(&Frame::Solve {
                fingerprint,
                request: req.clone(),
            })?;
            codec_round(&Frame::SolveResponse {
                fingerprint,
                response: llp_service::SolveResponse {
                    body: Ok(body.clone()),
                    served_from,
                    queue_wait_ms: 0.0,
                    solve_ms: 0.0,
                    total_ms: 0.0,
                },
            })?;
        }
    }
    Ok(trace::take_spans())
}

impl Workload for Serve {
    type State = ServeState;

    fn setup(&self, ctx: &Ctx) -> Result<ServeState, String> {
        let scenarios = registry(RunBudget::Full);
        let mut cells: Vec<(usize, Model)> = (0..scenarios.len())
            .flat_map(|s| Model::ALL.iter().map(move |&m| (s, m)))
            .collect();
        cells.shuffle(&mut StdRng::seed_from_u64(load::mix(
            ctx.seed,
            self.name(),
            0,
        )));
        let reference = if self.hot {
            Vec::new()
        } else {
            scenarios
                .iter()
                .map(reference_objective)
                .collect::<Result<_, _>>()?
        };
        let server = Server::spawn()?;
        let clients = (0..CONNECTIONS)
            .map(|_| NetClient::connect(server.addr.as_str()).map(Mutex::new))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connecting to {}: {e}", server.addr))?;
        let mut st = ServeState {
            clients,
            server,
            scenarios,
            cells,
            warm_requests: Vec::new(),
            warm_bodies: Vec::new(),
            reference,
            replies: Mutex::new(Vec::new()),
            stats_before: None,
        };
        // Warm-up pass over the cycle on both connections. For hot, it
        // fills the cache the timed phase reads.
        let n = st.cells.len();
        let requests: Vec<SolveRequest> = (0..n).map(|c| self.request(&st, 0, c)).collect();
        let bodies: Vec<Mutex<Option<ResponseBody>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = st
                .clients
                .iter()
                .map(|client| {
                    let (requests, bodies, next, st) = (&requests, &bodies, &next, &st);
                    s.spawn(move || -> Result<(), String> {
                        let mut client = client.lock().expect("client lock");
                        loop {
                            let c = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if c >= n {
                                return Ok(());
                            }
                            let resp = client
                                .solve(&requests[c])
                                .map_err(|e| format!("warm-up: {e}"))?;
                            if !self.hot {
                                self.check(st, c, &resp)
                                    .map_err(|e| format!("warm-up: {e}"))?;
                            }
                            let body = resp.body.map_err(|e| format!("warm-up: {e}"))?;
                            *bodies[c].lock().expect("body lock") = Some(body);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warm-up thread panicked"))
        })?;
        st.warm_bodies = bodies
            .into_iter()
            .map(|b| {
                b.into_inner()
                    .expect("body lock")
                    .expect("every cell answered")
            })
            .collect();
        st.warm_requests = requests;
        Ok(st)
    }

    fn shape(&self, st: &ServeState) -> (usize, usize, u32) {
        (CONNECTIONS, st.cells.len(), st.server.pid())
    }

    fn op(&self, st: &ServeState, tid: usize, i: usize) -> Result<f64, OpError> {
        let n = st.cells.len();
        let cell = i % n;
        let cold;
        let req = if self.hot {
            &st.warm_requests[cell]
        } else {
            cold = self.request(st, 1 + (i / n) as u64, cell);
            &cold
        };
        let mut client = st.clients[tid].lock().expect("client lock");
        let t = Instant::now();
        let span = trace::open(Name::NetSolve);
        let resp = client.solve(req);
        trace::close(span, 0, 0);
        let rtt_ms = t.elapsed().as_secs_f64() * 1000.0;
        drop(client);
        let resp = resp.map_err(net_err)?;
        if trace::enabled() {
            st.replies.lock().expect("reply lock").push(Reply {
                rtt_ms,
                queue_wait_ms: resp.queue_wait_ms,
                solve_ms: resp.solve_ms,
                total_ms: resp.total_ms,
            });
        }
        self.check(st, cell, &resp).map_err(OpError::Failed)?;
        Ok(rtt_ms)
    }

    fn begin_traced(&self, st: &mut ServeState) -> Result<(), String> {
        let mut client = st.clients[0].lock().expect("client lock");
        st.stats_before = Some(client.stats().map_err(|e| format!("stats: {e}"))?);
        Ok(())
    }

    fn layers(
        &self,
        st: &mut ServeState,
        spans: Vec<trace::Span>,
        t: &Timed,
    ) -> Result<Layers, String> {
        let after = st.clients[0]
            .lock()
            .expect("client lock")
            .stats()
            .map_err(|e| format!("stats: {e}"))?;
        let before = st
            .stats_before
            .take()
            .ok_or("no stats before the traced phase")?;
        let (ops, setup) = OpTree::group(spans);
        let replies = std::mem::take(&mut *st.replies.lock().expect("reply lock"));
        if ops.len() != t.attempted || replies.len() != t.attempted {
            return Err(format!("{} op traces for {} ops", ops.len(), t.attempted));
        }
        let n = ops.len() as f64;
        // Each op is its round trip plus the loop's own work; the round
        // trip splits into wire + admission + queue wait + solve below.
        for tree in &ops {
            tree.check_nesting()?;
            let root = tree.root()?;
            if tree.named(Name::NetSolve).count() != 1 {
                return Err("op without exactly one round trip".into());
            }
            let op_self = root.dur() as i128 - tree.child_union(root, |_| true) as i128;
            if op_self < 0 {
                return Err(format!("negative op self time {op_self} ns"));
            }
        }
        let mut wire = Vec::with_capacity(replies.len());
        let mut admit = 0.0;
        for r in &replies {
            let (w, a) = (
                r.rtt_ms - r.total_ms,
                r.total_ms - r.queue_wait_ms - r.solve_ms,
            );
            // Rounding in the server's ms fields allows a hair below 0.
            if w < -1e-6 || a < -1e-6 {
                return Err(format!("negative layer time (wire {w} ms, admit {a} ms)"));
            }
            wire.push(w);
            admit += a;
        }
        let col = |f: fn(&Reply) -> f64| replies.iter().map(f).collect::<Vec<f64>>();
        let (qw, solve) = (col(|r| r.queue_wait_ms), col(|r| r.solve_ms));
        // Counter deltas over the traced phase, per shard and fleet:
        // (submitted, completed, cache hits, shed).
        let delta = |shard: u16| -> Result<(u64, u64, u64, u64), String> {
            let row = |s: &StatsReply| {
                s.rows
                    .iter()
                    .find(|r| r.shard == shard)
                    .map(|r| r.stats)
                    .ok_or(format!("stats reply lacks shard {shard}"))
            };
            let (a, b) = (row(&after)?, row(&before)?);
            Ok((
                a.submitted - b.submitted,
                a.completed - b.completed,
                a.cache_hits - b.cache_hits,
                a.shed - b.shed,
            ))
        };
        let (submitted, completed, cache_hits, shed) = delta(FLEET_SHARD)?;
        let per_shard = (0..after.shards)
            .map(|s| delta(s).map(|d| d.1 as f64))
            .collect::<Result<Vec<_>, _>>()?;
        let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
        let max = per_shard.iter().copied().fold(0.0, f64::max);
        let generate: u64 = setup
            .iter()
            .filter(|s| s.name == Name::Generate)
            .map(|s| s.dur())
            .sum();
        trace::set_enabled(true);
        let codec = codec_spans(
            st,
            if self.hot {
                ServedFrom::Cache
            } else {
                ServedFrom::Solve
            },
        );
        trace::set_enabled(false);
        let codec = codec?;
        let frames = (CODEC_REPS * st.warm_requests.len()) as f64;
        let per_frame = |name: Name, f: fn(&trace::Span) -> u64| {
            codec.iter().filter(|s| s.name == name).map(f).sum::<u64>() as f64 / frames
        };
        let mut l = Layers::new();
        if !self.hot {
            l.insert("llp_workloads.generate_ms", generate as f64 / 1e6);
        }
        l.insert("llp_service.queue_wait_ms.p50", load::percentile(&qw, 50.0));
        l.insert("llp_service.queue_wait_ms.p90", load::percentile(&qw, 90.0));
        l.insert("llp_service.solve_ms.p50", load::percentile(&solve, 50.0));
        l.insert("llp_service.solve_ms.p90", load::percentile(&solve, 90.0));
        l.insert("llp_service.admit_ms", admit / n);
        l.insert(
            "llp_service.shard_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
        l.insert(
            "llp_service.cache_hit_frac",
            cache_hits as f64 / completed.max(1) as f64,
        );
        l.insert(
            "llp_service.shed_frac",
            shed as f64 / submitted.max(1) as f64,
        );
        l.insert(
            "llp_service.fingerprint_us",
            per_frame(Name::Fingerprint, trace::Span::dur) / 1e3,
        );
        l.insert("llp_serve.wire_ms.p50", load::percentile(&wire, 50.0));
        l.insert("llp_serve.wire_ms.p90", load::percentile(&wire, 90.0));
        l.insert(
            "llp_serve.encode_us",
            per_frame(Name::Encode, trace::Span::dur) / 1e3,
        );
        l.insert(
            "llp_serve.decode_us",
            per_frame(Name::Decode, trace::Span::dur) / 1e3,
        );
        l.insert("llp_serve.frame_bytes", per_frame(Name::Encode, |s| s.a));
        Ok(l)
    }
}
