//! The TCP server: one accept loop, one handler thread per connection,
//! a [`ShardRouter`] behind them.
//!
//! The server is *offline-safe*: it binds loopback (or whatever address
//! the caller gives it), never resolves names, and never dials out.
//! Liveness is guaranteed frame-by-frame — every read carries a short
//! timeout so handler threads poll the stop flag instead of parking in
//! the kernel, and a malformed frame is answered with a typed error
//! frame, never a hang (DESIGN.md §9 failure-mode table).
//!
//! Shutdown order matters and is fixed in [`NetServer::shutdown`]:
//! raise the stop flag, join the accept loop, close the router (workers
//! drain in-flight batches so blocked handlers get their responses),
//! then join the handlers.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use llp_service::{LatencySummary, ServiceConfig, ServiceStats, ShardRouter, SubmitError};

use crate::codec::{
    read_frame, write_frame, ErrorCode, Frame, ReadError, StatsReply, StatsRow, FLEET_SHARD,
};

/// How long a handler read blocks before re-checking the stop flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Configuration of a [`NetServer`]: the shard count plus the
/// per-shard [`ServiceConfig`] (every shard gets an identical copy, so
/// classification behavior is uniform across the fleet).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of independent service shards.
    pub shards: usize,
    /// Per-shard queue/worker/cache configuration.
    pub service: ServiceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            service: ServiceConfig::default(),
        }
    }
}

/// A running network server. Dropping it shuts it down gracefully.
pub struct NetServer {
    router: Arc<ShardRouter>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and starts accepting connections immediately.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let router = Arc::new(ShardRouter::new(cfg.shards, &cfg.service));
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_router = Arc::clone(&router);
        let accept_stop = Arc::clone(&stop);
        let accept_handlers = Arc::clone(&handlers);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(listener, accept_router, accept_stop, accept_handlers);
        });

        Ok(NetServer {
            router,
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            handlers,
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, close the router so blocked
    /// handlers get their in-flight responses, then join every thread.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Closing the router lets workers drain pending batches, so a
        // handler parked in `Admission::wait` receives its response and
        // then observes the stop flag on its next read.
        self.router.close();
        let handlers: Vec<JoinHandle<()>> = {
            let mut guard = self.handlers.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        // Joins happen outside the handler-list lock: a handler that
        // outlives the drain above must never need that lock to exit.
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    router: Arc<ShardRouter>,
    stop: Arc<AtomicBool>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_router = Arc::clone(&router);
                let conn_stop = Arc::clone(&stop);
                let handle = std::thread::spawn(move || {
                    handle_connection(stream, &conn_router, &conn_stop);
                });
                let mut guard = handlers.lock().unwrap_or_else(|e| e.into_inner());
                guard.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake):
                // keep serving unless asked to stop.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// One connection's frame loop. Returns (closing the connection) on
/// transport errors, protocol errors, and server shutdown; stays in the
/// loop across application errors (shed/rejected) so a client can keep
/// submitting on the same connection.
fn handle_connection(mut stream: TcpStream, router: &ShardRouter, stop: &AtomicBool) {
    // Accepted sockets can inherit the listener's nonblocking mode;
    // switch to blocking-with-timeout so reads poll the stop flag.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);

    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(ReadError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // idle poll tick: re-check the stop flag
            }
            Err(ReadError::Io(_)) => return, // disconnect or truncation
            Err(ReadError::Protocol { code, message }) => {
                let _ = write_frame(&mut stream, &Frame::Error { code, message });
                return;
            }
        };
        let (reply, close_after) = respond(frame, router);
        if write_frame(&mut stream, &reply).is_err() {
            return; // client went away mid-reply
        }
        if close_after {
            return;
        }
    }
}

/// Maps one decoded client frame to its reply frame plus whether the
/// connection closes afterwards (protocol errors and shutdown close;
/// application errors keep the connection open).
fn respond(frame: Frame, router: &ShardRouter) -> (Frame, bool) {
    match frame {
        Frame::Solve {
            fingerprint,
            request,
        } => {
            let actual = request.fingerprint();
            if actual != fingerprint {
                let code = ErrorCode::FingerprintMismatch;
                return (
                    Frame::Error {
                        code,
                        message: format!(
                            "claimed fingerprint {fingerprint:032x} != recomputed {actual:032x}"
                        ),
                    },
                    code.closes_connection(),
                );
            }
            let (_shard, admission) = router.submit(request);
            match admission {
                Ok(adm) => {
                    // `wait` blocks until a worker publishes the batch;
                    // this is the per-connection thread's job and holds
                    // no locks.
                    let response = adm.wait();
                    (
                        Frame::SolveResponse {
                            fingerprint: actual,
                            response,
                        },
                        false,
                    )
                }
                Err(SubmitError::Shed) => (
                    Frame::Error {
                        code: ErrorCode::Shed,
                        message: "home shard's admission queue is full".to_string(),
                    },
                    false,
                ),
                Err(SubmitError::UnknownScenario(name)) => (
                    Frame::Error {
                        code: ErrorCode::Rejected,
                        message: format!("unknown scenario {name:?}"),
                    },
                    false,
                ),
                Err(SubmitError::HugeBudget(name)) => (
                    Frame::Error {
                        code: ErrorCode::Rejected,
                        message: format!("scenario {name:?} is not served at the huge budget"),
                    },
                    false,
                ),
                Err(SubmitError::Closed) => (
                    Frame::Error {
                        code: ErrorCode::Closed,
                        message: "server is shutting down".to_string(),
                    },
                    true,
                ),
            }
        }
        Frame::Stats => (Frame::StatsResponse(collect_stats(router)), false),
        Frame::Reset => {
            router.reset();
            (Frame::ResetResponse, false)
        }
        // Response-only frames arriving at the server are a protocol
        // violation.
        Frame::SolveResponse { .. }
        | Frame::Error { .. }
        | Frame::StatsResponse(_)
        | Frame::ResetResponse => (
            Frame::Error {
                code: ErrorCode::BadFrameType,
                message: "response-only frame type sent to the server".to_string(),
            },
            true,
        ),
    }
}

/// Builds the stats reply: one row per shard in index order, then the
/// fleet row. Fleet counters are field-wise sums; fleet percentiles are
/// recomputed from the concatenated raw samples because percentiles do
/// not compose from per-shard summaries.
pub fn collect_stats(router: &ShardRouter) -> StatsReply {
    let per_shard = router.stats();
    let latency = router.latency_samples();
    let queue_wait = router.queue_wait_samples();
    let mut rows = Vec::with_capacity(per_shard.len() + 1);
    let mut fleet = ServiceStats::default();
    let mut fleet_latency: Vec<f64> = Vec::new();
    let mut fleet_queue: Vec<f64> = Vec::new();
    for (i, st) in per_shard.iter().enumerate() {
        fleet.submitted += st.submitted;
        fleet.completed += st.completed;
        fleet.shed += st.shed;
        fleet.rejected += st.rejected;
        fleet.solves += st.solves;
        fleet.failed_solves += st.failed_solves;
        fleet.batched += st.batched;
        fleet.cache_hits += st.cache_hits;
        fleet_latency.extend_from_slice(&latency[i]);
        fleet_queue.extend_from_slice(&queue_wait[i]);
        rows.push(StatsRow {
            shard: i as u16,
            stats: *st,
            latency: LatencySummary::from_samples(&latency[i]),
            queue_wait: LatencySummary::from_samples(&queue_wait[i]),
        });
    }
    rows.push(StatsRow {
        shard: FLEET_SHARD,
        stats: fleet,
        latency: LatencySummary::from_samples(&fleet_latency),
        queue_wait: LatencySummary::from_samples(&fleet_queue),
    });
    StatsReply {
        shards: per_shard.len() as u16,
        rows,
    }
}

/// Writes raw bytes to a stream — test helper for adversarial frames
/// that the typed [`crate::client::NetClient`] API cannot produce.
pub fn send_raw_bytes(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    stream.write_all(bytes)?;
    stream.flush()
}
