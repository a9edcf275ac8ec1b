//! Live-server integration: a real loopback [`NetServer`] answers
//! end-to-end socket solves with bodies bit-identical to in-process
//! replays, answers adversarial frames with typed error frames (never
//! a hang), keeps connections open across application errors, and
//! serves stats/reset over the wire (DESIGN.md §9).

use std::net::SocketAddr;
use std::time::Duration;

use llp_serve::codec::{encode_frame, ErrorCode, Frame, FLEET_SHARD, FT_SOLVE, MAX_FRAME_LEN};
use llp_serve::{ClientError, NetClient, NetServer, ServeConfig};
use llp_service::{Model, ServedFrom, ServiceConfig, ShardRouter, SolveRequest};
use llp_workloads::scenario::RunBudget;

/// Per-test read timeout: generous enough for a quick solve under CI
/// load, short enough that a hang fails the test instead of wedging it.
const TEST_TIMEOUT: Duration = Duration::from_secs(60);

fn quick_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 64,
    }
}

fn quick_server(shards: usize) -> NetServer {
    let cfg = ServeConfig {
        shards,
        service: quick_config(),
    };
    NetServer::bind("127.0.0.1:0", cfg).expect("bind loopback server")
}

fn connect(addr: SocketAddr) -> NetClient {
    let mut client = NetClient::connect(addr).expect("connect to loopback server");
    client
        .stream()
        .set_read_timeout(Some(TEST_TIMEOUT))
        .expect("set read timeout");
    client
}

/// A small deterministic request stream cycling all four models.
fn quick_stream(count: u64) -> Vec<SolveRequest> {
    (0..count)
        .map(|i| {
            SolveRequest::scenario(
                "lp_uniform",
                Model::ALL[(i % Model::ALL.len() as u64) as usize],
                RunBudget::Quick,
                i / Model::ALL.len() as u64,
            )
        })
        .collect()
}

#[test]
fn socket_solve_bodies_match_in_process_replay() {
    let server = quick_server(2);
    let mut client = connect(server.local_addr());
    let stream = quick_stream(8);

    // The in-process reference: the same stream through a ShardRouter
    // with the same shard count, no sockets involved.
    let router = ShardRouter::new(2, &quick_config());
    let direct = router.run_replay(stream.clone());

    for (req, d) in stream.iter().zip(&direct) {
        let wire = client.solve(req).expect("socket solve must succeed");
        let wire_body = wire.body.as_ref().expect("scenario must solve");
        let direct_body = d
            .as_ref()
            .expect("replay admits everything")
            .body
            .as_ref()
            .expect("scenario must solve");
        assert_eq!(
            wire_body, direct_body,
            "the wire must not change response bodies"
        );
    }
}

/// Sends raw bytes on a fresh connection and expects a typed error
/// frame back with the given code. Returns the client so callers can
/// probe the connection state afterwards.
fn expect_error_frame(addr: SocketAddr, bytes: &[u8], want: ErrorCode) -> NetClient {
    let mut client = connect(addr);
    match client.raw_exchange(bytes) {
        Ok(Frame::Error { code, message }) => {
            assert_eq!(code, want, "server said: {message}");
        }
        Ok(other) => panic!("expected {want:?} error frame, got {other:?}"),
        Err(e) => panic!("expected {want:?} error frame, got client error: {e}"),
    }
    client
}

#[test]
fn adversarial_frames_get_typed_errors_and_close_the_connection() {
    let server = quick_server(1);
    let addr = server.local_addr();
    let valid = SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, 1);

    // Zero-length frame: frame_len == 0 cannot even hold the two
    // header bytes.
    let mut c = expect_error_frame(addr, &[0, 0, 0, 0], ErrorCode::Malformed);
    assert!(
        c.stats().is_err(),
        "connection must be closed after a protocol error"
    );

    // Bad version byte (header byte 4).
    let mut bad_version = encode_frame(&Frame::Stats);
    bad_version[4] = 9;
    expect_error_frame(addr, &bad_version, ErrorCode::BadVersion);

    // Unknown frame-type byte (header byte 5).
    let mut bad_type = encode_frame(&Frame::Stats);
    bad_type[5] = 0xEE;
    expect_error_frame(addr, &bad_type, ErrorCode::BadFrameType);

    // A response-only frame type sent to the server.
    expect_error_frame(
        addr,
        &encode_frame(&Frame::ResetResponse),
        ErrorCode::BadFrameType,
    );

    // A length word lying past MAX_FRAME_LEN: refused from the header
    // alone, before any payload crosses the wire.
    let mut oversized = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[1, FT_SOLVE]);
    expect_error_frame(addr, &oversized, ErrorCode::Oversized);

    // A solve frame whose payload is garbage.
    let mut garbage = 5u32.to_le_bytes().to_vec(); // version + type + 3 bytes
    garbage.extend_from_slice(&[1, FT_SOLVE, 0xDE, 0xAD, 0xBE]);
    expect_error_frame(addr, &garbage, ErrorCode::Malformed);

    // A solve frame whose claimed fingerprint disagrees with the
    // request fields the server rehashes.
    let lying = encode_frame(&Frame::Solve {
        fingerprint: valid.fingerprint() ^ 1,
        request: valid.clone(),
    });
    expect_error_frame(addr, &lying, ErrorCode::FingerprintMismatch);

    // A client that dies mid-frame (truncated header, then EOF) must
    // not wedge the server: the handler just drops the connection.
    {
        let mut half = connect(addr);
        use std::io::Read;
        llp_serve::server::send_raw_bytes(half.stream(), &[7, 0]).expect("partial header");
        half.stream()
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut buf = [0u8; 16];
        let n = half.stream().read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server must drop a half-dead connection, not reply");
    }

    // After all of the above the server still serves fresh connections.
    let mut fresh = connect(addr);
    let resp = fresh.solve(&valid).expect("server must survive abuse");
    assert!(resp.body.is_ok());
}

#[test]
fn application_errors_keep_the_connection_open() {
    let server = quick_server(2);
    let mut client = connect(server.local_addr());

    // An unknown scenario is rejected at admission — an application
    // error, answered on the same connection without closing it.
    let bogus = SolveRequest::scenario("no_such_scenario", Model::Ram, RunBudget::Quick, 1);
    match client.solve(&bogus) {
        Err(ClientError::Server {
            code: ErrorCode::Rejected,
            ..
        }) => {}
        other => panic!("expected a Rejected error frame, got {other:?}"),
    }

    // The very same connection still solves valid requests.
    let valid = SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Quick, 2);
    let resp = client
        .solve(&valid)
        .expect("connection must stay open after an application error");
    assert!(resp.body.is_ok());
}

#[test]
fn huge_budget_scenario_is_rejected_and_the_connection_stays_open() {
    let server = quick_server(2);
    let mut client = connect(server.local_addr());
    let huge = SolveRequest::scenario("lp_uniform", Model::Ram, RunBudget::Huge, 1);
    match client.solve(&huge) {
        Err(ClientError::Server {
            code: ErrorCode::Rejected,
            ..
        }) => {}
        other => panic!("expected a Rejected error frame, got {other:?}"),
    }
    let reply = client
        .stats()
        .expect("connection must stay open after the refusal");
    let fleet = &reply.rows.last().unwrap().stats;
    assert_eq!((fleet.rejected, fleet.solves), (1, 0));
}

#[test]
fn stats_and_reset_work_over_the_wire() {
    let server = quick_server(2);
    let mut client = connect(server.local_addr());
    let stream = quick_stream(12);
    for req in &stream {
        client.solve(req).expect("solve");
    }

    let reply = client.stats().expect("stats over the wire");
    assert_eq!(reply.shards, 2);
    assert_eq!(reply.rows.len(), 3, "two shard rows plus the fleet row");
    assert_eq!(reply.rows[0].shard, 0);
    assert_eq!(reply.rows[1].shard, 1);
    let fleet = reply.rows.last().unwrap();
    assert_eq!(fleet.shard, FLEET_SHARD, "fleet row comes last");

    // Conservation per row and fleet counters as field-wise sums.
    for row in &reply.rows {
        let s = &row.stats;
        assert_eq!(
            s.completed + s.shed + s.rejected,
            s.submitted,
            "shard {} conservation",
            row.shard
        );
        assert_eq!(
            s.cache_hits + s.solves + s.batched,
            s.completed,
            "shard {} classification conservation",
            row.shard
        );
    }
    let shard_rows = &reply.rows[..reply.rows.len() - 1];
    assert_eq!(
        fleet.stats.submitted,
        shard_rows.iter().map(|r| r.stats.submitted).sum::<u64>()
    );
    assert_eq!(
        fleet.stats.completed,
        shard_rows.iter().map(|r| r.stats.completed).sum::<u64>()
    );
    assert_eq!(fleet.stats.submitted, stream.len() as u64);

    // Reset over the wire zeroes every row and chills the cache.
    client.reset().expect("reset over the wire");
    let cleared = client.stats().expect("stats after reset");
    for row in &cleared.rows {
        assert_eq!(row.stats.submitted, 0, "shard {} must be reset", row.shard);
        assert_eq!(row.latency.count, 0);
    }
    let again = client.solve(&stream[0]).expect("solve after reset");
    assert_eq!(
        again.served_from,
        ServedFrom::Solve,
        "reset must clear the result cache"
    );
}
