//! The `experiments` binary refuses flag combinations that would run
//! something other than what was asked: exit code 2, a reason on
//! stderr, and nothing started.

use std::process::Command;

/// Runs the binary with `args` and asserts a refusal naming `reason`.
fn assert_refused(args: &[&str], reason: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} exited with: {stderr}");
    assert!(
        stderr.contains(reason),
        "{args:?} must name {reason:?}, got: {stderr}"
    );
}

#[test]
fn huge_refuses_the_load_harness() {
    // `--connect` forces the load harness, which the huge tier (n ≥ 10^8
    // per scenario) must never start.
    assert_refused(
        &["--huge", "--connect", "127.0.0.1:1"],
        "--huge does not apply to the load harness",
    );
}

#[test]
fn connect_refuses_the_loopback_server_flags() {
    // Against an external server `--shards` would configure nothing.
    assert_refused(
        &[
            "--quick",
            "--connect",
            "127.0.0.1:1",
            "--shards",
            "2",
            "serve",
        ],
        "--connect drives an external server",
    );
}
