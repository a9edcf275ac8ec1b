//! Tier-1 gate: the analyzer run over its own workspace must be
//! deny-clean. This is the same invocation CI's `analyze` job makes via
//! `cargo run -p llp_analyzer -- --check`, expressed as a test so the
//! plain `cargo test` tier-1 surface enforces it too.

use llp_analyzer::analyze_workspace;
use llp_analyzer::report::AnalyzerReport;
use serde::Serialize;
use std::path::Path;

#[test]
fn workspace_is_deny_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = analyze_workspace(&root).expect("workspace discovery");
    let denies: Vec<_> = a.report.findings.iter().filter(|f| f.is_deny()).collect();
    assert!(
        denies.is_empty(),
        "deny-tier findings in the workspace:\n{}",
        denies
            .iter()
            .map(|f| format!("  {}:{}: {}: {}", f.path, f.line, f.lint, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity on the discovery surface itself: the whole workspace is in
    // view (20 crates + facade), not an accidentally-pruned subtree.
    assert!(
        a.report.files_scanned >= 118,
        "only {} files scanned — discovery lost crates",
        a.report.files_scanned
    );
}

#[test]
fn workspace_report_round_trips_as_its_own_baseline() {
    // The PR-gate invariant: `--check --baseline` against a baseline
    // written by the identical run must report zero new findings —
    // fingerprints are a pure function of (lint, path, message,
    // occurrence), never of line numbers or ordering.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = analyze_workspace(&root).expect("workspace discovery");
    let base =
        AnalyzerReport::load_baseline(&a.report.to_json()).expect("own report loads as a baseline");
    let fresh = a.report.new_versus(&base);
    assert!(
        fresh.is_empty(),
        "self-diff must be empty, got {} new finding(s): {:?}",
        fresh.len(),
        fresh
    );
}
