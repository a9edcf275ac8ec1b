//! Tier-1 gate: the analyzer run over its own workspace must be
//! deny-clean. This is the same invocation CI's `analyze` job makes via
//! `cargo run -p llp_analyzer -- --check`, expressed as a test so the
//! plain `cargo test` tier-1 surface enforces it too.

use llp_analyzer::analyze_workspace;
use std::path::Path;

#[test]
fn workspace_is_deny_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = analyze_workspace(&root).expect("workspace discovery");
    assert!(
        r.findings.is_empty(),
        "findings in the workspace:\n{}",
        r.findings
            .iter()
            .map(|f| format!("  {}:{}: {}: {}", f.path, f.line, f.lint, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity on the discovery surface itself: the whole workspace is in
    // view (20 crates + facade), not an accidentally-pruned subtree.
    assert!(
        r.files_scanned >= 118,
        "only {} files scanned — discovery lost crates",
        r.files_scanned
    );
}
