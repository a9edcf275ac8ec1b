//! Fixture-driven lint tests: every lint has at least one firing snippet
//! and one clean twin under `tests/fixtures/`. The fixtures are lexed,
//! never compiled — `policy::discover` skips `fixtures/` directories, so
//! the deliberately-dirty snippets cannot fail the workspace
//! self-analysis in `self_analysis.rs`.

use llp_analyzer::analyze_crates;
use llp_analyzer::policy::{Class, CrateSpec, SourceFile};
use llp_analyzer::report::{AnalyzerReport, SCHEMA_VERSION};
use serde::Serialize;

fn run(class: Class, key: &str, path: &str, src: &str, is_root: bool) -> AnalyzerReport {
    analyze_crates(&[CrateSpec {
        key: key.to_string(),
        class,
        files: vec![SourceFile {
            path: path.to_string(),
            text: src.to_string(),
        }],
        root_files: if is_root {
            vec![path.to_string()]
        } else {
            vec![]
        },
    }])
}

/// Multi-file variant of [`run`]: the interprocedural lints need
/// callers and callees in separate files of one crate.
fn run_files(class: Class, key: &str, files: &[(&str, &str)]) -> AnalyzerReport {
    analyze_crates(&[CrateSpec {
        key: key.to_string(),
        class,
        files: files
            .iter()
            .map(|(path, text)| SourceFile {
                path: (*path).to_string(),
                text: (*text).to_string(),
            })
            .collect(),
        root_files: vec![],
    }])
}

fn lints(a: &AnalyzerReport) -> Vec<&str> {
    a.findings.iter().map(|f| f.lint.as_str()).collect()
}

/// Shorthand: one non-root file in a deterministic crate.
fn det(src: &str) -> AnalyzerReport {
    run(
        Class::Deterministic,
        "core",
        "crates/core/src/x.rs",
        src,
        false,
    )
}

#[test]
fn collections_fire_and_btree_twin_is_clean() {
    let a = det(include_str!("fixtures/collections_firing.rs"));
    assert!(!a.findings.is_empty());
    assert!(
        lints(&a)
            .iter()
            .all(|l| *l == "nondeterministic-collections"),
        "{:?}",
        lints(&a)
    );

    let b = det(include_str!("fixtures/collections_clean.rs"));
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn wall_clock_fires_and_duration_twin_is_clean() {
    let a = det(include_str!("fixtures/wall_clock_firing.rs"));
    assert_eq!(lints(&a), vec!["wall-clock"]);

    let b = det(include_str!("fixtures/wall_clock_clean.rs"));
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn wall_clock_fires_in_timing_crates_too() {
    // Timing crates are not exempt — their metering sites must each
    // carry a reasoned allow instead (see suppression tests below).
    let a = run(
        Class::Timing,
        "service",
        "crates/service/src/x.rs",
        include_str!("fixtures/wall_clock_firing.rs"),
        false,
    );
    assert_eq!(lints(&a), vec!["wall-clock"]);
}

#[test]
fn env_read_fires_everywhere_but_the_owner() {
    let src = include_str!("fixtures/env_read_firing.rs");
    let a = det(src);
    assert_eq!(lints(&a), vec!["env-read"]);

    // The documented precedence owner is exempt.
    let owner = run(
        Class::Deterministic,
        "llp_par",
        "vendor/llp_par/src/x.rs",
        src,
        false,
    );
    assert!(owner.findings.is_empty(), "{:?}", owner.findings);

    let b = det(include_str!("fixtures/env_read_clean.rs"));
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn unseeded_rng_fires_and_seeded_twin_is_clean() {
    let a = det(include_str!("fixtures/unseeded_rng_firing.rs"));
    assert!(!a.findings.is_empty());
    assert!(
        lints(&a).iter().all(|l| *l == "unseeded-rng"),
        "{:?}",
        lints(&a)
    );

    let b = det(include_str!("fixtures/unseeded_rng_clean.rs"));
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn lock_order_cycle_is_detected() {
    let a = det(include_str!("fixtures/lock_order_cycle.rs"));
    assert!(lints(&a).contains(&"lock-order"), "{:?}", a.findings);
    assert!(
        a.findings.iter().any(|f| f.message.contains("cycle")),
        "{:?}",
        a.findings
    );

    let b = det(include_str!("fixtures/lock_order_clean.rs"));
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn blocking_call_under_a_guard_is_detected() {
    let a = det(include_str!("fixtures/lock_order_blocking.rs"));
    assert!(lints(&a).contains(&"lock-order"), "{:?}", a.findings);
    assert!(
        a.findings.iter().any(|f| f.message.contains("blocking")),
        "{:?}",
        a.findings
    );
}

#[test]
fn hot_loop_alloc_denies_in_kernel_files_only() {
    let src = include_str!("fixtures/hot_loop_firing.rs");
    // Under a KERNEL_FILES path: findings (the scratch arenas hoisted
    // every historical hit, so new ones fail CI).
    let a = run(
        Class::Deterministic,
        "core",
        "crates/core/src/lptype.rs",
        src,
        false,
    );
    assert!(a.findings.len() >= 2, "{:?}", a.findings);
    assert!(
        lints(&a).iter().all(|l| *l == "hot-loop-alloc"),
        "{:?}",
        lints(&a)
    );

    // The same source outside the kernel list is not scanned.
    let elsewhere = det(src);
    assert!(elsewhere.findings.is_empty(), "{:?}", elsewhere.findings);

    let b = run(
        Class::Deterministic,
        "core",
        "crates/core/src/lptype.rs",
        include_str!("fixtures/hot_loop_clean.rs"),
        false,
    );
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    let a = run(
        Class::Deterministic,
        "core",
        "crates/core/src/lib.rs",
        include_str!("fixtures/forbid_missing.rs"),
        true,
    );
    assert_eq!(lints(&a), vec!["missing-forbid-unsafe"]);

    let b = run(
        Class::Deterministic,
        "core",
        "crates/core/src/lib.rs",
        include_str!("fixtures/forbid_present.rs"),
        true,
    );
    assert!(b.findings.is_empty(), "{:?}", b.findings);

    // Non-root files are not subject to the root attribute check.
    let c = det(include_str!("fixtures/forbid_missing.rs"));
    assert!(c.findings.is_empty(), "{:?}", c.findings);
}

#[test]
fn stale_allow_regresses_to_a_deny_finding() {
    let a = run(
        Class::Timing,
        "service",
        "crates/service/src/x.rs",
        include_str!("fixtures/unused_allow.rs"),
        false,
    );
    assert_eq!(lints(&a), vec!["unused-allow"]);
    assert_eq!(a.findings.len(), 1);
}

#[test]
fn live_allow_suppresses_and_is_counted() {
    let a = run(
        Class::Timing,
        "service",
        "crates/service/src/x.rs",
        include_str!("fixtures/suppressed_allow.rs"),
        false,
    );
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.suppressed, 1);
}

#[test]
fn report_round_trips_through_json() {
    // The ANALYZER.json surface: serialize a non-trivial report and read
    // its version and findings back out of the vendored-serde value tree.
    let a = det(include_str!("fixtures/collections_firing.rs"));
    let json = a.to_json();
    let v = serde::json::parse(&json).expect("report JSON parses");
    match v.get("schema_version") {
        Some(serde::json::Value::Num(n)) => assert_eq!(*n as u64, SCHEMA_VERSION),
        other => panic!("schema_version field missing or non-numeric: {other:?}"),
    }
    match v.get("findings") {
        Some(serde::json::Value::Arr(items)) => {
            assert_eq!(items.len(), a.findings.len())
        }
        other => panic!("findings field missing or non-array: {other:?}"),
    }
}

#[test]
fn panic_path_fires_under_guard_and_fallible_twin_is_clean() {
    let a = det(include_str!("fixtures/panic_path_firing.rs"));
    assert_eq!(lints(&a), vec!["panic-path"], "{:?}", a.findings);
    // The plumbing `.expect("poisoned")` on lock() must not be the
    // origin: the finding is on the `.unwrap()` line.
    assert!(
        a.findings[0].message.contains(".unwrap()"),
        "{:?}",
        a.findings
    );

    let b = det(include_str!("fixtures/panic_path_clean.rs"));
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn fp_kernel_purity_follows_calls_into_helpers() {
    // The kernel file is clean on its own; the clock read lives in a
    // helper one call away, in another file.
    let kernel = "pub fn scan_rows(x: u64) -> u64 { jitter_scale(x) }\n";
    let a = run_files(
        Class::Deterministic,
        "core",
        &[
            ("crates/core/src/clarkson.rs", kernel),
            (
                "crates/core/src/util.rs",
                include_str!("fixtures/fp_purity_firing.rs"),
            ),
        ],
    );
    // The helper's own wall-clock finding fires per-file; the purity
    // finding fires at the kernel's call site with the witness chain.
    assert!(lints(&a).contains(&"fp-kernel-purity"), "{:?}", a.findings);
    let purity = a
        .findings
        .iter()
        .find(|f| f.lint == "fp-kernel-purity")
        .unwrap();
    assert_eq!(purity.path, "crates/core/src/clarkson.rs");
    assert!(
        purity.message.contains("jitter_scale"),
        "{}",
        purity.message
    );

    let b = run_files(
        Class::Deterministic,
        "core",
        &[
            ("crates/core/src/clarkson.rs", kernel),
            (
                "crates/core/src/util.rs",
                include_str!("fixtures/fp_purity_clean.rs"),
            ),
        ],
    );
    assert!(b.findings.is_empty(), "{:?}", b.findings);
}

#[test]
fn three_deep_cross_file_cycle_is_caught_by_the_full_pipeline() {
    let a = run_files(
        Class::Deterministic,
        "core",
        &[
            (
                "crates/core/src/left.rs",
                include_str!("fixtures/lock_order_deep_left.rs"),
            ),
            (
                "crates/core/src/right.rs",
                include_str!("fixtures/lock_order_deep_right.rs"),
            ),
        ],
    );
    assert!(
        a.findings
            .iter()
            .any(|f| f.lint == "lock-order" && f.message.contains("cycle")),
        "{:?}",
        a.findings
    );
}
