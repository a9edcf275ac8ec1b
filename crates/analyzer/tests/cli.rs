//! The `llp-analyzer` binary is the one gate: `--check` exits 0 on a
//! clean tree, 1 on any finding and 2 on a usage error.

use llp_analyzer::policy::CRATE_TABLE;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Builds a workspace tree named `name` under the target's temp dir:
/// every policy crate directory (empty) plus a root `src/lib.rs`
/// holding `lib_rs`.
fn tree(name: &str, lib_rs: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    for (dir, _, _) in CRATE_TABLE {
        fs::create_dir_all(root.join(dir)).expect("crate directory");
    }
    fs::create_dir_all(root.join("src")).expect("src directory");
    fs::write(root.join("src/lib.rs"), lib_rs).expect("root lib.rs");
    root
}

fn analyzer(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_llp-analyzer"))
        .args(args)
        .output()
        .expect("the llp-analyzer binary starts")
}

fn check(root: &Path) -> Output {
    analyzer(&["--check", "--root", root.to_str().expect("utf-8 path")])
}

#[test]
fn check_exits_0_when_clean_1_on_any_finding_and_2_on_an_unknown_flag() {
    let clean = check(&tree(
        "analyzer_cli_clean",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    ));
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert_eq!(clean.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains(" 0 deny,"), "{stdout}");

    let dirty = check(&tree("analyzer_cli_dirty", "pub fn f() {}\n"));
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert_eq!(dirty.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("missing-forbid-unsafe"), "{stdout}");

    let baseline = analyzer(&["--check", "--baseline", "x"]);
    let stderr = String::from_utf8_lossy(&baseline.stderr);
    assert_eq!(baseline.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag"), "{stderr}");
}
