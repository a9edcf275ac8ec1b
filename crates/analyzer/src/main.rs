#![forbid(unsafe_code)]
//! `llp-analyzer` — the CLI over [`llp_analyzer`].
//!
//! ```text
//! cargo run -p llp_analyzer -- --check            # CI gate: exit 1 on any finding
//! cargo run -p llp_analyzer -- --out ANALYZER.json
//! cargo run -p llp_analyzer -- --root /path/to/ws --check --out ANALYZER.json
//! ```
//!
//! Human-readable findings go to stdout; the machine-readable report
//! (`report::AnalyzerReport`, schema v3) is written to `--out` via the
//! vendored serde — atomically, through a temp file in the same
//! directory plus rename, so an interrupted run can never leave a
//! truncated artifact for CI to upload. Exit codes: 0 clean (or any
//! findings without `--check`), 1 findings present under `--check`,
//! 2 usage error.

use llp_analyzer::analyze_workspace;
use llp_analyzer::policy::find_workspace_root;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Writes `contents` to `path` atomically: temp file in the same
/// directory (rename across filesystems is not atomic), then rename.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = dir.map_or_else(PathBuf::new, Path::to_path_buf);
    let base = path.file_name().map_or_else(
        || "ANALYZER.json".to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    tmp.push(format!(".{base}.tmp-{}", std::process::id()));
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn main() -> ExitCode {
    let mut check = false;
    let mut out: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage("--out needs a path"),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "llp-analyzer: workspace determinism-and-invariant lints\n\
                     \n\
                     USAGE: llp-analyzer [--check] [--out FILE] [--root DIR]\n\
                     \n\
                     --check  exit 1 when any finding survives\n\
                     --out    write the ANALYZER.json report to FILE (atomic)\n\
                     --root   workspace root (default: walk up from cwd)"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => match find_workspace_root(&PathBuf::from(".")) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let r = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &r.findings {
        println!("{}:{}: {}: {}", f.path, f.line, f.lint, f.message);
    }
    println!(
        "llp-analyzer: {} files, {} deny, {} suppressed by reasoned allows",
        r.files_scanned,
        r.findings.len(),
        r.suppressed
    );

    if let Some(path) = out {
        if let Err(e) = write_atomic(&path, &r.to_json()) {
            eprintln!("error: write {path:?}: {e}");
            return ExitCode::from(2);
        }
        println!("llp-analyzer: report written to {}", path.display());
    }

    if check && !r.findings.is_empty() {
        eprintln!(
            "llp-analyzer: --check failed ({} finding(s))",
            r.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg} (try --help)");
    ExitCode::from(2)
}
