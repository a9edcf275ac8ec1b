//! Per-crate policy classes and workspace discovery.
//!
//! The central contract of this repo is **bit-identical solutions, stats,
//! and meters at any thread/worker count** (DESIGN.md §5). The lints
//! enforce that contract statically, but not every crate is held to the
//! same standard — the serving and bench layers *exist* to read clocks.
//! Each crate therefore gets a policy class:
//!
//! * [`Class::Deterministic`] — the solver stack. No `HashMap`/`HashSet`,
//!   no wall-clock reads, no env reads (except the documented
//!   `LLP_THREADS` owner `vendor/llp_par`), no unseeded RNG.
//! * [`Class::Timing`] — `llp_service` and `llp_bench`. Wall-clock reads
//!   are the product, but every read site must carry a reasoned
//!   allow annotation so new clock dependencies are conscious decisions.
//!   Collection-order lints are relaxed (the service keys batches by
//!   fingerprint; order never reaches an output without a sorted drain).
//! * [`Class::VendorExempt`] — the offline registry stand-ins
//!   (`rand`, `serde`, `serde_derive`, `proptest`). They emulate
//!   upstream APIs (`ThreadRng` is deliberately entropy-seeded), so only
//!   the structural lints (`missing-forbid-unsafe`, allow hygiene) apply.

use std::fs;
use std::path::{Path, PathBuf};

/// Policy class of a crate (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Full determinism lint set.
    Deterministic,
    /// Wall-clock permitted behind reasoned allows.
    Timing,
    /// Structural lints only.
    VendorExempt,
}

/// One crate (or crate-shaped source set) to analyze.
#[derive(Clone, Debug)]
pub struct CrateSpec {
    /// Short key (`"core"`, `"service"`, `"llp_par"`, `"facade"`, …).
    pub key: String,
    /// Policy class.
    pub class: Class,
    /// Source files: workspace-relative path + contents.
    pub files: Vec<SourceFile>,
    /// Crate-root files (lib.rs / bin roots) that must carry
    /// `#![forbid(unsafe_code)]`.
    pub root_files: Vec<String>,
}

/// One source file (path is workspace-relative, `/`-separated).
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// Files whose loop bodies the `hot-loop-alloc` lint watches: the
/// violation-scan and weight-update kernels (arena-backed columnar code)
/// and the flat-row LP basis solvers every Clarkson iteration calls.
pub const KERNEL_FILES: &[&str] = &[
    "crates/core/src/lptype.rs",
    "crates/core/src/clarkson.rs",
    "crates/solver/src/seidel.rs",
    "crates/solver/src/lexico.rs",
];

/// The crate that owns `LLP_THREADS` (and env reads generally); see
/// DESIGN.md §7's thread-count precedence. Everything else gets the
/// `env-read` lint.
pub const ENV_OWNER: &str = "llp_par";

/// The static policy table: directory (relative to the workspace root)
/// → (crate key, class).
pub const CRATE_TABLE: &[(&str, &str, Class)] = &[
    ("crates/core", "core", Class::Deterministic),
    ("crates/num", "num", Class::Deterministic),
    ("crates/geom", "geom", Class::Deterministic),
    ("crates/solver", "solver", Class::Deterministic),
    ("crates/sampling", "sampling", Class::Deterministic),
    ("crates/models", "models", Class::Deterministic),
    ("crates/bigdata", "bigdata", Class::Deterministic),
    ("crates/lowerbound", "lowerbound", Class::Deterministic),
    ("crates/baselines", "baselines", Class::Deterministic),
    ("crates/workloads", "workloads", Class::Deterministic),
    ("crates/analyzer", "analyzer", Class::Deterministic),
    ("crates/service", "service", Class::Timing),
    ("crates/serve", "serve", Class::Timing),
    ("crates/bench", "bench", Class::Timing),
    // The chunk store is file-IO: checksummed frame decode is fully
    // deterministic, but like the other IO-facing crates its tests meter
    // real files, so clock reads stay legal behind reasoned allows.
    ("crates/store", "store", Class::Timing),
    ("vendor/llp_par", "llp_par", Class::Deterministic),
    ("vendor/rand", "rand", Class::VendorExempt),
    ("vendor/serde", "serde", Class::VendorExempt),
    ("vendor/serde_derive", "serde_derive", Class::VendorExempt),
    ("vendor/proptest", "proptest", Class::VendorExempt),
];

/// Discovers the workspace's crates from `root` and loads their sources.
///
/// Besides the `CRATE_TABLE` crates (their `src/`, `tests/`, `benches/`
/// trees), the root facade package contributes `src/`, `tests/`, and
/// `examples/` as a deterministic crate — the differential suites must
/// themselves be clock- and order-free or their verdicts mean nothing.
/// Excluded everywhere: `target/` and any `fixtures/` directory (the
/// analyzer's own test corpus deliberately violates every lint).
pub fn discover(root: &Path) -> Result<Vec<CrateSpec>, String> {
    let mut crates = Vec::new();
    for (dir, key, class) in CRATE_TABLE {
        let base = root.join(dir);
        if !base.is_dir() {
            return Err(format!("workspace member {dir} missing under {root:?}"));
        }
        let mut files = Vec::new();
        for sub in ["src", "tests", "benches"] {
            collect_rs(root, &base.join(sub), &mut files)?;
        }
        let root_files = files
            .iter()
            .map(|f| f.path.clone())
            .filter(|p| is_crate_root(p))
            .collect();
        crates.push(CrateSpec {
            key: (*key).to_string(),
            class: *class,
            files,
            root_files,
        });
    }
    // The root facade package.
    let mut files = Vec::new();
    for sub in ["src", "tests", "examples"] {
        collect_rs(root, &root.join(sub), &mut files)?;
    }
    let root_files = vec!["src/lib.rs".to_string()];
    crates.push(CrateSpec {
        key: "facade".to_string(),
        class: Class::Deterministic,
        files,
        root_files,
    });
    Ok(crates)
}

/// True for files that are crate roots (must carry
/// `#![forbid(unsafe_code)]`): `src/lib.rs`, `src/main.rs`, `src/bin/*`.
fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs") || path.ends_with("src/main.rs") || path.contains("/src/bin/")
}

/// Recursively collects `.rs` files under `dir` (sorted traversal, so
/// findings and reports are byte-stable run to run).
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(()); // optional subtree (most crates have no tests/)
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("read_dir {dir:?}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{path:?} escapes workspace root"))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile { path: rel, text });
        }
    }
    Ok(())
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — the analysis root.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut cur = start
        .canonicalize()
        .map_err(|e| format!("canonicalize {start:?}: {e}"))?;
    loop {
        let manifest = cur.join("Cargo.toml");
        if manifest.is_file() {
            let text =
                fs::read_to_string(&manifest).map_err(|e| format!("read {manifest:?}: {e}"))?;
            if text.contains("[workspace]") {
                return Ok(cur);
            }
        }
        match cur.parent() {
            Some(p) => cur = p.to_path_buf(),
            None => return Err("no [workspace] Cargo.toml above the current directory".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_roots_are_recognized() {
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(is_crate_root("crates/analyzer/src/main.rs"));
        assert!(is_crate_root("crates/bench/src/bin/experiments.rs"));
        assert!(!is_crate_root("crates/core/src/clarkson.rs"));
        assert!(!is_crate_root("tests/properties.rs"));
    }
}
