#![forbid(unsafe_code)]
//! `llp_analyzer` — a workspace determinism-and-invariant lint pass.
//!
//! The repo's central contract — bit-identical solutions, stats, and
//! meters at any `LLP_THREADS`/worker count — was previously enforced
//! only dynamically (the differential suites in
//! `tests/parallel_determinism.rs` and `tests/service_determinism.rs`).
//! This crate enforces it *statically*: an offline, dependency-free pass
//! over the workspace's own Rust sources, built on a hand-rolled lexer
//! ([`lexer`]) in the same vendored-from-scratch spirit as
//! `vendor/serde_derive`'s proc-macro parser.
//!
//! The lint catalog (DESIGN.md §8); every finding fails `--check`:
//!
//! | lint | scope |
//! |------|-------|
//! | `nondeterministic-collections` | deterministic crates |
//! | `wall-clock` | deterministic + timing crates |
//! | `env-read` | everywhere but `vendor/llp_par` |
//! | `unseeded-rng` | deterministic + timing crates |
//! | `lock-order` | any crate with a `Mutex` (interprocedural) |
//! | `panic-path` | panic-capable sites reachable under a guard |
//! | `fp-kernel-purity` | KERNEL_FILES' transitive call trees |
//! | `hot-loop-alloc` | the violation-scan kernels and LP basis solvers |
//! | `missing-forbid-unsafe` | every crate root |
//!
//! The three interprocedural lints run over a workspace-wide call graph
//! with SCC-fixpoint summaries ([`callgraph`]); see DESIGN.md §8.
//!
//! Suppressions are reasoned, line-targeted comments:
//!
//! ```text
//! // llp-analyzer: allow(wall-clock) -- metering is this crate's purpose
//! let start = Instant::now();
//! ```
//!
//! An allow covers the next non-allow source line; an allow nothing fired
//! under is itself an `unused-allow` finding, and a comment that
//! starts `// llp-analyzer:` but does not parse is `malformed-allow` —
//! suppressions cannot silently rot.

pub mod callgraph;
pub mod lexer;
pub mod lints;
pub mod lockorder;
pub mod policy;
pub mod purity;
pub mod report;

use callgraph::{CallGraph, FileMeta};
use lexer::{lex, Lexed};
use policy::{Class, CrateSpec};
use report::{AnalyzerReport, Finding};
use std::collections::BTreeMap;
use std::path::Path;

/// One parsed `// llp-analyzer: allow(<lint>) -- <reason>` annotation.
#[derive(Clone, Debug)]
struct Allow {
    lint: String,
    /// The source line the allow suppresses (first non-allow line below).
    target_line: u32,
    /// Line of the annotation itself (for unused-allow findings).
    own_line: u32,
    used: bool,
}

/// The annotation grammar prefix.
const ALLOW_PREFIX: &str = "llp-analyzer:";

/// Parses the allow annotations of one lexed file. Returns the allows
/// plus malformed-annotation findings.
fn parse_allows(path: &str, lexed: &Lexed) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    // Lines occupied by allow comments, so stacked allows above one
    // source line all target that line.
    let annotation_lines: Vec<u32> = lexed
        .comments
        .iter()
        .filter(|c| {
            c.text
                .trim_start_matches('/')
                .trim_start()
                .starts_with(ALLOW_PREFIX)
        })
        .map(|c| c.line)
        .collect();
    for c in &lexed.comments {
        let body = c.text.trim_start_matches('/').trim_start();
        let Some(rest) = body.strip_prefix(ALLOW_PREFIX) else {
            continue;
        };
        let rest = rest.trim();
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .and_then(|(lint, tail)| {
                let tail = tail.trim_start();
                let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
                if reason.is_empty() {
                    None
                } else {
                    Some(lint.trim().to_string())
                }
            });
        match parsed {
            Some(lint) if lints::LINT_NAMES.contains(&lint.as_str()) => {
                // Target: first line after the annotation that is not
                // itself an annotation line.
                let mut target = c.line + 1;
                while annotation_lines.contains(&target) {
                    target += 1;
                }
                allows.push(Allow {
                    lint,
                    target_line: target,
                    own_line: c.line,
                    used: false,
                });
            }
            Some(lint) => findings.push(Finding::new(
                "malformed-allow",
                path,
                c.line,
                format!(
                    "allow names unknown lint `{lint}`; known: {:?}",
                    lints::LINT_NAMES
                ),
            )),
            None => findings.push(Finding::new(
                "malformed-allow",
                path,
                c.line,
                "llp-analyzer annotation must be `allow(<lint>) -- <reason>` \
                 (the reason is mandatory)",
            )),
        }
    }
    (allows, findings)
}

/// Analyzes pre-built crate specs (the fixture tests drive this
/// directly; [`analyze_workspace`] discovers the real tree first).
pub fn analyze_crates(crates: &[CrateSpec]) -> AnalyzerReport {
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows_by_file: BTreeMap<String, Vec<Allow>> = BTreeMap::new();

    // Lex every file once; the flat list feeds both the per-file lints
    // and the workspace-wide call graph.
    let lexed_files: Vec<(&CrateSpec, String, Lexed)> = crates
        .iter()
        .flat_map(|spec| {
            spec.files
                .iter()
                .map(move |f| (spec, f.path.clone(), lex(&f.text)))
        })
        .collect();
    let files_scanned = lexed_files.len() as u64;

    for (spec, path, lexed) in &lexed_files {
        let (allows, malformed) = parse_allows(path, lexed);
        findings.extend(malformed);
        allows_by_file
            .entry(path.clone())
            .or_default()
            .extend(allows);
        findings.extend(lints::scan_file(path, lexed, spec.class, &spec.key));
        if spec.root_files.contains(path) {
            findings.extend(lints::check_forbid_unsafe(path, lexed));
        }
    }

    // The interprocedural passes see every non-vendor crate at once:
    // lock-order cycles, blocking-under-guard, and panic paths are
    // detected across crate boundaries (service → core), and kernel
    // purity follows calls wherever they lead.
    let graph = CallGraph::build(
        lexed_files
            .iter()
            .filter(|(spec, _, _)| spec.class != Class::VendorExempt)
            .map(|(spec, path, lexed)| FileMeta {
                path,
                crate_key: &spec.key,
                lexed,
            })
            .collect(),
    );
    findings.extend(lockorder::analyze_graph(&graph));
    findings.extend(purity::analyze_graph(&graph));

    // Apply suppressions: a finding is suppressed by an allow of its lint
    // targeting its line in its file.
    let mut suppressed = 0u64;
    let mut survivors: Vec<Finding> = Vec::new();
    for f in findings {
        let mut keep = true;
        if f.lint != "unused-allow" && f.lint != "malformed-allow" {
            if let Some(allows) = allows_by_file.get_mut(&f.path) {
                for a in allows.iter_mut() {
                    if a.lint == f.lint && u64::from(a.target_line) == f.line {
                        a.used = true;
                        suppressed += 1;
                        keep = false;
                        break;
                    }
                }
            }
        }
        if keep {
            survivors.push(f);
        }
    }

    // Unused allows are findings too: a suppression that no longer
    // suppresses anything is stale documentation at best and a masked
    // regression at worst.
    for (path, allows) in &allows_by_file {
        for a in allows {
            if !a.used {
                survivors.push(Finding::new(
                    "unused-allow",
                    path,
                    a.own_line,
                    format!(
                        "allow({}) suppresses nothing on line {}; remove it",
                        a.lint, a.target_line
                    ),
                ));
            }
        }
    }

    AnalyzerReport::new(survivors, files_scanned, suppressed)
}

/// Discovers the workspace under `root` and runs the full analysis.
pub fn analyze_workspace(root: &Path) -> Result<AnalyzerReport, String> {
    let crates = policy::discover(root)?;
    Ok(analyze_crates(&crates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use policy::SourceFile;

    fn one_crate(class: Class, key: &str, src: &str) -> AnalyzerReport {
        analyze_crates(&[CrateSpec {
            key: key.to_string(),
            class,
            files: vec![SourceFile {
                path: format!("crates/{key}/src/lib.rs"),
                text: src.to_string(),
            }],
            root_files: vec![],
        }])
    }

    #[test]
    fn allow_suppresses_next_line_and_counts() {
        let src = "\
// llp-analyzer: allow(wall-clock) -- metering the solve is the point\n\
let t = Instant::now();\n";
        let a = one_crate(Class::Timing, "bench", src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn stacked_allows_target_the_same_line() {
        let src = "\
// llp-analyzer: allow(wall-clock) -- metering\n\
// llp-analyzer: allow(unseeded-rng) -- jitter source, never solver input\n\
let t = Instant::now(); let r = ThreadRng::default();\n";
        let a = one_crate(Class::Timing, "bench", src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressed, 2);
    }

    #[test]
    fn unused_allow_is_a_deny_finding() {
        let src = "// llp-analyzer: allow(wall-clock) -- stale\nlet x = 1;\n";
        let a = one_crate(Class::Timing, "bench", src);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].lint, "unused-allow");
    }

    #[test]
    fn reasonless_allow_is_malformed() {
        let src = "// llp-analyzer: allow(wall-clock)\nlet t = Instant::now();\n";
        let a = one_crate(Class::Timing, "bench", src);
        let lints: Vec<&str> = a.findings.iter().map(|f| f.lint.as_str()).collect();
        assert!(lints.contains(&"malformed-allow"), "{lints:?}");
        // And the finding is NOT suppressed by the malformed comment.
        assert!(lints.contains(&"wall-clock"), "{lints:?}");
    }

    #[test]
    fn wrong_lint_allow_does_not_suppress() {
        let src = "\
// llp-analyzer: allow(env-read) -- wrong lint\n\
let t = Instant::now();\n";
        let a = one_crate(Class::Timing, "bench", src);
        let lints: Vec<&str> = a.findings.iter().map(|f| f.lint.as_str()).collect();
        assert!(lints.contains(&"wall-clock"));
        assert!(lints.contains(&"unused-allow"));
    }
}
