//! `fp-kernel-purity`: the FP kernels must stay referentially pure
//! through their whole call tree.
//!
//! The token-level lints already deny direct impurities (hashed
//! collections, wall-clock, env reads, unseeded RNG) *inside* kernel
//! files — but a kernel that calls a helper in another file which reads
//! the clock is just as nondeterministic, and the per-file pass cannot
//! see it. This pass is the static twin of the SoA≡AoS differential
//! suites: for every function defined in a [`KERNEL_FILES`] path, the
//! call-graph summary's *inherited* impurity set must be empty.
//!
//! Only call-inherited facts ([`Source::Via`]) fire here, at the call
//! site that imports the impurity and with the full witness chain in
//! the message; a direct impurity in the kernel file itself is already
//! a `nondeterministic-collections`/`wall-clock`/… finding and is not
//! double-reported. Reads of `LLP_THREADS` by the documented env owner
//! (`vendor/llp_par`) are exempt at the fact-collection layer: the
//! parallelism contract makes results bit-identical at any thread
//! count, so reaching them does not make a kernel impure.

use crate::callgraph::{CallGraph, Source};
use crate::policy::KERNEL_FILES;
use crate::report::Finding;

/// Human phrasing per impurity kind, for finding messages.
fn describe(kind: &str) -> &'static str {
    match kind {
        "wall-clock" => "reads the wall clock",
        "env-read" => "reads the environment",
        "unseeded-rng" => "draws OS entropy",
        "hash-collection" => "touches a process-seeded hash collection",
        _ => "is impure",
    }
}

/// Fires `fp-kernel-purity` for every kernel-file function whose
/// transitive call tree inherits an impurity.
pub fn analyze_graph(g: &CallGraph<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for d in 0..g.defs.len() {
        let path = g.files[g.defs[d].file].path;
        if !KERNEL_FILES.contains(&path) {
            continue;
        }
        for (kind, src) in &g.summaries[d].impure {
            let Source::Via { line, .. } = src else {
                continue; // direct sites are the per-file lints' job
            };
            let chain = g.render_chain(d, |s| s.impure.get(kind));
            findings.push(Finding::new(
                "fp-kernel-purity",
                path,
                *line,
                format!(
                    "kernel fn `{}` transitively {} ({chain}); kernels and \
                     everything they call must be deterministic in their \
                     inputs and seed",
                    g.defs[d].name,
                    describe(kind),
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::FileMeta;
    use crate::lexer::{lex, Lexed};

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let lexed: Vec<(String, Lexed)> =
            files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect();
        let g = CallGraph::build(
            lexed
                .iter()
                .map(|(p, l)| FileMeta {
                    path: p,
                    crate_key: "core",
                    lexed: l,
                })
                .collect(),
        );
        analyze_graph(&g)
    }

    #[test]
    fn inherited_clock_read_fires_with_chain() {
        let f = run(&[
            (
                "crates/core/src/clarkson.rs",
                "fn kernel(v: &[f64]) -> f64 { helper(v) }",
            ),
            (
                "crates/core/src/util.rs",
                "fn helper(v: &[f64]) -> f64 { let t = Instant::now(); 0.0 }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "fp-kernel-purity");
        assert_eq!(f[0].path, "crates/core/src/clarkson.rs");
        assert!(f[0].message.contains("helper"), "{f:?}");
        assert!(f[0].message.contains("wall clock"), "{f:?}");
    }

    #[test]
    fn direct_sites_are_not_double_reported() {
        // A direct clock read inside the kernel file is the per-file
        // wall-clock lint's finding, not a purity finding.
        let f = run(&[(
            "crates/core/src/clarkson.rs",
            "fn kernel() -> f64 { let t = Instant::now(); 0.0 }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pure_call_tree_is_clean() {
        let f = run(&[
            (
                "crates/core/src/clarkson.rs",
                "fn kernel(v: &[f64]) -> f64 { helper(v) }",
            ),
            (
                "crates/core/src/util.rs",
                "fn helper(v: &[f64]) -> f64 { v.iter().sum() }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_kernel_files_are_not_checked() {
        let f = run(&[
            (
                "crates/core/src/other.rs",
                "fn free(v: &[f64]) -> f64 { helper(v) }",
            ),
            (
                "crates/core/src/util.rs",
                "fn helper(v: &[f64]) -> f64 { let t = Instant::now(); 0.0 }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }
}
