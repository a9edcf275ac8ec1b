//! Findings and the machine-readable `ANALYZER.json` report.
//!
//! Same pattern as `llp_bench::report`: plain named-field structs
//! serialized through the vendored serde derive, shortest-round-trip
//! floats (none here — lines are integers). Every finding fails
//! `--check`; the report is the artifact CI uploads.

use serde::{Deserialize, Serialize};

/// Bumped whenever a [`Finding`]/[`AnalyzerReport`] field changes
/// meaning.
pub const SCHEMA_VERSION: u64 = 3;

/// One lint finding at a source location.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Lint name (kebab-case, the allow-annotation key).
    pub lint: String,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based source line.
    pub line: u64,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    pub fn new(lint: &str, path: &str, line: u32, message: impl Into<String>) -> Self {
        Finding {
            lint: lint.to_string(),
            path: path.to_string(),
            line: u64::from(line),
            message: message.into(),
        }
    }
}

/// The whole analysis result, as serialized to `ANALYZER.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalyzerReport {
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Files scanned (after fixture/target exclusions).
    pub files_scanned: u64,
    /// Findings suppressed by used allow annotations.
    pub suppressed: u64,
    /// All surviving findings, sorted by (path, line, lint).
    pub findings: Vec<Finding>,
}

impl AnalyzerReport {
    /// Assembles a report from surviving findings, sorted for a
    /// byte-stable artifact.
    pub fn new(mut findings: Vec<Finding>, files_scanned: u64, suppressed: u64) -> Self {
        findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.lint.as_str()).cmp(&(
                b.path.as_str(),
                b.line,
                b.lint.as_str(),
            ))
        });
        AnalyzerReport {
            schema_version: SCHEMA_VERSION,
            files_scanned,
            suppressed,
            findings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_json() {
        let r = AnalyzerReport::new(
            vec![
                Finding::new("wall-clock", "b.rs", 7, "clock read"),
                Finding::new("hot-loop-alloc", "a.rs", 3, "alloc in loop"),
            ],
            2,
            1,
        );
        assert_eq!(r.findings.len(), 2);
        // Sorted by path first.
        assert_eq!(r.findings[0].path, "a.rs");
        let back = AnalyzerReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(back, r);
    }
}
