//! Integration: the machine-readable report schema round-trips, the
//! golden document stays parseable (schema stability), and the scenario
//! registry yields cross-model objective agreement in quick mode.

use llp_bench::report::{self, Cell, Report};
use llp_bench::RunBudget;
use llp_workloads::scenario::{registry, Family};

/// A golden v6 document, written by hand (v2 added the `service` block,
/// v3 the `columnar` block, v4 the `net` block, v5 the `ooc` block, v6
/// removed the `columnar` block — older files are refused, by design:
/// the schema version exists so consumers refuse them loudly). If a
/// schema change breaks this parse, bump `report::SCHEMA_VERSION` and
/// regenerate the golden — silently reinterpreting old trajectory files
/// is the failure mode this test exists to catch.
const GOLDEN_V6: &str = r#"{
  "schema_version": 6,
  "label": "golden",
  "budget": "quick",
  "cells": [
    {
      "scenario": "lp_uniform", "family": "random_lp", "model": "ram",
      "n": 3750, "d": 3, "seed": 161,
      "objective": -1.0000517, "violations": 0, "iterations": 11,
      "passes": 0, "rounds": 0, "space_bits": 0, "comm_bits": 0,
      "max_round_bits": 0, "load_bits": 0, "total_load_bits": 0, "wall_ms": 12.5
    }
  ],
  "service": [
    {
      "mix": "hot_key", "workers": 2, "solver_threads": 1,
      "queue_capacity": 64, "cache_capacity": 256, "waves": 2,
      "submitted": 400, "completed": 397, "shed": 2, "rejected": 1,
      "solves": 40, "batched": 149, "cache_hits": 208,
      "p50_ms": 0.9, "p95_ms": 6.5, "p99_ms": 14.0, "max_ms": 21.25,
      "mean_ms": 2.125, "queue_p95_ms": 1.5,
      "throughput_rps": 1990.0, "wall_ms": 200.0
    }
  ],
  "net": [
    {
      "mix": "uniform", "shard": "0", "shards": 2, "workers": 2, "waves": 2,
      "submitted": 42, "completed": 40, "shed": 1, "rejected": 1,
      "solves": 10, "batched": 5, "cache_hits": 25,
      "p50_ms": 0.5, "p95_ms": 2.0, "p99_ms": 3.0, "max_ms": 4.5,
      "mean_ms": 0.75, "queue_p95_ms": 0.25,
      "throughput_rps": 800.0, "wall_ms": 50.0
    },
    {
      "mix": "uniform", "shard": "1", "shards": 2, "workers": 2, "waves": 2,
      "submitted": 62, "completed": 62, "shed": 0, "rejected": 0,
      "solves": 12, "batched": 8, "cache_hits": 42,
      "p50_ms": 0.4, "p95_ms": 1.5, "p99_ms": 2.5, "max_ms": 3.0,
      "mean_ms": 0.6, "queue_p95_ms": 0.2,
      "throughput_rps": 1240.0, "wall_ms": 50.0
    },
    {
      "mix": "uniform", "shard": "fleet", "shards": 2, "workers": 2, "waves": 2,
      "submitted": 104, "completed": 102, "shed": 1, "rejected": 1,
      "solves": 22, "batched": 13, "cache_hits": 67,
      "p50_ms": 0.45, "p95_ms": 1.75, "p99_ms": 2.75, "max_ms": 4.5,
      "mean_ms": 0.7, "queue_p95_ms": 0.22,
      "throughput_rps": 2040.0, "wall_ms": 50.0
    }
  ],
  "ooc": [
    {
      "scenario": "lp_uniform", "family": "random_lp", "model": "streaming",
      "n": 3750, "d": 3, "dim": 3, "seed": 161, "chunk_len": 4096,
      "file_bytes": 90070, "bytes_written": 90070, "bytes_read": 1621330,
      "passes": 18, "objective": -1.0000517, "violations": 0,
      "iterations": 11, "wall_ms": 30.5, "path": "llp_ooc_chunks/lp_uniform.llps"
    },
    {
      "scenario": "lp_uniform", "family": "random_lp", "model": "ram",
      "n": 3750, "d": 3, "dim": 3, "seed": 161, "chunk_len": 4096,
      "file_bytes": 90070, "bytes_written": 90070, "bytes_read": 90070,
      "passes": 0, "objective": -1.0000517, "violations": 0,
      "iterations": 11, "wall_ms": 12.5, "path": "llp_ooc_chunks/lp_uniform.llps"
    }
  ]
}"#;

#[test]
fn golden_v6_document_parses() {
    let r = Report::from_json(GOLDEN_V6).expect("golden must parse");
    assert_eq!(r.schema_version, report::SCHEMA_VERSION);
    assert_eq!(r.label, "golden");
    assert_eq!(r.budget, "quick");
    assert_eq!(r.cells.len(), 1);
    let c = &r.cells[0];
    assert_eq!(c.scenario, "lp_uniform");
    assert_eq!(c.model, "ram");
    assert_eq!(c.n, 3750);
    assert!((c.objective - -1.0000517).abs() < 1e-12);
    assert_eq!(c.violations, 0);
    assert_eq!(r.service.len(), 1);
    let s = &r.service[0];
    assert_eq!(s.mix, "hot_key");
    assert_eq!(s.completed + s.shed + s.rejected, s.submitted);
    assert_eq!(s.cache_hits + s.solves + s.batched, s.completed);
    assert!((s.max_ms - 21.25).abs() < 1e-12);
    // The net block: two shard rows plus the fleet aggregate, with both
    // conservation laws intact (the same laws `validate` enforces).
    assert_eq!(r.net.len(), 3);
    let fleet = r.net.iter().find(|c| c.shard == "fleet").unwrap();
    assert_eq!(fleet.shards, 2);
    for c in &r.net {
        assert_eq!(c.completed + c.shed + c.rejected, c.submitted);
        assert_eq!(c.cache_hits + c.solves + c.batched, c.completed);
    }
    let shard_submitted: u64 = r
        .net
        .iter()
        .filter(|c| c.shard != "fleet")
        .map(|c| c.submitted)
        .sum();
    assert_eq!(shard_submitted, fleet.submitted);
    // The ooc block: a streaming cell and a loaded cell over the same
    // store file, with the byte-meter laws `validate_ooc` enforces intact.
    assert_eq!(r.ooc.len(), 2);
    let stream = r.ooc.iter().find(|c| c.model == "streaming").unwrap();
    assert_eq!(stream.passes, 18);
    let floor = stream.passes * stream.file_bytes;
    assert!(stream.bytes_read >= floor && stream.bytes_read <= floor + stream.file_bytes);
    let loaded = r.ooc.iter().find(|c| c.model == "ram").unwrap();
    assert_eq!((loaded.passes, loaded.bytes_read), (0, loaded.file_bytes));
    for c in &r.ooc {
        assert_eq!(c.bytes_written, c.file_bytes);
        assert_eq!(c.path, "llp_ooc_chunks/lp_uniform.llps");
        assert!((c.objective - -1.0000517).abs() < 1e-12);
    }
}

#[test]
fn golden_v1_through_v4_documents_are_refused() {
    // A v1-era document: no `service` block, version 1. Both the parse
    // (missing field) and any forced validate must fail — old trajectory
    // files cannot be silently reinterpreted under a newer schema.
    let v1 = GOLDEN_V6
        .replace("\"schema_version\": 6", "\"schema_version\": 1")
        .replace("],\n  \"service\"", "],\n  \"service_gone\"")
        .replace("],\n  \"net\"", "],\n  \"net_gone\"")
        .replace("],\n  \"ooc\"", "],\n  \"ooc_gone\"");
    assert!(Report::from_json(&v1).is_err(), "v1 shape must not parse");
    // A v2-era document: version 2, no `net` or `ooc` block.
    let v2 = GOLDEN_V6
        .replace("\"schema_version\": 6", "\"schema_version\": 2")
        .replace("],\n  \"net\"", "],\n  \"net_gone\"")
        .replace("],\n  \"ooc\"", "],\n  \"ooc_gone\"");
    assert!(Report::from_json(&v2).is_err(), "v2 shape must not parse");
    // A v3-era document: version 3, no `net` block — the shape the repo
    // wrote before the serving layer landed.
    let v3 = GOLDEN_V6
        .replace("\"schema_version\": 6", "\"schema_version\": 3")
        .replace("],\n  \"net\"", "],\n  \"net_gone\"")
        .replace("],\n  \"ooc\"", "],\n  \"ooc_gone\"");
    assert!(Report::from_json(&v3).is_err(), "v3 shape must not parse");
    // A v4-era document: version 4, no `ooc` block — the shape the repo
    // wrote before the out-of-core store landed.
    let v4 = GOLDEN_V6
        .replace("\"schema_version\": 6", "\"schema_version\": 4")
        .replace("],\n  \"ooc\"", "],\n  \"ooc_gone\"");
    assert!(Report::from_json(&v4).is_err(), "v4 shape must not parse");
    // Even a v4 document that *happens* to carry an ooc block (forward-
    // ported by hand) is refused by validate on the version number.
    let v4_with_ooc = GOLDEN_V6.replace("\"schema_version\": 6", "\"schema_version\": 4");
    if let Ok(r) = Report::from_json(&v4_with_ooc) {
        assert!(
            report::validate(&r).unwrap_err().contains("schema"),
            "validate must refuse a v4 version number"
        );
    }
}

#[test]
fn golden_v5_document_is_refused() {
    // The v5 shape: every v6 block plus the retired `columnar` block of
    // AoS-vs-SoA scan timings. A parser that skips the unknown block
    // still meets the version check.
    let v5 = GOLDEN_V6
        .replace("\"schema_version\": 6", "\"schema_version\": 5")
        .replace(
            "],\n  \"net\"",
            "],\n  \"columnar\": [\n    {\n      \"n\": 1000000, \"threads\": 4, \
             \"violators\": 14000,\n      \"aos_ms\": 2.5, \"soa_ms\": 1.25, \
             \"speedup\": 2.0, \"identical\": true\n    }\n  ],\n  \"net\"",
        );
    assert!(
        v5.contains("\"columnar\": ["),
        "the v5 fixture carries its block"
    );
    if let Ok(r) = Report::from_json(&v5) {
        assert!(
            report::validate(&r).unwrap_err().contains("schema"),
            "validate must refuse a v5 version number"
        );
    }
}

#[test]
fn report_serialize_parse_compare_is_lossless() {
    // Exercise awkward floats: shortest-round-trip formatting must bring
    // every one back bit-exactly.
    let mut cells = Vec::new();
    for (i, &obj) in [
        -1.0,
        0.1 + 0.2,
        f64::MIN_POSITIVE,
        1.0e308,
        -2.2250738585072014e-308,
        123_456_789.987_654_32,
    ]
    .iter()
    .enumerate()
    {
        for model in report::MODELS {
            cells.push(Cell {
                scenario: format!("s{i}"),
                family: "random_lp".to_string(),
                model: model.to_string(),
                n: u64::MAX >> 12, // large but f64-exact (the JSON model is f64)
                d: 3,
                seed: i as u64,
                objective: obj,
                violations: 0,
                iterations: 7,
                passes: 14,
                rounds: 21,
                space_bits: 1 << 40,
                comm_bits: 12345,
                max_round_bits: 333,
                load_bits: 999,
                total_load_bits: 2997,
                wall_ms: 0.0625,
            });
        }
    }
    let report = Report {
        schema_version: report::SCHEMA_VERSION,
        label: "röund-trip \"quotes\" and\nnewlines".to_string(),
        budget: "full".to_string(),
        cells,
        service: vec![report::ServiceCell {
            mix: "heavy_tail".to_string(),
            workers: 4,
            solver_threads: 2,
            queue_capacity: 8,
            cache_capacity: 128,
            waves: 2,
            submitted: 4000,
            completed: 3990,
            shed: 8,
            rejected: 2,
            solves: 44,
            batched: 1946,
            cache_hits: 2000,
            p50_ms: 0.1 + 0.2, // awkward float on purpose
            p95_ms: 6.5,
            p99_ms: 14.0,
            max_ms: 1.0e3,
            mean_ms: f64::MIN_POSITIVE,
            queue_p95_ms: 0.5,
            throughput_rps: 123_456.789,
            wall_ms: 2048.0,
        }],
        net: vec![report::NetCell {
            mix: "heavy_tail".to_string(),
            shard: "fleet".to_string(),
            shards: 4,
            workers: 2,
            waves: 2,
            submitted: u64::MAX >> 12, // large but f64-exact
            completed: (u64::MAX >> 12) - 10,
            shed: 7,
            rejected: 3,
            solves: 100,
            batched: 50,
            cache_hits: (u64::MAX >> 12) - 160,
            p50_ms: 0.1 + 0.2, // awkward float on purpose
            p95_ms: 6.5,
            p99_ms: 14.0,
            max_ms: 1.0e3,
            mean_ms: f64::MIN_POSITIVE,
            queue_p95_ms: 0.5,
            throughput_rps: 123_456.789,
            wall_ms: 2048.0,
        }],
        ooc: vec![report::OocCell {
            scenario: "lp_uniform".to_string(),
            family: "random_lp".to_string(),
            model: "streaming".to_string(),
            n: u64::MAX >> 12, // large but f64-exact (the JSON model is f64)
            d: 3,
            dim: 3,
            seed: 161,
            chunk_len: 65_536,
            file_bytes: u64::MAX >> 13,
            bytes_written: u64::MAX >> 13,
            bytes_read: (u64::MAX >> 13) + 70,
            passes: 1,
            objective: 0.1 + 0.2, // awkward float on purpose
            violations: 0,
            iterations: 13,
            wall_ms: f64::MIN_POSITIVE,
            path: "llp_ooc_chunks/lp_uniform.llps".to_string(),
        }],
    };
    let json = report.to_json();
    let parsed = Report::from_json(&json).expect("round-trip parse");
    assert_eq!(parsed, report);
    // And a second trip is a fixed point.
    assert_eq!(parsed.to_json(), json);
}

#[test]
fn truncated_and_mistyped_documents_are_rejected() {
    let good = Report::from_json(GOLDEN_V6).unwrap().to_json();
    assert!(Report::from_json(&good[..good.len() - 2]).is_err());
    assert!(Report::from_json("{}").is_err(), "missing fields");
    assert!(Report::from_json(&good.replace("\"cells\"", "\"cell\"")).is_err());
}

#[test]
fn registry_is_stable_and_quick_is_a_subset_of_full() {
    let quick = registry(RunBudget::Quick);
    let full = registry(RunBudget::Full);
    assert_eq!(quick.len(), full.len());
    assert!(quick.len() >= Family::ALL.len());
    for (q, f) in quick.iter().zip(&full) {
        assert_eq!(q.name, f.name);
        assert_eq!(q.family, f.family);
        assert_eq!((q.d, q.seed, q.r), (f.d, f.seed, f.r));
        assert!(q.n <= f.n, "{}: quick must not exceed full", q.name);
    }
}

#[test]
fn quick_scenario_grid_agrees_across_all_four_models() {
    // The acceptance run: every registered scenario in all four models,
    // objectives agreeing per scenario, zero violations — exactly what
    // the CI bench-report job checks on the written file.
    let report = report::run_scenarios(RunBudget::Quick, "test");
    assert_eq!(
        report.cells.len(),
        registry(RunBudget::Quick).len() * report::MODELS.len()
    );
    report::validate(&report).expect("cross-model agreement");
    // And the file that would be written round-trips.
    let parsed = Report::from_json(&report.to_json()).expect("parse back");
    assert_eq!(parsed, report);
}
