//! Integration: the machine-readable report schema round-trips, the
//! golden document stays parseable (schema stability), older schemas
//! are refused, and the scenario registry yields cross-model objective
//! agreement in quick mode.

use llp_bench::report::{self, Cell, FileMeters, LoadRow, Report};
use llp_bench::RunBudget;
use llp_service::Model;
use llp_workloads::scenario::{registry, Family};

/// A golden v7 document, written by hand: one in-RAM cell, one file
/// cell of the same scenario, and one load mix (two shard rows plus the
/// fleet row). Older files are refused, by design: the schema version
/// exists so consumers refuse them loudly. If a schema change breaks
/// this parse, bump `report::SCHEMA_VERSION` and regenerate the golden —
/// silently reinterpreting old trajectory files is the failure mode this
/// test exists to catch.
const GOLDEN_V7: &str = r#"{
  "schema_version": 7,
  "label": "golden",
  "budget": "quick",
  "cells": [
    {
      "scenario": "lp_uniform", "family": "random_lp", "model": "ram",
      "n": 3750, "d": 3, "seed": 161,
      "objective": -1.0000517, "violations": 0, "iterations": 11,
      "passes": 0, "rounds": 0, "space_bits": 0, "comm_bits": 0,
      "max_round_bits": 0, "load_bits": 0, "total_load_bits": 0, "wall_ms": 12.5,
      "file": null
    },
    {
      "scenario": "lp_uniform", "family": "random_lp", "model": "streaming",
      "n": 3750, "d": 3, "seed": 161,
      "objective": -1.0000517, "violations": 0, "iterations": 11,
      "passes": 18, "rounds": 0, "space_bits": 61440, "comm_bits": 0,
      "max_round_bits": 0, "load_bits": 0, "total_load_bits": 0, "wall_ms": 30.5,
      "file": {
        "dim": 3, "chunk_len": 4096, "file_bytes": 90070,
        "bytes_written": 90070, "bytes_read": 1621330,
        "path": "llp_ooc_chunks/lp_uniform.llps"
      }
    }
  ],
  "load": [
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
  ]
}"#;

/// The last v6 document shape, kept verbatim as the refusal fixture
/// (v2 added the `service` block, v3 the `columnar` block, v4 the `net`
/// block, v5 the `ooc` block, v6 removed the `columnar` block; v7 folded
/// `ooc` into `cells`, renamed `net` to `load` and removed `service`).
/// The tests below derive the v1–v5 shapes from it.
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
fn golden_v7_document_parses() {
    let r = Report::from_json(GOLDEN_V7).expect("golden must parse");
    assert_eq!(r.schema_version, report::SCHEMA_VERSION);
    assert_eq!(r.label, "golden");
    assert_eq!(r.budget, "quick");
    assert_eq!(r.cells.len(), 2);
    let ram = &r.cells[0];
    assert_eq!(
        (ram.scenario.as_str(), ram.model.as_str()),
        ("lp_uniform", "ram")
    );
    assert_eq!(ram.n, 3750);
    assert_eq!(ram.file, None);
    // The file cell: the byte-meter laws `validate` enforces hold, and
    // its solve fields agree with the in-RAM cell's.
    let file_cell = &r.cells[1];
    assert_eq!(file_cell.model, "streaming");
    let f = file_cell.file.as_ref().expect("a file cell");
    assert_eq!(f.bytes_written, f.file_bytes);
    let floor = file_cell.passes * f.file_bytes;
    assert!(f.bytes_read >= floor && f.bytes_read <= floor + f.file_bytes);
    assert_eq!(f.path, "llp_ooc_chunks/lp_uniform.llps");
    for c in &r.cells {
        assert!((c.objective - -1.0000517).abs() < 1e-12);
        assert_eq!(c.violations, 0);
    }
    // The load block: two shard rows plus the fleet aggregate, with both
    // conservation laws intact (the same laws `validate` enforces).
    assert_eq!(r.load.len(), 3);
    let fleet = r.load.iter().find(|c| c.shard == "fleet").unwrap();
    assert_eq!(fleet.shards, 2);
    for c in &r.load {
        assert_eq!(c.completed + c.shed + c.rejected, c.submitted);
        assert_eq!(c.cache_hits + c.solves + c.batched, c.completed);
    }
    let shard_submitted: u64 = r
        .load
        .iter()
        .filter(|c| c.shard != "fleet")
        .map(|c| c.submitted)
        .sum();
    assert_eq!(shard_submitted, fleet.submitted);
}

#[test]
fn golden_v6_document_is_refused() {
    // The v6 shape — separate `service`, `net` and `ooc` blocks, no
    // `load` block, cells without `file` — does not parse.
    assert!(
        Report::from_json(GOLDEN_V6).is_err(),
        "v6 shape must not parse"
    );
    // A v7-shaped document stamped v6 parses, and validate refuses it on
    // its version number.
    let stamped = GOLDEN_V7.replace("\"schema_version\": 7", "\"schema_version\": 6");
    let r = Report::from_json(&stamped).expect("the v7 shape parses");
    assert!(
        report::validate(&r).unwrap_err().contains("schema"),
        "validate must refuse a v6 version number"
    );
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
    // AoS-vs-SoA scan timings. It does not parse as v7; a parser that
    // skipped unknown blocks would still meet the version check.
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
        for model in Model::ALL {
            cells.push(Cell {
                scenario: format!("s{i}"),
                family: "random_lp".to_string(),
                model: model.name().to_string(),
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
                file: None,
            });
        }
    }
    cells.push(Cell {
        scenario: "lp_uniform".to_string(),
        model: "streaming".to_string(),
        passes: 1,
        objective: 0.1 + 0.2, // awkward float on purpose
        wall_ms: f64::MIN_POSITIVE,
        file: Some(FileMeters {
            dim: 3,
            chunk_len: 65_536,
            file_bytes: u64::MAX >> 13,
            bytes_written: u64::MAX >> 13,
            bytes_read: (u64::MAX >> 13) + 70,
            path: "llp_ooc_chunks/lp_uniform.llps".to_string(),
        }),
        ..cells[1].clone()
    });
    let report = Report {
        schema_version: report::SCHEMA_VERSION,
        label: "röund-trip \"quotes\" and\nnewlines".to_string(),
        budget: "full".to_string(),
        cells,
        load: vec![LoadRow {
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
    };
    let json = report.to_json();
    let parsed = Report::from_json(&json).expect("round-trip parse");
    assert_eq!(parsed, report);
    // And a second trip is a fixed point.
    assert_eq!(parsed.to_json(), json);
}

#[test]
fn truncated_and_mistyped_documents_are_rejected() {
    let good = Report::from_json(GOLDEN_V7).unwrap().to_json();
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
        registry(RunBudget::Quick).len() * Model::ALL.len()
    );
    report::validate(&report).expect("cross-model agreement");
    // And the file that would be written round-trips.
    let parsed = Report::from_json(&report.to_json()).expect("parse back");
    assert_eq!(parsed, report);
}
