//! Integration: every experiment of the harness runs in quick mode and
//! its correctness-bearing columns hold.

use llp_bench as bench;
use llp_bench::report;
use llp_bench::serve::{self, LoadOptions};

fn col(t: &bench::Table, name: &str) -> usize {
    t.headers
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("column {name} missing from {:?}", t.headers))
}

#[test]
fn all_experiments_produce_rows() {
    for id in bench::ALL {
        let tables = bench::run(id, bench::RunBudget::Quick);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{id} produced an empty table");
            assert!(!t.render().is_empty());
        }
        if *id == "t13p" {
            // The violation count must not depend on the thread count,
            // here over 49 scan chunks.
            let cm = col(&tables[0], "count_match");
            for row in &tables[0].rows {
                assert_eq!(
                    row[cm], "true",
                    "t13p counts differ by thread count: {row:?}"
                );
            }
        }
    }
}

#[test]
fn serve_mixes_produce_a_valid_load_block() {
    // A shrunken `experiments --quick --shards 2 serve`: all three mixes
    // over TCP against a loopback server, validated through the same
    // `report::validate` the CI net-soak job runs on the written JSON.
    let mut opts = LoadOptions::for_budget(bench::RunBudget::Quick, 2);
    opts.requests = 60;
    let load = serve::run_load(bench::RunBudget::Quick, &opts);
    assert_eq!(
        load.len(),
        serve::MIXES.len() * 3,
        "two shard rows and a fleet row per mix"
    );
    let r = report::Report {
        schema_version: report::SCHEMA_VERSION,
        label: "serve-quick-test".to_string(),
        budget: "quick".to_string(),
        cells: Vec::new(),
        load,
    };
    report::validate(&r).expect("load block must validate");
    let hot = r
        .load
        .iter()
        .find(|c| c.mix == "hot_key" && c.shard == "fleet")
        .unwrap();
    // Structural under the wave barrier: every wave-2 key was completed
    // in wave 1 on the shard its fingerprint routes to. (No
    // `batched > 0` assert here — wave 1 races the workers, so whether
    // duplicates coalesce or hit the cache is timing; the replay-based
    // service_determinism suite asserts coalescing structurally.)
    assert!(hot.cache_hits > 0, "hot-key mix must hit the cache");
    assert_eq!(
        hot.submitted,
        (serve::WAVES * 60) as u64,
        "every wave crosses the wire"
    );
    assert_eq!(hot.workers, opts.workers as u64);
    // The report renders and round-trips with the load block attached.
    let parsed = report::Report::from_json(&r.to_json()).expect("round-trip");
    assert_eq!(parsed, r);
    assert!(!r.load_summary_table().render().is_empty());
}

#[test]
fn t1_iterations_within_twice_bound() {
    let t = bench::t1_meta_iterations(bench::RunBudget::Quick);
    let (ci, cb) = (col(&t, "iters"), col(&t, "bound"));
    for row in &t.rows {
        let iters: f64 = row[ci].parse().unwrap();
        let bound: f64 = row[cb].parse().unwrap();
        assert!(
            iters <= 2.0 * bound + 4.0,
            "iterations {iters} vs bound {bound}"
        );
    }
}

#[test]
fn t10_envelope_always_ok() {
    let t = bench::t10_weight_envelope(bench::RunBudget::Quick);
    let ok = col(&t, "ok");
    for row in &t.rows {
        // A sentinel row appears if every seed converged without weight
        // updates; the envelope must never be reported violated.
        assert_ne!(row[ok], "false", "weight envelope violated: {row:?}");
    }
}

#[test]
fn t11_reduction_always_correct() {
    let t = bench::t11_augindex(bench::RunBudget::Quick);
    let (cc, cr, cv) = (
        col(&t, "cases"),
        col(&t, "correct"),
        col(&t, "valid_instances"),
    );
    for row in &t.rows {
        assert_eq!(row[cc], row[cr], "some bits decoded wrong: {row:?}");
        assert_eq!(row[cc], row[cv], "some instances invalid: {row:?}");
    }
}

#[test]
fn f1_lp_reduction_always_matches() {
    let t = bench::f1_tci_lp(bench::RunBudget::Quick);
    let cm = col(&t, "match");
    for row in &t.rows {
        assert_eq!(row[cm], "true", "LP reduction mismatch: {row:?}");
    }
}

#[test]
fn f2_hard_instances_always_valid() {
    let t = bench::f2_hard_distribution(bench::RunBudget::Quick);
    let (cv, ca) = (col(&t, "valid"), col(&t, "ans_ok"));
    for row in &t.rows {
        let (num, den) = row[cv].split_once('/').unwrap();
        assert_eq!(num, den, "invalid hard instances: {row:?}");
        let (num, den) = row[ca].split_once('/').unwrap();
        assert_eq!(num, den, "answer escaped the special block: {row:?}");
    }
}

#[test]
fn ooc_quick_block_validates_and_survives_the_file_gate() {
    // A shrunken `experiments ooc --quick`: write every OOC scenario to a
    // chunk store, run all four models off the files, and pass the written
    // report through the exact gates CI's `--check` applies — structural
    // `validate` plus the on-disk re-checksum of `verify_ooc_files`.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-ooc-tests/experiments-quick");
    let cells = bench::ooc::run_ooc(bench::RunBudget::Quick, &dir);
    assert!(!cells.is_empty());
    assert!(cells.iter().all(|c| c.file.is_some()), "all file cells");
    let r = report::Report {
        schema_version: report::SCHEMA_VERSION,
        label: "ooc-quick-test".to_string(),
        budget: "quick".to_string(),
        cells,
        load: Vec::new(),
    };
    report::validate(&r).expect("file cells must validate");
    report::verify_ooc_files(&r).expect("store files must re-checksum clean");
    assert!(!r.summary_table().render().is_empty());
    let parsed = report::Report::from_json(&r.to_json()).expect("round-trip");
    assert_eq!(parsed, r);
    // Corrupt one store file in place: the filesystem gate — and only the
    // filesystem gate — must now refuse the otherwise-valid report.
    let victim = std::path::Path::new(&r.cells[0].file.as_ref().unwrap().path);
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).unwrap();
    report::validate(&r).expect("structural validate never touches disk");
    assert!(
        report::verify_ooc_files(&r).is_err(),
        "a flipped byte must fail the on-disk gate"
    );
}

#[test]
fn t12_protocol_bits_decrease_with_r() {
    let t = bench::t12_protocol_scaling(bench::RunBudget::Quick);
    let (cn, cr, cb) = (col(&t, "n"), col(&t, "r"), col(&t, "bits"));
    // Group rows by n; bits must be non-increasing in r.
    let mut last: Option<(String, u64)> = None;
    for row in &t.rows {
        let n = row[cn].clone();
        let bits: u64 = row[cb].parse().unwrap();
        if let Some((ln, lb)) = &last {
            if *ln == n {
                assert!(bits <= *lb, "bits increased with r at n={n}: {row:?}");
            }
        }
        let _r: u32 = row[cr].parse().unwrap();
        last = Some((n, bits));
    }
}

#[test]
fn t2_streaming_space_shrinks_with_r() {
    let t = bench::t2_streaming(bench::RunBudget::Quick);
    let (cd, cr, cm, ck) = (
        col(&t, "d"),
        col(&t, "r"),
        col(&t, "mode"),
        col(&t, "peak_KB"),
    );
    // Within each (d, mode) group, peak space at r=4 is below r=1.
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(String, String), Vec<(u32, f64)>> = BTreeMap::new();
    for row in &t.rows {
        let kb: f64 = row[ck].parse().unwrap_or(f64::NAN);
        groups
            .entry((row[cd].clone(), row[cm].clone()))
            .or_default()
            .push((row[cr].parse().unwrap(), kb));
    }
    for ((d, mode), series) in groups {
        let r1 = series.iter().find(|(r, _)| *r == 1).map(|(_, v)| *v);
        let r4 = series.iter().find(|(r, _)| *r == 4).map(|(_, v)| *v);
        if let (Some(a), Some(b)) = (r1, r4) {
            assert!(
                b < a,
                "space did not shrink (d={d}, mode={mode}): r1={a} r4={b}"
            );
        }
    }
}
