//! Regenerates the experiment tables and the machine-readable report
//! (see DESIGN.md §3/§6/§7).
//!
//! Usage:
//! ```text
//! experiments [--quick] [--huge] [--out PATH] [--label NAME] [--list]
//!             [--threads N] [--workers N] [--requests N]
//!             [--shards N] [--port P] [--connect ADDR]
//!             [--ooc-dir DIR] [--check PATH] [id ...]
//! ```
//!
//! * ids: any table id (`t1` … `t13`, `t13p`, `f1`, `f2`), `tables`
//!   (all of them), `scenarios` (the registry grid), `serve` (the load
//!   harness: three traffic mixes over TCP against `llp_serve` shards),
//!   `ooc` (the file-backed out-of-core cells), or `all` (everything;
//!   the default).
//! * `--quick` shrinks every input size through one shared [`RunBudget`]
//!   (the same budget the integration tests use).
//! * `--huge` selects the out-of-core budget tier (`n ≥ 10^8`): only the
//!   `ooc` harness accepts it, streaming-only, with the instance spilled
//!   to a chunked store file and never materialized in RAM. Conflicts
//!   with `--quick`, with every other experiment id, and with every
//!   load-harness flag below.
//! * `--ooc-dir DIR` places the chunked store files the `ooc` harness
//!   writes (default `llp_ooc_chunks/`).
//! * `--threads N` pins the `llp_par` scan-thread count via
//!   `llp_par::set_threads` — it overrides the `LLP_THREADS` environment
//!   variable for this run (precedence: `--threads` > `LLP_THREADS` >
//!   `available_parallelism`; see README "Parallelism").
//! * `--workers N` / `--requests N` / `--shards N` / `--port P` tune the
//!   `serve` harness: service worker threads per shard, requests per
//!   wave per mix, the shard count behind its loopback server
//!   (default: max(2, cores); see README "Network serving") and that
//!   server's port (default: ephemeral).
//!   `--connect ADDR` drives an already-running external server instead
//!   of booting one; it refuses `--workers`, `--shards` and `--port`,
//!   which would configure nothing, and its rows record `workers: 0`
//!   (not known to the loadgen). Any of these flags runs `serve` even
//!   when the ids alone would not.
//! * When the grid, `serve` or `ooc` runs, the report is written as
//!   JSON to `--out PATH`, or to `BENCH_<label>.json` with the label
//!   defaulting to the unix timestamp. Passing `--out` or `--label` runs
//!   the grid even when the ids alone would not (so the requested file
//!   always exists).
//! * `--check PATH` parses a previously written report back into
//!   [`llp_bench::report::Report`] and validates it (grid coverage, zero
//!   violations, cross-model objective agreement over in-RAM and file
//!   cells, the file cells' byte meters, and the load rows' per-shard
//!   *and* fleet-aggregate conservation laws — then re-opens and
//!   re-checksums every store file a file cell references, so a
//!   corrupted chunk store fails the gate); exits non-zero on any
//!   failure. No experiments run in this mode.
//! * `--list` prints the registry without running anything.
//!
//! Refused flag combinations exit with code 2 before anything runs.

#![forbid(unsafe_code)]

use llp_bench::report::{self, Report};
use llp_bench::serve::{self, LoadOptions};
use llp_bench::RunBudget;
use llp_workloads::scenario::registry;

fn main() {
    let mut quick = false;
    let mut huge = false;
    let mut out: Option<String> = None;
    let mut label: Option<String> = None;
    let mut check: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut port: Option<u16> = None;
    let mut connect: Option<String> = None;
    let mut ooc_dir = "llp_ooc_chunks".to_string();
    let mut list = false;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--huge" => huge = true,
            "--out" => out = Some(expect_value(&mut args, "--out")),
            "--label" => label = Some(expect_value(&mut args, "--label")),
            "--check" => check = Some(expect_value(&mut args, "--check")),
            "--threads" => threads = Some(expect_usize(&mut args, "--threads")),
            "--workers" => workers = Some(expect_usize(&mut args, "--workers")),
            "--requests" => requests = Some(expect_usize(&mut args, "--requests")),
            "--shards" => shards = Some(expect_usize(&mut args, "--shards")),
            "--port" => port = Some(expect_port(&mut args, "--port")),
            "--connect" => connect = Some(expect_value(&mut args, "--connect")),
            "--ooc-dir" => ooc_dir = expect_value(&mut args, "--ooc-dir"),
            "--list" => list = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick] [--huge] [--out PATH] [--label NAME] [--list] \
                     [--threads N] [--workers N] [--requests N] [--shards N] [--port P] \
                     [--connect ADDR] [--ooc-dir DIR] [--check PATH] [id ...]"
                );
                eprintln!(
                    "ids: {:?}, 'tables', 'scenarios', 'serve', 'ooc', or 'all' (default)",
                    llp_bench::ALL
                );
                return;
            }
            id => ids.push(id.to_string()),
        }
    }
    if huge && quick {
        refuse("--huge and --quick are mutually exclusive");
    }
    if connect.is_some() && (workers.is_some() || shards.is_some() || port.is_some()) {
        refuse(
            "--workers, --shards and --port configure the loopback server; \
             --connect drives an external server",
        );
    }
    if huge && ids.is_empty() {
        ids.push("ooc".into());
    }
    let budget = if huge {
        RunBudget::Huge
    } else {
        RunBudget::from_quick_flag(quick)
    };
    if let Some(n) = threads {
        // Install the scan-thread override for this (main) thread; each
        // service worker pins its own solves to one thread.
        llp_par::set_threads(Some(n));
    }

    if let Some(path) = check {
        check_report(&path);
        return;
    }
    if list {
        println!(
            "{:<22} {:<24} {:>9} {:>3} {:>6} {:>2} {:>6}",
            "scenario", "family", "n", "d", "seed", "r", "skew"
        );
        for sc in registry(budget) {
            println!(
                "{:<22} {:<24} {:>9} {:>3} {:>6} {:>2} {:>6}",
                sc.name,
                sc.family.name(),
                sc.n,
                sc.d,
                sc.seed,
                sc.r,
                sc.skew.map_or("-".to_string(), |s| format!("{s}")),
            );
        }
        return;
    }

    if ids.is_empty() {
        ids.push("all".into());
    }
    let mut tables: Vec<&str> = Vec::new();
    let mut run_scenarios = false;
    let mut run_serve = false;
    let mut run_ooc = false;
    for id in &ids {
        match id.as_str() {
            "scenarios" => run_scenarios = true,
            "serve" => run_serve = true,
            "ooc" => run_ooc = true,
            "tables" => tables.extend(llp_bench::ALL),
            "all" => {
                tables.extend(llp_bench::ALL);
                run_scenarios = true;
                run_serve = true;
                run_ooc = true;
            }
            id => tables.push(id),
        }
    }
    // Flags that only make sense for a specific run force that run:
    // silently discarding them while naming ids that skip it would write
    // nothing (and a later --check would read a stale file).
    let load_flags = workers.is_some()
        || requests.is_some()
        || shards.is_some()
        || port.is_some()
        || connect.is_some();
    run_serve |= load_flags;
    if (out.is_some() || label.is_some()) && !run_scenarios && !run_serve && !run_ooc {
        run_scenarios = true;
    }
    // After the forcing rules, so that a forced run cannot slip past it.
    if huge && load_flags {
        refuse(
            "--huge does not apply to the load harness \
             (--workers, --requests, --shards, --port, --connect)",
        );
    }
    if huge && (run_scenarios || run_serve || !tables.is_empty()) {
        refuse("--huge only applies to the 'ooc' experiment");
    }

    for id in tables {
        for table in llp_bench::run(id, budget) {
            println!("{}", table.render());
        }
    }
    if !(run_scenarios || run_serve || run_ooc) {
        return;
    }
    let label = label.unwrap_or_else(unix_timestamp);
    let mut report = if run_scenarios {
        report::run_scenarios(budget, &label)
    } else {
        Report {
            schema_version: report::SCHEMA_VERSION,
            label: label.clone(),
            budget: budget.name().to_string(),
            cells: Vec::new(),
            load: Vec::new(),
        }
    };
    if run_ooc {
        let dir = std::path::Path::new(&ooc_dir);
        report.cells.extend(llp_bench::ooc::run_ooc(budget, dir));
    }
    if !report.cells.is_empty() {
        println!("{}", report.summary_table().render());
    }
    if run_serve {
        let mut opts = LoadOptions::for_budget(budget, llp_serve::default_shards(shards));
        opts.workers = workers.unwrap_or(opts.workers);
        opts.requests = requests.unwrap_or(opts.requests);
        opts.port = port.unwrap_or(opts.port);
        opts.connect = connect;
        report.load = serve::run_load(budget, &opts);
        println!("{}", report.load_summary_table().render());
    }
    let path = out.unwrap_or_else(|| format!("BENCH_{label}.json"));
    std::fs::write(&path, report.to_json()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    if let Err(e) = report::validate(&report) {
        eprintln!("error: freshly generated report is invalid: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path} ({})", counts(&report));
}

/// Prints a refused flag combination and exits with code 2.
fn refuse(why: &str) -> ! {
    eprintln!("error: {why}");
    std::process::exit(2);
}

/// The record counts a summary line reports.
fn counts(report: &Report) -> String {
    let file = report.cells.iter().filter(|c| c.file.is_some()).count();
    format!(
        "{} in-RAM cells, {file} file cells, {} load rows, budget {}",
        report.cells.len() - file,
        report.load.len(),
        report.budget
    )
}

fn expect_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| refuse(&format!("{flag} needs a value")))
}

fn expect_usize(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    let raw = expect_value(args, flag);
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| refuse(&format!("{flag} needs a positive integer, got {raw:?}")))
}

fn expect_port(args: &mut impl Iterator<Item = String>, flag: &str) -> u16 {
    let raw = expect_value(args, flag);
    raw.parse::<u16>()
        .unwrap_or_else(|_| refuse(&format!("{flag} needs a port number, got {raw:?}")))
}

fn unix_timestamp() -> String {
    // llp-analyzer: allow(wall-clock) -- default report label timestamp only; --label pins it for reproducible runs
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_else(|_| "epoch".to_string())
}

fn check_report(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let report = Report::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path} does not parse as a Report: {e}");
        std::process::exit(1);
    });
    if let Err(e) = report::validate(&report) {
        eprintln!("error: {path} is invalid: {e}");
        std::process::exit(1);
    }
    // File cells name store files on disk: re-open and re-checksum
    // every one, so a corrupted chunk store fails the gate.
    if let Err(e) = report::verify_ooc_files(&report) {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "{path}: ok — schema v{}, {}",
        report.schema_version,
        counts(&report)
    );
}
