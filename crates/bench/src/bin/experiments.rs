//! Regenerates the experiment tables, the machine-readable scenario
//! report, and the service load-harness report (see DESIGN.md §3/§6/§7).
//!
//! Usage:
//! ```text
//! experiments [--quick] [--huge] [--out PATH] [--label NAME] [--list]
//!             [--threads N] [--workers N] [--requests N]
//!             [--shards N] [--port P] [--connect ADDR]
//!             [--ooc-dir DIR] [--check PATH] [id ...]
//! ```
//!
//! * ids: any table id (`t1` … `t14`, `t13p`, `f1`, `f2`), `tables`
//!   (all of them), `scenarios` (the registry grid), `serve` (the
//!   service load mixes), `net-serve` (the socket loadgen against a
//!   real loopback `llp_serve` server), `ooc` (the file-backed
//!   out-of-core harness), or `all` (everything; the default).
//! * `--quick` shrinks every input size through one shared [`RunBudget`]
//!   (the same budget the integration tests use).
//! * `--huge` selects the out-of-core budget tier (`n ≥ 10^8`): only the
//!   `ooc` harness accepts it, streaming-only, with the instance spilled
//!   to a chunked store file and never materialized in RAM. Conflicts
//!   with `--quick` and with every other experiment id.
//! * `--ooc-dir DIR` places the chunked store files the `ooc` harness
//!   writes (default `llp_ooc_chunks/`).
//! * `--threads N` pins the `llp_par` scan-thread count via
//!   `llp_par::set_threads` — it overrides the `LLP_THREADS` environment
//!   variable for this run (precedence: `--threads` > `LLP_THREADS` >
//!   `available_parallelism`; see README "Parallelism").
//! * `--workers N` / `--requests N` tune the `serve` and `net-serve`
//!   harnesses (service worker threads, requests per wave per mix).
//! * `--shards N` sets the shard count behind the `net-serve` server
//!   (precedence: `--shards` > `LLP_SHARDS` > max(2, cores); see README
//!   "Network serving"); `--port P` pins the loopback port (default:
//!   ephemeral); `--connect ADDR` drives an already-running external
//!   server instead of booting one in-process.
//! * When the scenario grid or the serve harness runs, the report is
//!   written as JSON to `--out PATH`, or to `BENCH_<label>.json` with
//!   the label defaulting to the unix timestamp — the file the repo's
//!   perf trajectory tracks. Passing `--out` or `--label` runs the grid
//!   even when the ids alone would not (so the requested file always
//!   exists).
//! * `--check PATH` parses a previously written report back into
//!   [`llp_bench::report::Report`] and validates it (grid coverage, zero
//!   violations, cross-model objective agreement, service-counter
//!   conservation, the net block's per-shard *and* fleet-aggregate
//!   conservation laws, and the ooc block's byte meters — including
//!   re-opening and re-checksumming every store file the ooc block
//!   references, so a corrupted chunk store fails the gate); exits
//!   non-zero on any failure. No experiments run in this mode.
//! * `--list` prints the registry without running anything.

#![forbid(unsafe_code)]

use llp_bench::netserve::{self, NetServeOptions};
use llp_bench::report::{self, Report};
use llp_bench::serve::{self, ServeOptions};
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
                    "ids: {:?}, 'tables', 'scenarios', 'serve', 'net-serve', 'ooc', or 'all' \
                     (default)",
                    llp_bench::ALL
                );
                return;
            }
            id => ids.push(id.to_string()),
        }
    }
    if huge && quick {
        eprintln!("error: --huge and --quick are mutually exclusive");
        std::process::exit(2);
    }
    if huge && ids.iter().any(|id| id != "ooc") {
        eprintln!("error: --huge only applies to the 'ooc' experiment");
        std::process::exit(2);
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
        // Install the scan-thread override for this (main) thread; the
        // service worker pool manages its own per-worker override via
        // `ServiceConfig::solver_threads`.
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
    let mut run_scenarios = false;
    let mut run_serve = false;
    let mut run_net = false;
    let mut run_ooc = false;
    for id in &ids {
        match id.as_str() {
            "scenarios" => run_scenarios = true,
            "serve" => run_serve = true,
            "net-serve" => run_net = true,
            "ooc" => run_ooc = true,
            "all" | "tables" => {
                if id == "all" {
                    run_scenarios = true;
                    run_serve = true;
                    run_net = true;
                    run_ooc = true;
                }
                for table_id in llp_bench::ALL {
                    for table in llp_bench::run(table_id, budget) {
                        println!("{}", table.render());
                    }
                }
            }
            id => {
                for table in llp_bench::run(id, budget) {
                    println!("{}", table.render());
                }
            }
        }
    }
    // Flags that only make sense for a specific run force that run:
    // silently discarding them while naming ids that skip it would write
    // nothing (and a later --check would read a stale file).
    if (workers.is_some() || requests.is_some()) && !run_net {
        run_serve = true;
    }
    if shards.is_some() || port.is_some() || connect.is_some() {
        run_net = true;
    }
    if (out.is_some() || label.is_some()) && !run_scenarios && !run_serve && !run_net && !run_ooc {
        run_scenarios = true;
    }

    if run_scenarios || run_serve || run_net || run_ooc {
        let label = label.unwrap_or_else(unix_timestamp);
        let mut report = if run_scenarios {
            report::run_scenarios(budget, &label)
        } else {
            Report {
                schema_version: report::SCHEMA_VERSION,
                label: label.clone(),
                budget: budget.name().to_string(),
                cells: Vec::new(),
                service: Vec::new(),
                net: Vec::new(),
                ooc: Vec::new(),
            }
        };
        if run_scenarios {
            println!("{}", report.summary_table().render());
        }
        if run_serve {
            let mut opts = ServeOptions::for_budget(budget);
            if let Some(w) = workers {
                opts.workers = w.max(1);
            }
            if let Some(r) = requests {
                opts.requests = r.max(1);
            }
            report.service = serve::run_mixes(budget, &opts);
            println!("{}", report.service_summary_table().render());
        }
        if run_net {
            let mut opts = NetServeOptions::for_budget(budget, llp_serve::default_shards(shards));
            if let Some(w) = workers {
                opts.serve.workers = w.max(1);
            }
            if let Some(r) = requests {
                opts.serve.requests = r.max(1);
            }
            if let Some(p) = port {
                opts.port = p;
            }
            opts.connect = connect.clone();
            report.net = netserve::run_net_mixes(budget, &opts);
            println!("{}", report.net_summary_table().render());
        }
        if run_ooc {
            report.ooc = llp_bench::ooc::run_ooc(budget, std::path::Path::new(&ooc_dir));
            println!("{}", report.ooc_summary_table().render());
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
        eprintln!(
            "wrote {path} ({} grid cells, {} scenarios, {} service mixes, {} net rows, \
             {} ooc cells, budget {})",
            report.cells.len(),
            report.cells.len() / report::MODELS.len(),
            report.service.len(),
            report.net.len(),
            report.ooc.len(),
            report.budget
        );
    }
}

fn expect_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    })
}

fn expect_usize(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    let raw = expect_value(args, flag);
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            eprintln!("error: {flag} needs a positive integer, got {raw:?}");
            std::process::exit(2);
        })
}

fn expect_port(args: &mut impl Iterator<Item = String>, flag: &str) -> u16 {
    let raw = expect_value(args, flag);
    raw.parse::<u16>().unwrap_or_else(|_| {
        eprintln!("error: {flag} needs a port number, got {raw:?}");
        std::process::exit(2);
    })
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
    // The ooc block names store files on disk: re-open and re-checksum
    // every one, so a corrupted chunk store fails the gate.
    if let Err(e) = report::verify_ooc_files(&report) {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "{path}: ok — schema v{}, {} grid cells, {} scenarios, {} service mixes, \
         {} net rows, {} ooc cells, budget {}",
        report.schema_version,
        report.cells.len(),
        report.cells.len() / report::MODELS.len(),
        report.service.len(),
        report.net.len(),
        report.ooc.len(),
        report.budget
    );
}
