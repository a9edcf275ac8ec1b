//! End-to-end and per-layer benchmark of the lodim-lp workspace.
//!
//! ```text
//! perfbench --workload <grid_full|ooc_stream|serve_cold|serve_hot>
//!           --seed N --seconds S --trace <0|1>
//! ```
//!
//! `perfbench/run.py` builds this binary and the `llp_serve` server next
//! to it and runs it from the repository root; see `perfbench/README.md`
//! for the workloads and metrics. The last line of standard output is
//! one JSON object; a human summary goes to standard error. The exit
//! code is nonzero when any op fails a correctness check.

#![forbid(unsafe_code)]

mod grid;
mod load;
mod ooc;
mod procfs;
mod serve;
mod trace;

use load::Timed;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Temporary files (the ooc store file), relative to the repository root.
pub const DATA_DIR: &str = ".bench_data";
/// Where a traced run writes its spans, one file per workload.
const SPANS_DIR: &str = ".bench_spans";

/// Settings every workload reads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
}

/// Per-layer metric values by name; names missing here report 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload: a set-up (including one untimed warm-up pass
/// over the op list) and a closed loop over whole cycles of that list.
pub trait Workload: Sync {
    type State: Sync;

    fn setup(&self, ctx: &Ctx) -> Result<Self::State, String>;

    /// Closed-loop threads, ops per cycle, and the pid whose CPU time
    /// and peak RSS are the workload's.
    fn shape(&self, st: &Self::State) -> (usize, usize, u32);

    /// Runs op `i` on load thread `tid`; returns its latency in ms.
    /// Tracing decides whether the wrapped types are used.
    fn op(&self, st: &Self::State, tid: usize, i: usize) -> Result<f64, load::OpError>;

    /// Called just before the traced phase.
    fn begin_traced(&self, _st: &mut Self::State) -> Result<(), String> {
        Ok(())
    }

    /// Reduces the traced phase's spans to per-layer metrics, checking
    /// that every op's layer times account for its time.
    fn layers(
        &self,
        st: &mut Self::State,
        spans: Vec<trace::Span>,
        traced: &Timed,
    ) -> Result<Layers, String>;
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The end-to-end metrics, with units, in report order. `p99_ms` and
/// `fail_frac` are printed in the summary only: p99 has fewer than ten
/// samples beyond it on three of the four workloads, and `fail_frac` is
/// 0 in every passing run (the JSON carries `failed` / `attempted`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, with units, in report order.
const PER_LAYER: &[(&str, &str)] = &[
    ("llp_workloads.generate_ms", "ms"),
    ("llp_store.write_ms", "ms"),
    ("llp_store.write_mb_per_s", "MB/s"),
    ("llp_store.read_ms", "ms"),
    ("llp_store.read_mb_per_s", "MB/s"),
    ("llp_store.bytes_read", "B"),
    ("llp_store.passes", "count"),
    ("llp_core.scan_hit_frac", "ratio"),
    ("llp_solver.basis_ms", "ms"),
    ("llp_solver.basis_calls", "count"),
    ("llp_solver.net_rows", "rows"),
    ("llp_core.scan_ms", "ms"),
    ("llp_core.scan_rows_per_us", "rows/us"),
    ("llp_core.to_columns_ms", "ms"),
    ("llp_core.self_ms", "ms"),
    ("llp_bigdata.self_ms", "ms"),
    ("llp_bigdata.from_row", "count"),
    ("llp_bigdata.violates", "count"),
    ("llp_bigdata.useful_iter_frac", "ratio"),
    ("llp_service.exec_overhead_ms", "ms"),
    ("llp_service.queue_wait_ms.p50", "ms"),
    ("llp_service.queue_wait_ms.p90", "ms"),
    ("llp_service.solve_ms.p50", "ms"),
    ("llp_service.solve_ms.p90", "ms"),
    ("llp_service.admit_ms", "ms"),
    ("llp_service.shard_skew", "ratio"),
    ("llp_service.cache_hit_frac", "ratio"),
    ("llp_service.shed_frac", "ratio"),
    ("llp_service.fingerprint_us", "us"),
    ("llp_serve.wire_ms.p50", "ms"),
    ("llp_serve.wire_ms.p90", "ms"),
    ("llp_serve.encode_us", "us"),
    ("llp_serve.decode_us", "us"),
    ("llp_serve.frame_bytes", "B"),
    ("host.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    trace: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        trace,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        },
    })
}

/// What one run reports.
struct RunOut {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn run_untraced<W: Workload>(w: &W, ctx: &Ctx) -> Result<RunOut, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up (and its server) ends before the next one.
        drop(state.take());
        let t = Instant::now();
        state = Some(w.setup(ctx)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let st = state.expect("at least one set-up");
    let (threads, cycle, pid) = w.shape(&st);
    let timed = load::run(threads, cycle, 0, ctx.seconds, pid, |tid, i| {
        w.op(&st, tid, i)
    })?;
    let rss = procfs::peak_rss_mb(pid)?;
    summarize_failures(&timed);
    let lat = timed.latencies();
    let values = [
        load::median(&setup_s),
        timed.ops_per_s(),
        timed.latency_ms(50.0),
        timed.latency_ms(90.0),
        timed.cpu_ms_per_op(),
        rss,
    ];
    let w = timed.windows();
    let counts = [SETUP_REPS, w, w, w, timed.attempted, 1];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    for ((name, v, unit), count) in metrics.iter().zip(counts) {
        eprintln!("  {name:<16} {v:>14.6} {unit:<6} (n={count})");
    }
    eprintln!(
        "  {:<16} {:>14.6} {:<6} (n={} ops; summary only)",
        "p99_ms",
        load::percentile(&lat, 99.0),
        "ms",
        lat.len()
    );
    eprintln!("  (ops_per_s, p50_ms, p90_ms: medians over n windows of whole cycles)");
    eprintln!(
        "  {:<16} {:>14.6} {:<6} ({} of {} ops)",
        "fail_frac",
        timed.failed as f64 / timed.attempted as f64,
        "ratio",
        timed.failed,
        timed.attempted
    );
    eprintln!(
        "  {:<16} {:>14.6} {:<6} (timed phase {:.2} s)",
        "host.steal_frac",
        timed.steal_frac(),
        "ratio",
        timed.wall_s
    );
    Ok(RunOut {
        attempted: timed.attempted,
        failed: timed.failed,
        metrics,
    })
}

fn run_traced<W: Workload>(w: &W, name: &str, ctx: &Ctx) -> Result<RunOut, String> {
    trace::set_enabled(true);
    let mut st = w.setup(ctx)?;
    let setup_spans = trace::take_spans();
    trace::set_enabled(false);
    let (threads, cycle, pid) = w.shape(&st);
    let half = ctx.seconds / 2.0;
    let plain = load::run(threads, cycle, 0, half, pid, |tid, i| w.op(&st, tid, i))?;
    w.begin_traced(&mut st)?;
    trace::set_enabled(true);
    // The traced phase continues the op list where the plain one ended.
    let traced = load::run(threads, cycle, plain.attempted, half, pid, |tid, i| {
        w.op(&st, tid, i)
    })?;
    trace::set_enabled(false);
    summarize_failures(&plain);
    summarize_failures(&traced);
    let mut spans = setup_spans;
    spans.extend(trace::take_spans());
    write_spans(name, &spans)?;
    let mut layers = w.layers(&mut st, spans, &traced)?;
    layers.insert("host.steal_frac", traced.steal_frac());
    layers.insert(
        "trace.overhead_frac",
        traced.cpu_ms_per_op() / plain.cpu_ms_per_op() - 1.0,
    );
    if let Some(k) = layers
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("internal: unlisted layer metric {k}"));
    }
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    for (name, v, unit) in &metrics {
        let mark = if layers.contains_key(name) {
            ""
        } else {
            "  (not on this workload)"
        };
        eprintln!("  {name:<32} {v:>16.6} {unit}{mark}");
    }
    eprintln!(
        "  traced ops {} / untraced ops {}",
        traced.attempted, plain.attempted
    );
    Ok(RunOut {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
    })
}

/// Writes the spans to `SPANS_DIR/<workload>.tsv`, one per line.
fn write_spans(workload: &str, spans: &[trace::Span]) -> Result<(), String> {
    use std::io::Write;
    let path = PathBuf::from(SPANS_DIR).join(format!("{workload}.tsv"));
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(SPANS_DIR).map_err(err)?;
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).map_err(err)?);
    writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns\ta\tb").map_err(err)?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start, s.end, s.a, s.b
        )
        .map_err(err)?;
    }
    w.flush().map_err(err)
}

fn summarize_failures(t: &Timed) {
    for m in &t.failures {
        eprintln!("  FAILED: {m}");
    }
}

fn run_workload<W: Workload>(w: &W, name: &str, ctx: &Ctx, traced: bool) -> Result<RunOut, String> {
    if traced {
        run_traced(w, name, ctx)
    } else {
        run_untraced(w, ctx)
    }
}

fn json_line(out: &RunOut) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, v, unit) in &out.metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--ooc-reference") {
        // Child mode: the in-RAM reference solve for ooc_stream.
        if let Err(e) = ooc::print_reference() {
            eprintln!("perfbench reference: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    eprintln!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, ctx.seed, ctx.seconds, args.trace as u8
    );
    let name = args.workload.as_str();
    let result = match name {
        "grid_full" => run_workload(&grid::Grid, name, ctx, args.trace),
        "ooc_stream" => run_workload(&ooc::Ooc, name, ctx, args.trace),
        "serve_cold" => run_workload(&serve::Serve { hot: false }, name, ctx, args.trace),
        "serve_hot" => run_workload(&serve::Serve { hot: true }, name, ctx, args.trace),
        other => Err(format!(
            "unknown workload {other:?} (grid_full, ooc_stream, serve_cold, serve_hot)"
        )),
    };
    let out = match result.and_then(|out| json_line(&out).map(|line| (out.failed, line))) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", out.1);
    if out.0 > 0 {
        eprintln!("perfbench: {} op(s) failed a correctness check", out.0);
        std::process::exit(3);
    }
}
