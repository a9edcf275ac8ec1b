//! `ooc_stream`: `lp_uniform` at 16× its Full size streamed from a
//! chunked store file. Set-up writes and fsyncs the file once; each op
//! is one `streaming::solve_chunked` over a fresh `FileSource`.

use crate::load::{OpError, Timed};
use crate::trace::{self, Name, OpTree, Traced, TracedSource};
use crate::{Ctx, Layers, Workload, DATA_DIR};
use llp_bigdata::ooc::{ChunkSource, FileSource};
use llp_bigdata::streaming::{self, SamplingMode, StreamingStats};
use llp_core::instances::lp::LpProblem;
use llp_core::lptype::{ColumnarProblem, LpTypeProblem};
use llp_core::ClarksonConfig;
use llp_workloads::scenario::{registry, RunBudget, Scenario, ScenarioData, ScenarioProblem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

/// Size multiple over the Full-budget `lp_uniform`.
const SCALE: usize = 16;
/// Rows per chunk frame.
const CHUNK_LEN: u32 = 65_536;

pub struct Ooc;

/// What the in-RAM two-pass solve returned; every op must match it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Reference {
    objective_bits: u64,
    iterations: usize,
    passes: u64,
}

/// Per-op facts the traced phase needs beyond the spans.
struct OpRecord {
    bytes_read: u64,
    useful_iter_frac: f64,
    violates: u64,
    from_row: u64,
}

/// Removes the store file when the state goes away.
struct StoreFile(PathBuf);

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub struct OocState {
    file: StoreFile,
    problem: LpProblem,
    cfg: ClarksonConfig,
    solver_seed: u64,
    file_bytes: u64,
    header_bytes: u64,
    reference: Reference,
    records: Mutex<Vec<OpRecord>>,
}

fn scenario() -> Scenario {
    let mut sc = registry(RunBudget::Full)
        .into_iter()
        .find(|s| s.name == "lp_uniform")
        .expect("lp_uniform is a registry scenario");
    sc.n *= SCALE;
    sc
}

/// The `experiments ooc` harness's streaming seed for this scenario.
/// It is fixed, not drawn from `--seed`: the iteration count (2 to 4
/// here) depends on it, and every run must do the same work.
fn solver_seed() -> u64 {
    llp_bench::report::solver_seed(&scenario(), "streaming")
}

/// Child-process mode: generates the instance in RAM, runs the two-pass
/// streaming solve over it, and prints the reference. A separate
/// process keeps the in-RAM copy out of the measured peak RSS.
pub fn print_reference() -> Result<(), String> {
    let sc = scenario();
    let ScenarioData::Lp(p, cs) = sc.generate() else {
        return Err("lp_uniform is not an LP".into());
    };
    let mut rng = StdRng::seed_from_u64(solver_seed());
    let cfg = ClarksonConfig::lean(sc.r);
    let (sol, stats) = streaming::solve(&p, &cs, &cfg, SamplingMode::TwoPassIid, &mut rng)
        .map_err(|e| format!("in-RAM solve: {e}"))?;
    println!(
        "{} {} {}",
        p.objective_value(&sol).to_bits(),
        stats.iterations,
        stats.passes
    );
    Ok(())
}

fn reference() -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .arg("--ooc-reference")
        .output()
        .map_err(|e| format!("reference process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reference process failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let f: Vec<&str> = text.split_whitespace().collect();
    let parse_err = || format!("reference output {text:?}");
    match f.as_slice() {
        [bits, iters, passes] => Ok(Reference {
            objective_bits: bits.parse().map_err(|_| parse_err())?,
            iterations: iters.parse().map_err(|_| parse_err())?,
            passes: passes.parse().map_err(|_| parse_err())?,
        }),
        _ => Err(parse_err()),
    }
}

fn solve<P: ColumnarProblem, S: ChunkSource>(
    p: &P,
    source: &mut S,
    st: &OocState,
) -> Result<(f64, StreamingStats), String> {
    let mut rng = StdRng::seed_from_u64(st.solver_seed);
    let (sol, stats) = streaming::solve_chunked(p, source, &st.cfg, &mut rng)
        .map_err(|e| format!("solve_chunked: {e}"))?;
    Ok((p.objective_value(&sol), stats))
}

impl OocState {
    /// One op: open the file, stream-solve it, and check the result.
    /// Returns the latency (ms) and the per-op record.
    fn run_op(&self, traced: bool) -> Result<(f64, OpRecord), OpError> {
        let path = &self.file.0;
        let fatal =
            |e: llp_bigdata::BigDataError| OpError::Fatal(format!("{}: {e}", path.display()));
        let before = if traced { trace::counts() } else { (0, 0) };
        let t = Instant::now();
        let (objective, stats, bytes_read) = if traced {
            let source = trace::scope(Name::StoreOpen, || FileSource::open(path)).map_err(fatal)?;
            let mut source = TracedSource(source);
            let (o, s) = trace::scope(Name::SolveChunked, || {
                solve(&Traced(&self.problem), &mut source, self)
            })
            .map_err(OpError::Failed)?;
            (o, s, source.bytes_read())
        } else {
            let mut source = FileSource::open(path).map_err(fatal)?;
            let (o, s) = solve(&self.problem, &mut source, self).map_err(OpError::Failed)?;
            (o, s, source.bytes_read())
        };
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        let after = if traced { trace::counts() } else { (0, 0) };
        let got = Reference {
            objective_bits: objective.to_bits(),
            iterations: stats.iterations,
            passes: stats.passes,
        };
        if got != self.reference {
            return Err(OpError::Failed(format!(
                "file-backed solve {got:?} differs from the in-RAM solve {:?}",
                self.reference
            )));
        }
        let want_bytes = stats.passes * self.file_bytes + self.header_bytes;
        if bytes_read != want_bytes {
            return Err(OpError::Failed(format!(
                "bytes_read {bytes_read} != passes × file_bytes + header = {want_bytes}"
            )));
        }
        let record = OpRecord {
            bytes_read,
            useful_iter_frac: (stats.successful_iterations + 1) as f64 / stats.iterations as f64,
            violates: after.0 - before.0,
            from_row: after.1 - before.1,
        };
        Ok((ms, record))
    }
}

impl Workload for Ooc {
    type State = OocState;

    fn setup(&self, _ctx: &Ctx) -> Result<OocState, String> {
        let sc = scenario();
        let ScenarioProblem::Lp(problem) = sc.problem() else {
            return Err("lp_uniform is not an LP".into());
        };
        std::fs::create_dir_all(DATA_DIR).map_err(|e| format!("{DATA_DIR}: {e}"))?;
        let file = StoreFile(
            PathBuf::from(DATA_DIR).join(format!("ooc_stream-{}.llps", std::process::id())),
        );
        let path = &file.0;
        let (header, written) = trace::scope(Name::WriteScenario, || {
            llp_workloads::write_scenario(&sc, path, CHUNK_LEN)
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("fsync {}: {e}", path.display()))?;
        if written != header.file_bytes() {
            return Err(format!(
                "wrote {written} bytes, header says {}",
                header.file_bytes()
            ));
        }
        let header_bytes = llp_store::open_file(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .bytes_read();
        let st = OocState {
            problem,
            cfg: ClarksonConfig::lean(sc.r),
            solver_seed: solver_seed(),
            file_bytes: header.file_bytes(),
            header_bytes,
            reference: reference()?,
            records: Mutex::new(Vec::new()),
            file,
        };
        // Warm-up pass: the op list is this one op.
        st.run_op(false).map_err(|e| match e {
            OpError::Failed(m) | OpError::Fatal(m) => format!("warm-up: {m}"),
        })?;
        Ok(st)
    }

    fn shape(&self, _st: &OocState) -> (usize, usize, u32) {
        (1, 1, std::process::id())
    }

    fn op(&self, st: &OocState, _tid: usize, _i: usize) -> Result<f64, OpError> {
        let traced = trace::enabled();
        let (ms, record) = st.run_op(traced)?;
        if traced {
            st.records.lock().expect("record lock").push(record);
        }
        Ok(ms)
    }

    fn layers(
        &self,
        st: &mut OocState,
        spans: Vec<trace::Span>,
        t: &Timed,
    ) -> Result<Layers, String> {
        let (ops, setup) = OpTree::group(spans);
        let records = std::mem::take(&mut *st.records.lock().expect("record lock"));
        if ops.len() != t.attempted || records.len() != t.attempted {
            return Err(format!("{} op traces for {} ops", ops.len(), t.attempted));
        }
        let n = ops.len() as f64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let is_store =
            |s: &trace::Span| matches!(s.name, Name::StoreOpen | Name::BeginPass | Name::NextChunk);
        let (mut read, mut passes, mut bigdata_self) = (0u64, 0u64, 0u64);
        for tree in &ops {
            tree.check_nesting()?;
            let root = tree.root()?;
            let solve = tree
                .named(Name::SolveChunked)
                .next()
                .ok_or("op without solve_chunked")?;
            let solve_self = solve.dur() as i128 - tree.child_union(solve, |_| true) as i128;
            let op_self = root.dur() as i128 - tree.child_union(root, |_| true) as i128;
            if solve_self < 0 || op_self < 0 {
                return Err(format!(
                    "negative self time (solve {solve_self} ns, op {op_self} ns)"
                ));
            }
            bigdata_self += solve_self as u64;
            read += tree
                .spans
                .iter()
                .filter(|s| is_store(s))
                .map(|s| s.dur())
                .sum::<u64>();
            passes += tree.named(Name::BeginPass).count() as u64;
        }
        let bytes: u64 = records.iter().map(|r| r.bytes_read).sum();
        let write = setup
            .iter()
            .find(|s| s.name == Name::WriteScenario)
            .ok_or("no write span")?;
        let mut l = Layers::new();
        trace::solver_layers(&ops, &mut l);
        l.insert("llp_store.write_ms", ms(write.dur()));
        l.insert(
            "llp_store.write_mb_per_s",
            st.file_bytes as f64 / 1e6 / (write.dur() as f64 / 1e9),
        );
        l.insert("llp_store.read_ms", ms(read) / n);
        l.insert(
            "llp_store.read_mb_per_s",
            bytes as f64 / 1e6 / (read as f64 / 1e9),
        );
        l.insert("llp_store.bytes_read", bytes as f64 / n);
        l.insert("llp_store.passes", passes as f64 / n);
        l.insert("llp_bigdata.self_ms", ms(bigdata_self) / n);
        l.insert(
            "llp_bigdata.from_row",
            records.iter().map(|r| r.from_row).sum::<u64>() as f64 / n,
        );
        l.insert(
            "llp_bigdata.violates",
            records.iter().map(|r| r.violates).sum::<u64>() as f64 / n,
        );
        l.insert(
            "llp_bigdata.useful_iter_frac",
            records.iter().map(|r| r.useful_iter_frac).sum::<f64>() / n,
        );
        Ok(l)
    }
}
