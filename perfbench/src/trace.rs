//! Outside-in tracing: spans and counters recorded around calls into the
//! workspace's public functions, from this benchmark's own code. No
//! program code is edited. The solvers are generic over the problem type
//! and the chunk source, so wrapping those two types ([`Traced`],
//! [`TracedSource`]) reaches the basis solve, the violation scan, the
//! columnar transpose and the store reads from outside.
//!
//! Spans (name, start, end, parent, op id) stay in memory until the
//! traced phase ends; [`take_spans`] hands them to the analysis.
//! Counters for the two per-element hooks (`violates`, `from_row`) live
//! in one slot per thread, written without atomic read-modify-write
//! instructions, so counting costs about as much as the call it counts.

use llp_bigdata::ooc::ChunkSource;
use llp_bigdata::BigDataError;
use llp_core::lptype::{ColumnarProblem, LpTypeProblem, SolveError};
use llp_geom::{ColumnsView, ConstraintColumns};
use rand::RngCore;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a span wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// One timed op of a workload (the root of every op tree).
    Op,
    /// `Scenario::generate`.
    Generate,
    /// `llp_workloads::write_scenario`.
    WriteScenario,
    /// `llp_service::solve_model`; `a` holds the returned `wall_ms` in ns.
    SolveModel,
    /// `llp_bigdata::streaming::solve_chunked`.
    SolveChunked,
    /// `ColumnarProblem::to_columns`.
    ToColumns,
    /// `ColumnarProblem::scan_columns`; `a` = rows, `b` = violators.
    ScanColumns,
    /// `LpTypeProblem::solve_subset`; `a` = subset rows.
    SolveSubset,
    /// `FileSource::open`.
    StoreOpen,
    /// `ChunkSource::begin_pass`.
    BeginPass,
    /// `ChunkSource::next_chunk`; `a` = rows.
    NextChunk,
    /// `NetClient::solve` (the client-observed round trip).
    NetSolve,
    /// `SolveRequest::fingerprint`.
    Fingerprint,
    /// `codec::encode_frame`; `a` = frame bytes.
    Encode,
    /// `codec::decode_payload`; `a` = payload bytes.
    Decode,
}

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch; `parent == 0` marks a root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: Name,
    pub start: u64,
    pub end: u64,
    pub a: u64,
    pub b: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// The innermost open span and its op on the thread driving an op.
/// Spans opened on `llp_par` worker threads, whose own stacks are empty,
/// hang under it: the driving thread is blocked inside that span while
/// its workers run. Workloads whose ops call `llp_par` have one driving
/// thread, so the two words never change while a worker reads them.
static FALLBACK_ID: AtomicU64 = AtomicU64::new(0);
static FALLBACK_OP: AtomicU64 = AtomicU64::new(0);

/// A thread's open spans (id, op, published as the fallback) and the
/// spans it closed since its stack was last empty.
struct Local {
    stack: Vec<(u64, u64, bool)>,
    closed: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            stack: Vec::new(),
            closed: Vec::new(),
        })
    };
}

fn publish(id: u64, op: u64) {
    FALLBACK_ID.store(id, Relaxed);
    FALLBACK_OP.store(op, Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off (counters always count, but only
/// wrapped types call them).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// An open span; hand it back to [`close`].
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: Name,
    start: u64,
}

/// Pushes a span on this thread's stack. Only spans of threads that
/// drive an op are published as the fallback parent; a worker's own
/// spans are not, so concurrent workers never nest under each other.
fn push(id: u64, op: u64, published: bool) {
    LOCAL.with(|l| l.borrow_mut().stack.push((id, op, published)));
    if published {
        publish(id, op);
    }
}

/// Opens a span under the calling thread's innermost open span.
/// Returns `None` while recording is off.
pub fn open(name: Name) -> Option<Open> {
    if !enabled() {
        return None;
    }
    let (parent, op, published) = LOCAL
        .with(|l| l.borrow().stack.last().copied())
        .unwrap_or_else(|| (FALLBACK_ID.load(Relaxed), FALLBACK_OP.load(Relaxed), false));
    let id = NEXT_ID.fetch_add(1, Relaxed);
    push(id, op, published);
    Some(Open {
        id,
        parent,
        op,
        name,
        start: now_ns(),
    })
}

/// Opens the root span of a new op.
pub fn open_op() -> Option<Open> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Relaxed);
    let op = NEXT_OP.fetch_add(1, Relaxed);
    push(id, op, true);
    Some(Open {
        id,
        parent: 0,
        op,
        name: Name::Op,
        start: now_ns(),
    })
}

/// Closes a span with its two payload values. Closed spans collect per
/// thread and move to the shared list when the thread's stack empties
/// (once per op on a driving thread; a worker's spans at once, before
/// its `llp_par` call can return).
pub fn close(open: Option<Open>, a: u64, b: u64) {
    let Some(o) = open else { return };
    let end = now_ns();
    let span = Span {
        id: o.id,
        parent: o.parent,
        op: o.op,
        name: o.name,
        start: o.start,
        end,
        a,
        b,
    };
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let published = l.stack.pop().is_some_and(|(_, _, p)| p);
        let top = l.stack.last().map_or((0, 0), |&(id, op, _)| (id, op));
        if published {
            publish(top.0, top.1);
        }
        l.closed.push(span);
        if l.stack.is_empty() {
            SPANS.lock().expect("trace span lock").append(&mut l.closed);
        }
    });
}

/// Runs `f` inside a span with no payload.
pub fn scope<T>(name: Name, f: impl FnOnce() -> T) -> T {
    let s = open(name);
    let out = f();
    close(s, 0, 0);
    out
}

/// Drains every recorded span.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("trace span lock"))
}

// ---- per-element counters -------------------------------------------------

#[derive(Default)]
struct Slot {
    violates: AtomicU64,
    from_row: AtomicU64,
}

/// Live threads' slots, plus the folded totals of threads that ended.
static SLOTS: Mutex<(Vec<Arc<Slot>>, u64, u64)> = Mutex::new((Vec::new(), 0, 0));

thread_local! {
    static SLOT: Arc<Slot> = {
        let slot = Arc::new(Slot::default());
        SLOTS.lock().expect("counter registry lock").0.push(Arc::clone(&slot));
        slot
    };
}

/// Only the owning thread writes its slot, so a plain load and store
/// cannot lose an increment.
fn bump(pick: fn(&Slot) -> &AtomicU64) {
    SLOT.with(|s| {
        let c = pick(s);
        c.store(c.load(Relaxed) + 1, Relaxed);
    });
}

/// Total `(violates, from_row)` calls counted so far in the process.
/// Call it while no wrapped call is running (between ops): every
/// `llp_par` worker has then been joined, and the join orders its
/// writes before this read.
pub fn counts() -> (u64, u64) {
    let mut reg = SLOTS.lock().expect("counter registry lock");
    let (slots, dead_v, dead_f) = &mut *reg;
    let mut live = Vec::with_capacity(slots.len());
    for slot in slots.drain(..) {
        // Only the registry holds a finished thread's slot.
        match Arc::try_unwrap(slot) {
            Ok(s) => {
                *dead_v += s.violates.into_inner();
                *dead_f += s.from_row.into_inner();
            }
            Err(slot) => live.push(slot),
        }
    }
    *slots = live;
    let (mut v, mut f) = (*dead_v, *dead_f);
    for s in slots.iter() {
        v += s.violates.load(Relaxed);
        f += s.from_row.load(Relaxed);
    }
    (v, f)
}

// ---- wrappers ---------------------------------------------------------------

/// A delegating problem that times `solve_subset`, `scan_columns` and
/// `to_columns` and counts `violates` and `from_row`. Every other trait
/// method forwards, so the wrapped solve computes exactly what the bare
/// one does.
pub struct Traced<'a, P>(pub &'a P);

impl<P: LpTypeProblem> LpTypeProblem for Traced<'_, P> {
    type Constraint = P::Constraint;
    type Solution = P::Solution;

    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn combinatorial_dim(&self) -> usize {
        self.0.combinatorial_dim()
    }

    fn vc_dim(&self) -> usize {
        self.0.vc_dim()
    }

    fn constraint_bits(&self) -> u64 {
        self.0.constraint_bits()
    }

    fn solution_bits(&self) -> u64 {
        self.0.solution_bits()
    }

    fn solve_subset(
        &self,
        subset: &[Self::Constraint],
        rng: &mut dyn RngCore,
    ) -> Result<Self::Solution, SolveError> {
        let s = open(Name::SolveSubset);
        let out = self.0.solve_subset(subset, rng);
        close(s, subset.len() as u64, 0);
        out
    }

    fn violates(&self, solution: &Self::Solution, constraint: &Self::Constraint) -> bool {
        bump(|s| &s.violates);
        self.0.violates(solution, constraint)
    }

    fn objective_value(&self, solution: &Self::Solution) -> f64 {
        self.0.objective_value(solution)
    }
}

impl<P: ColumnarProblem> ColumnarProblem for Traced<'_, P> {
    fn to_columns(&self, constraints: &[Self::Constraint]) -> ConstraintColumns {
        scope(Name::ToColumns, || self.0.to_columns(constraints))
    }

    fn scan_columns(
        &self,
        solution: &Self::Solution,
        view: &ColumnsView<'_>,
        out: &mut Vec<usize>,
    ) {
        let before = out.len();
        let s = open(Name::ScanColumns);
        self.0.scan_columns(solution, view, out);
        close(s, view.len() as u64, (out.len() - before) as u64);
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_row(&self, coords: &[f64], extra: f64) -> Self::Constraint {
        bump(|s| &s.from_row);
        self.0.from_row(coords, extra)
    }
}

/// A delegating chunk source that times `begin_pass` and `next_chunk`.
pub struct TracedSource<S>(pub S);

impl<S: ChunkSource> ChunkSource for TracedSource<S> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn begin_pass(&mut self) -> Result<(), BigDataError> {
        scope(Name::BeginPass, || self.0.begin_pass())
    }

    fn next_chunk(&mut self) -> Result<Option<(usize, &ConstraintColumns)>, BigDataError> {
        let s = open(Name::NextChunk);
        let out = self.0.next_chunk();
        let rows = match &out {
            Ok(Some((_, chunk))) => chunk.len() as u64,
            _ => 0,
        };
        close(s, rows, 0);
        out
    }

    fn bytes_read(&self) -> u64 {
        self.0.bytes_read()
    }
}

// ---- analysis ---------------------------------------------------------------

/// Length of the union of `[start, end)` intervals, clipped to `[lo, hi)`.
pub fn union_ns(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// One op's spans; the tree's edges are their recorded parent ids.
pub struct OpTree {
    pub spans: Vec<Span>,
}

impl OpTree {
    /// Groups spans by op id (ops in id order); spans outside any op
    /// (set-up spans) come back separately.
    pub fn group(spans: Vec<Span>) -> (Vec<OpTree>, Vec<Span>) {
        let mut by_op: std::collections::BTreeMap<u64, Vec<Span>> = Default::default();
        let mut loose = Vec::new();
        for s in spans {
            if s.op == 0 {
                loose.push(s);
            } else {
                by_op.entry(s.op).or_default().push(s);
            }
        }
        let trees = by_op.into_values().map(|spans| OpTree { spans }).collect();
        (trees, loose)
    }

    pub fn root(&self) -> Result<&Span, String> {
        let mut roots = self.spans.iter().filter(|s| s.parent == 0);
        match (roots.next(), roots.next()) {
            (Some(r), None) if r.name == Name::Op => Ok(r),
            _ => Err("op trace does not have exactly one op root".into()),
        }
    }

    pub fn children(&self, id: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == id)
    }

    /// Union of the children's intervals inside `span`.
    pub fn child_union(&self, span: &Span, pick: impl Fn(&Span) -> bool) -> u64 {
        let iv = self
            .children(span.id)
            .filter(|c| pick(c))
            .map(|c| (c.start, c.end))
            .collect();
        union_ns(iv, span.start, span.end)
    }

    /// Sum of durations of every span named `name`.
    pub fn busy(&self, name: Name) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    pub fn named(&self, name: Name) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Checks that every span lies inside its parent and its op; a
    /// misplaced parent edge would otherwise show up as a negative self
    /// time somewhere.
    pub fn check_nesting(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.parent == 0 {
                continue;
            }
            let p = self
                .spans
                .iter()
                .find(|p| p.id == s.parent)
                .ok_or_else(|| format!("{:?} span has no parent in its op", s.name))?;
            if s.start < p.start || s.end > p.end {
                return Err(format!(
                    "{:?} span leaks out of its {:?} parent",
                    s.name, p.name
                ));
            }
        }
        Ok(())
    }
}

/// The basis-solve and violation-scan metrics of a traced phase, per op
/// (`solve_subset` and `scan_columns` spans, wherever they sit in the
/// op's tree).
pub fn solver_layers(ops: &[OpTree], l: &mut crate::Layers) {
    let spans = || ops.iter().flat_map(|t| t.spans.iter());
    let n = ops.len().max(1) as f64;
    let (mut basis, mut basis_calls, mut net_rows) = (0u64, 0u64, 0u64);
    let (mut scan, mut scan_calls, mut scan_hits, mut scan_rows) = (0u64, 0u64, 0u64, 0u64);
    for s in spans() {
        match s.name {
            Name::SolveSubset => {
                basis += s.dur();
                basis_calls += 1;
                net_rows += s.a;
            }
            Name::ScanColumns => {
                scan += s.dur();
                scan_calls += 1;
                scan_rows += s.a;
                scan_hits += u64::from(s.b > 0);
            }
            _ => {}
        }
    }
    l.insert("llp_solver.basis_ms", basis as f64 / 1e6 / n);
    l.insert("llp_solver.basis_calls", basis_calls as f64 / n);
    l.insert(
        "llp_solver.net_rows",
        net_rows as f64 / basis_calls.max(1) as f64,
    );
    l.insert("llp_core.scan_ms", scan as f64 / 1e6 / n);
    l.insert(
        "llp_core.scan_rows_per_us",
        scan_rows as f64 / (scan as f64 / 1e3).max(1e-9),
    );
    l.insert(
        "llp_core.scan_hit_frac",
        scan_hits as f64 / scan_calls.max(1) as f64,
    );
}

/// Serializes the tests that run code which records spans: tracing is
/// process-wide state.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use llp_service::{solve_model, ExecParams, Model};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The wrapped problem must compute exactly what the bare one does,
    /// and its spans must nest under the op that ran it.
    #[test]
    fn traced_solves_are_bit_identical_and_nested() {
        let _serial = TEST_LOCK.lock().expect("test lock");
        let (p, cs) = llp_workloads::random_lp(20_000, 3, 7);
        let params = ExecParams::default();
        for &model in Model::ALL {
            let bare = solve_model(&p, &cs, model, &params, &mut StdRng::seed_from_u64(5))
                .expect("bare solve");
            set_enabled(true);
            let root = open_op();
            let traced = solve_model(
                &Traced(&p),
                &cs,
                model,
                &params,
                &mut StdRng::seed_from_u64(5),
            )
            .expect("traced solve");
            close(root, 0, 0);
            set_enabled(false);
            assert_eq!(bare.body, traced.body, "{}", model.name());
            assert_eq!(
                bare.body.objective.to_bits(),
                traced.body.objective.to_bits()
            );
            let (ops, loose) = OpTree::group(take_spans());
            assert!(loose.is_empty());
            assert_eq!(ops.len(), 1);
            ops[0].check_nesting().expect("spans nest");
            assert!(
                ops[0].named(Name::SolveSubset).count() > 0,
                "{}",
                model.name()
            );
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_ns(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_ns(vec![], 0, 10), 0);
        assert_eq!(union_ns(vec![(10, 20), (0, 5)], 0, 100), 15);
    }
}
