//! The LP-type problem abstraction (Section 2.1 + Properties (P1)/(P2)).
//!
//! The paper works with LP-type problems `(S, f)` where every constraint
//! `X ∈ S` is a subset of the solution range and `f(A)` is the *minimal
//! element of the intersection* of the constraints in `A` (Properties (P1)
//! and (P2) in Section 3). This special structure is what makes the
//! violation test a simple membership check: a constraint violates a basis
//! `B` iff the canonical solution `f(B)` lies outside the constraint's
//! set (proof of Claim 3.2).
//!
//! [`LpTypeProblem`] captures exactly that interface. Implementations own
//! the problem-level data (objective vector, dimension); constraints are
//! plain values so they can be streamed, partitioned, and serialized by
//! the model simulators. [`ColumnarProblem`] adds the columnar layout
//! every violation scan runs over, and [`scan_violators_columnar`] is
//! the whole-block scan that `clarkson`'s weight state and the
//! certificate pass call.

use rand::RngCore;

/// Why a subset could not be solved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The constraint intersection is empty. Since any subset's
    /// infeasibility implies the whole problem's (monotonicity), the
    /// meta-algorithm aborts with this verdict.
    Infeasible,
    /// The minimal element does not exist (the optimum escapes the
    /// regularization box).
    Unbounded,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "constraint set is infeasible"),
            SolveError::Unbounded => write!(f, "problem is unbounded"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An LP-type problem satisfying Properties (P1) and (P2) of the paper.
///
/// `Constraint` is an element of `S`; `Solution` is the concrete
/// representation of `f(A)` (an LP vertex, an SVM normal, a ball). The
/// canonicity contract: `solve_subset` must return the *unique* canonical
/// optimum (lexicographically smallest for LP), so that `violates` is
/// well-defined and the locality property holds.
///
/// The `Sync` supertrait lets the violation scans fan shared problem
/// references out across the `llp_par` scoped workers; implementations
/// are plain data, so this costs nothing.
pub trait LpTypeProblem: Sync {
    /// One element of the constraint set `S`.
    type Constraint: Clone + Send + Sync + 'static;
    /// The canonical solution `f(A)`.
    type Solution: Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static;

    /// Ambient dimension `d` of the problem.
    fn dim(&self) -> usize;

    /// Combinatorial dimension ν — the maximum basis size (`d + 1` for all
    /// three Section 4 instances).
    fn combinatorial_dim(&self) -> usize {
        self.dim() + 1
    }

    /// VC dimension λ of the set system `(S, R)` (`d + 1` for all three
    /// Section 4 instances).
    fn vc_dim(&self) -> usize {
        self.dim() + 1
    }

    /// Bits needed to transmit one constraint — the `bit(S)` of
    /// Theorems 1–3.
    fn constraint_bits(&self) -> u64 {
        64 * (self.dim() as u64 + 1)
    }

    /// Bits needed to transmit or store one canonical solution (a basis
    /// representative): `d + 1` coefficients by default, matching the
    /// `O(ν)·bit(S)` basis cost in Theorem 1.
    fn solution_bits(&self) -> u64 {
        64 * (self.dim() as u64 + 1)
    }

    /// Computes the canonical optimum `f(A)` of a constraint subset.
    ///
    /// This is the `T_b` basis-computation primitive; its cost for each
    /// instance is given by Propositions 4.1–4.3.
    fn solve_subset(
        &self,
        subset: &[Self::Constraint],
        rng: &mut dyn RngCore,
    ) -> Result<Self::Solution, SolveError>;

    /// The violation test: `f(B ∪ {c}) > f(B)`, which by Property (P2)
    /// reduces to "the canonical solution of `B` does not satisfy `c`".
    /// This is the `T_v` primitive — O(d) per constraint.
    fn violates(&self, solution: &Self::Solution, constraint: &Self::Constraint) -> bool;

    /// Objective value of a solution, used only for reporting/validation
    /// (radius for MEB, ‖u‖² for SVM, c·x for LP).
    fn objective_value(&self, solution: &Self::Solution) -> f64;
}

/// An LP-type problem whose constraints also live in columnar
/// (struct-of-arrays) storage — the layout the solvers' violation scans
/// run over, and the block format of the `llp_store` files.
///
/// The contract that makes the columnar path a pure layout change:
/// for every solution and constraint set,
/// [`scan_columns`](ColumnarProblem::scan_columns) over a view
/// must report exactly the constraints for which
/// [`violates`](LpTypeProblem::violates) is true, evaluating the same
/// floating-point operation sequence per element so the two are
/// *bit-identical* — the differential suite in
/// `tests/parallel_determinism.rs` checks the columnar scan against a
/// scalar reference built on `violates`.
pub trait ColumnarProblem: LpTypeProblem {
    /// Transposes AoS constraints into columnar storage. O(n·d), done
    /// once per solve (coordinator sites and MPC machines are row ranges
    /// of it), then amortized over every iteration's scan.
    fn to_columns(&self, constraints: &[Self::Constraint]) -> llp_geom::ConstraintColumns;

    /// Scans one row range for violators, appending their **absolute**
    /// indices (`view.start() + offset`) to `out` in ascending order.
    fn scan_columns(
        &self,
        solution: &Self::Solution,
        view: &llp_geom::ColumnsView<'_>,
        out: &mut Vec<usize>,
    );

    /// Rebuilds one constraint from its columnar row — the exact inverse
    /// of [`to_columns`](Self::to_columns): feeding a constraint through
    /// `to_columns` and back through `from_row` must reproduce it
    /// bit-for-bit. This is the ingestion path for the chunked on-disk
    /// format (`llp_store`): file-backed runs reconstruct constraints
    /// from decoded columns, and the round-trip exactness is what makes
    /// them bit-identical to in-RAM runs.
    ///
    /// # Panics
    /// Implementations may panic if `coords.len()` is not the problem's
    /// column dimension.
    // Not a constructor: the receiver is the problem *definition* (it
    // knows the column dimension), the constraint is the return value.
    #[allow(clippy::wrong_self_convention)]
    fn from_row(&self, coords: &[f64], extra: f64) -> Self::Constraint;
}

/// The violator scan of Algorithm 1's hot path over every row of
/// `columns`: fills the caller's reusable `out` (cleared first) with the
/// violator indices, ascending. The rows are cut on a fixed
/// `llp_par::DEFAULT_CHUNK` grid (`par_ranges`); each chunk runs the
/// problem's branch-light column kernel, which classifies each row on
/// its own, and the chunks merge in grid order, so `out` is the same for
/// any `LLP_THREADS` and equal to a sequential sweep of
/// [`LpTypeProblem::violates`]. Every caller scans whole blocks: one
/// call per scan of a solve's
/// [`SiteWeights`](crate::clarkson::SiteWeights), which splits the
/// violators among its parts (RAM's rows, the coordinator's sites, the
/// MPC machines), and one per chunk of a certificate pass.
pub fn scan_violators_columnar<P: ColumnarProblem>(
    problem: &P,
    solution: &P::Solution,
    columns: &llp_geom::ConstraintColumns,
    out: &mut Vec<usize>,
) {
    out.clear();
    let parts = llp_par::par_ranges(columns.len(), llp_par::DEFAULT_CHUNK, |start, end| {
        let mut idx = Vec::with_capacity(64);
        problem.scan_columns(solution, &columns.view(start, end), &mut idx);
        idx
    });
    for idx in &parts {
        out.extend_from_slice(idx);
    }
}

/// Counts the constraints violating a solution — shared helper for tests
/// and validation (the production paths fold violation checks into their
/// passes). Runs the scan on the `llp_par` pool; the count is exact and
/// thread-count-independent, and inputs below one chunk stay inline.
pub fn count_violations<P: LpTypeProblem>(
    problem: &P,
    solution: &P::Solution,
    constraints: &[P::Constraint],
) -> usize {
    llp_par::par_map_reduce(
        constraints,
        llp_par::DEFAULT_CHUNK,
        0usize,
        |_, chunk| {
            chunk
                .iter()
                .filter(|c| problem.violates(solution, c))
                .count()
        },
        |a, b| a + b,
    )
}
