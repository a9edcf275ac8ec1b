//! Microbenchmarks of the basis solvers (the `T_b`/`T_v` primitives of
//! Propositions 4.1–4.3) and the parallel violation-scan hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llp_core::instances::svm::SvmPoint;
use llp_core::lptype::count_violations;
use llp_solver::lexico::lex_min_optimum;
use llp_solver::seidel::{self, SeidelConfig};
use llp_solver::svm_qp::{self, SvmConfig};
use llp_solver::welzl::min_enclosing_ball;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_seidel(c: &mut Criterion) {
    let mut group = c.benchmark_group("seidel_lp");
    group.sample_size(20);
    for d in [2usize, 4, 6] {
        for m in [1_000usize, 10_000] {
            let (p, cs) = llp_workloads::random_lp(m, d, 1);
            group.bench_with_input(
                BenchmarkId::new(format!("d{d}"), m),
                &(p, cs),
                |b, (p, cs)| {
                    b.iter(|| {
                        let mut r = StdRng::seed_from_u64(2);
                        black_box(seidel::solve(
                            cs,
                            &p.objective,
                            &SeidelConfig::default(),
                            &mut r,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_lexico(c: &mut Criterion) {
    let mut group = c.benchmark_group("lexicographic_lp");
    group.sample_size(20);
    // d = 3 at 10,000 rows is the basis solve of the report grid: the
    // ε-net of `lp_uniform` at the Full budget is ~9,300 rows.
    for (d, m) in [(2usize, 5_000usize), (4, 5_000), (3, 10_000)] {
        let (p, cs) = llp_workloads::random_lp(m, d, 3);
        group.bench_function(BenchmarkId::new(format!("lex_min_m{m}"), d), |b| {
            b.iter(|| {
                let mut r = StdRng::seed_from_u64(4);
                black_box(lex_min_optimum(
                    &cs,
                    &p.objective,
                    &SeidelConfig::default(),
                    &mut r,
                ))
            })
        });
    }
    group.finish();
}

fn bench_welzl(c: &mut Criterion) {
    let mut group = c.benchmark_group("welzl_meb");
    group.sample_size(20);
    for d in [2usize, 3, 5] {
        let pts = llp_workloads::ball_cloud(20_000, d, 5.0, 5);
        group.bench_function(BenchmarkId::new("meb", d), |b| {
            b.iter(|| {
                let mut r = StdRng::seed_from_u64(6);
                black_box(min_enclosing_ball(&pts, &mut r))
            })
        });
    }
    group.finish();
}

fn bench_svm_qp(c: &mut Criterion) {
    let mut group = c.benchmark_group("svm_active_set");
    group.sample_size(20);
    for d in [2usize, 4] {
        let (pts, _) = llp_workloads::separable_clouds(10_000, d, 0.5, 7);
        let points: Vec<Vec<f64>> = pts.iter().map(|p: &SvmPoint| p.x.clone()).collect();
        let labels: Vec<i8> = pts.iter().map(|p| p.y).collect();
        group.bench_function(BenchmarkId::new("qp", d), |b| {
            b.iter(|| black_box(svm_qp::solve(&points, &labels, &SvmConfig::default())))
        });
    }
    group.finish();
}

/// The violation scan (`T_v` over the whole input) at 1 thread vs the
/// machine's parallelism — the hot path the t13 scaling experiment is
/// bound by. Outputs are bit-identical across counts (asserted here);
/// the timing difference is the `llp_par` payoff. Shares its instance
/// with the T13p experiment (`llp_bench::violation_scan_fixture`) so the
/// two measurement paths cannot drift apart.
fn bench_parallel_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    let (p, cs, sol) = llp_bench::violation_scan_fixture(1_000_000);
    let threads_n = llp_par::threads().max(2);
    let reference = llp_par::with_threads(1, || count_violations(&p, &sol, &cs));
    for threads in [1usize, threads_n] {
        assert_eq!(
            llp_par::with_threads(threads, || count_violations(&p, &sol, &cs)),
            reference,
            "violation scan must be thread-count-independent"
        );
        group.bench_with_input(
            BenchmarkId::new("violation_scan_1e6", format!("threads{threads}")),
            &threads,
            |b, &threads| {
                llp_par::with_threads(threads, || {
                    b.iter(|| black_box(count_violations(&p, &sol, &cs)))
                })
            },
        );
    }
    group.finish();
}

/// The weight-bookkeeping hot path of Algorithm 1: the incremental
/// `WeightIndex` (O(|V| log n) updates + O(m log n) draws per iteration)
/// against the full O(n) prefix rebuild it replaced. Shares its violator
/// schedule with the T14 experiment (`llp_bench::weight_update_fixture`)
/// so the two measurement paths cannot drift apart; the final totals of
/// the two strategies are asserted to agree before timing starts.
fn bench_weight_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("weight_index");
    group.sample_size(10);
    let (iters, m) = (4usize, 512usize);
    for n in [100_000usize, 1_000_000] {
        let violators = (n / 200).max(1);
        let rounds = llp_bench::weight_update_fixture(n, iters, violators);
        let factor = (n as f64).sqrt();
        let mut index = llp_sampling::weight_index::WeightIndex::uniform(n);
        let mut exponent = vec![0u32; n];
        let (incr_total, _) =
            llp_bench::run_weight_index_incremental(&mut index, factor, m, &rounds);
        let (rebuild_total, _) =
            llp_bench::run_weight_prefix_rebuild(&mut exponent, factor, m, &rounds);
        assert!(
            (incr_total - rebuild_total).abs() <= 1e-6 * incr_total.abs().max(1.0),
            "weight paths disagree: {incr_total} vs {rebuild_total}"
        );
        // State construction stays outside the timed closures (the solver
        // pays it once per run); it accumulates across criterion
        // iterations, which leaves the per-iteration op count unchanged.
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                black_box(llp_bench::run_weight_index_incremental(
                    &mut index, factor, m, &rounds,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("rebuild", n), &n, |b, _| {
            b.iter(|| {
                black_box(llp_bench::run_weight_prefix_rebuild(
                    &mut exponent,
                    factor,
                    m,
                    &rounds,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_seidel,
    bench_lexico,
    bench_welzl,
    bench_svm_qp,
    bench_parallel_scan,
    bench_weight_index
);
criterion_main!(benches);
