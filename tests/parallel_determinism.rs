//! Differential suite for the `llp_par` determinism contract: for
//! identical seeds, every model (RAM, streaming, coordinator, MPC) on
//! every Section 4 instance (LP, SVM, MEB) must produce **bit-identical**
//! solutions, iteration counts, and resource-meter readings whether the
//! hot scans run on 1 thread, 4, or 16.
//!
//! `threads=1` is the reference execution (same chunk grid, same ordered
//! merge, no spawns); `threads=4`/`16` exercise the scoped workers — real
//! threads are spawned regardless of the host's core count, so the
//! parallel code path is covered even on single-core CI runners. The
//! override is per-thread (see `llp_par::with_threads`), so these tests
//! cannot race each other under the parallel test harness.
//!
//! Coverage notes. The parallel path only engages on slices spanning more
//! than one `DEFAULT_CHUNK` (4096), so the coordinator/MPC legs use
//! inputs sized to put >4096 constraints on each site/machine. The RAM,
//! coordinator, and MPC solvers all run on one weight holder,
//! `SiteWeights` (a persistent `WeightIndex` with incremental Fenwick
//! updates instead of prefix rebuilds): the model legs cover that path
//! end-to-end — the index is itself purely sequential, and the one
//! parallel piece feeding it (the
//! fused columnar violator scan of `SiteWeights::scan_and_stage`) is
//! additionally driven head-on by
//! `site_weights_scan_and_sampling_are_thread_count_invariant`, with
//! accepted verdicts applied between probes so the *evolved* incremental
//! state is compared, not just a fresh index. That scan is in turn
//! pinned against a sequential scalar reference built on `violates` by
//! `columnar_scan_matches_aos_scan_bit_for_bit`. The streaming legs are
//! different: the streaming model's per-pass scans are *sequential by
//! design* (a pass is one-way I/O over the stream), so no `llp_par` call
//! exists there today — those legs lock the contract down so any future
//! parallelization of the pass loops cannot silently break
//! seed-reproducibility.

use lodim_lp::bigdata::coordinator;
use lodim_lp::bigdata::mpc::{self, MpcConfig};
use lodim_lp::bigdata::streaming::{self, SamplingMode};
use lodim_lp::core::clarkson::ClarksonConfig;
use lodim_lp::core::instances::lp::LpProblem;
use lodim_lp::core::instances::meb::MebProblem;
use lodim_lp::core::instances::svm::{SvmPoint, SvmProblem};
use lodim_lp::geom::Halfspace;
use lodim_lp::par as llp_par;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;

const N: usize = 6000;
/// Input size for the coordinator/MPC legs: with `k = 4` sites this puts
/// 10_000 > `DEFAULT_CHUNK` constraints on every site, so the per-site
/// scans genuinely fan out across workers instead of taking the inline
/// single-chunk branch.
const N_BIG: usize = 40_000;
const SEED: u64 = 4242;
/// MPC load exponent for the big leg: `40_000^0.8 ≈ 4900 > DEFAULT_CHUNK`
/// constraints per machine (δ = 0.4 would leave ~70 per machine and never
/// reach the parallel path).
const MPC_DELTA_BIG: f64 = 0.8;

/// Runs `f` at 1 thread (the reference) and at 4 and 16 threads and
/// asserts bit-identical output. `f` must seed its own RNG so every run
/// starts from identical state. 16 exceeds most hosts' core counts *and*
/// many inputs' chunk counts, so the worker-starved merge order is
/// exercised too.
fn assert_thread_count_invariant<T: PartialEq + Debug>(label: &str, f: impl Fn() -> T) {
    let sequential = llp_par::with_threads(1, &f);
    for threads in [4usize, 16] {
        let parallel = llp_par::with_threads(threads, &f);
        assert_eq!(
            sequential, parallel,
            "{label}: threads=1 and threads={threads} diverged"
        );
    }
}

fn lp_instance() -> (LpProblem, Vec<Halfspace>) {
    lodim_lp::workloads::random_lp(N, 3, SEED)
}

fn svm_instance() -> (SvmProblem, Vec<SvmPoint>) {
    let (pts, _) = lodim_lp::workloads::separable_clouds(N, 3, 0.5, SEED + 1);
    (SvmProblem::new(3), pts)
}

fn meb_instance() -> (MebProblem, Vec<Vec<f64>>) {
    let pts = lodim_lp::workloads::ball_cloud(N, 3, 4.0, SEED + 2);
    (MebProblem::new(3), pts)
}

#[test]
fn ram_clarkson_is_thread_count_invariant() {
    let (lp, cs) = lp_instance();
    assert_thread_count_invariant("ram/lp", || {
        let mut rng = StdRng::seed_from_u64(SEED + 10);
        lodim_lp::core::clarkson_solve(&lp, &cs, &ClarksonConfig::lean(2), &mut rng).unwrap()
    });
    let (svm, pts) = svm_instance();
    assert_thread_count_invariant("ram/svm", || {
        let mut rng = StdRng::seed_from_u64(SEED + 11);
        lodim_lp::core::clarkson_solve(&svm, &pts, &ClarksonConfig::lean(2), &mut rng).unwrap()
    });
    let (meb, pts) = meb_instance();
    assert_thread_count_invariant("ram/meb", || {
        let mut rng = StdRng::seed_from_u64(SEED + 12);
        lodim_lp::core::clarkson_solve(&meb, &pts, &ClarksonConfig::lean(2), &mut rng).unwrap()
    });
}

#[test]
fn streaming_is_thread_count_invariant_in_both_modes() {
    let (lp, cs) = lp_instance();
    for (mode, name) in [
        (SamplingMode::TwoPassIid, "2pass"),
        (SamplingMode::OnePassSpeculative, "1pass"),
    ] {
        assert_thread_count_invariant(&format!("stream-{name}/lp"), || {
            let mut rng = StdRng::seed_from_u64(SEED + 20);
            streaming::solve(&lp, &cs, &ClarksonConfig::lean(2), mode, &mut rng).unwrap()
        });
    }
    let (svm, pts) = svm_instance();
    assert_thread_count_invariant("stream/svm", || {
        let mut rng = StdRng::seed_from_u64(SEED + 21);
        streaming::solve(
            &svm,
            &pts,
            &ClarksonConfig::lean(2),
            SamplingMode::TwoPassIid,
            &mut rng,
        )
        .unwrap()
    });
    let (meb, pts) = meb_instance();
    assert_thread_count_invariant("stream/meb", || {
        let mut rng = StdRng::seed_from_u64(SEED + 22);
        streaming::solve(
            &meb,
            &pts,
            &ClarksonConfig::lean(2),
            SamplingMode::OnePassSpeculative,
            &mut rng,
        )
        .unwrap()
    });
}

#[test]
fn coordinator_is_thread_count_invariant() {
    // The LP leg is sized so every site's scan spans multiple chunks and
    // actually spawns workers at threads=4.
    let (lp, cs) = lodim_lp::workloads::random_lp(N_BIG, 3, SEED);
    assert_thread_count_invariant("coord/lp", || {
        let mut rng = StdRng::seed_from_u64(SEED + 30);
        coordinator::solve(&lp, &cs, 4, &ClarksonConfig::lean(2), &mut rng).unwrap()
    });
    let (svm, pts) = svm_instance();
    assert_thread_count_invariant("coord/svm", || {
        let mut rng = StdRng::seed_from_u64(SEED + 31);
        coordinator::solve(&svm, &pts, 4, &ClarksonConfig::lean(2), &mut rng).unwrap()
    });
    let (meb, pts) = meb_instance();
    assert_thread_count_invariant("coord/meb", || {
        let mut rng = StdRng::seed_from_u64(SEED + 32);
        coordinator::solve(&meb, &pts, 4, &ClarksonConfig::lean(2), &mut rng).unwrap()
    });
}

#[test]
fn mpc_is_thread_count_invariant() {
    // The LP leg is sized (and δ chosen) so every machine's scan spans
    // multiple chunks and actually spawns workers at threads=4.
    let (lp, cs) = lodim_lp::workloads::random_lp(N_BIG, 3, SEED);
    assert_thread_count_invariant("mpc/lp", || {
        let mut rng = StdRng::seed_from_u64(SEED + 40);
        mpc::solve(&lp, &cs, &MpcConfig::lean(MPC_DELTA_BIG), &mut rng).unwrap()
    });
    let (svm, pts) = svm_instance();
    assert_thread_count_invariant("mpc/svm", || {
        let mut rng = StdRng::seed_from_u64(SEED + 41);
        mpc::solve(&svm, &pts, &MpcConfig::lean(0.4), &mut rng).unwrap()
    });
    let (meb, pts) = meb_instance();
    assert_thread_count_invariant("mpc/meb", || {
        let mut rng = StdRng::seed_from_u64(SEED + 42);
        mpc::solve(&meb, &pts, &MpcConfig::lean(0.4), &mut rng).unwrap()
    });
}

#[test]
fn file_backed_streaming_matches_in_ram_at_every_thread_count() {
    // The out-of-core differential: every registry family written to a
    // chunked store file and solved with `solve_chunked` reading real
    // file bytes must be bit-identical — solution, stats, meters — to
    // the in-RAM `solve` on the generator's output, at threads 1 and 4.
    // Chunk boundaries (chunk_len 512 cuts every quick instance into
    // many frames) must be invisible to the sampler, the violation
    // kernels, and the space accounting.
    use lodim_lp::bigdata::ooc::FileSource;
    use lodim_lp::core::lptype::ColumnarProblem;
    use lodim_lp::workloads::scenario::{registry, RunBudget, ScenarioData};

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-ooc-tests/parallel-determinism");
    std::fs::create_dir_all(&dir).unwrap();

    fn check<P: ColumnarProblem>(
        name: &str,
        problem: &P,
        data: &[P::Constraint],
        path: &std::path::Path,
    ) {
        let cfg = ClarksonConfig::lean(3);
        assert_thread_count_invariant(&format!("ooc-file/{name}"), || {
            let mut rng = StdRng::seed_from_u64(SEED + 100);
            let mut source = FileSource::open(path).unwrap();
            let (sol, stats) =
                streaming::solve_chunked(problem, &mut source, &cfg, &mut rng).unwrap();
            (problem.objective_value(&sol).to_bits(), stats)
        });
        // And the file-backed run equals the in-RAM run, not just itself.
        let mut rng = StdRng::seed_from_u64(SEED + 100);
        let (ram_sol, ram_stats) =
            streaming::solve(problem, data, &cfg, SamplingMode::TwoPassIid, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(SEED + 100);
        let mut source = FileSource::open(path).unwrap();
        let (file_sol, file_stats) =
            streaming::solve_chunked(problem, &mut source, &cfg, &mut rng).unwrap();
        assert_eq!(ram_stats, file_stats, "{name}: stats diverged");
        assert_eq!(
            problem.objective_value(&ram_sol).to_bits(),
            problem.objective_value(&file_sol).to_bits(),
            "{name}: objective bits diverged"
        );
    }

    for sc in registry(RunBudget::Quick) {
        let path = dir.join(format!("{}.llps", sc.name));
        let (header, written) = lodim_lp::workloads::write_scenario(&sc, &path, 512).unwrap();
        assert_eq!(written, header.file_bytes(), "{}: writer meter", sc.name);
        match sc.generate() {
            ScenarioData::Lp(p, cs) => check(sc.name, &p, &cs, &path),
            ScenarioData::Svm(p, pts) => check(sc.name, &p, &pts, &path),
            ScenarioData::Meb(p, pts) => check(sc.name, &p, &pts, &path),
        }
    }
}

#[test]
fn violation_scan_invariant_across_many_thread_counts() {
    // Beyond the 1-vs-4 contract: the scan count and the RAM solve are
    // identical for *every* thread count, including ones exceeding the
    // chunk count and the host's cores.
    let (lp, cs) = lp_instance();
    let mut rng = StdRng::seed_from_u64(SEED + 50);
    let sol = lodim_lp::core::lptype::LpTypeProblem::solve_subset(&lp, &cs[..32], &mut rng)
        .expect("prefix solvable");
    let reference = llp_par::with_threads(1, || {
        lodim_lp::core::lptype::count_violations(&lp, &sol, &cs)
    });
    for threads in [2usize, 3, 4, 8, 64] {
        let got = llp_par::with_threads(threads, || {
            lodim_lp::core::lptype::count_violations(&lp, &sol, &cs)
        });
        assert_eq!(got, reference, "threads={threads}");
    }
}

#[test]
fn site_weights_scan_and_sampling_are_thread_count_invariant() {
    // The WeightIndex-backed holder state: drive the columnar
    // scan_and_stage on a ~10-chunk slice through several accepted
    // rounds, so the violator lists, staged commits, O(1) totals, and the
    // index-backed inversion draws are compared across thread counts on
    // *evolving* incremental state. Only the fused scan touches the
    // llp_par pool — the Fenwick updates and descents are sequential by
    // construction — so every field must match bit-for-bit.
    use lodim_lp::core::clarkson::{NetBuffer, SiteWeights};
    use lodim_lp::core::lptype::{ColumnarProblem, LpTypeProblem};

    let mut rng = StdRng::seed_from_u64(SEED + 80);
    let (lp, cs) = lodim_lp::workloads::random_lp(N_BIG, 3, SEED + 80);
    let probes: Vec<_> = (0..4)
        .map(|i| {
            lp.solve_subset(&cs[i * 64..i * 64 + 48], &mut rng)
                .expect("subset solvable")
        })
        .collect();
    let columns = lp.to_columns(&cs);

    let run = |threads: usize| {
        llp_par::with_threads(threads, || {
            let mut site = SiteWeights::new(0..cs.len(), 6.0);
            let mut rng = StdRng::seed_from_u64(SEED + 81);
            // One net buffer for every round, as the solvers keep one.
            let mut net = NetBuffer::new();
            let mut out = Vec::new();
            for probe in &probes {
                let (w, count) = site.scan_and_stage(&lp, probe, &columns);
                site.resolve(true);
                net.clear();
                let drawn = site.draw_into(&cs, 100, &mut rng, &mut net);
                let picked = net.picked().to_vec();
                // The reused slots hold exactly fresh clones of the rows
                // drawn this round, once each, in ascending order.
                assert_eq!(drawn, picked.len());
                assert!(picked.windows(2).all(|w| w[0] < w[1]), "{picked:?}");
                let fresh: Vec<_> = picked.iter().map(|&j| cs[j].clone()).collect();
                assert_eq!(net.rows(), &fresh[..]);
                out.push((w, count, site.total(), picked));
            }
            out
        })
    };
    let reference = run(1);
    assert!(
        reference.iter().any(|(_, count, _, _)| *count > 0),
        "probes should produce violators"
    );
    for threads in [2usize, 4, 16] {
        assert_eq!(run(threads), reference, "threads={threads}");
    }
}

/// The scalar reference for the columnar scan: the per-element
/// `violates` predicate over the AoS slice, each violator's weight read
/// with `WeightIndex::get`, summed in ascending order within each
/// `DEFAULT_CHUNK` block, and the block sums merged in block order — the
/// grid and association order the parallel scan promises at any thread
/// count.
fn scalar_scan<P: lodim_lp::core::lptype::LpTypeProblem>(
    p: &P,
    sol: &P::Solution,
    data: &[P::Constraint],
    index: &lodim_lp::sampling::weight_index::WeightIndex,
) -> (Vec<usize>, lodim_lp::num::ScaledF64) {
    use lodim_lp::num::ScaledF64;
    let mut idx = Vec::new();
    let mut total = ScaledF64::ZERO;
    for (block, cs) in data.chunks(llp_par::DEFAULT_CHUNK).enumerate() {
        let base = block * llp_par::DEFAULT_CHUNK;
        let mut w = ScaledF64::ZERO;
        for (off, c) in cs.iter().enumerate() {
            if p.violates(sol, c) {
                idx.push(base + off);
                w += index.get(base + off);
            }
        }
        total += w;
    }
    (idx, total)
}

#[test]
fn columnar_scan_matches_aos_scan_bit_for_bit() {
    // The columnar-vs-scalar differential at the kernel level: the
    // columnar scan (`scan_violators_weighted_columnar` over a row range
    // of `ConstraintColumns`) must report exactly the violator indices
    // and the ScaledF64 weight of the sequential `violates` reference
    // over that sub-slice, bit for bit, for LP/SVM/MEB at threads
    // 1/4/16. Weights are non-uniform so the sums genuinely mix
    // exponents and round, and the solution comes from a small prefix so the set
    // contains real violators. The LP also scans a range that starts off
    // the chunk grid and spans three chunks, as a coordinator site or MPC
    // machine does: its indices must be range-relative and its chunk
    // grid counted from the range start.
    use lodim_lp::core::lptype::{scan_violators_weighted_columnar, ColumnarProblem};
    use lodim_lp::sampling::weight_index::WeightIndex;
    use std::ops::Range;

    fn check<P: ColumnarProblem>(
        label: &str,
        p: &P,
        data: &[P::Constraint],
        rows: Range<usize>,
        sol: &P::Solution,
    ) {
        // Factors with full mantissas, so the sums round and their
        // association order (the chunk grid) shows in the bits.
        let mut index = WeightIndex::uniform(rows.len());
        for i in (0..rows.len()).step_by(7) {
            index.multiply(i, 9.7);
        }
        for i in (0..rows.len()).step_by(13) {
            index.multiply(i, 70.3);
        }
        assert!(
            rows.len() > llp_par::DEFAULT_CHUNK,
            "{label}: the range must span several scan chunks"
        );
        let (ref_idx, ref_w) = scalar_scan(p, sol, &data[rows.clone()], &index);
        assert!(
            !ref_idx.is_empty(),
            "{label}: prefix solution should leave violators in the range"
        );
        let columns = p.to_columns(data);
        for threads in [1usize, 4, 16] {
            let mut col_idx = Vec::new();
            let col_w = llp_par::with_threads(threads, || {
                scan_violators_weighted_columnar(
                    p,
                    sol,
                    &columns,
                    rows.clone(),
                    &index,
                    &mut col_idx,
                )
            });
            assert_eq!(
                ref_idx, col_idx,
                "{label} threads={threads}: violator indices diverged"
            );
            assert_eq!(
                ref_w, col_w,
                "{label} threads={threads}: violator weights diverged"
            );
        }
    }

    let (lp, cs) = lodim_lp::workloads::random_lp(N_BIG, 3, SEED + 90);
    let mut rng = StdRng::seed_from_u64(SEED + 90);
    let sol = lodim_lp::core::lptype::LpTypeProblem::solve_subset(&lp, &cs[..32], &mut rng)
        .expect("prefix solvable");
    check("lp", &lp, &cs, 0..cs.len(), &sol);
    // Half a chunk plus 17 rows off the grid: the two grids' boundaries
    // lie ~2,000 rows apart, so their chunks hold different violators.
    let start = llp_par::DEFAULT_CHUNK + llp_par::DEFAULT_CHUNK / 2 + 17;
    let off_grid = start..start + 3 * llp_par::DEFAULT_CHUNK - 5;
    check("lp/off-grid range", &lp, &cs, off_grid, &sol);

    let (svm, pts) = svm_instance();
    let sol = lodim_lp::core::lptype::LpTypeProblem::solve_subset(&svm, &pts[..64], &mut rng)
        .expect("prefix solvable");
    check("svm", &svm, &pts, 0..pts.len(), &sol);

    let (meb, pts) = meb_instance();
    let sol = lodim_lp::core::lptype::LpTypeProblem::solve_subset(&meb, &pts[..8], &mut rng)
        .expect("prefix solvable");
    check("meb", &meb, &pts, 0..pts.len(), &sol);
}

#[test]
fn scratch_solve_matches_plain_solve_bit_for_bit() {
    // The columns-taking entry point (the one the service dispatch calls,
    // with its transpose built outside the solve clock) must equal
    // `clarkson_solve` exactly — solution, stats, everything.
    use lodim_lp::core::lptype::ColumnarProblem;

    fn check<P: ColumnarProblem>(label: &str, p: &P, data: &[P::Constraint], seed: u64) {
        let plain = || {
            let mut rng = StdRng::seed_from_u64(seed);
            lodim_lp::core::clarkson_solve(p, data, &ClarksonConfig::lean(2), &mut rng).unwrap()
        };
        let columns = p.to_columns(data);
        let with_columns = llp_par::with_threads(4, || {
            let mut rng = StdRng::seed_from_u64(seed);
            lodim_lp::core::clarkson_solve_with_columns(
                p,
                data,
                &columns,
                &ClarksonConfig::lean(2),
                &mut rng,
            )
            .unwrap()
        });
        let reference = llp_par::with_threads(4, plain);
        assert_eq!(
            reference, with_columns,
            "{label}: columns-taking solve diverged from plain solve"
        );
    }

    let (lp, cs) = lp_instance();
    check("lp", &lp, &cs, SEED + 95);
    let (svm, pts) = svm_instance();
    check("svm", &svm, &pts, SEED + 96);
    let (meb, pts) = meb_instance();
    check("meb", &meb, &pts, SEED + 97);
}

#[test]
fn meter_readings_match_sequential_reference_exactly() {
    // Spell the meter contract out explicitly (beyond the PartialEq on the
    // stats structs): communication and load charges may not depend on the
    // thread count in any field. Inputs are sized so the per-site and
    // per-machine scans really run multi-chunk parallel at threads=4.
    let (lp, cs) = lodim_lp::workloads::random_lp(N_BIG, 3, SEED);
    let run_coord = || {
        let mut rng = StdRng::seed_from_u64(SEED + 60);
        coordinator::solve(&lp, &cs, 4, &ClarksonConfig::lean(2), &mut rng)
            .unwrap()
            .1
    };
    let (seq, par) = (
        llp_par::with_threads(1, run_coord),
        llp_par::with_threads(4, run_coord),
    );
    assert_eq!(seq.rounds, par.rounds);
    assert_eq!(seq.total_bits, par.total_bits);
    assert_eq!(seq.bits_up, par.bits_up);
    assert_eq!(seq.bits_down, par.bits_down);
    assert_eq!(seq.iterations, par.iterations);

    let run_mpc = || {
        let mut rng = StdRng::seed_from_u64(SEED + 61);
        mpc::solve(&lp, &cs, &MpcConfig::lean(MPC_DELTA_BIG), &mut rng)
            .unwrap()
            .1
    };
    let (seq, par) = (
        llp_par::with_threads(1, run_mpc),
        llp_par::with_threads(4, run_mpc),
    );
    assert_eq!(seq.rounds, par.rounds);
    assert_eq!(seq.max_load_bits, par.max_load_bits);
    assert_eq!(seq.iterations, par.iterations);

    let run_stream = || {
        let mut rng = StdRng::seed_from_u64(SEED + 62);
        streaming::solve(
            &lp,
            &cs,
            &ClarksonConfig::lean(2),
            SamplingMode::TwoPassIid,
            &mut rng,
        )
        .unwrap()
        .1
    };
    let (seq, par) = (
        llp_par::with_threads(1, run_stream),
        llp_par::with_threads(4, run_stream),
    );
    assert_eq!(seq.passes, par.passes);
    assert_eq!(seq.peak_space_bits, par.peak_space_bits);
    assert_eq!(seq.peak_space_items, par.peak_space_items);
    assert_eq!(seq.iterations, par.iterations);
}
