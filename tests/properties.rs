//! Cross-crate property-based tests: randomized inputs, full-pipeline
//! invariants.

use lodim_lp::bigdata::streaming::{self, SamplingMode};
use lodim_lp::core::clarkson::ClarksonConfig;
use lodim_lp::core::lptype::{count_violations, LpTypeProblem};
use lodim_lp::lowerbound::{augindex, reduction};
use lodim_lp::num::{Rat, ScaledF64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming Algorithm 1 returns a feasible solution matching the
    /// direct solver's objective on random bounded-feasible LPs of any
    /// small dimension and size.
    #[test]
    fn prop_streaming_lp_feasible_and_optimal(
        seed in 0u64..10_000,
        d in 2usize..5,
        n in 200usize..3000,
        r in 1u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (p, cs) = lodim_lp::workloads::random_lp(n, d, seed);
        let (sol, _) = streaming::solve(
            &p, &cs, &ClarksonConfig::lean(r), SamplingMode::TwoPassIid, &mut rng,
        ).expect("feasible");
        prop_assert_eq!(count_violations(&p, &sol, &cs), 0);
        let direct = p.solve_subset(&cs, &mut rng).expect("feasible");
        let (v1, v2) = (p.objective_value(&sol), p.objective_value(&direct));
        prop_assert!((v1 - v2).abs() < 1e-4 * v1.abs().max(1.0), "{} vs {}", v1, v2);
    }

    /// The LP-type monotonicity property: adding constraints never
    /// improves the optimum.
    #[test]
    fn prop_lp_monotonicity(seed in 0u64..10_000, n in 50usize..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (p, cs) = lodim_lp::workloads::random_lp(n, 3, seed);
        let half = p.solve_subset(&cs[..n / 2], &mut rng).expect("feasible");
        let full = p.solve_subset(&cs, &mut rng).expect("feasible");
        prop_assert!(
            p.objective_value(&full) >= p.objective_value(&half) - 1e-6,
            "monotonicity: {} then {}",
            p.objective_value(&half),
            p.objective_value(&full)
        );
    }

    /// The Aug-Index reduction decodes the planted bit for arbitrary bit
    /// strings, indices, and steepness.
    #[test]
    fn prop_augindex_roundtrip(
        bits in proptest::collection::vec(0u8..2, 2..128),
        pick in 0usize..1000,
        steep in 1i128..100_000,
    ) {
        let i_star = pick % bits.len() + 1;
        let n = bits.len() + 1;
        let inst = augindex::build_instance(
            &bits,
            i_star,
            lodim_lp::num::Rat::from_int(steep + 2 * n as i128),
        );
        prop_assert_eq!(inst.validate(), Ok(()));
        prop_assert_eq!(augindex::decode(inst.answer_scan(), i_star), bits[i_star - 1]);
        // And the exact LP reduction agrees with the scan.
        let mut rng = StdRng::seed_from_u64(7);
        prop_assert_eq!(reduction::answer_via_lp(&inst, &mut rng), inst.answer_scan());
    }

    /// MEB monotonicity + optimality: the streamed ball encloses all
    /// points and matches the direct Welzl radius.
    #[test]
    fn prop_meb_streaming(seed in 0u64..10_000, n in 100usize..2000, d in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = lodim_lp::workloads::ball_cloud(n, d, 3.0, seed);
        let p = lodim_lp::core::instances::meb::MebProblem::new(d);
        let (ball, _) = streaming::solve(
            &p, &pts, &ClarksonConfig::lean(2), SamplingMode::OnePassSpeculative, &mut rng,
        ).expect("solvable");
        prop_assert_eq!(count_violations(&p, &ball, &pts), 0);
        let direct = p.solve_subset(&pts, &mut rng).expect("solvable");
        prop_assert!((ball.radius - direct.radius).abs() < 1e-5 * direct.radius.max(1.0));
    }
}

// --------------------------------------------------------------------
// The weight holder against a naive per-row exponent model.
//
// `SiteWeights` keeps one integer exponent per row and a row count per
// exponent class. The naive model applies the same accept/reject
// sequence to a plain exponent vector, deciding each row with the AoS
// `violates` predicate, and recomputes every weight and sum from it.
// --------------------------------------------------------------------

/// Runs one accept/reject sequence on a holder over the `n` rows of a
/// random 2-D LP (rows `a·x ≤ 1` with unit normals): first `lead`
/// accepted rounds of a probe that violates some row every time, then
/// one probe per op at angle `θ` and radius `ρ`, accepted or not. After
/// every verdict the holder must agree with the naive model: class
/// counts equal the exponent histogram, `total()` equals
/// `Σ_a count_a·F^a` in ascending class order (and the per-row sum
/// `Σ F^{a_i}` in log space), `weight(i)` is `F^{a_i}`, the scan's
/// weight is its violators' class sum, and a draw yields ascending
/// local rows, lands only on the top class when `top_only` is set, and
/// takes one uniform per draw from the RNG.
fn holder_differential(
    n: usize,
    factor: f64,
    lead: usize,
    ops: &[(f64, f64, bool)],
    top_only: bool,
) {
    use lodim_lp::core::clarkson::{NetBuffer, SiteWeights};
    use lodim_lp::core::lptype::ColumnarProblem;
    use rand::{Rng, RngCore};

    let (p, cs) = lodim_lp::workloads::random_lp(n, 2, n as u64);
    let columns = p.to_columns(&cs);
    let mut site = SiteWeights::new(&[n], factor);
    let mut naive = vec![0u32; n];
    let mut net = NetBuffer::new();
    let mut rng = StdRng::seed_from_u64(n as u64 + 7);
    // The first row's normal, scaled past the unit circle, violates at
    // least that row.
    let far: Vec<f64> = cs[0].a.iter().map(|v| 3.0 * v).collect();
    let lead_ops = std::iter::repeat_n((f64::NAN, 0.0, true), lead);
    for (theta, rho, accept) in lead_ops.chain(ops.iter().copied()) {
        let probe = if theta.is_nan() {
            far.clone()
        } else {
            vec![rho * theta.cos(), rho * theta.sin()]
        };
        let violators: Vec<usize> = (0..n).filter(|&i| p.violates(&probe, &cs[i])).collect();
        let class_sum = |exps: &mut dyn Iterator<Item = u32>| {
            let mut hist = Vec::new();
            for a in exps {
                if hist.len() <= a as usize {
                    hist.resize(a as usize + 1, 0usize);
                }
                hist[a as usize] += 1;
            }
            let sum = hist
                .iter()
                .enumerate()
                .fold(ScaledF64::ZERO, |acc, (a, &c)| {
                    acc + ScaledF64::from_f64(c as f64) * ScaledF64::powi(factor, a as u32)
                });
            (hist, sum)
        };
        let (w, count) = site.scan_and_stage(&p, &probe, &columns)[0];
        assert_eq!(count, violators.len());
        assert_eq!(w, class_sum(&mut violators.iter().map(|&i| naive[i])).1);
        site.resolve(accept);
        if accept {
            violators.iter().for_each(|&i| naive[i] += 1);
        }

        let (hist, total) = class_sum(&mut naive.iter().copied());
        assert_eq!(site.class_counts(0), &hist[..], "class counts");
        assert_eq!(site.total(0), total, "total");
        let per_row: ScaledF64 = naive.iter().map(|&a| ScaledF64::powi(factor, a)).sum();
        assert!((site.total(0).log2() - per_row.log2()).abs() <= 1e-9);
        for (i, &a) in naive.iter().enumerate() {
            assert_eq!(site.weight(i), ScaledF64::powi(factor, a), "weight({i})");
        }

        let seed = rng.next_u64();
        let (mut draw_rng, mut want_rng) =
            (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        net.clear();
        let drawn = site.draw_into(0, &cs, 2 * n, &mut draw_rng, &mut net);
        (0..2 * n).for_each(|_| {
            want_rng.random_range(0.0..1.0f64);
        });
        assert_eq!(draw_rng.next_u64(), want_rng.next_u64(), "RNG out of step");
        let picked = net.picked();
        assert_eq!(drawn, picked.len());
        assert!(picked.windows(2).all(|w| w[0] < w[1]) && picked.iter().all(|&i| i < n));
        if top_only {
            let top = hist.len() as u32 - 1;
            assert!(
                picked.iter().all(|&i| naive[i] == top),
                "a draw left the top class"
            );
        }
    }
    if top_only {
        assert!(
            site.total(0).log2() > 1024.0,
            "the total should be past f64::MAX"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random accept/reject sequences keep the holder equal to the naive
    /// per-row exponent model, from a single row up.
    #[test]
    fn prop_site_weights_match_naive_exponents(
        n in 1usize..160,
        thetas in collection::vec(0.0f64..6.3, 0..32),
        rhos in collection::vec(0.0f64..3.0, 0..32),
        accepts in collection::vec(0u8..2, 0..32),
        factor in 1.01f64..64.0,
    ) {
        let ops: Vec<(f64, f64, bool)> = thetas
            .into_iter()
            .zip(rhos)
            .zip(accepts)
            .map(|((t, r), a)| (t, r, a == 1))
            .collect();
        holder_differential(n, factor, 0, &ops, false);
    }

    /// With `F = 2^40`, 30 accepted rounds lift the top class to
    /// `2^1200`, past `f64::MAX`: the totals stay the class histogram's
    /// sums, and every draw lands on the heaviest class, which outweighs
    /// each row below it by at least `2^40`.
    #[test]
    fn prop_site_weights_survive_past_f64_overflow(
        n in 1usize..80,
        thetas in collection::vec(0.0f64..6.3, 1..16),
        rhos in collection::vec(0.0f64..3.0, 1..16),
        accepts in collection::vec(0u8..2, 1..16),
    ) {
        let ops: Vec<(f64, f64, bool)> = thetas
            .into_iter()
            .zip(rhos)
            .zip(accepts)
            .map(|((t, r), a)| (t, r, a == 1))
            .collect();
        holder_differential(n, 2f64.powi(40), 30, &ops, true);
    }
}

// --------------------------------------------------------------------
// ScaledF64 against an exact Rat reference.
//
// Algorithm 1's weights are products of small rational factors and many
// doublings (`F^{a_i}` with F = n^{1/r}); these properties pin the scaled
// representation to exact rational arithmetic on exactly that shape. The
// reference keeps the power-of-two part of the chain in a separate
// integer exponent, so the `Rat` mantissa stays inside `i128` while the
// represented magnitude goes far beyond `f64::MAX`.
// --------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A random multiplication chain of small rationals followed by a
    /// random number of doublings agrees with the exact `Rat × 2^k`
    /// reference to ~f64 precision in log-space.
    #[test]
    fn prop_scaled_mul_chain_matches_rat_reference(
        nums in collection::vec(1i128..=9, 1..24),
        dens in collection::vec(1i128..=9, 1..24),
        doublings in 0u32..3000,
    ) {
        let mut exact = Rat::ONE;
        let mut scaled = ScaledF64::ONE;
        for (&a, &b) in nums.iter().zip(dens.iter()) {
            exact = exact * Rat::new(a, b);
            scaled = scaled * ScaledF64::from_f64(a as f64) / ScaledF64::from_f64(b as f64);
        }
        let two = ScaledF64::from_f64(2.0);
        for _ in 0..doublings {
            scaled *= two;
        }
        let expect_log2 =
            (exact.num() as f64).log2() - (exact.den() as f64).log2() + f64::from(doublings);
        prop_assert!(
            (scaled.log2() - expect_log2).abs() <= 1e-6,
            "scaled log2 {} vs exact {} ({} factors, {} doublings)",
            scaled.log2(), expect_log2, nums.len().min(dens.len()), doublings
        );
    }

    /// Doubling is *exact*: k successive doublings equal one
    /// `powi(2, k)` multiplication bit-for-bit, and shift `log2` by
    /// exactly k (no rounding ever accumulates on the paper's weight
    /// doubling path).
    #[test]
    fn prop_scaled_doubling_is_exact(
        a in 1i128..=1000, b in 1i128..=1000, k in 0u32..5000,
    ) {
        let start = ScaledF64::from_f64(a as f64) / ScaledF64::from_f64(b as f64);
        let mut doubled = start;
        let two = ScaledF64::from_f64(2.0);
        for _ in 0..k {
            doubled *= two;
        }
        prop_assert_eq!(doubled, start * ScaledF64::powi(2.0, k));
        // (mantissa.log2() + exp) associates differently on the two sides,
        // so allow one ulp of slack on the log — the values themselves are
        // bit-identical above.
        prop_assert!((doubled.log2() - (start.log2() + f64::from(k))).abs() <= 1e-9);
    }

    /// Where the same chain overflows raw `f64` arithmetic to infinity,
    /// `ScaledF64` stays finite and still matches the exact reference.
    #[test]
    fn prop_scaled_survives_where_f64_overflows(
        nums in collection::vec(1i128..=9, 1..24),
        dens in collection::vec(1i128..=9, 1..24),
        doublings in 1101u32..4000,
    ) {
        let mut exact = Rat::ONE;
        let mut scaled = ScaledF64::ONE;
        let mut raw = 1f64;
        for (&a, &b) in nums.iter().zip(dens.iter()) {
            exact = exact * Rat::new(a, b);
            scaled = scaled * ScaledF64::from_f64(a as f64) / ScaledF64::from_f64(b as f64);
            raw *= a as f64 / b as f64;
        }
        let two = ScaledF64::from_f64(2.0);
        for _ in 0..doublings {
            scaled *= two;
            raw *= 2.0;
        }
        // ≥ 1101 doublings push even the smallest chain value (≥ 9^-23)
        // past f64::MAX: the raw path is ruined ...
        prop_assert!(raw.is_infinite());
        // ... while the scaled path still matches the exact reference.
        let expect_log2 =
            (exact.num() as f64).log2() - (exact.den() as f64).log2() + f64::from(doublings);
        prop_assert!(scaled.log2().is_finite());
        prop_assert!((scaled.log2() - expect_log2).abs() <= 1e-6);
        // And to_f64 saturates instead of poisoning downstream math.
        prop_assert_eq!(scaled.to_f64(), f64::MAX);
    }
}
