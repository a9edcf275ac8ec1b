//! Exact binomial and multinomial sampling.
//!
//! Lemma 3.7: the coordinator draws `m` i.i.d. site indices from the
//! site-weight distribution and sends each site only its *count* `y_i`.
//! Drawing the counts directly is a multinomial sample, realized by
//! sequential conditional binomials. The binomial sampler uses inverse
//! transform from the mode (exact to floating-point rounding) — `n·p` in
//! our use is at most the net size, so the scan around the mode is short
//! with overwhelming probability.

use rand::Rng;

/// `ln(k!)` via a lookup table for small `k` and the Stirling series
/// beyond. Accurate to ~1e-10 relative, ample for inverse-transform
/// sampling.
pub fn ln_factorial(k: u64) -> f64 {
    const TABLE_SIZE: usize = 256;
    // Lazily built static table of exact ln(k!) for k < 256.
    static TABLE: std::sync::OnceLock<[f64; TABLE_SIZE]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0f64; TABLE_SIZE];
        for i in 2..TABLE_SIZE {
            t[i] = t[i - 1] + (i as f64).ln();
        }
        t
    });
    if (k as usize) < TABLE_SIZE {
        return table[k as usize];
    }
    // Stirling: ln k! ≈ k ln k − k + 0.5 ln(2πk) + 1/(12k) − 1/(360k³).
    let kf = k as f64;
    kf * kf.ln() - kf + 0.5 * (2.0 * std::f64::consts::PI * kf).ln() + 1.0 / (12.0 * kf)
        - 1.0 / (360.0 * kf * kf * kf)
}

/// `ln C(n, k)` for `0 ≤ k ≤ n`.
fn ln_choose(n: u64, k: u64) -> f64 {
    debug_assert!(k <= n);
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Draws `X ~ Binomial(n, p)` by inverse transform from the mode.
///
/// # Panics
/// Panics unless `p ∈ [0, 1]`.
pub fn binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    if n <= 32 {
        // Direct Bernoulli summation is fastest and exact.
        let mut x = 0;
        for _ in 0..n {
            if rng.random_range(0.0..1.0) < p {
                x += 1;
            }
        }
        return x;
    }
    // pmf(k) = C(n,k) p^k (1-p)^(n-k), evaluated in log space. Scan
    // outward from the mode; the probability mass within O(√(np(1-p)))
    // of the mode is 1 − tiny, so the expected scan length is short.
    let mode = ((n as f64 + 1.0) * p).floor().min(n as f64) as u64;
    let lp = p.ln();
    let lq = (1.0 - p).ln();
    let pmf = |k: u64| -> f64 { (ln_choose(n, k) + k as f64 * lp + (n - k) as f64 * lq).exp() };
    let u = rng.random_range(0.0..1.0f64);
    let mut acc = pmf(mode);
    if u < acc {
        return mode;
    }
    let mut lo = mode;
    let mut hi = mode;
    loop {
        // Alternate extending below and above the mode.
        let mut advanced = false;
        if hi < n {
            hi += 1;
            acc += pmf(hi);
            if u < acc {
                return hi;
            }
            advanced = true;
        }
        if lo > 0 {
            lo -= 1;
            acc += pmf(lo);
            if u < acc {
                return lo;
            }
            advanced = true;
        }
        if !advanced {
            // Numeric residue: the whole support is covered; return mode.
            return mode;
        }
    }
}

/// Draws a multinomial sample: `m` balls into bins with the given
/// (unnormalized, non-negative) weights. Returns per-bin counts summing to
/// `m`. Zero-weight bins never receive a ball — the same contract as
/// `weighted::sample_iid` and the holders' class draws (this sampler realizes the
/// distribution by sequential conditional binomials, not an alias table,
/// but the zero-weight edge is the same: the residual-mass dump must not
/// land on a weightless tail).
///
/// # Panics
/// Panics if weights are empty, negative, non-finite, or all zero.
pub fn multinomial<R: Rng + ?Sized>(m: u64, weights: &[f64], rng: &mut R) -> Vec<u64> {
    conditional_binomials(m, weights, |n, p, r| binomial(n, p, r), rng)
}

/// The conditional-binomial chain behind [`multinomial`], with the
/// binomial sampler injectable so tests can drive the floating-point
/// stranding paths the real RNG cannot be forced to produce (mirrors the
/// `index_for_target` treatment in `weighted`).
///
/// Rounding-stranded balls — a conditional draw leaving `remaining > 0`
/// when the residual mass `rest` has already cancelled to ≤ 0, or
/// reaching the end of the chain — are credited to the **last
/// positive-weight bin**, which owns the tail of the distribution. Before
/// this audit the dump target was the literal last bin, so a zero-weight
/// tail (`[1.0, 0.0]`) could be selected through FP cancellation.
fn conditional_binomials<R: Rng + ?Sized>(
    m: u64,
    weights: &[f64],
    mut draw: impl FnMut(u64, f64, &mut R) -> u64,
    rng: &mut R,
) -> Vec<u64> {
    assert!(!weights.is_empty(), "multinomial over zero bins");
    let mut total: f64 = 0.0;
    for &w in weights {
        assert!(w.is_finite() && w >= 0.0, "bad weight {w}");
        total += w;
    }
    assert!(total > 0.0, "total weight must be positive");
    let last = weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("total weight is positive");
    let mut counts = vec![0u64; weights.len()];
    let mut remaining = m;
    let mut rest = total;
    for (i, &w) in weights.iter().enumerate().take(last + 1) {
        if remaining == 0 {
            break;
        }
        if i == last || rest <= 0.0 {
            counts[last] += remaining;
            break;
        }
        if w == 0.0 {
            // Zero-weight bins draw nothing and leave the residual mass
            // untouched (the old code called binomial(·, 0.0), which also
            // consumed no randomness — the RNG stream is unchanged).
            continue;
        }
        let p = (w / rest).clamp(0.0, 1.0);
        let x = draw(remaining, p, rng);
        counts[i] = x;
        remaining -= x;
        rest -= w;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(13)
    }

    #[test]
    fn ln_factorial_small_exact() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(20) - 2432902008176640000f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_factorial_stirling_continuous_at_table_edge() {
        // Table value at 255 and Stirling at 256 must agree via the
        // recurrence ln(256!) = ln(255!) + ln 256.
        let a = ln_factorial(255) + 256f64.ln();
        let b = ln_factorial(256);
        assert!((a - b).abs() < 1e-8, "{a} vs {b}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng();
        assert_eq!(binomial(0, 0.5, &mut r), 0);
        assert_eq!(binomial(10, 0.0, &mut r), 0);
        assert_eq!(binomial(10, 1.0, &mut r), 10);
    }

    #[test]
    fn binomial_mean_and_variance() {
        let mut r = rng();
        let (n, p) = (1000u64, 0.3);
        let trials = 3000;
        let samples: Vec<f64> = (0..trials).map(|_| binomial(n, p, &mut r) as f64).collect();
        let mean = samples.iter().sum::<f64>() / trials as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trials as f64;
        let (em, ev) = (n as f64 * p, n as f64 * p * (1.0 - p));
        assert!((mean - em).abs() < 0.02 * em, "mean {mean} vs {em}");
        assert!((var - ev).abs() < 0.15 * ev, "var {var} vs {ev}");
    }

    #[test]
    fn binomial_small_n_exact_path() {
        let mut r = rng();
        let trials = 20_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            sum += binomial(10, 0.5, &mut r);
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn multinomial_counts_sum_to_m() {
        let mut r = rng();
        for _ in 0..100 {
            let counts = multinomial(1000, &[1.0, 2.0, 3.0, 0.0, 4.0], &mut r);
            assert_eq!(counts.iter().sum::<u64>(), 1000);
            assert_eq!(counts[3], 0, "zero-weight bin got balls");
        }
    }

    #[test]
    fn multinomial_proportions() {
        let mut r = rng();
        let mut totals = [0u64; 3];
        for _ in 0..200 {
            let counts = multinomial(1000, &[1.0, 1.0, 2.0], &mut r);
            for i in 0..3 {
                totals[i] += counts[i];
            }
        }
        let grand: u64 = totals.iter().sum();
        let frac2 = totals[2] as f64 / grand as f64;
        assert!((frac2 - 0.5).abs() < 0.02, "heavy bin fraction {frac2}");
    }

    #[test]
    fn multinomial_single_bin() {
        let mut r = rng();
        assert_eq!(multinomial(42, &[3.0], &mut r), vec![42]);
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn multinomial_rejects_all_zero() {
        let _ = multinomial(5, &[0.0, 0.0], &mut rng());
    }

    #[test]
    fn multinomial_zero_tail_never_gets_balls() {
        // Regression mirroring `weighted::sample_iid`'s `[1.0, 0.0]`-tail
        // fix: the residual-dump bin is the last *positive* weight, never
        // a weightless tail.
        let mut r = rng();
        for _ in 0..200 {
            let counts = multinomial(500, &[1.0, 0.0], &mut r);
            assert_eq!(counts, vec![500, 0]);
            let counts = multinomial(500, &[2.0, 3.0, 0.0, 0.0], &mut r);
            assert_eq!(counts.iter().sum::<u64>(), 500);
            assert_eq!(&counts[2..], &[0, 0], "zero tail selected: {counts:?}");
        }
    }

    #[test]
    fn stranded_draws_land_on_the_last_positive_bin() {
        // Drive the conditional-binomial chain with an adversarial
        // sampler the RNG cannot be forced to produce (the
        // `index_for_target` treatment from `weighted`): every draw
        // under-draws to 0, stranding all m balls at the end of the
        // chain. Before the audit the dump target was the literal last
        // bin — the zero-weight tail — and on the `[w, 0.0]` shape the
        // balls were silently lost instead (the chain broke on
        // `rest <= 0` with `remaining > 0`).
        let mut r = rng();
        let starve = |_n: u64, _p: f64, _r: &mut StdRng| 0u64;
        let counts = conditional_binomials(10, &[1.0, 1.0, 0.0], starve, &mut r);
        assert_eq!(counts, vec![0, 10, 0], "dump must hit last positive bin");
        let counts = conditional_binomials(10, &[1.0, 0.0], starve, &mut r);
        assert_eq!(
            counts,
            vec![10, 0],
            "no ball may be lost or land on 0-weight"
        );
        let counts = conditional_binomials(7, &[0.0, 2.0, 0.0, 0.0], starve, &mut r);
        assert_eq!(counts, vec![0, 7, 0, 0]);

        // A partially under-drawing sampler: the last positive bin
        // absorbs exactly the stranded remainder.
        let half = |n: u64, _p: f64, _r: &mut StdRng| n / 2;
        let counts = conditional_binomials(8, &[1.0, 1.0, 1.0, 0.0], half, &mut r);
        assert_eq!(counts.iter().sum::<u64>(), 8);
        assert_eq!(counts[3], 0);
        assert_eq!(counts, vec![4, 2, 2, 0]);
    }

    #[test]
    fn multinomial_zero_bins_do_not_consume_randomness() {
        // Skipping zero-weight bins must leave the RNG stream unchanged
        // (the old code drew binomial(·, 0) there, which also consumed
        // nothing) — interleaved zeros therefore cannot perturb the
        // counts of the positive bins.
        let dense = multinomial(1000, &[1.0, 2.0, 3.0], &mut rng());
        let sparse = multinomial(1000, &[0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0], &mut rng());
        assert_eq!(dense, vec![sparse[1], sparse[3], sparse[5]]);
        assert_eq!(sparse[0] + sparse[2] + sparse[4] + sparse[6], 0);
    }
}
