//! Skewed site/machine partitions for the coordinator and MPC models.
//!
//! The theorems hold for *arbitrary* partitions, but the experiment
//! harness historically only exercised balanced round-robin splits. A
//! geometric skew (site `i` holds ~`skew×` the data of site `i−1`) makes
//! per-site weight totals, multinomial sample splits, and per-round loads
//! wildly asymmetric — the regime where balanced-partition assumptions
//! break.

/// Geometrically skewed partition sizes: `k` sites whose sizes follow
/// `skew^i` (site `k−1` is the heaviest), each at least 1 (when `n ≥ k`),
/// summing to exactly `n`.
///
/// # Panics
/// Panics if `k == 0`, `n < k`, or `skew < 1`.
pub fn skewed_sizes(n: usize, k: usize, skew: f64) -> Vec<usize> {
    assert!(k >= 1 && n >= k, "need at least one element per site");
    assert!(skew >= 1.0, "skew below 1 just relabels sites");
    // Weights relative to the *heaviest* site: `skew^(i−(k−1)) ∈ (0, 1]`.
    // Anchoring at the top keeps every term finite for any k — the naive
    // `skew^i` overflows f64 around k ≈ 1750/log2(skew) and would turn
    // the whole distribution into NaN → all-ones-plus-remainder.
    let raw: Vec<f64> = (0..k)
        .map(|i| skew.powi(i as i32 - (k as i32 - 1)))
        .collect();
    let total: f64 = raw.iter().sum();
    let mut sizes: Vec<usize> = raw
        .iter()
        .map(|w| ((n as f64) * w / total).floor().max(1.0) as usize)
        .collect();
    // Fix rounding drift on the heaviest site, keeping every site ≥ 1.
    let mut assigned: usize = sizes.iter().sum();
    while assigned > n {
        let i = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| **s)
            .map(|(i, _)| i)
            .expect("k >= 1");
        assert!(sizes[i] > 1, "cannot shrink below one element per site");
        sizes[i] -= 1;
        assigned -= 1;
    }
    if assigned < n {
        sizes[k - 1] += n - assigned;
    }
    sizes
}

/// The partition layout the scenario grid **and** the solve service
/// prescribe for `k` parts over `n` elements: geometrically skewed when
/// `skew` is set, near-balanced contiguous otherwise. The single source
/// of truth for coordinator sites: `llp_service::exec` sizes every
/// coordinator layout with it (MPC uses [`skewed_sizes`] or
/// `llp_bigdata::mpc::machine_sizes`), so a served scenario, its
/// report-grid cell, and its file-backed cell share one layout.
pub fn prescribed_sizes(n: usize, k: usize, skew: Option<f64>) -> Vec<usize> {
    match skew {
        Some(s) => skewed_sizes(n, k, s),
        None => {
            let base = n / k;
            let extra = n % k;
            (0..k).map(|i| base + usize::from(i < extra)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_sum_and_skew() {
        for (n, k, skew) in [(1000usize, 8usize, 2.0f64), (50, 8, 4.0), (8, 8, 8.0)] {
            let sizes = skewed_sizes(n, k, skew);
            assert_eq!(sizes.len(), k);
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(sizes.iter().all(|&s| s >= 1), "{sizes:?}");
            assert!(sizes[k - 1] >= sizes[0], "{sizes:?}");
        }
        // Strong skew actually concentrates mass.
        let sizes = skewed_sizes(10_000, 8, 4.0);
        assert!(sizes[7] > 10_000 / 2, "{sizes:?}");
    }

    #[test]
    fn many_sites_stay_geometric_no_overflow() {
        // k large enough that skew^(k-1) overflows f64 (4^577 ≫ f64::MAX):
        // the registry's full-budget MPC leg. The tail must still follow
        // the skew ratio instead of collapsing to [1, …, 1, n−k+1].
        let (n, k, skew) = (40_000usize, 578usize, 4.0f64);
        let sizes = skewed_sizes(n, k, skew);
        assert_eq!(sizes.iter().sum::<usize>(), n);
        assert!(sizes.iter().all(|&s| s >= 1));
        // Heaviest site holds ~ (1 − 1/skew)·n, not n − (k−1).
        let top = sizes[k - 1] as f64;
        assert!(
            (top - 0.75 * n as f64).abs() < 0.02 * n as f64,
            "top {top} vs expected ~{}",
            0.75 * n as f64
        );
        let ratio = sizes[k - 1] as f64 / sizes[k - 2] as f64;
        assert!((ratio - skew).abs() < 0.5, "tail ratio {ratio}");
    }

    #[test]
    fn prescribed_sizes_balance_or_skew() {
        assert_eq!(prescribed_sizes(10, 4, None), vec![3, 3, 2, 2]);
        let skewed = prescribed_sizes(1000, 4, Some(4.0));
        assert_eq!(skewed.iter().sum::<usize>(), 1000);
        assert!(skewed[3] > skewed[0], "skew missing: {skewed:?}");
    }
}
