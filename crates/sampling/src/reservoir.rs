//! One-pass weighted reservoir sampling (A-ExpJ / exponential keys).
//!
//! The paper's streaming implementation (Section 3.2) cites Chao's
//! unequal-probability reservoir plan \[14\]: sample proportionally to
//! weight in a single pass without knowing the total weight up front. We
//! implement the Efraimidis–Spirakis scheme: each element receives the key
//! `log(u) / w` (`u` uniform), and the `m` *largest* keys win. This yields
//! a weighted sample **without replacement** — for ε-net purposes this is
//! at least as good as i.i.d. sampling (coverage can only improve), and it
//! is what powers the speculative one-pass streaming mode (ablation A2 in
//! DESIGN.md).

use llp_num::ScaledF64;
use rand::Rng;
use std::collections::BinaryHeap;

/// Heap entry ordered so the heap root is the *smallest* key (we keep the
/// m largest keys, evicting through the root).
#[derive(Debug)]
struct Entry<T> {
    key: f64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min at the root.
        other
            .key
            .partial_cmp(&self.key)
            .expect("keys are finite or -inf")
    }
}

/// A weighted reservoir holding the `m` items with the largest exponential
/// keys seen so far.
#[derive(Debug)]
pub struct WeightedReservoir<T> {
    capacity: usize,
    heap: BinaryHeap<Entry<T>>,
}

impl<T> WeightedReservoir<T> {
    /// An empty reservoir of the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        WeightedReservoir {
            capacity,
            heap: BinaryHeap::with_capacity(capacity + 1),
        }
    }

    /// Offers one element with the given weight. Zero-weight elements are
    /// never retained. `item` builds the element and runs only if the
    /// reservoir keeps it, so a stream of encoded rows decodes just the
    /// survivors; the key draw is the same either way.
    pub fn offer<R: Rng + ?Sized>(
        &mut self,
        item: impl FnOnce() -> T,
        weight: ScaledF64,
        rng: &mut R,
    ) {
        if weight.is_zero() {
            return;
        }
        // key = ln(u)/w; larger is better. Work with ln(u) / w in a scaled
        // form: ln(u) is in (-inf, 0); dividing by a huge weight pushes the
        // key toward 0 (best). Represent as -(-ln u)/w via log-space:
        // key = -exp(ln(-ln u) - ln w). Comparing keys is comparing
        // ln(-ln u) - ln w (smaller is better for the positive magnitude),
        // so we store k = ln w - ln(-ln u): larger k = better.
        let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        let k = weight.ln() - (-u.ln()).ln();
        if self.heap.len() < self.capacity {
            self.heap.push(Entry {
                key: k,
                item: item(),
            });
        } else if let Some(root) = self.heap.peek() {
            if k > root.key {
                self.heap.pop();
                self.heap.push(Entry {
                    key: k,
                    item: item(),
                });
            }
        }
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the reservoir, returning the retained items (unordered).
    pub fn into_items(self) -> Vec<T> {
        self.heap.into_iter().map(|e| e.item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn keeps_at_most_capacity() {
        let mut r = rng();
        let mut res = WeightedReservoir::new(5);
        for i in 0..100 {
            res.offer(|| i, ScaledF64::ONE, &mut r);
        }
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn fewer_items_than_capacity_all_kept() {
        let mut r = rng();
        let mut res = WeightedReservoir::new(10);
        for i in 0..3 {
            res.offer(|| i, ScaledF64::ONE, &mut r);
        }
        let mut items = res.into_items();
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2]);
    }

    #[test]
    fn items_are_built_only_when_kept() {
        // 1000 uniform offers into 5 slots: every build lands in the
        // heap, and far fewer rows survive a key comparison than arrive.
        let mut r = rng();
        let mut res = WeightedReservoir::new(5);
        let mut built = 0usize;
        for i in 0..1000 {
            res.offer(
                || {
                    built += 1;
                    i
                },
                ScaledF64::ONE,
                &mut r,
            );
        }
        res.offer(|| panic!("zero weight built"), ScaledF64::ZERO, &mut r);
        assert_eq!(res.len(), 5);
        assert!((5..100).contains(&built), "built {built} of 1000");
    }

    #[test]
    fn zero_weight_never_sampled() {
        let mut r = rng();
        let mut res = WeightedReservoir::new(3);
        for i in 0..50 {
            let w = if i % 2 == 0 {
                ScaledF64::ONE
            } else {
                ScaledF64::ZERO
            };
            res.offer(|| i, w, &mut r);
        }
        for item in res.into_items() {
            assert_eq!(item % 2, 0, "zero-weight item {item} sampled");
        }
    }

    #[test]
    fn heavy_item_nearly_always_included() {
        // One item carries ~99% of the mass; over many trials it must be
        // in a capacity-1 reservoir about 99% of the time.
        let mut r = rng();
        let mut hits = 0;
        let trials = 2000;
        for _ in 0..trials {
            let mut res = WeightedReservoir::new(1);
            for i in 0..20 {
                let w = if i == 7 {
                    ScaledF64::from_f64(1900.0)
                } else {
                    ScaledF64::ONE
                };
                res.offer(|| i, w, &mut r);
            }
            if res.into_items()[0] == 7 {
                hits += 1;
            }
        }
        let frac = f64::from(hits) / f64::from(trials);
        assert!(frac > 0.96, "heavy item frequency {frac}");
    }

    #[test]
    fn uniform_weights_give_uniform_inclusion() {
        // Capacity 10 of 100 uniform items: inclusion probability 0.1 each.
        let mut r = rng();
        let mut counts = vec![0u32; 100];
        let trials = 3000;
        for _ in 0..trials {
            let mut res = WeightedReservoir::new(10);
            for i in 0..100 {
                res.offer(|| i, ScaledF64::ONE, &mut r);
            }
            for item in res.into_items() {
                counts[item] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = f64::from(c) / f64::from(trials);
            assert!((frac - 0.1).abs() < 0.04, "item {i} inclusion {frac}");
        }
    }

    #[test]
    fn huge_scaled_weights_dominate() {
        // Weight 2^1000 vs weight 1: the huge item must always be kept.
        let mut r = rng();
        for _ in 0..100 {
            let mut res = WeightedReservoir::new(1);
            res.offer(|| "small", ScaledF64::ONE, &mut r);
            res.offer(|| "huge", ScaledF64::powi(2.0, 1000), &mut r);
            assert_eq!(res.into_items(), vec!["huge"]);
        }
    }
}
