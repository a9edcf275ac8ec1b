//! Communication protocols for TCI.
//!
//! The lower bound `CC_r(TCI_n) = Ω(n^{1/r}/r²)` (Theorem 7) is
//! information-theoretic; the matching *upper bound* is the natural
//! `t`-ary search over the increasing difference `a_i − b_i`: each round
//! Alice sends her values at `t = ⌈n^{1/r}⌉` grid points of the current
//! interval, Bob locates the sign flip among them and replies with the
//! narrowed interval. After `r` rounds the interval is a single index.
//! Communication: `O(r · n^{1/r} · log n)` bits — `n^{1/r}` on both sides
//! of the paper's gap (experiments F2/T12).

use crate::tci::TciInstance;
use llp_num::Rat;

/// Transcript statistics of a TCI protocol run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Messages exchanged (one per direction per round).
    pub messages: u64,
    /// Rounds used (Alice→Bob→Alice = 2 messages = 2 rounds in the
    /// two-party counting of Section 5.1).
    pub rounds: u64,
    /// Total bits communicated; rational values are charged at 128 bits
    /// (the construction keeps numerators/denominators in `O(log n)` bits,
    /// see Section 5.3.5).
    pub bits: u64,
}

const VALUE_BITS: u64 = 128;
const INDEX_BITS: u64 = 64;

/// The trivial 1-round protocol: Alice ships her whole curve. This is the
/// `O(n·log n)`-bit ceiling that Lemma 5.6 proves essentially optimal for
/// one round.
pub fn one_round(inst: &TciInstance) -> (usize, ProtocolStats) {
    let stats = ProtocolStats {
        messages: 1,
        rounds: 1,
        bits: inst.a.len() as u64 * VALUE_BITS,
    };
    (inst.answer_scan(), stats)
}

/// The `r`-round `t`-ary search protocol with `t = ⌈n^{1/r}⌉`.
///
/// Invariant: the crossing lies in `[lo, hi]` (1-based, inclusive), with
/// `a_lo ≤ b_lo`. Each round Alice sends `a` at `t+1` grid points; Bob
/// narrows to one cell and replies with the new `[lo, hi]`.
///
/// # Panics
/// Panics if `r == 0`.
pub fn r_round(inst: &TciInstance, r: u32) -> (usize, ProtocolStats) {
    assert!(r >= 1, "need at least one round");
    let n = inst.len();
    let t = ((n as f64).powf(1.0 / f64::from(r)).ceil() as usize).max(2);
    let mut stats = ProtocolStats::default();
    let mut lo = 1usize;
    let mut hi = n;

    while hi > lo {
        // Alice → Bob: her values at ≤ t+1 grid indices of [lo, hi].
        let span = hi - lo;
        let cells = span.min(t);
        let grid: Vec<usize> = (0..=cells).map(|j| lo + j * span / cells).collect();
        stats.messages += 1;
        stats.rounds += 1;
        stats.bits += grid.len() as u64 * (VALUE_BITS + INDEX_BITS);

        // Bob: last grid index with a ≤ b; the crossing lies in
        // [that index, next grid index − 1] (or is exactly the last grid
        // point).
        let mut last_le = 0usize; // position within grid
        for (gi, &idx) in grid.iter().enumerate() {
            if inst.a[idx - 1] <= inst.b[idx - 1] {
                last_le = gi;
            }
        }
        let new_lo = grid[last_le];
        let new_hi = if last_le + 1 < grid.len() {
            grid[last_le + 1] - 1
        } else {
            grid[last_le]
        };

        // Bob → Alice: the narrowed interval.
        stats.messages += 1;
        stats.rounds += 1;
        stats.bits += 2 * INDEX_BITS;

        lo = new_lo;
        hi = new_hi;
    }
    (lo, stats)
}

/// A direct check that the protocol's grid logic matches the promise:
/// `a − b` increasing means the crossing is in the located cell.
pub fn difference_is_increasing(inst: &TciInstance) -> bool {
    let mut prev: Option<Rat> = None;
    for i in 0..inst.len() {
        let d = inst.a[i] - inst.b[i];
        if let Some(p) = prev {
            if d <= p {
                return false;
            }
        }
        prev = Some(d);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augindex;
    use crate::hard::{sample, HardParams};
    use llp_num::Rat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ri(v: i128) -> Rat {
        Rat::from_int(v)
    }

    fn small_instance() -> TciInstance {
        let a = vec![ri(0), ri(1), ri(3), ri(6), ri(10), ri(15), ri(21)];
        let b = vec![ri(20), ri(18), ri(15), ri(11), ri(6), ri(0), ri(-7)];
        TciInstance::new(a, b)
    }

    #[test]
    fn one_round_correct() {
        let inst = small_instance();
        let (ans, stats) = one_round(&inst);
        assert_eq!(ans, 4);
        assert_eq!(stats.bits, 7 * 128);
    }

    #[test]
    fn r_round_correct_for_all_r() {
        let inst = small_instance();
        for r in 1..=5 {
            let (ans, stats) = r_round(&inst, r);
            assert_eq!(ans, 4, "r={r}");
            assert!(stats.bits > 0);
        }
    }

    #[test]
    fn r_round_matches_scan_on_hard_instances() {
        for (n_base, rounds) in [(16usize, 1u32), (8, 2), (6, 3)] {
            let params = HardParams { n_base, rounds };
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..10 {
                let h = sample(&params, &mut rng);
                assert!(difference_is_increasing(&h.inst));
                for r in 1..=4 {
                    let (ans, _) = r_round(&h.inst, r);
                    assert_eq!(ans, h.expected_answer, "N={n_base} r_inst={rounds} r={r}");
                }
            }
        }
    }

    #[test]
    fn more_rounds_means_fewer_bits() {
        // On a large Aug-Index instance, communication shrinks with r.
        let x: Vec<u8> = (0..4095).map(|i| ((i * 7 + 3) % 2) as u8).collect();
        let inst = augindex::build_instance(&x, 2000, augindex::default_steep(4096));
        let (_, s1) = r_round(&inst, 1);
        let (_, s2) = r_round(&inst, 2);
        let (_, s4) = r_round(&inst, 4);
        assert!(s2.bits < s1.bits, "r=2 {} < r=1 {}", s2.bits, s1.bits);
        assert!(s4.bits < s2.bits, "r=4 {} < r=2 {}", s4.bits, s2.bits);
    }

    #[test]
    fn bits_scale_as_n_to_one_over_r() {
        // For fixed r = 2: bits(n) / sqrt(n) roughly constant.
        let mut ratios = Vec::new();
        for exp in [10u32, 12, 14] {
            let n = 1usize << exp;
            let x: Vec<u8> = (0..n - 1).map(|i| ((i * 13 + 1) % 2) as u8).collect();
            let inst = augindex::build_instance(&x, n / 2, augindex::default_steep(n));
            let (_, s) = r_round(&inst, 2);
            ratios.push(s.bits as f64 / (n as f64).sqrt());
        }
        let (min, max) = ratios
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!(max / min < 4.0, "scaling not ~sqrt(n): {ratios:?}");
    }

    #[test]
    fn rounds_bounded_by_2r() {
        let x: Vec<u8> = (0..1023).map(|_| 1u8).collect();
        let inst = augindex::build_instance(&x, 512, augindex::default_steep(1024));
        for r in 1..=5 {
            let (_, stats) = r_round(&inst, r);
            assert!(
                stats.rounds <= 2 * u64::from(r) + 2,
                "r={r}: used {} rounds",
                stats.rounds
            );
        }
    }
}
