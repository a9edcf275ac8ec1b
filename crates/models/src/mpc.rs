//! The massively parallel computation model (Section 3.4).
//!
//! `k` machines hold partitions; computation proceeds in BSP rounds; the
//! figure of merit is the *load* — the maximum bits any machine sends or
//! receives in a round. [`MpcMeter`] meters exactly that and holds no
//! data. The protocol drives the meter itself: the partitions (row ranges
//! of the caller's input) and Theorem 3's `n^δ`-ary broadcast and
//! converge-cast trees (Goodrich–Sitchinava–Zhang \[23\]) live with the
//! algorithm in `llp_bigdata::mpc`. Messages are charged by their size
//! in bits.

/// Load statistics of an MPC run over `k` machines.
#[derive(Clone, Debug)]
pub struct MpcMeter {
    machines: usize,
    rounds: u64,
    /// Max over machines of bits sent+received, per round.
    per_round_max_load: Vec<u64>,
    /// Current round's per-machine load.
    current: Vec<u64>,
}

impl MpcMeter {
    /// A meter for `k` machines, before its first round.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one machine");
        MpcMeter {
            machines: k,
            rounds: 0,
            per_round_max_load: Vec::new(),
            current: Vec::new(),
        }
    }

    /// Completed round count (including the one in progress).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The model's cost: the maximum per-machine load over all rounds.
    pub fn max_load_bits(&self) -> u64 {
        self.per_round_max_load
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.current.iter().copied().max().unwrap_or(0))
    }

    /// Sum over rounds of the per-round maximum load: the aggregate
    /// critical-path traffic of the run, surfaced as
    /// `MpcStats::total_load_bits` next to
    /// [`max_load_bits`](Self::max_load_bits).
    pub fn total_load_bits(&self) -> u64 {
        self.per_round_max_load.iter().sum::<u64>()
            + self.current.iter().copied().max().unwrap_or(0)
    }

    /// Starts a BSP round.
    pub fn begin_round(&mut self) {
        self.end_round();
        self.rounds += 1;
        self.current.resize(self.machines, 0);
    }

    /// Finalizes the current round (optional; `begin_round` also rolls
    /// over).
    pub fn end_round(&mut self) {
        if !self.current.is_empty() {
            let max = self.current.iter().copied().max().unwrap_or(0);
            self.per_round_max_load.push(max);
            self.current.clear();
        }
    }

    /// Charges a point-to-point message of `bits` bits from machine
    /// `from` to machine `to` in the current round.
    ///
    /// # Panics
    /// Panics if called outside a round or with out-of-range ids.
    pub fn charge(&mut self, from: usize, to: usize, bits: u64) {
        assert!(!self.current.is_empty(), "charge outside a round");
        self.current[from] += bits;
        self.current[to] += bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_totals_add_per_round_maxima() {
        let mut meter = MpcMeter::new(2);
        meter.begin_round();
        meter.charge(0, 1, 64); // on both
        meter.end_round();
        meter.begin_round();
        meter.charge(1, 0, 32);
        meter.end_round();
        assert_eq!(meter.rounds(), 2);
        assert_eq!(meter.max_load_bits(), 64);
        assert_eq!(meter.total_load_bits(), 96);
    }

    #[test]
    fn load_is_max_over_machines() {
        let mut meter = MpcMeter::new(4);
        meter.begin_round();
        meter.charge(0, 1, 640); // on 0 and 1
        meter.charge(2, 1, 64); // 64 more on 1
        meter.end_round();
        assert_eq!(meter.max_load_bits(), 704);
        assert_eq!(meter.total_load_bits(), 704);
    }
}
