//! The massively parallel computation model (Section 3.4).
//!
//! `k` machines hold partitions; computation proceeds in BSP rounds; the
//! figure of merit is the *load* — the maximum bits any machine sends or
//! receives in a round. [`MpcSim`] meters exactly that. The protocol
//! drives the meter itself: Theorem 3's `n^δ`-ary broadcast and
//! converge-cast trees (Goodrich–Sitchinava–Zhang \[23\]) live with the
//! algorithm in `llp_bigdata::mpc`.

use crate::cost::BitCost;

/// Load statistics of an MPC run.
#[derive(Clone, Debug, Default)]
pub struct MpcMeter {
    rounds: u64,
    /// Max over machines of bits sent+received, per round.
    per_round_max_load: Vec<u64>,
    /// Current round's per-machine load.
    current: Vec<u64>,
}

impl MpcMeter {
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
}

/// The MPC simulator.
#[derive(Debug)]
pub struct MpcSim<C> {
    machines: Vec<Vec<C>>,
    /// Load meter.
    pub meter: MpcMeter,
}

impl<C> MpcSim<C> {
    /// Uses an explicit partition (the model allows arbitrary ones; skewed
    /// layouts come through here).
    ///
    /// # Panics
    /// Panics if `machines` is empty.
    pub fn from_partitions(machines: Vec<Vec<C>>) -> Self {
        assert!(!machines.is_empty(), "need at least one machine");
        MpcSim {
            machines,
            meter: MpcMeter::default(),
        }
    }

    /// Read-only view of machine `i`'s local data.
    pub fn machine(&self, i: usize) -> &[C] {
        &self.machines[i]
    }

    /// Starts a BSP round.
    pub fn begin_round(&mut self) {
        if !self.meter.current.is_empty() {
            let max = self.meter.current.iter().copied().max().unwrap_or(0);
            self.meter.per_round_max_load.push(max);
        }
        self.meter.rounds += 1;
        self.meter.current = vec![0; self.machines.len()];
    }

    /// Finalizes the last round (optional; `begin_round` also rolls over).
    pub fn end_round(&mut self) {
        if !self.meter.current.is_empty() {
            let max = self.meter.current.iter().copied().max().unwrap_or(0);
            self.meter.per_round_max_load.push(max);
            self.meter.current = vec![0; self.machines.len()];
        }
    }

    /// Charges a point-to-point message of `payload` from machine `from`
    /// to machine `to` in the current round.
    ///
    /// # Panics
    /// Panics if called before `begin_round` or with out-of-range ids.
    pub fn charge<T: BitCost + ?Sized>(&mut self, from: usize, to: usize, payload: &T) {
        assert!(!self.meter.current.is_empty(), "charge outside a round");
        let b = payload.bits();
        self.meter.current[from] += b;
        self.meter.current[to] += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_partition_and_load_totals() {
        let mut sim = MpcSim::from_partitions(vec![vec![0u32; 5], vec![0u32; 1]]);
        assert_eq!(sim.machine(0).len(), 5);
        assert_eq!(sim.machine(1).len(), 1);
        sim.begin_round();
        sim.charge(0, 1, &1u64); // 64 bits on both
        sim.end_round();
        sim.begin_round();
        sim.charge(1, 0, &1u32); // 32 bits
        sim.end_round();
        assert_eq!(sim.meter.rounds(), 2);
        assert_eq!(sim.meter.max_load_bits(), 64);
        assert_eq!(sim.meter.total_load_bits(), 96);
    }

    #[test]
    fn load_is_max_over_machines() {
        let mut sim = MpcSim::from_partitions(vec![vec![0u32; 2]; 4]);
        sim.begin_round();
        sim.charge(0, 1, &vec![0.0f64; 10]); // 640 bits on 0 and 1
        sim.charge(2, 1, &1u64); // 64 more on 1
        sim.end_round();
        assert_eq!(sim.meter.max_load_bits(), 704);
        assert_eq!(sim.meter.total_load_bits(), 704);
    }
}
