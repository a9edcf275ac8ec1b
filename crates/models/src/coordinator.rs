//! The coordinator model (Section 3.3).
//!
//! `k` sites each hold a partition of the constraints; a coordinator
//! exchanges messages with the sites in rounds. [`CoordSim`] owns the
//! partitions and meters every transfer: a *round* is one
//! coordinator→sites + sites→coordinator exchange (matching the model
//! definition), and the meter records total bits, the heaviest round, and
//! the up/down split.
//!
//! The simulator does not interpret payloads — algorithms move real Rust
//! values and charge their [`BitCost`]. Sites may only be touched through
//! [`CoordSim::site`], which keeps the partition boundaries honest.

use crate::cost::BitCost;

/// Communication statistics of a coordinator-model run.
#[derive(Clone, Debug, Default)]
pub struct CoordMeter {
    rounds: u64,
    bits_down: u64,
    bits_up: u64,
    per_round_bits: Vec<u64>,
}

impl CoordMeter {
    /// Completed (or in-progress) round count.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total bits sent in either direction.
    pub fn total_bits(&self) -> u64 {
        self.bits_down + self.bits_up
    }

    /// Bits from coordinator to sites.
    pub fn bits_down(&self) -> u64 {
        self.bits_down
    }

    /// Bits from sites to coordinator.
    pub fn bits_up(&self) -> u64 {
        self.bits_up
    }

    /// The heaviest single round, in bits — the round-granular congestion
    /// figure skewed-partition experiments read out (total bits hide a
    /// single overloaded exchange).
    pub fn max_round_bits(&self) -> u64 {
        self.per_round_bits.iter().copied().max().unwrap_or(0)
    }
}

/// The coordinator-model simulator.
#[derive(Debug)]
pub struct CoordSim<C> {
    sites: Vec<Vec<C>>,
    /// Communication meter.
    pub meter: CoordMeter,
}

impl<C> CoordSim<C> {
    /// Partitions `data` across `k` sites round-robin (the model allows
    /// arbitrary partitions; use [`CoordSim::from_partitions`] for a
    /// custom one).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn round_robin(data: Vec<C>, k: usize) -> Self {
        assert!(k >= 1, "need at least one site");
        let mut sites: Vec<Vec<C>> = (0..k).map(|_| Vec::new()).collect();
        for (i, c) in data.into_iter().enumerate() {
            sites[i % k].push(c);
        }
        CoordSim {
            sites,
            meter: CoordMeter::default(),
        }
    }

    /// Uses an explicit partition.
    pub fn from_partitions(sites: Vec<Vec<C>>) -> Self {
        assert!(!sites.is_empty(), "need at least one site");
        CoordSim {
            sites,
            meter: CoordMeter::default(),
        }
    }

    /// Number of sites `k`.
    pub fn k(&self) -> usize {
        self.sites.len()
    }

    /// Read-only view of a site's local data (local computation is free in
    /// the model).
    pub fn site(&self, i: usize) -> &[C] {
        &self.sites[i]
    }

    /// Total constraints across sites.
    pub fn total_len(&self) -> usize {
        self.sites.iter().map(Vec::len).sum()
    }

    /// Starts a new round.
    pub fn begin_round(&mut self) {
        self.meter.rounds += 1;
        self.meter.per_round_bits.push(0);
    }

    /// Charges a coordinator→site message.
    ///
    /// # Panics
    /// Panics if called before any [`begin_round`](Self::begin_round).
    pub fn charge_down<T: BitCost + ?Sized>(&mut self, payload: &T) {
        let b = payload.bits();
        self.meter.bits_down += b;
        *self
            .meter
            .per_round_bits
            .last_mut()
            .expect("charge outside a round") += b;
    }

    /// Charges a site→coordinator message.
    pub fn charge_up<T: BitCost + ?Sized>(&mut self, payload: &T) {
        let b = payload.bits();
        self.meter.bits_up += b;
        *self
            .meter
            .per_round_bits
            .last_mut()
            .expect("charge outside a round") += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_partition() {
        let sim = CoordSim::round_robin((0..10).collect(), 3);
        assert_eq!(sim.k(), 3);
        assert_eq!(sim.site(0), &[0, 3, 6, 9]);
        assert_eq!(sim.site(1), &[1, 4, 7]);
        assert_eq!(sim.site(2), &[2, 5, 8]);
        assert_eq!(sim.total_len(), 10);
    }

    #[test]
    fn metering() {
        let mut sim = CoordSim::round_robin(vec![0u32; 4], 2);
        sim.begin_round();
        sim.charge_down(&7u64); // 64 bits
        sim.charge_up(&vec![1.0f64, 2.0]); // 128 bits
        sim.begin_round();
        sim.charge_up(&1u32); // 32 bits
        assert_eq!(sim.meter.rounds(), 2);
        assert_eq!(sim.meter.bits_down(), 64);
        assert_eq!(sim.meter.bits_up(), 160);
        assert_eq!(sim.meter.total_bits(), 224);
        assert_eq!(sim.meter.max_round_bits(), 192);
    }

    #[test]
    #[should_panic(expected = "charge outside a round")]
    fn charging_outside_round_panics() {
        let mut sim = CoordSim::round_robin(vec![0u32], 1);
        sim.charge_up(&1u32);
    }
}
