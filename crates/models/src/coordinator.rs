//! The coordinator model (Section 3.3).
//!
//! `k` sites each hold a partition of the constraints; a coordinator
//! exchanges messages with the sites in rounds. [`CoordMeter`] meters
//! every transfer: a *round* is one coordinator→sites + sites→coordinator
//! exchange (matching the model definition), and the meter records total
//! bits, the heaviest round, and the up/down split.
//!
//! The meter holds no data and sees no payloads: algorithms charge each
//! message's size in bits. The partitions stay with the algorithm
//! (`llp_bigdata::coordinator`), where each site is a row range of the
//! caller's input.

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

    /// Starts a new round.
    pub fn begin_round(&mut self) {
        self.rounds += 1;
        self.per_round_bits.push(0);
    }

    /// Charges a coordinator→site message of `bits` bits.
    ///
    /// # Panics
    /// Panics if called before any [`begin_round`](Self::begin_round).
    pub fn charge_down(&mut self, bits: u64) {
        self.bits_down += bits;
        self.charge_round(bits);
    }

    /// Charges a site→coordinator message of `bits` bits.
    ///
    /// # Panics
    /// Panics if called before any [`begin_round`](Self::begin_round).
    pub fn charge_up(&mut self, bits: u64) {
        self.bits_up += bits;
        self.charge_round(bits);
    }

    fn charge_round(&mut self, bits: u64) {
        *self
            .per_round_bits
            .last_mut()
            .expect("charge outside a round") += bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metering() {
        let mut meter = CoordMeter::default();
        meter.begin_round();
        meter.charge_down(64);
        meter.charge_up(128);
        meter.begin_round();
        meter.charge_up(32);
        assert_eq!(meter.rounds(), 2);
        assert_eq!(meter.bits_down(), 64);
        assert_eq!(meter.bits_up(), 160);
        assert_eq!(meter.total_bits(), 224);
        assert_eq!(meter.max_round_bits(), 192);
    }

    #[test]
    #[should_panic(expected = "charge outside a round")]
    fn charging_outside_round_panics() {
        CoordMeter::default().charge_up(32);
    }
}
