//! The multi-pass streaming model (Section 3.2).
//!
//! A [`StreamSession`] owns the input sequence and hands out linear scans;
//! every scan increments the pass counter. Algorithms account the working
//! set they retain between passes in the [`SpaceMeter`] — the streaming
//! solver registers its ε-net buffer, stored bases, and sampler targets,
//! so the reported peak is the honest `O(λ·n^{1/r}·ν + ν²)·bit(S)` of
//! Theorem 1.

/// Tracks current and peak retained memory, in bits and items.
#[derive(Clone, Debug, Default)]
pub struct SpaceMeter {
    current_bits: u64,
    peak_bits: u64,
    current_items: u64,
    peak_items: u64,
}

impl SpaceMeter {
    /// A zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `items` stored items of `bits` total size.
    pub fn alloc_raw(&mut self, bits: u64, items: u64) {
        self.current_bits += bits;
        self.current_items += items;
        self.peak_bits = self.peak_bits.max(self.current_bits);
        self.peak_items = self.peak_items.max(self.current_items);
    }

    /// Releases raw bits/items.
    pub fn free_raw(&mut self, bits: u64, items: u64) {
        self.current_bits = self.current_bits.saturating_sub(bits);
        self.current_items = self.current_items.saturating_sub(items);
    }

    /// Peak retained bits.
    pub fn peak_bits(&self) -> u64 {
        self.peak_bits
    }

    /// Peak retained item count.
    pub fn peak_items(&self) -> u64 {
        self.peak_items
    }
}

/// A re-scannable input sequence with pass accounting.
#[derive(Debug)]
pub struct StreamSession<'a, C> {
    data: &'a [C],
    passes: u64,
    /// Working-set meter for the algorithm's retained state.
    pub space: SpaceMeter,
}

impl<'a, C> StreamSession<'a, C> {
    /// Wraps an input sequence.
    pub fn new(data: &'a [C]) -> Self {
        StreamSession {
            data,
            passes: 0,
            space: SpaceMeter::new(),
        }
    }

    /// Number of elements in the stream (`n` is public knowledge in the
    /// paper's model — the algorithms need it for `n^{1/r}`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Starts a new pass: returns an iterator over the whole sequence and
    /// increments the pass counter.
    pub fn pass(&mut self) -> std::slice::Iter<'a, C> {
        self.passes += 1;
        self.data.iter()
    }

    /// Passes consumed so far.
    pub fn passes(&self) -> u64 {
        self.passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_counting() {
        let data = vec![1.0f64, 2.0, 3.0];
        let mut s = StreamSession::new(&data);
        assert_eq!(s.passes(), 0);
        let total: f64 = s.pass().sum();
        assert_eq!(total, 6.0);
        let _ = s.pass().count();
        assert_eq!(s.passes(), 2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn space_meter_tracks_peak() {
        let mut m = SpaceMeter::new();
        m.alloc_raw(640, 1);
        m.alloc_raw(320, 1);
        m.free_raw(640, 1);
        assert_eq!(m.peak_bits(), 960);
        assert_eq!(m.peak_items(), 2);
        // 320 bits and one item are still held, so 700 more bits make a
        // new peak of 1,020 and one more item does not.
        m.alloc_raw(700, 1);
        assert_eq!(m.peak_bits(), 1020);
        assert_eq!(m.peak_items(), 2);
    }

    #[test]
    fn free_saturates() {
        let mut m = SpaceMeter::new();
        m.alloc_raw(100, 1);
        m.free_raw(500, 5);
        // Nothing is held: 150 bits are the new peak, not 250.
        m.alloc_raw(150, 1);
        assert_eq!(m.peak_bits(), 150);
        assert_eq!(m.peak_items(), 1);
    }
}
