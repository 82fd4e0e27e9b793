//! Deterministic per-next-hop aggregation of route outputs.
//!
//! The routing policy decides tuple by tuple, but the transport wants to
//! speak per *next hop*: every tuple a peer owes the same neighbour (and
//! tree) within a pass should share one wire unit. [`HopBins`] is that
//! keyed accumulator: its iteration order is the key order — never
//! insertion or hash order — so a simulated fleet drains its bins
//! deterministically across runs and seeds.

/// A deterministic keyed accumulator for route outputs.
///
/// `K` identifies the stream (a next hop, or a (next hop, tree) pair) and
/// `B` is whatever accumulates per stream — a tuple vector, a pending
/// frame. Bins live in one key-sorted vector and exist only while they are
/// open: [`HopBins::take`] and [`HopBins::drain`] close them, so what a
/// set of bins holds is what is open now. The vector keeps its buffer
/// across closes, so a pass that opens and drains bins allocates nothing
/// for the bins themselves once the buffer has grown to the widest pass.
#[derive(Debug)]
pub struct HopBins<K: Ord + Copy, B> {
    bins: Vec<(K, B)>,
}

impl<K: Ord + Copy, B> Default for HopBins<K, B> {
    fn default() -> Self {
        Self { bins: Vec::new() }
    }
}

impl<K: Ord + Copy, B> HopBins<K, B> {
    /// An empty set of bins.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of open bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether no bin is open.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    fn find(&self, key: K) -> Result<usize, usize> {
        self.bins.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// The bin for `key`, opened via `Default` on first touch.
    pub fn bin_mut(&mut self, key: K) -> &mut B
    where
        B: Default,
    {
        let i = match self.find(key) {
            Ok(i) => i,
            Err(i) => {
                self.bins.insert(i, (key, B::default()));
                i
            }
        };
        &mut self.bins[i].1
    }

    /// Closes and returns the bin for `key`, if open.
    pub fn take(&mut self, key: K) -> Option<B> {
        let i = self.find(key).ok()?;
        Some(self.bins.remove(i).1)
    }

    /// Closes every bin, yielding them in ascending key order. Allocates
    /// nothing: the bins move out of the kept buffer.
    pub fn drain(&mut self) -> impl Iterator<Item = (K, B)> + '_ {
        self.bins.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate_and_drain_in_key_order() {
        let mut bins: HopBins<u32, Vec<u8>> = HopBins::new();
        bins.bin_mut(9).push(1);
        bins.bin_mut(2).push(2);
        bins.bin_mut(9).push(3);
        assert_eq!(bins.len(), 2);
        let drained: Vec<_> = bins.drain().collect();
        assert_eq!(drained, vec![(2, vec![2]), (9, vec![1, 3])]);
        assert!(bins.is_empty());
    }

    #[test]
    fn take_closes_one_bin() {
        let mut bins: HopBins<(u32, u8), Vec<u8>> = HopBins::new();
        bins.bin_mut((1, 0)).push(7);
        bins.bin_mut((1, 1)).push(8);
        assert_eq!(bins.take((1, 0)), Some(vec![7]));
        assert_eq!(bins.take((1, 0)), None);
        assert_eq!(bins.len(), 1);
    }

    #[test]
    fn draining_keeps_the_buffer_and_reopens_in_key_order() {
        // Bins hold only what is open, but the buffer they live in
        // survives a drain, so reopening as many bins reallocates nothing.
        let mut bins: HopBins<u32, u8> = HopBins::new();
        for k in [5, 1, 3] {
            *bins.bin_mut(k) += 1;
        }
        assert_eq!(bins.drain().map(|(k, _)| k).collect::<Vec<_>>(), vec![1, 3, 5]);
        let cap = bins.bins.capacity();
        for k in [4, 2, 6] {
            *bins.bin_mut(k) += 1;
        }
        assert_eq!(bins.bins.capacity(), cap);
        assert_eq!(bins.drain().map(|(k, _)| k).collect::<Vec<_>>(), vec![2, 4, 6]);
    }
}
