//! The bitmask sparse format.
//!
//! Unstructured sparsity is encoded with a bitmask that has one bit per
//! element of the original (dense) tile: a `1` marks a nonzero, whose value
//! is stored in the contiguous nonzero array (§2.2). Reconstructing the dense
//! tile requires, for every dense position, the running count of `1`s before
//! it — exactly what DECA's POPCNT + parallel-prefix-sum circuitry computes
//! to drive the expansion crossbar (§6.1).

/// A bitmask over `len` elements (one bit each), stored LSB-first in 64-bit
/// words.
///
/// ```
/// use deca_compress::Bitmask;
/// let mut m = Bitmask::new(8);
/// m.set(1, true);
/// m.set(5, true);
/// assert_eq!(m.popcount(), 2);
/// assert_eq!(m.prefix_sums(), vec![0, 0, 1, 1, 1, 1, 2, 2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmask {
    len: usize,
    words: Vec<u64>,
}

impl Bitmask {
    /// Creates an all-zero bitmask over `len` elements.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Bitmask {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Builds a bitmask from a dense slice, marking every position whose
    /// predicate returns `true`.
    #[must_use]
    pub fn from_predicate<T>(values: &[T], mut is_nonzero: impl FnMut(&T) -> bool) -> Self {
        let mut mask = Bitmask::new(values.len());
        for (i, v) in values.iter().enumerate() {
            if is_nonzero(v) {
                mask.set(i, true);
            }
        }
        mask
    }

    /// Number of elements covered by the mask.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mask covers zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let word = index / 64;
        let bit = index % 64;
        if value {
            self.words[word] |= 1 << bit;
        } else {
            self.words[word] &= !(1 << bit);
        }
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Total number of set bits (number of nonzeros).
    #[must_use]
    pub fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Exclusive prefix sum of set bits: entry `i` is the number of nonzeros
    /// strictly before position `i`. Length is `len + 1`; the final entry is
    /// the total popcount.
    ///
    /// This is the output of the parallel prefix sum that controls the
    /// expansion crossbar: a set position `i` takes the `sums[i]`-th value of
    /// the contiguous nonzero array, and `sums[end] - sums[start]` is the
    /// POPCNT of a vOp's window `[start, end)`.
    #[must_use]
    pub fn prefix_sums(&self) -> Vec<usize> {
        let mut sums = Vec::with_capacity(self.len + 1);
        let mut running = 0usize;
        sums.push(0);
        for i in 0..self.len {
            if self.get(i) {
                running += 1;
            }
            sums.push(running);
        }
        sums
    }

    /// The backing 64-bit words, LSB-first (bit `i` of the mask is bit
    /// `i % 64` of word `i / 64`). Bits past `len` are always zero.
    ///
    /// This is the view DECA's POPCNT + parallel-prefix-sum circuitry
    /// consumes, and what the SIMD engine's portable word loop iterates.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The storage footprint of this bitmask in bytes.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.len.div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mask() -> Bitmask {
        let mut m = Bitmask::new(512);
        for i in (0..512).step_by(3) {
            m.set(i, true);
        }
        m
    }

    #[test]
    fn new_mask_is_empty() {
        let m = Bitmask::new(512);
        assert_eq!(m.len(), 512);
        assert_eq!(m.popcount(), 0);
        assert!(!m.is_empty());
        assert!(Bitmask::new(0).is_empty());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Bitmask::new(130);
        m.set(0, true);
        m.set(63, true);
        m.set(64, true);
        m.set(129, true);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(65));
        m.set(64, false);
        assert!(!m.get(64));
        assert_eq!(m.popcount(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let m = Bitmask::new(8);
        let _ = m.get(8);
    }

    #[test]
    fn popcount_range_counts_correctly() {
        let m = sample_mask();
        let sums = m.prefix_sums();
        // Bits 0,3,6,... every third bit set.
        assert_eq!(sums[9] - sums[0], 3);
        assert_eq!(sums[3] - sums[1], 0);
        assert_eq!(sums[512], m.popcount());
        assert_eq!(m.popcount(), 171);
    }

    #[test]
    fn window_popcounts_cover_whole_mask() {
        // The W=32 vOp windows of every-third-bit: offsets 0, 32 and 64 set
        // 11, 11 and 10 bits, and the pattern repeats.
        let sums = sample_mask().prefix_sums();
        let windows: Vec<usize> = (0..16).map(|w| sums[32 * (w + 1)] - sums[32 * w]).collect();
        assert_eq!(&windows[..3], &[11, 11, 10]);
        assert_eq!(windows.iter().sum::<usize>(), 171);
    }

    #[test]
    fn expansion_indices_are_consistent_with_prefix_sums() {
        let m = sample_mask();
        let sums = m.prefix_sums();
        assert_eq!(sums.len(), 513);
        let mut running = 0;
        for (i, sum) in sums.iter().take(512).enumerate() {
            assert_eq!(*sum, running, "position {i}");
            running += usize::from(m.get(i));
        }
        assert_eq!(sums[512], m.popcount());
    }

    #[test]
    fn nonzero_positions_match_predicate_construction() {
        let values = [0.0f32, 1.0, 0.0, -2.0, 3.0, 0.0];
        let m = Bitmask::from_predicate(&values, |v| *v != 0.0);
        let positions: Vec<usize> = (0..m.len()).filter(|&i| m.get(i)).collect();
        assert_eq!(positions, vec![1, 3, 4]);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn byte_serialization_is_lsb_first() {
        let mut m = Bitmask::new(16);
        m.set(0, true);
        m.set(9, true);
        assert_eq!(m.words(), &[0b10_0000_0001]);
        assert_eq!(m.byte_size(), 2);
    }

    #[test]
    fn non_multiple_of_64_lengths_work() {
        let mut m = Bitmask::new(100);
        for i in 0..100 {
            m.set(i, i % 7 == 0);
        }
        assert_eq!(m.popcount(), (0..100).filter(|i| i % 7 == 0).count());
        assert_eq!(m.words().len(), 2);
        assert_eq!(m.byte_size(), 13);
    }
}
