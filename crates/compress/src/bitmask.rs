//! The bitmask sparse format.
//!
//! Unstructured sparsity is encoded with a bitmask that has one bit per
//! element of the original (dense) tile: a `1` marks a nonzero, whose value
//! is stored in the contiguous nonzero array (§2.2). Reconstructing the dense
//! tile requires, for every dense position, the running count of `1`s before
//! it — exactly what DECA's POPCNT + parallel-prefix-sum circuitry computes
//! from the mask words to drive the expansion crossbar (§6.1).

/// A bitmask over `len` elements (one bit each), stored LSB-first in 64-bit
/// words.
///
/// ```
/// use deca_compress::Bitmask;
/// let mut m = Bitmask::new(8);
/// m.set(1, true);
/// m.set(5, true);
/// assert_eq!(m.popcount(), 2);
/// assert_eq!(m.words(), &[0b10_0010]);
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
    /// predicate returns `true`. The predicate runs once per value, in
    /// order, and each word is assembled by shifting.
    #[must_use]
    pub fn from_predicate<T>(values: &[T], mut is_nonzero: impl FnMut(&T) -> bool) -> Self {
        let words = values
            .chunks(64)
            .map(|chunk| {
                chunk.iter().enumerate().fold(0u64, |word, (bit, v)| {
                    word | u64::from(is_nonzero(v)) << bit
                })
            })
            .collect();
        Bitmask {
            len: values.len(),
            words,
        }
    }

    /// Clears every set bit after the first `n`, in position order, with
    /// one popcount per word and one partial word at most.
    pub(crate) fn keep_first(&mut self, n: usize) {
        let mut remaining = n;
        for word in &mut self.words {
            let count = word.count_ones() as usize;
            if count <= remaining {
                remaining -= count;
            } else {
                let mut beyond = *word;
                for _ in 0..remaining {
                    beyond &= beyond - 1;
                }
                *word ^= beyond;
                remaining = 0;
            }
        }
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

    /// The backing 64-bit words, LSB-first (bit `i` of the mask is bit
    /// `i % 64` of word `i / 64`). Bits past `len` are always zero.
    ///
    /// This is the view DECA's POPCNT + parallel-prefix-sum circuitry
    /// consumes, and what the vOp pipeline and the SIMD engine's portable
    /// word loop iterate.
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
        let count = |range: std::ops::Range<usize>| range.filter(|&i| m.get(i)).count();
        // Bits 0,3,6,... every third bit set.
        assert_eq!(count(0..9), 3);
        assert_eq!(count(1..3), 0);
        assert_eq!(count(0..512), m.popcount());
        assert_eq!(m.popcount(), 171);
    }

    #[test]
    fn window_popcounts_cover_whole_mask() {
        // The W=32 vOp windows of every-third-bit: offsets 0, 32 and 64 set
        // 11, 11 and 10 bits, and the pattern repeats. Each window is one
        // half of a word.
        let words = sample_mask().words().to_vec();
        let windows: Vec<u32> = (0..16)
            .map(|w| ((words[w / 2] >> (32 * (w % 2))) & 0xFFFF_FFFF).count_ones())
            .collect();
        assert_eq!(&windows[..3], &[11, 11, 10]);
        assert_eq!(windows.iter().sum::<u32>(), 171);
    }

    #[test]
    fn keep_first_keeps_the_first_set_bits_in_position_order() {
        for n in [0, 1, 21, 22, 64, 170, 171, 500] {
            let mut m = sample_mask();
            m.keep_first(n);
            let kept: Vec<usize> = (0..512).filter(|&i| m.get(i)).collect();
            let expected: Vec<usize> = (0..512).step_by(3).take(n).collect();
            assert_eq!(kept, expected, "n = {n}");
        }
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
