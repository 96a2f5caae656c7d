//! Parlooper-style loop parallelization.
//!
//! Parlooper statically partitions the GeMM's output across cores; each core
//! then streams the weight tiles of its own output block. For the
//! generation-phase GeMMs (weights have no reuse) the relevant outcome is
//! simply how many weight tiles the busiest core processes.

use crate::GemmShape;

/// A static partition of a GeMM across cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parlooper {
    max_tiles_per_core: usize,
}

impl Parlooper {
    /// Partitions the weight tiles of `shape` across `cores` cores,
    /// distributing the remainder one tile at a time over the leading cores
    /// so the imbalance is at most one tile.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn partition(shape: &GemmShape, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Parlooper {
            max_tiles_per_core: shape.weight_tiles().div_ceil(cores),
        }
    }

    /// The largest per-core assignment (determines the parallel makespan).
    #[must_use]
    pub fn max_tiles_per_core(&self) -> usize {
        self.max_tiles_per_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_conserves_tiles_and_balances() {
        let shape = GemmShape::new(4, 8192, 30720);
        let tiles = shape.weight_tiles();
        let max = Parlooper::partition(&shape, 56).max_tiles_per_core();
        // Every tile is assigned, and no core holds more than one tile over
        // the mean.
        assert!(max * 56 >= tiles);
        assert!((max - 1) * 56 < tiles);
    }

    #[test]
    fn remainder_is_spread_over_leading_cores() {
        // 10 tiles on 4 cores split 3/3/2/2.
        let shape = GemmShape::new(1, 32, 16 * 10);
        assert_eq!(Parlooper::partition(&shape, 4).max_tiles_per_core(), 3);
    }

    #[test]
    fn single_core_gets_everything() {
        let shape = GemmShape::new(1, 64, 64);
        let p = Parlooper::partition(&shape, 1);
        assert_eq!(p.max_tiles_per_core(), shape.weight_tiles());
    }

    #[test]
    fn more_cores_than_tiles_leaves_idle_cores() {
        let shape = GemmShape::new(1, 32, 16); // 1 tile
        let p = Parlooper::partition(&shape, 8);
        assert_eq!(p.max_tiles_per_core(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Parlooper::partition(&GemmShape::new(1, 32, 16), 0);
    }
}
