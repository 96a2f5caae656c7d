//! GeMM shapes (§2.3).

use deca_compress::{TILE_COLS, TILE_ROWS};

/// The shape of one FC-layer GeMM: activations are `N×K`, weights `K×M`,
/// output `N×M` (§2.3's convention with batch size `N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Batch size (rows of the activation matrix).
    pub n: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
    /// Output features (columns of the weight matrix).
    pub m: usize,
}

impl GemmShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(n: usize, k: usize, m: usize) -> Self {
        assert!(n > 0 && k > 0 && m > 0, "GeMM dimensions must be positive");
        GemmShape { n, k, m }
    }

    /// Number of weight elements.
    #[must_use]
    pub fn weight_elements(&self) -> usize {
        self.k * self.m
    }

    /// Number of 16×32 weight tiles the GeMM streams (zero-padded at the
    /// edges).
    #[must_use]
    pub fn weight_tiles(&self) -> usize {
        self.m.div_ceil(TILE_ROWS) * self.k.div_ceil(TILE_COLS)
    }

    /// Total FMAs of the GeMM (`N·K·M`).
    #[must_use]
    pub fn flops(&self) -> f64 {
        self.n as f64 * self.k as f64 * self.m as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::TILE_ELEMS;

    #[test]
    fn shape_accounting() {
        let shape = GemmShape::new(4, 8192, 30720);
        assert_eq!(shape.weight_elements(), 8192 * 30720);
        assert_eq!(shape.weight_tiles(), (30720 / 16) * (8192 / 32));
        assert_eq!(shape.weight_tiles() * TILE_ELEMS, shape.weight_elements());
        assert_eq!(shape.flops(), 4.0 * 8192.0 * 30720.0);
    }

    #[test]
    fn ragged_shapes_round_up_to_whole_tiles() {
        let shape = GemmShape::new(1, 33, 17);
        assert_eq!(shape.weight_tiles(), 2 * 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = GemmShape::new(0, 8, 8);
    }
}
