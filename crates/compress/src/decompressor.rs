//! Reference (scalar) online decompression (Fig. 1, right).
//!
//! This is the functional ground truth that both the libxsmm-style software
//! kernel model and the DECA pipeline model are verified against: unpack the
//! nonzero codes, dequantize them (LUT for ≤8-bit formats, passthrough for
//! BF16), expand them to their dense positions using the bitmask, and apply
//! the per-group scale factors.

use crate::engine::{DecompressEngine, DecompressScratch, ScalarEngine};
use crate::{CompressError, CompressedMatrix, CompressedTile, DenseTile, WeightMatrix};

/// Reference decompressor: the allocating convenience facade over
/// [`ScalarEngine`].
///
/// The per-format dequantization tables are precomputed at construction
/// (no interior mutability), so a `Decompressor` is `Sync` and can be
/// shared across threads.
#[derive(Debug, Default)]
pub struct Decompressor {
    engine: ScalarEngine,
}

impl Decompressor {
    /// Creates a decompressor (precomputes the per-format LUTs).
    #[must_use]
    pub fn new() -> Self {
        Decompressor::default()
    }

    /// The scalar streaming engine backing this decompressor.
    #[must_use]
    pub fn engine(&self) -> &ScalarEngine {
        &self.engine
    }

    /// Decompresses a single tile back to its dense BF16 form.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::CorruptTile`] if the tile's bitmask and
    /// nonzero payload disagree.
    pub fn decompress_tile(&self, tile: &CompressedTile) -> Result<DenseTile, CompressError> {
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        self.engine
            .decompress_tile_into(tile, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Decompresses a whole matrix, returning the dense f32 weights
    /// (quantization error included — this is what the inference engine
    /// actually computes with).
    ///
    /// # Errors
    ///
    /// Propagates tile-level errors.
    pub fn decompress_matrix(
        &self,
        matrix: &CompressedMatrix,
    ) -> Result<WeightMatrix, CompressError> {
        self.engine.decompress_matrix(matrix)
    }
}

/// The decompressor is shareable across threads: its only state is the
/// precomputed LUT array.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<Decompressor>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generator::WeightGenerator, CompressionScheme, Compressor, TILE_COLS, TILE_ROWS};

    fn roundtrip_max_rel_error(scheme: CompressionScheme, seed: u64) -> f64 {
        let g = WeightGenerator::new(seed);
        let m = g.dense_matrix(16, 32);
        let tile = m.tile(0, 0);
        let compressed = Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress");
        let restored = Decompressor::new()
            .decompress_tile(&compressed)
            .expect("decompress");
        let mut max_rel: f64 = 0.0;
        // For quantized (sub-16-bit) formats, values below half of the
        // smallest subnormal legitimately flush to zero — there the error
        // bound is absolute, not relative, so the relative-error sweep only
        // covers weights above that threshold (the same convention as the
        // property suite). BF16 has no such flush: every nonzero weight
        // must round-trip, so its threshold is zero.
        let flush_threshold = if scheme.is_quantized() {
            f64::from(deca_numerics::Minifloat::bf8().min_subnormal()) / 2.0 * 1.01
        } else {
            0.0
        };
        for r in 0..TILE_ROWS {
            for c in 0..TILE_COLS {
                let orig = f64::from(tile.get(r, c).to_f32());
                let back = f64::from(restored.get(r, c).to_f32());
                if orig.abs() > flush_threshold {
                    max_rel = max_rel.max(((back - orig) / orig).abs());
                }
            }
        }
        max_rel
    }

    #[test]
    fn bf16_dense_roundtrip_is_exact() {
        assert_eq!(
            roundtrip_max_rel_error(CompressionScheme::bf16_dense(), 21),
            0.0
        );
    }

    #[test]
    fn bf8_dense_roundtrip_error_is_bounded() {
        // E5M2 worst case relative error is 12.5 % + BF16 rounding noise.
        let err = roundtrip_max_rel_error(CompressionScheme::bf8_dense(), 22);
        assert!(err <= 0.13, "max relative error {err}");
    }

    #[test]
    fn mxfp4_roundtrip_error_is_bounded() {
        // MX quantization error is bounded relative to the *group* maximum:
        // the shared scale is sized for the largest element, so small values
        // can lose most of their relative precision (they may even flush to
        // zero), but the absolute error stays below ~a quarter of the group
        // max (half of FP4's coarsest step, 0.5·scale·2^-1, with margin).
        let g = WeightGenerator::new(23);
        let m = g.dense_matrix(16, 32);
        let tile = m.tile(0, 0);
        let compressed = Compressor::new(CompressionScheme::mxfp4())
            .compress_tile(&tile)
            .expect("compress");
        let restored = Decompressor::new()
            .decompress_tile(&compressed)
            .expect("decompress");
        for row_group in 0..TILE_ROWS {
            let group_max = (0..TILE_COLS)
                .map(|c| tile.get(row_group, c).to_f32().abs())
                .fold(0f32, f32::max);
            for c in 0..TILE_COLS {
                let orig = tile.get(row_group, c).to_f32();
                let back = restored.get(row_group, c).to_f32();
                assert!(
                    (back - orig).abs() <= 0.26 * group_max + 1e-9,
                    "group {row_group} col {c}: {orig} -> {back} (group max {group_max})"
                );
            }
        }
    }

    #[test]
    fn sparse_roundtrip_restores_positions_exactly() {
        let g = WeightGenerator::new(24);
        let m = g.sparse_matrix(16, 32, 0.2);
        let tile = m.tile(0, 0);
        let scheme = CompressionScheme::bf16_sparse(0.2);
        let compressed = Compressor::new(scheme)
            .without_pruning()
            .compress_tile(&tile)
            .expect("compress");
        let restored = Decompressor::new()
            .decompress_tile(&compressed)
            .expect("decompress");
        for r in 0..TILE_ROWS {
            for c in 0..TILE_COLS {
                assert_eq!(
                    restored.get(r, c).is_zero(),
                    tile.get(r, c).is_zero(),
                    "zero pattern must be preserved at ({r},{c})"
                );
                // BF16 sparse is lossless.
                assert_eq!(restored.get(r, c).to_bits(), tile.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn matrix_roundtrip_preserves_shape_and_sparsity() {
        let g = WeightGenerator::new(25);
        let m = g.dense_matrix(48, 64);
        let scheme = CompressionScheme::bf8_sparse(0.3);
        let cm = Compressor::new(scheme)
            .compress_matrix(&m)
            .expect("compress");
        let restored = Decompressor::new()
            .decompress_matrix(&cm)
            .expect("decompress");
        assert_eq!(restored.rows(), 48);
        assert_eq!(restored.cols(), 64);
        assert!((restored.density() - 0.3).abs() < 0.02);
    }

    #[test]
    fn quantization_is_idempotent_through_the_pipeline() {
        // Compressing the decompressed output again must be lossless: the
        // values are already on the quantization grid.
        let g = WeightGenerator::new(26);
        let m = g.dense_matrix(16, 32);
        let scheme = CompressionScheme::bf8_dense();
        let c = Compressor::new(scheme);
        let d = Decompressor::new();
        let once = d
            .decompress_matrix(&c.compress_matrix(&m).expect("compress"))
            .expect("decompress");
        let twice = d
            .decompress_matrix(&c.compress_matrix(&once).expect("compress"))
            .expect("decompress");
        assert_eq!(once, twice);
    }
}
