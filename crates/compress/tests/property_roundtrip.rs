//! Property-based tests for the compression substrate.
//!
//! These exercise the core invariants the rest of the system relies on:
//! bit-exact container round-trips, preservation of the sparsity pattern,
//! and bounded quantization error, including the MXFP4 group quantizer's
//! shared E8M0 scales.

use deca_compress::{
    generator::WeightGenerator, Bitmask, CompressedTile, CompressionScheme, Compressor,
    Decompressor, DenseTile, TILE_COLS, TILE_ELEMS, TILE_ROWS,
};
use deca_numerics::mx::MX_GROUP_SIZE;
use proptest::prelude::*;

fn tile_from_sparse_values(values: &[f32]) -> DenseTile {
    assert_eq!(values.len(), TILE_ELEMS);
    DenseTile::from_f32(values)
}

/// Compresses one tile of `values` as MXFP4 and decompresses it again,
/// returning the BF16 input tile, the compressed tile and the restored tile.
fn mxfp4_roundtrip(values: &[f32]) -> (DenseTile, CompressedTile, DenseTile) {
    let tile = tile_from_sparse_values(values);
    let compressed = Compressor::new(CompressionScheme::mxfp4())
        .compress_tile(&tile)
        .unwrap();
    let restored = Decompressor::new().decompress_tile(&compressed).unwrap();
    (tile, compressed, restored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bitmask built from a predicate, word by word, equals one built bit
    /// by bit: the same words, the same bits and the same popcount.
    #[test]
    fn bitmask_words_match_the_bits(bits in proptest::collection::vec(any::<bool>(), 1..600)) {
        let mut mask = Bitmask::new(bits.len());
        for (i, b) in bits.iter().enumerate() {
            mask.set(i, *b);
        }
        prop_assert_eq!(&Bitmask::from_predicate(&bits, |b| *b), &mask);
        for (i, b) in bits.iter().enumerate() {
            prop_assert_eq!((mask.words()[i / 64] >> (i % 64)) & 1 == 1, *b);
        }
        prop_assert_eq!(mask.popcount(), bits.iter().filter(|b| **b).count());
    }

    /// The zero/nonzero pattern of a tile survives any sparse compression
    /// scheme (no nonzero is dropped, no zero is invented), provided pruning
    /// is disabled so the input pattern is authoritative.
    #[test]
    fn sparsity_pattern_is_preserved(
        seed in 0u64..1000,
        density in 0.02f64..0.9,
        quantized in any::<bool>(),
    ) {
        let gen = WeightGenerator::new(seed);
        let matrix = gen.sparse_matrix(TILE_ROWS, TILE_COLS, density);
        let tile = matrix.tile(0, 0);
        let scheme = if quantized {
            CompressionScheme::bf8_sparse(density.min(0.95))
        } else {
            CompressionScheme::bf16_sparse(density.min(0.95))
        };
        let compressed = Compressor::new(scheme).without_pruning().compress_tile(&tile).unwrap();
        let restored = Decompressor::new().decompress_tile(&compressed).unwrap();
        // Half of E5M2's smallest subnormal: only weights below this may
        // legitimately flush to zero under BF8 quantization.
        let flush_threshold = deca_numerics::Minifloat::bf8().min_subnormal() / 2.0 * 1.01;
        for r in 0..TILE_ROWS {
            for c in 0..TILE_COLS {
                let orig = tile.get(r, c);
                let back = restored.get(r, c);
                if orig.is_zero() {
                    prop_assert!(back.is_zero(), "zero became nonzero at ({}, {})", r, c);
                } else if back.is_zero() {
                    prop_assert!(
                        quantized && orig.to_f32().abs() <= flush_threshold,
                        "nonzero {} flushed to zero at ({}, {})", orig.to_f32(), r, c
                    );
                }
            }
        }
    }

    /// BF16-sparse compression is bit-exact for the surviving weights.
    #[test]
    fn bf16_sparse_is_lossless(seed in 0u64..1000, density in 0.05f64..1.0) {
        let gen = WeightGenerator::new(seed);
        let matrix = gen.sparse_matrix(TILE_ROWS, TILE_COLS, density);
        let tile = matrix.tile(0, 0);
        let scheme = CompressionScheme::bf16_sparse(0.99);
        let compressed = Compressor::new(scheme).without_pruning().compress_tile(&tile).unwrap();
        let restored = Decompressor::new().decompress_tile(&compressed).unwrap();
        for (a, b) in tile.elements().iter().zip(restored.elements()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// BF8 quantization error is bounded by E5M2's half-ULP relative error
    /// (12.5 %) for every element of every tile.
    #[test]
    fn bf8_error_is_bounded(seed in 0u64..1000) {
        let gen = WeightGenerator::new(seed);
        let tile = gen.dense_matrix(TILE_ROWS, TILE_COLS).tile(0, 0);
        let compressed = Compressor::new(CompressionScheme::bf8_dense()).compress_tile(&tile).unwrap();
        let restored = Decompressor::new().decompress_tile(&compressed).unwrap();
        // Below the normal range the error bound is absolute (half a
        // subnormal step) rather than relative.
        let half_subnormal_step = deca_numerics::Minifloat::bf8().min_subnormal() / 2.0 * 1.01;
        for (a, b) in tile.elements().iter().zip(restored.elements()) {
            let orig = a.to_f32();
            let back = b.to_f32();
            if orig != 0.0 {
                let rel_ok = ((back - orig) / orig).abs() <= 0.13;
                let abs_ok = (back - orig).abs() <= half_subnormal_step;
                prop_assert!(rel_ok || abs_ok, "{} -> {}", orig, back);
            }
        }
    }

    /// MXFP4 keeps the absolute error of every element below a quarter of
    /// its group's maximum and never flips a sign to the opposite nonzero
    /// sign.
    #[test]
    fn mx_error_bound(values in proptest::collection::vec(-100.0f32..100.0, TILE_ELEMS)) {
        let (tile, _, restored) = mxfp4_roundtrip(&values);
        let groups = tile.elements().chunks(MX_GROUP_SIZE);
        for (group, back) in groups.zip(restored.elements().chunks(MX_GROUP_SIZE)) {
            let max_abs = group.iter().fold(0f32, |m, v| m.max(v.to_f32().abs()));
            for (v, b) in group.iter().zip(back) {
                let (v, b) = (v.to_f32(), b.to_f32());
                prop_assert!((v - b).abs() <= 0.26 * max_abs + 1e-6,
                    "{} -> {} (group max {})", v, b, max_abs);
                if b != 0.0 {
                    prop_assert!(v.signum() == b.signum(), "sign flip: {} -> {}", v, b);
                }
            }
        }
    }

    /// The compressed byte size of any tile matches the scheme's analytic
    /// expectation when the tile's density equals the scheme density.
    #[test]
    fn byte_size_matches_scheme_accounting(density_pct in 1u32..=100) {
        let density = f64::from(density_pct) / 100.0;
        let gen = WeightGenerator::new(u64::from(density_pct));
        let tile = gen.dense_matrix(TILE_ROWS, TILE_COLS).tile(0, 0);
        let scheme = if density < 1.0 {
            CompressionScheme::bf8_sparse(density)
        } else {
            CompressionScheme::bf8_dense()
        };
        let compressed = Compressor::new(scheme).compress_tile(&tile).unwrap();
        // Magnitude pruning keeps round(512·d) values, so sizes match the
        // analytic model to within one element.
        let expected = scheme.expected_tile_bytes();
        let actual = compressed.byte_size() as f64;
        prop_assert!((actual - expected).abs() <= 2.0,
            "scheme {} expected {} got {}", scheme, expected, actual);
    }

    /// Compressing an already-decompressed tile again is lossless
    /// (idempotence of quantization).
    #[test]
    fn recompression_is_idempotent(seed in 0u64..500) {
        let gen = WeightGenerator::new(seed);
        let tile = gen.dense_matrix(TILE_ROWS, TILE_COLS).tile(0, 0);
        let scheme = CompressionScheme::bf8_sparse(0.4);
        let comp = Compressor::new(scheme);
        let dec = Decompressor::new();
        let once = dec.decompress_tile(&comp.compress_tile(&tile).unwrap()).unwrap();
        let twice = dec.decompress_tile(&comp.without_pruning().compress_tile(&once).unwrap()).unwrap();
        prop_assert_eq!(once, twice);
    }

    /// Pack/unpack of arbitrary tiles built from explicit values keeps every
    /// element addressable at its original (row, col).
    #[test]
    fn element_addressing_is_row_major(row in 0usize..TILE_ROWS, col in 0usize..TILE_COLS) {
        let mut values = vec![0.0f32; TILE_ELEMS];
        values[row * TILE_COLS + col] = 1.5;
        let tile = tile_from_sparse_values(&values);
        prop_assert_eq!(tile.get(row, col).to_f32(), 1.5);
        prop_assert_eq!(tile.nonzero_count(), 1);
        let scheme = CompressionScheme::bf16_sparse(0.5);
        let compressed = Compressor::new(scheme).without_pruning().compress_tile(&tile).unwrap();
        let restored = Decompressor::new().decompress_tile(&compressed).unwrap();
        prop_assert_eq!(restored.get(row, col).to_f32(), 1.5);
    }
}

/// An all-zero MXFP4 group decodes to exact zeros, whatever its neighbours
/// hold.
#[test]
fn mxfp4_zero_groups_stay_zero() {
    let half = TILE_ELEMS / 2;
    let mut values = vec![0.0f32; TILE_ELEMS];
    values[half..].fill(0.5);
    let (_, _, restored) = mxfp4_roundtrip(&values);
    let (zeros, rest) = restored.elements().split_at(half);
    assert!(zeros.iter().all(|v| v.to_f32() == 0.0));
    assert!(rest.iter().all(|v| v.to_f32() == 0.5));
    let (_, _, all_zero) = mxfp4_roundtrip(&[0.0; TILE_ELEMS]);
    assert_eq!(all_zero.nonzero_count(), 0);
}

/// Each MXFP4 group gets its own scale: a group of tiny weights next to a
/// group of huge ones is not flattened to zero.
#[test]
fn mxfp4_group_scales_are_independent() {
    let mut values = vec![1000.0f32; TILE_ELEMS];
    values[..MX_GROUP_SIZE].fill(0.001);
    let (_, compressed, restored) = mxfp4_roundtrip(&values);
    assert!(compressed.scales()[0].value() < compressed.scales()[1].value());
    assert!(restored.elements()[..MX_GROUP_SIZE]
        .iter()
        .all(|v| v.to_f32() > 0.0));
}

/// Values that E2M1 represents exactly under a unit group scale survive the
/// MXFP4 round trip unchanged.
#[test]
fn mxfp4_exact_values_survive_roundtrip() {
    let exact = [6.0f32, 4.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.0, -6.0, -0.5];
    let values: Vec<f32> = exact.iter().copied().cycle().take(TILE_ELEMS).collect();
    let (tile, _, restored) = mxfp4_roundtrip(&values);
    assert_eq!(restored, tile);
}
