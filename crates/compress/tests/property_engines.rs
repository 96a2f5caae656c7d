//! Property-based tests for the pluggable decompression engines.
//!
//! The contract every backend must honor: for any consistent compressed
//! tile, under every compression scheme (dense and sparse, every quantized
//! format), the engine's output is **bit-identical** to the scalar
//! reference's — and inconsistent tiles are rejected with
//! `CompressError::CorruptTile`, never silently decompressed.

use deca_compress::{
    generator::WeightGenerator, pack_codes, AutoTunedEngine, Bitmask, CalibrationTable,
    CompressError, CompressedTile, CompressionScheme, Compressor, DecompressEngine,
    DecompressScratch, Decompressor, DenseTile, EngineKind, SimdEngine, TILE_ELEMS,
};
use deca_numerics::QuantFormat;
use proptest::prelude::*;

/// Scale-group sizes drawn for the group-quantized formats. They cover both
/// sides of the SIMD engine's vector rule: groups that are multiples of 16
/// take the AVX2 scale pass, the others the portable word loop; 48 and 512
/// also leave a partial last group or a single whole-tile group.
const GROUP_SIZES: [usize; 6] = [8, 16, 24, 32, 48, 512];

/// Every quantized format × dense/sparse × scale-group combination the
/// substrate supports, indexed for proptest.
fn scheme_for(format_idx: usize, density: f64, group_idx: usize) -> CompressionScheme {
    let formats = [
        QuantFormat::Bf16,
        QuantFormat::Bf8,
        QuantFormat::E4m3,
        QuantFormat::Fp4,
        QuantFormat::Int8,
        QuantFormat::Int4,
        QuantFormat::Custom {
            exp_bits: 3,
            man_bits: 2,
        },
    ];
    let format = formats[format_idx % formats.len()];
    // Group quantization for the formats that need an external scale
    // (MX-style 4-bit and integer codes), none otherwise.
    let group = match format {
        QuantFormat::Fp4 | QuantFormat::Int8 | QuantFormat::Int4 => {
            Some(GROUP_SIZES[group_idx % GROUP_SIZES.len()])
        }
        _ => None,
    };
    CompressionScheme::new(format, density, group).expect("valid scheme")
}

fn decompress_with(engine: &dyn DecompressEngine, tile: &CompressedTile) -> DenseTile {
    let mut out = DenseTile::zero();
    let mut scratch = DecompressScratch::new();
    engine
        .decompress_tile_into(tile, &mut scratch, &mut out)
        .expect("engine decompression");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every engine produces bit-identical dense tiles to the scalar
    /// reference across every scheme (dense + sparse, all formats, every
    /// scale-group size).
    #[test]
    fn engines_are_bit_identical_to_the_reference(
        seed in 0u64..500,
        format_idx in 0usize..7,
        density_pct in 5u32..=100,
        group_idx in 0usize..6,
    ) {
        let scheme = scheme_for(format_idx, f64::from(density_pct) / 100.0, group_idx);
        let tile = WeightGenerator::new(seed).dense_matrix(16, 32).tile(0, 0);
        let compressed = Compressor::new(scheme).compress_tile(&tile).expect("compress");
        let reference = Decompressor::new().decompress_tile(&compressed).expect("reference");
        for kind in EngineKind::all() {
            let out = decompress_with(kind.build().as_ref(), &compressed);
            for (pos, (a, b)) in reference.elements().iter().zip(out.elements()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{} disagrees at position {} under {}", kind, pos, scheme
                );
            }
        }
    }

    /// Whole-matrix decompression (including the threaded fan-out path and
    /// ragged edge tiles) agrees with the reference for every engine.
    #[test]
    fn matrix_decompression_is_engine_independent(
        seed in 0u64..200,
        rows in 1usize..70,
        cols in 1usize..70,
        format_idx in 0usize..7,
        sparse in any::<bool>(),
        group_idx in 0usize..6,
    ) {
        let density = if sparse { 0.3 } else { 1.0 };
        let scheme = scheme_for(format_idx, density, group_idx);
        let m = WeightGenerator::new(seed).dense_matrix(rows, cols);
        let cm = Compressor::new(scheme).compress_matrix(&m).expect("compress");
        let reference = Decompressor::new().decompress_matrix(&cm).expect("reference");
        for kind in EngineKind::all() {
            let out = kind.build().decompress_matrix(&cm).expect("engine");
            prop_assert_eq!(&out, &reference, "{} under {}", kind, scheme);
        }
    }

    /// The streaming scratch/output buffers can be reused across arbitrary
    /// scheme sequences without leaking state between tiles.
    #[test]
    fn buffer_reuse_never_leaks_between_tiles(
        seed_a in 0u64..200,
        seed_b in 0u64..200,
        fmt_a in 0usize..7,
        fmt_b in 0usize..7,
        group_a in 0usize..6,
        group_b in 0usize..6,
    ) {
        let dense = scheme_for(fmt_a, 1.0, group_a);
        let sparse = scheme_for(fmt_b, 0.2, group_b);
        let tile_a = WeightGenerator::new(seed_a).dense_matrix(16, 32).tile(0, 0);
        let tile_b = WeightGenerator::new(seed_b).dense_matrix(16, 32).tile(0, 0);
        let a = Compressor::new(dense).compress_tile(&tile_a).expect("compress");
        let b = Compressor::new(sparse).compress_tile(&tile_b).expect("compress");
        let reference = Decompressor::new().decompress_tile(&b).expect("reference");
        for kind in EngineKind::all() {
            let engine = kind.build();
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            engine.decompress_tile_into(&a, &mut scratch, &mut out).expect("dense tile");
            engine.decompress_tile_into(&b, &mut scratch, &mut out).expect("sparse tile");
            prop_assert_eq!(&out, &reference, "{}", kind);
        }
    }

    /// The SIMD engine stays bit-identical whichever path runs: the
    /// feature-detected vector kernels and the forced portable word loop
    /// (the path non-AVX2 hosts always take) agree with the reference on
    /// every scheme.
    #[test]
    fn simd_fallback_is_bit_identical_to_the_reference(
        seed in 0u64..500,
        format_idx in 0usize..7,
        density_pct in 5u32..=100,
        group_idx in 0usize..6,
    ) {
        let scheme = scheme_for(format_idx, f64::from(density_pct) / 100.0, group_idx);
        let tile = WeightGenerator::new(seed).dense_matrix(16, 32).tile(0, 0);
        let compressed = Compressor::new(scheme).compress_tile(&tile).expect("compress");
        let reference = Decompressor::new().decompress_tile(&compressed).expect("reference");
        for engine in [SimdEngine::new(), SimdEngine::portable()] {
            let out = decompress_with(&engine, &compressed);
            for (pos, (a, b)) in reference.elements().iter().zip(out.elements()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "simd (avx2={}) disagrees at position {} under {}",
                    engine.uses_avx2(), pos, scheme
                );
            }
        }
    }

    /// Calibration tables built from a fixed override are fully
    /// deterministic — identical tables, identical worker counts — and the
    /// auto-tuned engine they drive keeps the bit-exact contract for every
    /// worker count.
    #[test]
    fn auto_tuner_fixed_override_is_deterministic(
        threads in 1usize..5,
        seed in 0u64..200,
        format_idx in 0usize..7,
        group_idx in 0usize..6,
    ) {
        let table = CalibrationTable::fixed(threads);
        prop_assert_eq!(&table, &CalibrationTable::fixed(threads));
        prop_assert_eq!(table.matrix_threads(), threads);
        let engine = AutoTunedEngine::with_table(table);
        let scheme = scheme_for(format_idx, 0.4, group_idx);
        let m = WeightGenerator::new(seed).dense_matrix(40, 50);
        let cm = Compressor::new(scheme).compress_matrix(&m).expect("compress");
        let reference = Decompressor::new().decompress_matrix(&cm).expect("reference");
        prop_assert_eq!(engine.decompress_matrix(&cm).expect("engine"), reference);
    }
}

/// A sparse tile whose bitmask claims more nonzeros than the payload stores
/// (a corrupted weight stream).
fn forged_popcount_mismatch() -> CompressedTile {
    let scheme = CompressionScheme::bf8_sparse(0.5);
    let mut mask = Bitmask::new(TILE_ELEMS);
    for i in 0..256 {
        mask.set(i, true);
    }
    let codes: Vec<u16> = (0..200u16).collect(); // 56 codes short
    let bytes = pack_codes(&codes, 8);
    CompressedTile::new_unchecked(scheme, bytes, codes.len(), Some(mask), vec![])
}

/// A dense tile that stores fewer than 512 codes.
fn forged_short_dense() -> CompressedTile {
    let scheme = CompressionScheme::bf8_dense();
    let codes: Vec<u16> = (0..400u16).collect();
    let bytes = pack_codes(&codes, 8);
    CompressedTile::new_unchecked(scheme, bytes, codes.len(), None, vec![])
}

/// A group-quantized tile whose scale vector was truncated (or stripped):
/// indexing `scales[pos / group]` must never be reachable.
fn forged_scale_count(scales: usize) -> CompressedTile {
    let scheme = CompressionScheme::mxfp4(); // needs 512/32 = 16 scales
    let codes = vec![0u16; TILE_ELEMS];
    let bytes = pack_codes(&codes, 4);
    CompressedTile::new_unchecked(
        scheme,
        bytes,
        TILE_ELEMS,
        None,
        vec![deca_numerics::mx::ScaleE8M0::ONE; scales],
    )
}

/// A sparse tile whose bitmask covers more than one tile's worth of
/// positions, with a bit set past position 511: expansion must never write
/// out of bounds.
fn forged_oversized_bitmask() -> CompressedTile {
    let scheme = CompressionScheme::bf8_sparse(0.5);
    let mut mask = Bitmask::new(TILE_ELEMS + 64);
    mask.set(0, true);
    mask.set(TILE_ELEMS + 10, true);
    let codes: Vec<u16> = vec![1, 2];
    let bytes = pack_codes(&codes, 8);
    CompressedTile::new_unchecked(scheme, bytes, codes.len(), Some(mask), vec![])
}

#[test]
fn every_engine_rejects_a_popcount_mismatch() {
    let forged = forged_popcount_mismatch();
    for kind in EngineKind::all() {
        let engine = kind.build();
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        let err = engine
            .decompress_tile_into(&forged, &mut scratch, &mut out)
            .expect_err("popcount mismatch must be rejected");
        assert!(
            matches!(err, CompressError::CorruptTile { .. }),
            "{kind}: {err}"
        );
    }
}

#[test]
fn every_engine_rejects_a_short_dense_tile() {
    let forged = forged_short_dense();
    for kind in EngineKind::all() {
        let engine = kind.build();
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        let err = engine
            .decompress_tile_into(&forged, &mut scratch, &mut out)
            .expect_err("short dense payload must be rejected");
        assert!(
            matches!(err, CompressError::CorruptTile { .. }),
            "{kind}: {err}"
        );
    }
}

#[test]
fn every_engine_rejects_corrupt_scale_vectors() {
    // Truncated (would index out of bounds) and stripped (would silently
    // decompress unscaled) scale vectors must both fault.
    for scales in [1, 0, 20] {
        let forged = forged_scale_count(scales);
        for kind in EngineKind::all() {
            let engine = kind.build();
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            let err = engine
                .decompress_tile_into(&forged, &mut scratch, &mut out)
                .expect_err("corrupt scale vector must be rejected");
            assert!(
                matches!(err, CompressError::CorruptTile { .. }),
                "{kind} with {scales} scales: {err}"
            );
        }
    }
}

#[test]
fn every_engine_rejects_an_oversized_bitmask() {
    let forged = forged_oversized_bitmask();
    for kind in EngineKind::all() {
        let engine = kind.build();
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        let err = engine
            .decompress_tile_into(&forged, &mut scratch, &mut out)
            .expect_err("oversized bitmask must be rejected");
        assert!(
            matches!(err, CompressError::CorruptTile { .. }),
            "{kind}: {err}"
        );
    }
}

#[test]
fn corrupt_tiles_abort_matrix_decompression() {
    // A matrix containing one forged tile must fail for every engine,
    // including the threaded fan-out (errors cross the thread boundary).
    let scheme = CompressionScheme::bf8_dense();
    let good = Compressor::new(scheme)
        .compress_tile(&WeightGenerator::new(1).dense_matrix(16, 32).tile(0, 0))
        .expect("compress");
    let tiles = vec![good.clone(), forged_short_dense(), good.clone(), good];
    let cm = deca_compress::CompressedMatrix::new(scheme, 32, 64, tiles).expect("matrix");
    for kind in EngineKind::all() {
        let err = kind
            .build()
            .decompress_matrix(&cm)
            .expect_err("forged tile must abort the matrix");
        assert!(matches!(err, CompressError::CorruptTile { .. }), "{kind}");
    }
}
