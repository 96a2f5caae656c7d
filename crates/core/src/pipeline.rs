//! The DECA vector pipeline: dequantization → expansion → scaling (§6.1).
//!
//! The pipeline consumes a compressed tile as a sequence of vOps. Each vOp
//! produces `W` output elements: it reads the vOp's *window* of nonzero
//! codes from the sparse quantized queue (the window size comes from the
//! bitmask POPCNT), dequantizes them through the LUT array, expands them to
//! their dense positions with the crossbar controlled by the parallel
//! prefix sum, applies the per-group scale factors, and writes the `W`
//! results to the TOut register.
//!
//! The model here is *functional and cycle-counting*: it produces the exact
//! BF16 output tile and, per vOp, the number of cycles the dequantization
//! stage was occupied (1 plus any bubbles caused by windows larger than
//! `Lq`). The queueing/overlap behaviour across tiles is handled by
//! `deca-sim`; this module answers "how many cycles does *this* tile take in
//! the pipeline, given its actual bitmask".

use deca_compress::{Bitmask, CompressedTile, DecompressScratch, DenseTile, TILE_ELEMS};
use deca_numerics::{Bf16, QuantFormat};

use crate::{DecaConfig, DecaError, LutArray};

/// Per-tile timing produced by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineTiming {
    /// vOps executed (always `512 / W`).
    pub vops: u32,
    /// Bubbles injected by windows larger than `Lq`.
    pub bubbles: u32,
    /// Total cycles the tile occupied the pipeline, including the fill of
    /// the expansion and scaling stages.
    pub pipeline_cycles: u32,
}

/// The three-stage vOp pipeline of one DECA PE.
#[derive(Debug, Clone, PartialEq)]
pub struct VopPipeline {
    w: usize,
    lut_array: LutArray,
    /// Stages after dequantization (expansion, scaling) that contribute to
    /// the pipeline fill latency of each tile.
    extra_stages: u32,
}

impl VopPipeline {
    /// Builds the pipeline for a PE configuration.
    #[must_use]
    pub fn new(config: &DecaConfig) -> Self {
        VopPipeline {
            w: config.w,
            lut_array: LutArray::new(config.l),
            extra_stages: 2,
        }
    }

    /// Programs the LUT array for a quantized format (privileged
    /// configuration stores from the core).
    pub fn configure(&mut self, format: QuantFormat) {
        self.lut_array.program(format);
    }

    /// Processes one compressed tile, producing the dense BF16 tile and its
    /// pipeline timing.
    ///
    /// # Errors
    ///
    /// Returns [`DecaError::NotConfiguredFor`] if the LUT array is
    /// programmed for a different quantized format than the tile uses, and
    /// propagates consistency errors from the tile itself.
    pub fn process(
        &mut self,
        tile: &CompressedTile,
    ) -> Result<(DenseTile, PipelineTiming), DecaError> {
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        let timing = self.process_into(tile, &mut scratch, &mut out)?;
        Ok((out, timing))
    }

    /// Streaming variant of [`VopPipeline::process`]: writes the dense tile
    /// into a caller-provided buffer and unpacks the nonzero codes into the
    /// caller's scratch, as [`DecompressEngine::decompress_tile_into`] does,
    /// plus the timing model. Once the scratch has grown to a tile's codes,
    /// nothing is allocated per tile or per vOp: window popcounts and their
    /// running sum come from the bitmask words, each window dequantizes into
    /// a stack buffer, and expansion walks the window's set bits.
    ///
    /// [`DecompressEngine::decompress_tile_into`]: deca_compress::DecompressEngine::decompress_tile_into
    ///
    /// # Errors
    ///
    /// Same contract as [`VopPipeline::process`].
    pub fn process_into(
        &mut self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<PipelineTiming, DecaError> {
        // Same memory-structure validation as the decompression engines: a
        // corrupted tile must fault cleanly, never index out of bounds. It
        // also guarantees that the bitmask's popcount is the code count.
        tile.validate()?;
        let scheme = tile.scheme();
        let format = scheme.format();
        if format != QuantFormat::Bf16 {
            match self.lut_array.programmed_format() {
                Some(f) if f == format => {}
                _ => {
                    return Err(DecaError::NotConfiguredFor {
                        found: format.to_string(),
                    })
                }
            }
        }

        let codes = scratch.unpack(tile);
        let words = tile.bitmask().map(Bitmask::words);
        // The scaling stage's operand at each position: its group's scale
        // as BF16, promoted once per tile.
        let scaled = scheme.group_size();
        let mut position_scales = [Bf16::ONE; TILE_ELEMS];
        if let Some(group) = scaled {
            for (slots, scale) in position_scales.chunks_mut(group).zip(tile.scales()) {
                slots.fill(scale.to_bf16());
            }
        }
        let scale = |value: Bf16, pos: usize| {
            if scaled.is_some() {
                value * position_scales[pos]
            } else {
                value
            }
        };

        out.fill_zero();
        let dst = out.elements_mut();
        let mut values = [Bf16::ZERO; TILE_ELEMS];
        let mut bubbles = 0u32;
        // Exclusive prefix sum of the window popcounts: where the current
        // window starts in the sparse quantized queue.
        let mut code_start = 0usize;
        for start in (0..TILE_ELEMS).step_by(self.w) {
            // POPCNT: this vOp's window in the sparse quantized queue.
            let count = words.map_or(self.w, |words| {
                window_words(words, start, self.w)
                    .map(|(_, bits)| bits.count_ones() as usize)
                    .sum()
            });
            let window_codes = &codes[code_start..code_start + count];
            code_start += count;

            // Dequantization stage (with bubbles for oversized windows).
            bubbles += self.lut_array.dequantize(window_codes, &mut values) - 1;

            // Expansion stage: scatter values to their dense positions.
            // Scaling stage: apply the per-group scale factors.
            match words {
                Some(words) => {
                    let mut next = values.iter();
                    for (base, mut bits) in window_words(words, start, self.w) {
                        while bits != 0 {
                            let pos = base + bits.trailing_zeros() as usize;
                            let value = *next.next().expect("one value per set bit");
                            dst[pos] = scale(value, pos);
                            bits &= bits - 1;
                        }
                    }
                }
                None => {
                    for (pos, &value) in (start..start + self.w).zip(&values) {
                        dst[pos] = scale(value, pos);
                    }
                }
            }
        }

        let vops = (TILE_ELEMS / self.w) as u32;
        Ok(PipelineTiming {
            vops,
            bubbles,
            pipeline_cycles: vops + bubbles + self.extra_stages,
        })
    }
}

/// The bitmask bits of the vOp window `[start, start + w)` as
/// `(first position, bits)` pairs, one per 64-bit word the window touches.
/// `w` divides the 512-element tile, so it is a power of two: a window of
/// at most 64 positions lies inside one word, and a wider one covers whole
/// words.
fn window_words(words: &[u64], start: usize, w: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let span = if w >= 64 { u64::MAX } else { (1 << w) - 1 };
    let shift = start % 64;
    (start / 64..(start + w).div_ceil(64)).map(move |i| (i * 64, words[i] & (span << shift)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::{
        generator::WeightGenerator, CompressedMatrix, CompressionScheme, Compressor, Decompressor,
    };

    fn compress_sample(scheme: CompressionScheme, seed: u64) -> CompressedTile {
        let tile = WeightGenerator::new(seed).dense_matrix(16, 32).tile(0, 0);
        Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress")
    }

    fn pipeline_for(scheme: &CompressionScheme, config: DecaConfig) -> VopPipeline {
        let mut p = VopPipeline::new(&config);
        p.configure(scheme.format());
        p
    }

    #[test]
    fn functional_output_matches_reference_decompressor() {
        for scheme in [
            CompressionScheme::bf8_dense(),
            CompressionScheme::bf8_sparse(0.3),
            CompressionScheme::mxfp4(),
            CompressionScheme::bf16_sparse(0.1),
        ] {
            let tile = compress_sample(scheme, 17);
            let mut pipeline = pipeline_for(&scheme, DecaConfig::baseline());
            let (out, _) = pipeline.process(&tile).expect("pipeline");
            let reference = Decompressor::new()
                .decompress_tile(&tile)
                .expect("reference");
            assert_eq!(out, reference, "scheme {scheme}");
        }
    }

    #[test]
    fn streaming_process_into_reuses_buffers() {
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let mut pipeline = pipeline_for(&scheme, DecaConfig::baseline());
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        // Stream two different tiles through the same buffers; each output
        // must match its own reference (no leakage from the previous tile).
        for seed in [40, 41] {
            let tile = compress_sample(scheme, seed);
            let timing = pipeline
                .process_into(&tile, &mut scratch, &mut out)
                .expect("pipeline");
            let reference = Decompressor::new()
                .decompress_tile(&tile)
                .expect("reference");
            assert_eq!(out, reference, "seed {seed}");
            assert_eq!(timing.vops, 16);
        }
    }

    #[test]
    fn dense_q8_timing_is_deterministic() {
        // W=32, L=8, 8-bit codes: every vOp needs 4 dequant cycles -> 3
        // bubbles per vOp, 16 vOps, +2 fill cycles.
        let scheme = CompressionScheme::bf8_dense();
        let tile = compress_sample(scheme, 18);
        let mut pipeline = pipeline_for(&scheme, DecaConfig::baseline());
        let (_, timing) = pipeline.process(&tile).expect("pipeline");
        assert_eq!(timing.vops, 16);
        assert_eq!(timing.bubbles, 48);
        assert_eq!(timing.pipeline_cycles, 16 + 48 + 2);
    }

    #[test]
    fn mxfp4_has_no_bubbles() {
        let scheme = CompressionScheme::mxfp4();
        let tile = compress_sample(scheme, 19);
        let mut pipeline = pipeline_for(&scheme, DecaConfig::baseline());
        let (_, timing) = pipeline.process(&tile).expect("pipeline");
        assert_eq!(timing.bubbles, 0);
        assert_eq!(timing.pipeline_cycles, 18);
    }

    #[test]
    fn sparse_tiles_have_fewer_bubbles_than_dense() {
        let dense = compress_sample(CompressionScheme::bf8_dense(), 20);
        let sparse = compress_sample(CompressionScheme::bf8_sparse(0.2), 20);
        let mut p_dense = pipeline_for(&CompressionScheme::bf8_dense(), DecaConfig::baseline());
        let mut p_sparse =
            pipeline_for(&CompressionScheme::bf8_sparse(0.2), DecaConfig::baseline());
        let (_, t_dense) = p_dense.process(&dense).expect("pipeline");
        let (_, t_sparse) = p_sparse.process(&sparse).expect("pipeline");
        assert!(t_sparse.bubbles < t_dense.bubbles);
    }

    #[test]
    fn bf16_sparse_needs_no_lut_configuration() {
        let scheme = CompressionScheme::bf16_sparse(0.5);
        let tile = compress_sample(scheme, 21);
        let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
        // No configure() call: BF16 bypasses the LUT array.
        let (out, timing) = pipeline.process(&tile).expect("pipeline");
        assert_eq!(timing.bubbles, 0);
        assert_eq!(out.nonzero_count(), tile.nonzero_count());
    }

    #[test]
    fn forged_tiles_fault_cleanly_instead_of_panicking() {
        use deca_compress::{pack_codes, Bitmask, TILE_ELEMS};
        // A bitmask covering half a tile with a matching popcount, and a
        // group-quantized tile with a truncated scale vector: both must be
        // rejected as corrupt, exactly like the decompression engines do.
        let mut short_mask = Bitmask::new(256);
        short_mask.set(0, true);
        let short = deca_compress::CompressedTile::new_unchecked(
            CompressionScheme::bf8_sparse(0.5),
            pack_codes(&[1], 8),
            1,
            Some(short_mask),
            vec![],
        );
        let truncated_scales = deca_compress::CompressedTile::new_unchecked(
            CompressionScheme::mxfp4(),
            pack_codes(&vec![0u16; TILE_ELEMS], 4),
            TILE_ELEMS,
            None,
            vec![deca_numerics::mx::ScaleE8M0::ONE; 1],
        );
        for (tile, label) in [(short, "short bitmask"), (truncated_scales, "scales")] {
            let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
            pipeline.configure(tile.scheme().format());
            let err = pipeline.process(&tile).expect_err(label);
            assert!(matches!(err, DecaError::Compress(_)), "{label}: {err}");
        }
    }

    #[test]
    fn misconfigured_format_is_rejected() {
        let q8 = compress_sample(CompressionScheme::bf8_dense(), 22);
        let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
        pipeline.configure(QuantFormat::Fp4);
        let err = pipeline.process(&q8).expect_err("must reject");
        assert!(matches!(err, DecaError::NotConfiguredFor { .. }));
    }

    #[test]
    fn smaller_w_needs_more_vops() {
        let scheme = CompressionScheme::bf8_sparse(0.1);
        let tile = compress_sample(scheme, 23);
        let mut small = pipeline_for(&scheme, DecaConfig::underprovisioned());
        let mut base = pipeline_for(&scheme, DecaConfig::baseline());
        let (_, t_small) = small.process(&tile).expect("pipeline");
        let (_, t_base) = base.process(&tile).expect("pipeline");
        assert_eq!(t_small.vops, 64);
        assert_eq!(t_base.vops, 16);
        assert!(t_small.pipeline_cycles > t_base.pipeline_cycles);
    }

    /// Folds `bytes` into an FNV-1a 64-bit hash.
    fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// A 64×256 matrix whose magnitudes come from four values, with every
    /// 7th element zero: rounding ties for the element formats and
    /// repeated magnitudes at every pruning threshold.
    fn tie_heavy_matrix() -> deca_compress::WeightMatrix {
        const MAGNITUDES: [f32; 4] = [1.125, 0.625, 1.0625, 2.5];
        let data = (0..64 * 256)
            .map(|i: usize| {
                let magnitude = MAGNITUDES[(i * 5 + i / 3) % 4];
                if i.is_multiple_of(7) {
                    0.0
                } else if (i / 2).is_multiple_of(3) {
                    -magnitude
                } else {
                    magnitude
                }
            })
            .collect();
        deca_compress::WeightMatrix::from_data(64, 256, data).expect("64x256 values")
    }

    /// The pipeline's output digests: one row per pinned scheme, one column
    /// per PE sizing (baseline W=32, under-provisioned W=8, over-provisioned
    /// W=64).
    const PIPELINE_DIGESTS: [[u64; 3]; 19] = [
        [
            0xF66A_FFEF_9068_A63F,
            0xF240_EA07_7CD6_683F,
            0x5983_F3A1_3E41_043F,
        ],
        [
            0x24E3_2178_ED4F_FCD7,
            0x09C6_EAA3_EF04_6B57,
            0x229C_BFB5_667E_0857,
        ],
        [
            0xED2D_33FF_32CC_389A,
            0x9C6E_4E13_65A5_A21A,
            0x5ACE_7810_A31A_B49A,
        ],
        [
            0xFCB2_7AB3_CD1C_E3D1,
            0x1694_629C_C442_8525,
            0xD776_ACC0_54F4_071D,
        ],
        [
            0x2044_F5F8_A564_03EC,
            0x4581_1BB8_4014_5B6C,
            0x7638_3CD5_9612_57EC,
        ],
        [
            0x50F5_16DE_DA08_EE0E,
            0x674E_8D5F_3512_190E,
            0xDE4F_0B9F_29DD_8A0E,
        ],
        [
            0x4458_0E2F_5E76_DE4A,
            0x4167_8727_4617_CF86,
            0x01AF_8082_6124_9612,
        ],
        [
            0x3F7E_D4ED_5AE6_F92C,
            0xFB46_5B25_81A0_8C2C,
            0xAF85_00D1_70CA_212C,
        ],
        [
            0x2A16_4B65_536B_3B66,
            0x41AA_BDCB_768E_9116,
            0xCFA5_5D8F_184C_A0B2,
        ],
        [
            0x33E6_F34B_C2A6_C814,
            0xC1DE_B0A9_FCB7_5714,
            0x057D_60CD_031F_8214,
        ],
        [
            0xF68B_83FF_00E5_5AA5,
            0x5B9C_8293_DEE2_44F5,
            0x9E22_8E11_4642_64B5,
        ],
        [
            0x1505_D378_B061_2825,
            0xB056_DB44_5219_10A5,
            0xCE17_4974_9D1A_C325,
        ],
        [
            0x3957_779B_8B4A_0AB5,
            0x7972_FDC7_3583_FA35,
            0xF8CB_5B66_C642_ACB5,
        ],
        [
            0xEEF0_743D_6BB4_88D8,
            0x12CF_86FF_BCE9_C1D8,
            0x2356_E8FC_E655_BED8,
        ],
        [
            0x2433_3758_7005_DA09,
            0xDC30_C898_E56E_73FD,
            0x510E_1AA2_8C41_3D79,
        ],
        [
            0xD0B9_572C_6B13_7580,
            0xF238_874C_FB1B_0760,
            0x3798_9EAA_F07B_CAE0,
        ],
        [
            0x7796_D01B_9A68_039E,
            0x3A59_7384_AC9F_311E,
            0x31B5_9FD3_C28E_939E,
        ],
        [
            0x455F_8371_21E1_D52A,
            0x852B_82B2_58B8_EC2A,
            0xC43C_74BA_FA2B_0D2A,
        ],
        [
            0xA411_2FA5_109F_2BC6,
            0xA9D8_D847_FC65_88C6,
            0x3AA7_D71B_9ED3_95C6,
        ],
    ];

    #[test]
    fn pipeline_outputs_match_pinned_digests() {
        // Pins every output BF16 bit and every timing field the pipeline
        // produces: a change that moves one element, one bubble or one
        // cycle under any scheme and any PE sizing changes that digest.
        let new_scheme = |format, density, group| {
            CompressionScheme::new(format, density, group).expect("valid scheme")
        };
        let mut schemes = deca_compress::SchemeSet::paper_evaluation();
        schemes.extend([
            CompressionScheme::mxfp4_sparse(0.5),
            CompressionScheme::bf16_dense(),
            new_scheme(QuantFormat::E4m3, 0.3, None),
            new_scheme(QuantFormat::Int8, 1.0, Some(32)),
            new_scheme(QuantFormat::Int4, 0.5, Some(16)),
            new_scheme(
                QuantFormat::Custom {
                    exp_bits: 3,
                    man_bits: 2,
                },
                0.2,
                None,
            ),
            new_scheme(QuantFormat::Fp4, 1.0, Some(48)),
        ]);
        let inputs = [
            WeightGenerator::new(1).dense_matrix(64, 256),
            WeightGenerator::new(9173).dense_matrix(64, 256),
            tie_heavy_matrix(),
        ];
        let configs = [
            DecaConfig::baseline(),
            DecaConfig::underprovisioned(),
            DecaConfig::overprovisioned(),
        ];
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        let digests: Vec<[u64; 3]> = schemes
            .iter()
            .map(|scheme| {
                let compressor = Compressor::new(*scheme);
                let matrices: Vec<_> = inputs
                    .iter()
                    .map(|m| compressor.compress_matrix(m).expect("compress"))
                    .collect();
                configs.map(|config| {
                    let mut pipeline = pipeline_for(scheme, config);
                    let tiles = matrices.iter().flat_map(CompressedMatrix::tiles);
                    tiles.fold(0xCBF2_9CE4_8422_2325, |hash, tile| {
                        let timing = pipeline
                            .process_into(tile, &mut scratch, &mut out)
                            .expect("pipeline");
                        let mut hash = out.elements().iter().fold(hash, |hash, value| {
                            fnv1a(hash, &value.to_bits().to_le_bytes())
                        });
                        for field in [timing.vops, timing.bubbles, timing.pipeline_cycles] {
                            hash = fnv1a(hash, &field.to_le_bytes());
                        }
                        hash
                    })
                })
            })
            .collect();
        for ((scheme, digest), want) in schemes.iter().zip(&digests).zip(PIPELINE_DIGESTS) {
            assert_eq!(*digest, want, "{scheme:?}: digests {digest:#018x?}");
        }
    }

    #[test]
    fn every_window_width_expands_and_counts_exactly() {
        // Windows narrower than a mask word, one word wide, and spanning
        // several words: the output matches the reference decompressor and
        // the bubbles match window popcounts counted bit by bit.
        let scheme = CompressionScheme::bf8_sparse(0.3);
        let tile = compress_sample(scheme, 25);
        let mask = tile.bitmask().expect("sparse");
        let reference = Decompressor::new()
            .decompress_tile(&tile)
            .expect("reference");
        for w in [1, 2, 16, 64, 128, 512] {
            let config = DecaConfig {
                w,
                ..DecaConfig::baseline()
            };
            let (out, timing) = pipeline_for(&scheme, config)
                .process(&tile)
                .expect("pipeline");
            assert_eq!(out, reference, "W={w}");
            let lq = config.l; // one lookup per LUT per cycle for 8-bit codes
            let bubbles: usize = (0..TILE_ELEMS)
                .step_by(w)
                .map(|start| {
                    let count = (start..start + w).filter(|&i| mask.get(i)).count();
                    count.div_ceil(lq).max(1) - 1
                })
                .sum();
            assert_eq!(timing.vops as usize, TILE_ELEMS / w, "W={w}");
            assert_eq!(timing.bubbles as usize, bubbles, "W={w}");
        }
    }

    #[test]
    fn reconfiguration_switches_formats() {
        let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
        pipeline.configure(QuantFormat::Bf8);
        let q8 = compress_sample(CompressionScheme::bf8_dense(), 24);
        assert!(pipeline.process(&q8).is_ok());
        pipeline.configure(QuantFormat::Fp4);
        let q4 = compress_sample(CompressionScheme::mxfp4(), 24);
        assert!(pipeline.process(&q4).is_ok());
        assert!(pipeline.process(&q8).is_err());
    }
}
