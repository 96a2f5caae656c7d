//! Offline weight compression (Fig. 1, left).
//!
//! Compression happens once, after training: weights are (optionally)
//! magnitude-pruned to the scheme's target density, quantized to the
//! scheme's element format (with per-group power-of-two scales for MX-style
//! formats), and packed into the three per-tile memory structures (nonzero
//! array, bitmask, scale factors).

use deca_numerics::{mx::ScaleE8M0, Bf16, IntCodec, Minifloat, QuantFormat};

use crate::{
    tile::pack_codes, Bitmask, CompressError, CompressedMatrix, CompressedTile, CompressionScheme,
    DenseTile, TILE_COLS, TILE_ELEMS,
};

/// A BF16 weight's magnitude bits: for finite weights, integer order on
/// these keys is the order of `|w|`.
fn magnitude_key(weight: Bf16) -> u16 {
    weight.abs().to_bits()
}

/// Offline compressor for a single [`CompressionScheme`].
///
/// ```
/// use deca_compress::{Compressor, CompressionScheme, DenseTile};
/// let compressor = Compressor::new(CompressionScheme::bf8_dense());
/// let tile = DenseTile::zero();
/// let compressed = compressor.compress_tile(&tile)?;
/// assert_eq!(compressed.byte_size(), 512);
/// # Ok::<(), deca_compress::CompressError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compressor {
    scheme: CompressionScheme,
    prune_to_density: bool,
    /// The scheme's element codec and its rounding constants, resolved
    /// once. `None` for BF16 and the integer formats.
    minifloat: Option<Minifloat>,
    /// Exponent of the element format's largest power of two, the `emax`
    /// that group scales are chosen against.
    element_emax: i32,
}

impl Compressor {
    /// Creates a compressor that magnitude-prunes each tile down to the
    /// scheme's density before packing (the default, matching the offline
    /// pruning flow of SparseGPT-style methods).
    #[must_use]
    pub fn new(scheme: CompressionScheme) -> Self {
        let minifloat = scheme.format().minifloat();
        let element_emax = match scheme.format() {
            QuantFormat::Int8 => 7, // max code 127 < 2^7
            QuantFormat::Int4 => 3, // max code 7 < 2^3
            _ => minifloat
                .as_ref()
                .map_or(0, |mf| mf.max_value().log2().floor() as i32),
        };
        Compressor {
            scheme,
            prune_to_density: true,
            minifloat,
            element_emax,
        }
    }

    /// Disables magnitude pruning: only values that are already exactly zero
    /// are treated as pruned. Useful when the input matrix was generated
    /// with the desired sparsity pattern.
    #[must_use]
    pub fn without_pruning(mut self) -> Self {
        self.prune_to_density = false;
        self
    }

    /// The scheme this compressor packs for.
    #[must_use]
    pub fn scheme(&self) -> &CompressionScheme {
        &self.scheme
    }

    /// The pruning rule of one tile as data: the weights whose
    /// [`magnitude_key`] reaches the threshold are candidates, and the
    /// first `keep` of them in position order stay.
    ///
    /// Dense schemes keep every weight (threshold 0). Sparse schemes keep
    /// every nonzero (threshold 1) unless the tile has more than the
    /// scheme's `keep` nonzeros and pruning is on; then the threshold is the
    /// `keep`-th largest magnitude, found bit by bit from the top as the
    /// largest key that at least `keep` keys reach, with branch-free
    /// counts.
    fn keep_rule(&self, weights: &[Bf16]) -> (u16, usize) {
        if !self.scheme.is_sparse() {
            return (0, TILE_ELEMS);
        }
        let keep = ((TILE_ELEMS as f64) * self.scheme.density()).round() as usize;
        let mut keys = [0u16; TILE_ELEMS];
        for (key, &weight) in keys.iter_mut().zip(weights) {
            *key = magnitude_key(weight);
        }
        // Counted in u16 lanes (at most 512), so the count vectorizes.
        let reaching = |threshold: u16| -> usize {
            keys.iter()
                .map(|&key| u16::from(key >= threshold))
                .sum::<u16>()
                .into()
        };
        if !self.prune_to_density || reaching(1) <= keep {
            return (1, TILE_ELEMS);
        }
        let mut threshold = 0u16;
        for bit in (0..15).rev() {
            let candidate = threshold | (1 << bit);
            if reaching(candidate) >= keep {
                threshold = candidate;
            }
        }
        (threshold, keep)
    }

    /// Picks each group's scale from the weights the mask keeps, and
    /// returns the scales with the exact reciprocal each position's weight
    /// is multiplied by (1 everywhere without group scaling).
    fn group_scales(
        &self,
        weights: &[Bf16],
        mask: &Bitmask,
    ) -> (Vec<ScaleE8M0>, [f32; TILE_ELEMS]) {
        let mut recips = [1f32; TILE_ELEMS];
        let Some(group) = self.scheme.group_size() else {
            return (Vec::new(), recips);
        };
        let words = mask.words();
        let scales = recips
            .chunks_mut(group)
            .enumerate()
            .map(|(g, recips)| {
                let start = g * group;
                let max_key = (start..start + recips.len())
                    .map(|pos| {
                        let stays = (words[pos / 64] >> (pos % 64)) & 1;
                        magnitude_key(weights[pos]) * stays as u16
                    })
                    .max()
                    .unwrap_or(0);
                let scale =
                    ScaleE8M0::for_group(Bf16::from_bits(max_key).to_f32(), self.element_emax);
                recips.fill(1.0 / scale.value());
                scale
            })
            .collect();
        (scales, recips)
    }

    /// Encodes every weight, scaled by its reciprocal, with the scheme's
    /// element codec: a straight map with no branch on the data.
    fn encode_all(&self, weights: &[Bf16], recips: &[f32; TILE_ELEMS]) -> [u16; TILE_ELEMS] {
        let int_code = |codec: IntCodec| {
            let max = codec.max_code() as f32;
            move |scaled: f32| u16::from(codec.to_storage(scaled.round().clamp(-max, max) as i8))
        };
        match self.scheme.format() {
            QuantFormat::Bf16 => encode_with(weights, recips, |v| Bf16::from_f32(v).to_bits()),
            QuantFormat::Int8 => encode_with(weights, recips, int_code(IntCodec::int8())),
            QuantFormat::Int4 => encode_with(weights, recips, int_code(IntCodec::int4())),
            _ => {
                let mf = self
                    .minifloat
                    .as_ref()
                    .expect("all non-BF16 float formats have a minifloat codec");
                encode_with(weights, recips, |v| u16::from(mf.encode(v)))
            }
        }
    }

    /// Compresses a single dense tile.
    ///
    /// One pass builds the bitmask from the pruning rule, a second picks
    /// each group's scale from the kept weights, a third encodes every
    /// weight and a walk over the mask's set bits keeps the codes of the
    /// kept ones. A group-scaled weight is multiplied by its scale's
    /// reciprocal, which is exact for a power of two, so it is the same
    /// correctly rounded quotient as a division.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::NonFiniteWeight`] if any weight is NaN or
    /// ±Inf, and [`CompressError::CorruptTile`] if the assembled tile fails
    /// validation (this indicates an internal bug rather than bad input).
    pub fn compress_tile(&self, tile: &DenseTile) -> Result<CompressedTile, CompressError> {
        let weights = tile.elements();
        // Pruning, scale selection and quantization all assume finite
        // weights; reject the others once, up front, under every scheme. A
        // branch-free fold over the BF16 exponent bits says whether there
        // is an Inf or NaN at all; only then is the first one looked for.
        let non_finite = |w: &Bf16| w.to_bits() & 0x7F80 == 0x7F80;
        if weights.iter().fold(false, |any, w| any | non_finite(w)) {
            let position = weights
                .iter()
                .position(non_finite)
                .expect("the fold saw a non-finite weight");
            return Err(CompressError::NonFiniteWeight { position });
        }
        let (threshold, keep) = self.keep_rule(weights);
        let mut mask = Bitmask::from_predicate(weights, |&w| magnitude_key(w) >= threshold);
        mask.keep_first(keep);
        let (scales, recips) = self.group_scales(weights, &mask);
        let mut codes = self.encode_all(weights, &recips);
        let count = if mask.popcount() == TILE_ELEMS {
            TILE_ELEMS
        } else {
            keep_masked(&mut codes, mask.words())
        };
        let payload = pack_codes(&codes[..count], self.scheme.element_bits());
        let bitmask = self.scheme.is_sparse().then_some(mask);
        CompressedTile::new(self.scheme, payload, count, bitmask, scales)
    }

    /// Compresses a whole matrix tile-by-tile.
    ///
    /// # Errors
    ///
    /// Propagates any tile-level error.
    pub fn compress_matrix(
        &self,
        matrix: &crate::WeightMatrix,
    ) -> Result<CompressedMatrix, CompressError> {
        let mut tiles = Vec::with_capacity(matrix.tile_count());
        let mut tile = DenseTile::zero();
        for tr in 0..matrix.tile_rows() {
            for tc in 0..matrix.tile_cols() {
                matrix.copy_tile_into(tr, tc, &mut tile);
                tiles.push(self.compress_tile(&tile)?);
            }
        }
        CompressedMatrix::new(self.scheme, matrix.rows(), matrix.cols(), tiles)
    }
}

/// The loop of [`Compressor::encode_all`] for one element codec.
fn encode_with(
    weights: &[Bf16],
    recips: &[f32; TILE_ELEMS],
    encode: impl Fn(f32) -> u16,
) -> [u16; TILE_ELEMS] {
    let mut codes = [0u16; TILE_ELEMS];
    for ((code, weight), recip) in codes.iter_mut().zip(weights).zip(recips) {
        *code = encode(weight.to_f32() * recip);
    }
    codes
}

/// Moves the codes at the mask's set positions, in position order, to the
/// front of `codes`; returns how many there are.
fn keep_masked(codes: &mut [u16; TILE_ELEMS], words: &[u64]) -> usize {
    let mut count = 0;
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            codes[count] = codes[w * 64 + bits.trailing_zeros() as usize];
            count += 1;
            bits &= bits - 1;
        }
    }
    count
}

/// Convenience free function compressing a matrix under a scheme.
///
/// # Errors
///
/// Propagates compression errors from [`Compressor::compress_matrix`].
pub fn compress(
    matrix: &crate::WeightMatrix,
    scheme: CompressionScheme,
) -> Result<CompressedMatrix, CompressError> {
    Compressor::new(scheme).compress_matrix(matrix)
}

#[allow(dead_code)]
fn _columns_per_group_sanity() {
    // One MX group (32 weights) is exactly one tile row.
    const _: () = assert!(TILE_COLS == 32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WeightGenerator;

    #[test]
    fn dense_bf8_tile_has_512_payload_bytes() {
        let g = WeightGenerator::new(11);
        let m = g.dense_matrix(16, 32);
        let tile = m.tile(0, 0);
        let c = Compressor::new(CompressionScheme::bf8_dense());
        let ct = c.compress_tile(&tile).expect("compress");
        assert_eq!(ct.payload_bytes(), 512);
        assert_eq!(ct.byte_size(), 512);
        assert!(ct.bitmask().is_none());
        assert!(ct.scales().is_empty());
    }

    #[test]
    fn mxfp4_tile_has_scales_per_row_group() {
        let g = WeightGenerator::new(12);
        let m = g.dense_matrix(16, 32);
        let c = Compressor::new(CompressionScheme::mxfp4());
        let ct = c.compress_tile(&m.tile(0, 0)).expect("compress");
        assert_eq!(ct.scales().len(), 16);
        assert_eq!(ct.payload_bytes(), 256);
        assert_eq!(ct.byte_size(), 272);
    }

    #[test]
    fn sparse_tile_is_pruned_to_target_density() {
        let g = WeightGenerator::new(13);
        let m = g.dense_matrix(16, 32);
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let ct = Compressor::new(scheme)
            .compress_tile(&m.tile(0, 0))
            .expect("compress");
        let expected_nnz = (512.0 * 0.2) as usize;
        assert_eq!(ct.nonzero_count(), expected_nnz);
        assert_eq!(ct.bitmask().expect("sparse").popcount(), expected_nnz);
        assert_eq!(ct.payload_bytes(), expected_nnz);
        assert_eq!(ct.byte_size(), expected_nnz + 64);
    }

    #[test]
    fn without_pruning_keeps_existing_zero_pattern() {
        let g = WeightGenerator::new(14);
        let m = g.sparse_matrix(16, 32, 0.1);
        let actual_nnz = m.tile(0, 0).nonzero_count();
        let scheme = CompressionScheme::bf8_sparse(0.5);
        let ct = Compressor::new(scheme)
            .without_pruning()
            .compress_tile(&m.tile(0, 0))
            .expect("compress");
        assert_eq!(ct.nonzero_count(), actual_nnz);
    }

    #[test]
    fn pruning_keeps_largest_magnitudes() {
        let mut values = vec![0.0f32; TILE_ELEMS];
        // Plant 4 large values and many small ones.
        for (i, v) in values.iter_mut().enumerate() {
            *v = 0.001 + (i as f32) * 1e-6;
        }
        values[10] = 5.0;
        values[100] = -6.0;
        values[200] = 4.0;
        values[300] = -7.0;
        let tile = DenseTile::from_f32(&values);
        // Keep only ~1% = 5 values.
        let scheme = CompressionScheme::bf8_sparse(0.01);
        let ct = Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress");
        let mask = ct.bitmask().expect("sparse");
        assert!(mask.get(10) && mask.get(100) && mask.get(200) && mask.get(300));
        assert_eq!(ct.nonzero_count(), 5);
    }

    #[test]
    fn matrix_compression_covers_all_tiles() {
        let g = WeightGenerator::new(15);
        let m = g.dense_matrix(48, 96);
        let cm = compress(&m, CompressionScheme::bf8_dense()).expect("compress");
        assert_eq!(cm.tiles().len(), 3 * 3);
        assert_eq!(cm.total_bytes(), 9 * 512);
        assert!((cm.compression_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bf16_sparse_stores_raw_bf16_bits() {
        let mut values = vec![0.0f32; TILE_ELEMS];
        values[0] = 1.0;
        values[511] = -2.0;
        let tile = DenseTile::from_f32(&values);
        let scheme = CompressionScheme::bf16_sparse(0.05);
        let ct = Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress");
        let mut codes = Vec::new();
        ct.unpack_nonzeros_into(&mut codes);
        assert_eq!(codes.len(), 2);
        assert_eq!(Bf16::from_bits(codes[0]).to_f32(), 1.0);
        assert_eq!(Bf16::from_bits(codes[1]).to_f32(), -2.0);
    }

    #[test]
    fn non_finite_weights_are_an_error_under_every_scheme_kind() {
        // One scheme per code path that assumes finite input: the plain
        // encoder, the magnitude selection and the group-scale search.
        let schemes = [
            CompressionScheme::bf8_dense(),
            CompressionScheme::bf8_sparse(0.5),
            CompressionScheme::mxfp4(),
        ];
        // ±Inf and NaNs of either sign, from the smallest payload to all
        // ones, as BF16 bit patterns.
        let non_finite = [
            0x7F80u16, 0xFF80, 0x7F81, 0x7FC0, 0x7FFF, 0xFF81, 0xFFC0, 0xFFFF,
        ];
        let compress = |scheme, bad: &[(usize, u16)]| {
            let mut tile = DenseTile::from_f32(&[0.5f32; TILE_ELEMS]);
            for &(position, bits) in bad {
                tile.elements_mut()[position] = Bf16::from_bits(bits);
            }
            Compressor::new(scheme).compress_tile(&tile)
        };
        for scheme in schemes {
            for bits in non_finite {
                for position in [0, 137, TILE_ELEMS - 1] {
                    assert_eq!(
                        compress(scheme, &[(position, bits)]),
                        Err(CompressError::NonFiniteWeight { position }),
                        "{scheme} with {bits:#06x} at {position}"
                    );
                }
                // With two non-finite weights, the first is reported.
                assert_eq!(
                    compress(scheme, &[(400, 0x7F80), (23, bits)]),
                    Err(CompressError::NonFiniteWeight { position: 23 }),
                    "{scheme} with {bits:#06x} at 23 and +inf at 400"
                );
            }
        }
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
    /// 7th element zero. The values sit on rounding ties of E5M2, E4M3,
    /// E3M2 and group-scaled E2M1, and the repeated magnitudes tie at every
    /// pruning threshold.
    fn tie_heavy_matrix() -> crate::WeightMatrix {
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
        crate::WeightMatrix::from_data(64, 256, data).expect("64x256 values")
    }

    /// Checks one digest per pinned scheme: `fold_tile` folded, from the
    /// FNV-1a offset basis, over every tile the compressor emits for two
    /// seeded matrices and the tie-heavy one. The schemes are the paper's
    /// evaluation set plus sparse MXFP4, dense BF16, E4M3, the integer
    /// formats, a custom minifloat and a 48-weight scale group.
    fn assert_pinned_digests(
        expected: &[u64; 19],
        fold_tile: impl Fn(u64, &CompressedTile) -> u64,
    ) {
        let new_scheme = |format, density, group| {
            CompressionScheme::new(format, density, group).expect("valid scheme")
        };
        let mut schemes = crate::SchemeSet::paper_evaluation();
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
        for (scheme, want) in schemes.into_iter().zip(expected) {
            let compressor = Compressor::new(scheme);
            let digest = inputs.iter().fold(0xCBF2_9CE4_8422_2325, |hash, matrix| {
                let compressed = compressor.compress_matrix(matrix).expect("compress");
                compressed.tiles().iter().fold(hash, &fold_tile)
            });
            assert_eq!(digest, *want, "{scheme:?}: digest {digest:#018x}");
        }
    }

    #[test]
    fn compressed_bytes_match_pinned_digests() {
        // Pins every byte the compressor emits: a change that moves one
        // payload byte, bitmask bit, scale code or nonzero count under any
        // of these schemes changes that scheme's digest.
        let expected: [u64; 19] = [
            0x61B4_D5BC_98EC_A2AC,
            0x97CB_E083_B483_1B24,
            0xACE9_A7F4_A9E4_8154,
            0x664E_4D99_F9AB_0B22,
            0xCBB1_689B_0AB9_11BA,
            0xCAF9_5991_8A27_2ED4,
            0x1BAF_6E6C_E43B_BFA5,
            0x6139_8B12_3CEE_F470,
            0x871A_1F1B_9E58_2386,
            0x11F7_8571_8ECA_BF30,
            0xFB07_C200_5E40_7559,
            0x2CEE_CD80_7DD6_279C,
            0xB73F_7282_68EA_AB26,
            0x5A13_4277_55E2_F324,
            0xEA21_92F9_BC83_2626,
            0x3940_2255_EDF0_923B,
            0xC348_CFBB_FBB9_212A,
            0x284C_023D_897A_1FF1,
            0x41E4_1137_B28F_5C2F,
        ];
        assert_pinned_digests(&expected, |hash, tile| {
            let mut hash = fnv1a(hash, tile.nonzero_bytes());
            for word in tile.bitmask().map_or(&[][..], Bitmask::words) {
                hash = fnv1a(hash, &word.to_le_bytes());
            }
            for scale in tile.scales() {
                hash = fnv1a(hash, &[scale.code()]);
            }
            fnv1a(hash, &(tile.nonzero_count() as u64).to_le_bytes())
        });
    }

    #[test]
    fn decompressed_bits_match_pinned_digests() {
        // Pins the decode side on its own: the BF16 bits of every tile the
        // reference `Decompressor` restores from the pinned compressions.
        // Every engine is checked against that reference, so a slip they
        // share (in the code unpacking, a LUT or a scale) shows only here.
        // The constants came from the per-nibble unpack and the `powi`
        // scale values, which the byte-wide unpack and the bit-built
        // scales must equal.
        let expected: [u64; 19] = [
            0xDEAE_44F8_2C7B_8A9B,
            0xC856_652F_E978_B5AF,
            0x7153_D396_2EA1_CDD2,
            0xBBB3_8903_12C3_DE3D,
            0x0F66_B0E5_0912_1AA0,
            0xFA46_6A56_FD88_ABAA,
            0xA1A4_6632_0112_5BC2,
            0x82DB_BDEC_7C91_1224,
            0x5791_E21B_BA33_E02A,
            0x70E0_2A1C_7555_9EA4,
            0xA3A9_DFB8_32B3_52B5,
            0xA936_2DE1_ED36_C3E5,
            0x2C3F_A969_C93B_757D,
            0x93CF_6A9D_3618_E038,
            0x74FD_B1E4_97A6_25BD,
            0x9F0D_B350_6249_88E4,
            0x2ECF_D4DC_2F36_8622,
            0x3793_A703_154D_98CE,
            0xAA27_8E7F_55B6_515E,
        ];
        let decompressor = crate::Decompressor::new();
        assert_pinned_digests(&expected, |hash, tile| {
            let dense = decompressor.decompress_tile(tile).expect("decompress");
            dense.elements().iter().fold(hash, |hash, value| {
                fnv1a(hash, &value.to_bits().to_le_bytes())
            })
        });
    }

    #[test]
    fn measured_matrix_density_matches_scheme() {
        let g = WeightGenerator::new(16);
        let m = g.dense_matrix(64, 64);
        let scheme = CompressionScheme::bf8_sparse(0.3);
        let cm = compress(&m, scheme).expect("compress");
        assert!(
            (cm.density() - 0.3).abs() < 0.01,
            "density {}",
            cm.density()
        );
    }
}
