//! Pluggable streaming decompression engines (Fig. 1, right).
//!
//! The paper's central observation is that *online weight decompression is
//! the hot loop of compressed LLM inference*: every weight tile fetched from
//! memory must be dequantized, expanded and scaled before the TMUL can
//! consume it. This module keeps one scalar reference and one fast tile
//! kernel behind one trait, plus two whole-matrix drivers over that kernel.
//!
//! # The streaming, zero-copy contract
//!
//! [`DecompressEngine::decompress_tile_into`] never allocates on the hot
//! path: the caller owns a reusable output [`DenseTile`] and a
//! [`DecompressScratch`] holding the unpacked-code and group-scale buffers,
//! and every backend is required to produce **bit-exact** output — the same
//! 512 BF16 bit patterns the scalar reference produces. This mirrors the
//! hardware contract of Fig. 1: whatever circuit performs dequantization,
//! the TMUL must see identical dense BF16 tiles.
//!
//! # Backends and their Fig. 1 correspondence
//!
//! * [`ScalarEngine`] — the functional ground truth: one dense position at a
//!   time, a running nonzero counter standing in for the prefix sum. This is
//!   the per-element loop a naive CPU implementation executes.
//! * [`SimdEngine`] — the fast tile kernel. On AVX2 hosts it vectorizes the
//!   datapath: LUT dequantization as 8-lane gathers, sparse expansion as one
//!   byte-shuffle per 8 mask bits, and the MX scale multiply as 8-lane f32
//!   multiplies rounded back to BF16 in the integer domain. Its portable
//!   path is the software analogue of DECA's POPCNT + parallel-prefix-sum +
//!   crossbar datapath (§6.1): it walks the bitmask as 64-bit words, skips
//!   zero words entirely, locates nonzeros with count-trailing-zeros, and
//!   dequantizes through a precomputed per-format LUT array.
//! * [`ParallelMatrixEngine`] — whole-matrix decompression fanned out over
//!   OS threads with `std::thread::scope`, one disjoint band of tile rows
//!   per worker, each running [`SimdEngine`]: the software stand-in for one
//!   DECA PE per core working on a Parlooper partition.
//! * [`AutoTunedEngine`] — [`SimdEngine`] for every tile, plus a measured
//!   choice between streaming a matrix in-thread and fanning it out (see
//!   [`CalibrationTable`]).
//!
//! # Feature detection and the fallback contract
//!
//! [`SimdEngine`] never assumes ISA support at compile time: the AVX2 path
//! is compiled only on `x86_64` and entered only when
//! `is_x86_feature_detected!("avx2")` reports support at runtime. Every
//! other combination — non-x86 hosts, x86 hosts without AVX2, or an engine
//! constructed with [`SimdEngine::portable`] — takes the portable word
//! loop, written in safe Rust over `u64` bitmask words. Both paths are
//! bit-exact against [`ScalarEngine`], and the portable path is itself
//! regression-tested on AVX2 hosts by forcing it with
//! [`SimdEngine::portable`]. Tiles whose scale metadata the vector kernels
//! cannot reproduce exactly (non-finite forged scales, scale groups not
//! divisible by the 16-lane chunk) are routed to the portable path per
//! tile, so eligibility is a pure speed decision, never a correctness one.
//!
//! [`EngineKind`] names the backends so that tests and benchmarks can
//! enumerate them and report which one ran.

use deca_numerics::{Bf16, DequantTable, QuantFormat};

use crate::{
    CompressError, CompressedMatrix, CompressedTile, DenseTile, WeightMatrix, TILE_COLS,
    TILE_ELEMS, TILE_ROWS,
};

/// Precomputed dequantization tables for every ≤8-bit quantized format,
/// indexed by format — the replacement for the interior-mutable linear-scan
/// LUT cache the reference decompressor used to carry.
///
/// All tables are built eagerly at construction (a few KB in total), so
/// lookups are a slice index, the structure is `Sync`, and no tile ever pays
/// for table construction.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatLuts {
    tables: Vec<DequantTable>,
}

/// Named formats with a fixed slot (everything except `Custom`).
const NAMED_SLOTS: usize = 5;

fn lut_slot(format: QuantFormat) -> Option<usize> {
    match format {
        QuantFormat::Bf16 => None,
        QuantFormat::Bf8 => Some(0),
        QuantFormat::E4m3 => Some(1),
        QuantFormat::Fp4 => Some(2),
        QuantFormat::Int8 => Some(3),
        QuantFormat::Int4 => Some(4),
        QuantFormat::Custom { exp_bits, man_bits } => custom_combinations()
            .position(|combo| combo == (exp_bits, man_bits))
            .map(|i| NAMED_SLOTS + i),
    }
}

/// Every valid `Custom { exp_bits, man_bits }` combination that fits in a
/// LUT (1 sign + exp + man ≤ 8 bits), in deterministic order.
fn custom_combinations() -> impl Iterator<Item = (u8, u8)> {
    (1u8..=5).flat_map(|e| (0u8..=6).filter_map(move |m| (1 + e + m <= 8).then_some((e, m))))
}

impl FormatLuts {
    /// Builds the tables for every supported ≤8-bit format.
    #[must_use]
    pub fn precomputed() -> Self {
        let mut tables = vec![
            DequantTable::for_format(QuantFormat::Bf8),
            DequantTable::for_format(QuantFormat::E4m3),
            DequantTable::for_format(QuantFormat::Fp4),
            DequantTable::for_format(QuantFormat::Int8),
            DequantTable::for_format(QuantFormat::Int4),
        ];
        for (exp_bits, man_bits) in custom_combinations() {
            tables.push(DequantTable::for_format(QuantFormat::Custom {
                exp_bits,
                man_bits,
            }));
        }
        FormatLuts { tables }
    }

    /// The process-wide shared instance, built once on first use. The
    /// tables are immutable and a pure function of the formats, so every
    /// engine and decompressor shares them instead of re-deriving ~30
    /// tables per construction.
    #[must_use]
    pub fn shared() -> &'static FormatLuts {
        static SHARED: std::sync::OnceLock<FormatLuts> = std::sync::OnceLock::new();
        SHARED.get_or_init(FormatLuts::precomputed)
    }

    /// The dequantization table for `format`, or `None` for BF16 (which
    /// bypasses the LUTs entirely).
    ///
    /// # Panics
    ///
    /// Panics for non-BF16 formats wider than 8 bits, which have no LUT —
    /// the same contract as [`DequantTable::for_format`].
    #[must_use]
    pub fn table(&self, format: QuantFormat) -> Option<&DequantTable> {
        if format == QuantFormat::Bf16 {
            return None;
        }
        let slot =
            lut_slot(format).unwrap_or_else(|| panic!("no dequantization LUT for format {format}"));
        Some(&self.tables[slot])
    }
}

impl Default for FormatLuts {
    fn default() -> Self {
        FormatLuts::precomputed()
    }
}

/// Reusable scratch buffers for streaming decompression: the unpacked
/// nonzero codes and the per-group scales promoted to BF16. Create one per
/// worker and pass it to every [`DecompressEngine::decompress_tile_into`]
/// call — no per-tile allocation survives after the buffers warm up.
#[derive(Debug, Default, Clone)]
pub struct DecompressScratch {
    /// Unpacked nonzero codes of the tile being decompressed.
    codes: Vec<u16>,
    /// Per-group scale factors as BF16 (empty unless group-quantized).
    group_scales: Vec<Bf16>,
    /// Dequantized nonzero values as raw BF16 bits (AVX2 path only),
    /// zero-padded so vector loads past the last nonzero stay in bounds.
    values: Vec<u16>,
    /// Whole-tile output staging as raw BF16 bits (AVX2 path only).
    bits: Vec<u16>,
}

impl DecompressScratch {
    /// Creates empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        DecompressScratch::default()
    }

    /// Unpacks a tile's nonzero codes into this scratch's code buffer and
    /// returns them — the entry point for external streaming consumers
    /// (e.g. the vOp pipeline) that share the zero-copy contract.
    pub fn unpack<'s>(&'s mut self, tile: &CompressedTile) -> &'s [u16] {
        tile.unpack_nonzeros_into(&mut self.codes);
        &self.codes
    }
}

/// A streaming tile/matrix decompression backend.
///
/// Implementations must be bit-exact with respect to [`ScalarEngine`]: for
/// any consistent [`CompressedTile`], `decompress_tile_into` must produce a
/// [`DenseTile`] whose 512 BF16 bit patterns are identical to the scalar
/// reference's, and must reject inconsistent tiles with
/// [`CompressError::CorruptTile`].
pub trait DecompressEngine: std::fmt::Debug + Send + Sync {
    /// A short stable name identifying the backend (used in reports,
    /// benchmark baselines and error messages).
    fn name(&self) -> &'static str;

    /// Decompresses one tile into the caller-provided output buffer using
    /// the caller-provided scratch space. The output tile is fully
    /// overwritten (zeros included).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::CorruptTile`] if the tile's memory
    /// structures disagree (bitmask popcount vs. stored codes, dense code
    /// count vs. tile size).
    fn decompress_tile_into(
        &self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<(), CompressError>;

    /// Decompresses a whole matrix into a caller-provided dense matrix,
    /// streaming tile by tile through one reused tile buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidShape`] if `out` does not match the
    /// matrix dimensions, and propagates tile-level errors.
    fn decompress_matrix_into(
        &self,
        matrix: &CompressedMatrix,
        out: &mut WeightMatrix,
    ) -> Result<(), CompressError> {
        check_output_shape(matrix, out)?;
        let mut tile = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        for tr in 0..matrix.tile_rows() {
            for tc in 0..matrix.tile_cols() {
                self.decompress_tile_into(matrix.tile(tr, tc), &mut scratch, &mut tile)?;
                store_tile(out, tr, tc, &tile);
            }
        }
        Ok(())
    }

    /// Convenience wrapper allocating the output matrix.
    ///
    /// # Errors
    ///
    /// Propagates tile-level errors.
    fn decompress_matrix(&self, matrix: &CompressedMatrix) -> Result<WeightMatrix, CompressError> {
        let mut out = WeightMatrix::zeros(matrix.rows(), matrix.cols());
        self.decompress_matrix_into(matrix, &mut out)?;
        Ok(out)
    }
}

fn check_output_shape(matrix: &CompressedMatrix, out: &WeightMatrix) -> Result<(), CompressError> {
    if out.rows() != matrix.rows() || out.cols() != matrix.cols() {
        return Err(CompressError::InvalidShape {
            rows: out.rows(),
            cols: out.cols(),
            reason: "output matrix shape does not match the compressed matrix",
        });
    }
    Ok(())
}

/// Writes a decompressed tile into its matrix position, clipping at the
/// matrix edge (tiles past the edge are zero-padded).
fn store_tile(out: &mut WeightMatrix, tr: usize, tc: usize, tile: &DenseTile) {
    let rows = out.rows();
    let cols = out.cols();
    let row_base = tr * TILE_ROWS;
    let band = &mut out.data_mut()[row_base * cols..];
    store_tile_in_band(band, rows - row_base, cols, tc, tile);
}

/// Writes a tile into a band of `band_rows` matrix rows starting at the
/// tile's row base. `band` is the row-major storage of those rows.
fn store_tile_in_band(
    band: &mut [f32],
    band_rows: usize,
    cols: usize,
    tc: usize,
    tile: &DenseTile,
) {
    let col_base = tc * TILE_COLS;
    let tile_cols = TILE_COLS.min(cols.saturating_sub(col_base));
    for (r, row) in tile.elements().chunks_exact(TILE_COLS).enumerate() {
        if r >= band_rows {
            break;
        }
        let dst = &mut band[r * cols + col_base..r * cols + col_base + tile_cols];
        for (d, v) in dst.iter_mut().zip(&row[..tile_cols]) {
            *d = v.to_f32();
        }
    }
}

/// What a backend needs to decompress one validated tile: the shared
/// dequantization table (if any), the scale-group size and the raw scales.
struct TilePlan<'a> {
    table: Option<&'a DequantTable>,
    group: usize,
    scales: &'a [deca_numerics::mx::ScaleE8M0],
}

/// Validates a tile's three memory structures (§5.2) via
/// [`CompressedTile::validate`], unpacks its codes into scratch, and
/// returns the dequantization plan shared by all backends — a corrupted
/// weight stream must fault here, never index out of bounds or silently
/// decompress unscaled.
fn prepare<'a>(
    luts: &'a FormatLuts,
    tile: &'a CompressedTile,
    scratch: &mut DecompressScratch,
) -> Result<TilePlan<'a>, CompressError> {
    tile.validate()?;
    let scheme = tile.scheme();
    tile.unpack_nonzeros_into(&mut scratch.codes);
    Ok(TilePlan {
        table: luts.table(scheme.format()),
        group: scheme.group_size().unwrap_or(usize::MAX),
        scales: tile.scales(),
    })
}

/// The scalar reference backend: per-element dequantize → expand → scale,
/// exactly the semantics of the original `Decompressor` but borrowing the
/// caller's buffers instead of allocating per tile.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScalarEngine;

impl ScalarEngine {
    /// Creates the engine (the per-format LUTs are shared process-wide).
    #[must_use]
    pub fn new() -> Self {
        ScalarEngine
    }

    /// The precomputed per-format LUT array.
    #[must_use]
    pub fn luts(&self) -> &'static FormatLuts {
        FormatLuts::shared()
    }
}

impl DecompressEngine for ScalarEngine {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn decompress_tile_into(
        &self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<(), CompressError> {
        let plan = prepare(self.luts(), tile, scratch)?;
        let value_of = |code: u16| match plan.table {
            Some(t) => t.lookup(code as u8),
            None => Bf16::from_bits(code),
        };
        out.fill_zero();
        if let Some(mask) = tile.bitmask() {
            let mut nz = 0usize;
            for pos in 0..TILE_ELEMS {
                if !mask.get(pos) {
                    continue;
                }
                let mut value = value_of(scratch.codes[nz]);
                if !plan.scales.is_empty() {
                    value = value * plan.scales[pos / plan.group].to_bf16();
                }
                out.set(pos / TILE_COLS, pos % TILE_COLS, value);
                nz += 1;
            }
        } else {
            for (pos, &code) in scratch.codes.iter().enumerate() {
                let mut value = value_of(code);
                if !plan.scales.is_empty() {
                    value = value * plan.scales[pos / plan.group].to_bf16();
                }
                out.set(pos / TILE_COLS, pos % TILE_COLS, value);
            }
        }
        Ok(())
    }
}

/// Whole-matrix decompression fanned out over OS threads: tile rows are
/// split into disjoint bands (each band is a contiguous row-major slice of
/// the output) and each worker streams its bands through an inner
/// [`SimdEngine`] with its own scratch and tile buffer.
#[derive(Debug, Default, Clone)]
pub struct ParallelMatrixEngine {
    inner: SimdEngine,
    threads: Option<usize>,
}

impl ParallelMatrixEngine {
    /// Creates the engine with as many workers as the host exposes.
    #[must_use]
    pub fn new() -> Self {
        ParallelMatrixEngine {
            inner: SimdEngine::new(),
            threads: None,
        }
    }

    /// Caps the worker count (useful for reproducible benchmarking).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        self.threads = Some(threads);
        self
    }

    fn worker_count(&self, tile_rows: usize) -> usize {
        let available = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        available.clamp(1, tile_rows.max(1))
    }
}

impl DecompressEngine for ParallelMatrixEngine {
    fn name(&self) -> &'static str {
        "parallel-matrix"
    }

    fn decompress_tile_into(
        &self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<(), CompressError> {
        // Single tiles have no fan-out axis; delegate to the inner engine.
        self.inner.decompress_tile_into(tile, scratch, out)
    }

    fn decompress_matrix_into(
        &self,
        matrix: &CompressedMatrix,
        out: &mut WeightMatrix,
    ) -> Result<(), CompressError> {
        check_output_shape(matrix, out)?;
        let rows = matrix.rows();
        let cols = matrix.cols();
        let tile_rows = matrix.tile_rows();
        let tile_cols = matrix.tile_cols();
        let workers = self.worker_count(tile_rows);

        // One band of up to 16 matrix rows per tile row; bands are disjoint
        // contiguous slices of the row-major output, so the scoped threads
        // never alias.
        let bands: Vec<(usize, &mut [f32])> = out
            .data_mut()
            .chunks_mut(TILE_ROWS * cols)
            .enumerate()
            .collect();
        let mut groups: Vec<Vec<(usize, &mut [f32])>> = Vec::new();
        groups.resize_with(workers, Vec::new);
        for (i, band) in bands {
            groups[i % workers].push((i, band));
        }

        let results: Vec<Result<(), CompressError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|group| {
                    scope.spawn(move || {
                        let mut tile = DenseTile::zero();
                        let mut scratch = DecompressScratch::new();
                        for (tr, band) in group {
                            let band_rows = (rows - tr * TILE_ROWS).min(TILE_ROWS);
                            for tc in 0..tile_cols {
                                self.inner.decompress_tile_into(
                                    matrix.tile(tr, tc),
                                    &mut scratch,
                                    &mut tile,
                                )?;
                                store_tile_in_band(band, band_rows, cols, tc, &tile);
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("decompression worker panicked"))
                .collect()
        });
        results.into_iter().collect()
    }
}

/// Explicitly vectorized dequant → expand → scale backend.
///
/// On `x86_64` hosts with AVX2 (checked at runtime, never assumed at
/// compile time) each tile takes a three-stage vector pipeline:
///
/// 1. **Dequantize** — codes are looked up 16 at a time through two 8-lane
///    `vpgatherdd` gathers into a `u32`-widened mirror of the shared
///    [`FormatLuts`] tables (BF16 codes pass through untouched).
/// 2. **Expand** — sparse tiles scatter the compacted values to their dense
///    positions one bitmask byte (8 positions) per `pshufb`, driven by a
///    256-entry precomputed shuffle-control table; cleared positions
///    zero-fill in the same shuffle, so the whole tile is written without a
///    separate memset.
/// 3. **Scale** — group-quantized tiles multiply 8 lanes at a time in f32
///    and round back to BF16 with the exact integer round-to-nearest-even
///    and NaN-quieting steps of `Bf16::from_f32`, keeping the output
///    bit-identical to [`ScalarEngine`].
///
/// Everywhere else — non-x86 hosts, x86 without AVX2, engines built with
/// [`SimdEngine::portable`], or tiles whose scale metadata the vector scale
/// pass cannot reproduce exactly — the portable word loop runs: safe Rust
/// over `u64` bitmask words, skipping zero words and locating nonzeros with
/// count-trailing-zeros. Both paths satisfy the bit-exactness contract.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimdEngine {
    force_portable: bool,
}

impl SimdEngine {
    /// Creates the engine; the vector path is chosen by runtime feature
    /// detection on first use.
    #[must_use]
    pub fn new() -> Self {
        SimdEngine {
            force_portable: false,
        }
    }

    /// Creates the engine with the portable word loop forced on, regardless
    /// of host ISA support — the regression hook that keeps that path
    /// tested on hosts where AVX2 would normally win.
    #[must_use]
    pub fn portable() -> Self {
        SimdEngine {
            force_portable: true,
        }
    }

    /// Whether this instance may use the AVX2 vector path (`false` off
    /// x86-64, on hosts without AVX2, or after [`SimdEngine::portable`]).
    #[must_use]
    pub fn uses_avx2(&self) -> bool {
        !self.force_portable && avx2_available()
    }
}

/// Runtime AVX2 support (always `false` off x86-64).
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl DecompressEngine for SimdEngine {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn decompress_tile_into(
        &self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<(), CompressError> {
        let plan = prepare(FormatLuts::shared(), tile, scratch)?;
        // Promote the group scales once per tile (bit-exact: the multiply
        // sees the same BF16 value the scalar engine promotes per element).
        scratch.group_scales.clear();
        scratch
            .group_scales
            .extend(plan.scales.iter().map(|s| s.to_bf16()));
        #[cfg(target_arch = "x86_64")]
        if self.uses_avx2()
            && simd_x86::plan_is_vectorizable(&plan)
            && simd_x86::try_decompress_tile(tile, &plan, scratch, out)
        {
            return Ok(());
        }
        decompress_words(tile, &plan, scratch, out);
        Ok(())
    }
}

/// The portable path of [`SimdEngine`]: the software analogue of DECA's
/// POPCNT + prefix-sum + crossbar datapath. The bitmask is consumed as
/// 64-bit words (zero words are skipped outright, nonzeros located with
/// count-trailing-zeros), the group scales come pre-promoted to BF16 in
/// `scratch`, and dequantization indexes the shared LUT array directly.
/// Bit-exact with [`ScalarEngine`] on every scheme and every host.
fn decompress_words(
    tile: &CompressedTile,
    plan: &TilePlan<'_>,
    scratch: &DecompressScratch,
    out: &mut DenseTile,
) {
    let (codes, group_scales, group) = (&scratch.codes, &scratch.group_scales, plan.group);
    let value_of = |code: u16| match plan.table {
        Some(t) => t.lookup(code as u8),
        None => Bf16::from_bits(code),
    };
    out.fill_zero();
    let dst = out.elements_mut();
    if let Some(mask) = tile.bitmask() {
        let mut nz = 0usize;
        for (wi, &word) in mask.words().iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let pos = wi * 64 + w.trailing_zeros() as usize;
                let mut value = value_of(codes[nz]);
                if !group_scales.is_empty() {
                    value = value * group_scales[pos / group];
                }
                dst[pos] = value;
                nz += 1;
                w &= w - 1;
            }
        }
    } else if group_scales.is_empty() {
        for (slot, &code) in dst.iter_mut().zip(codes) {
            *slot = value_of(code);
        }
    } else {
        for (pos, (slot, &code)) in dst.iter_mut().zip(codes).enumerate() {
            *slot = value_of(code) * group_scales[pos / group];
        }
    }
}

/// AVX2 vector kernels for [`SimdEngine`] — the one sanctioned
/// `unsafe_code` exception in this crate.
///
/// Safety architecture: the only entry point is [`try_decompress_tile`],
/// which re-checks `is_x86_feature_detected!("avx2")` immediately before
/// entering the `#[target_feature(enable = "avx2")]` kernels, so the ISA
/// precondition is established at the single `unsafe` call boundary. Inside
/// the kernels, `unsafe` is confined to pointer-based loads/stores/gathers,
/// each with its bounds argument documented; all staging buffers carry
/// [`LANE_PAD`] trailing zeros so full-width vector accesses past a logical
/// end stay in bounds.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, clippy::cast_possible_wrap)]
mod simd_x86 {
    use core::arch::x86_64::{
        __m256, __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_blendv_epi8,
        _mm256_castps_si256, _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmp_ps,
        _mm256_cvtepu16_epi32, _mm256_extracti128_si256, _mm256_i32gather_epi32,
        _mm256_loadu_si256, _mm256_mul_ps, _mm256_or_si256, _mm256_packus_epi32,
        _mm256_permute4x64_epi64, _mm256_set1_epi32, _mm256_set1_ps, _mm256_slli_epi32,
        _mm256_srli_epi32, _mm256_storeu_si256, _mm_loadu_si128, _mm_shuffle_epi8,
        _mm_storeu_si128, _CMP_UNORD_Q,
    };
    use std::sync::OnceLock;

    use deca_numerics::Bf16;

    use super::{lut_slot, DecompressScratch, FormatLuts, TilePlan};
    use crate::{CompressedTile, DenseTile, TILE_ELEMS};

    /// Zero entries appended to staging buffers so full-width vector loads
    /// and stores past the logical end stay in bounds.
    const LANE_PAD: usize = 16;

    /// Whether the vector kernels reproduce this tile's scale semantics
    /// bit-exactly. Scale groups must align with the 16-lane chunks of the
    /// scale pass, and every scale must stay finite after BF16 promotion: a
    /// forged E8M0 code 255 promotes to +inf, and the vector pass —
    /// which multiplies *every* position, zeros included — would turn
    /// `0 × inf` into NaN where the scalar engine leaves an untouched zero.
    pub(super) fn plan_is_vectorizable(plan: &TilePlan<'_>) -> bool {
        plan.scales.is_empty()
            || (plan.group >= 16
                && plan.group.is_multiple_of(16)
                && plan.scales.iter().all(|s| s.to_bf16().to_f32().is_finite()))
    }

    /// Decompresses one vectorizable tile, returning `false` (having
    /// written nothing) when the host lacks AVX2.
    pub(super) fn try_decompress_tile(
        tile: &CompressedTile,
        plan: &TilePlan<'_>,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: AVX2 support was verified on the line above, satisfying
        // the `#[target_feature(enable = "avx2")]` calling contract.
        unsafe { decompress_tile_avx2(tile, plan, scratch, out) };
        true
    }

    /// 256-entry `u32`-widened mirrors of [`FormatLuts::shared`]'s tables,
    /// slot for slot, as `vpgatherdd` sources (zero-extended BF16 bits).
    fn simd_luts() -> &'static [[u32; 256]] {
        static LUTS: OnceLock<Vec<[u32; 256]>> = OnceLock::new();
        LUTS.get_or_init(|| {
            FormatLuts::shared()
                .tables
                .iter()
                .map(|table| {
                    let mut lut = [0u32; 256];
                    for (slot, entry) in lut.iter_mut().zip(table.entries()) {
                        *slot = u32::from(entry.to_bits());
                    }
                    lut
                })
                .collect()
        })
    }

    #[target_feature(enable = "avx2")]
    fn decompress_tile_avx2(
        tile: &CompressedTile,
        plan: &TilePlan<'_>,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) {
        let DecompressScratch {
            codes,
            group_scales,
            values,
            bits,
        } = scratch;
        let slot = lut_slot(tile.scheme().format());
        match tile.bitmask() {
            Some(mask) => {
                // Sparse: dequantize the compacted run, then scatter it.
                dequant_codes(codes, slot, values);
                expand_sparse(mask.words(), values, bits);
            }
            // Dense: dequantize straight into the whole-tile staging.
            None => dequant_codes(codes, slot, bits),
        }
        if !group_scales.is_empty() {
            scale_bits(&mut bits[..TILE_ELEMS], group_scales, plan.group);
        }
        // Publish the staged bit patterns into the caller's tile.
        for (dst, &b) in out.elements_mut().iter_mut().zip(bits.iter()) {
            *dst = Bf16::from_bits(b);
        }
    }

    /// Dequantizes `codes` into `dst` (cleared first, `LANE_PAD` zeros
    /// appended): 16 codes per iteration through two 8-lane gathers, or a
    /// plain copy for BF16 passthrough (`slot == None`).
    #[target_feature(enable = "avx2")]
    fn dequant_codes(codes: &[u16], slot: Option<usize>, dst: &mut Vec<u16>) {
        dst.clear();
        let Some(slot) = slot else {
            dst.extend_from_slice(codes);
            dst.resize(codes.len() + LANE_PAD, 0);
            return;
        };
        let lut = &simd_luts()[slot];
        dst.resize(codes.len() + LANE_PAD, 0);
        let index_mask = _mm256_set1_epi32(0xFF);
        let base = lut.as_ptr().cast::<i32>();
        let mut i = 0usize;
        while i + 16 <= codes.len() {
            // SAFETY: `i + 16 <= codes.len()` bounds the 16-lane load, and
            // `dst` holds `codes.len() + LANE_PAD` entries so the 16-lane
            // store at `i` is in bounds. The gather indexes are masked to
            // 0..=255 against the 256-entry LUT.
            unsafe {
                let raw = _mm256_loadu_si256(codes.as_ptr().add(i).cast());
                let lo = _mm256_and_si256(
                    _mm256_cvtepu16_epi32(_mm256_castsi256_si128(raw)),
                    index_mask,
                );
                let hi = _mm256_and_si256(
                    _mm256_cvtepu16_epi32(_mm256_extracti128_si256::<1>(raw)),
                    index_mask,
                );
                let vlo = _mm256_i32gather_epi32::<4>(base, lo);
                let vhi = _mm256_i32gather_epi32::<4>(base, hi);
                // packus interleaves the 128-bit lanes; permute restores
                // element order (qwords 0,2,1,3).
                let packed = _mm256_packus_epi32(vlo, vhi);
                let fixed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), fixed);
            }
            i += 16;
        }
        for (d, &c) in dst[i..].iter_mut().zip(&codes[i..]) {
            *d = lut[usize::from(c) & 0xFF] as u16;
        }
    }

    /// `pshufb` control bytes for every bitmask byte: output lane `j` (two
    /// bytes per u16 lane) takes compacted source lane
    /// `popcount(mask & ((1 << j) - 1))` when bit `j` is set, and
    /// zero-fills (0x80 control) otherwise.
    static EXPAND_CTRL: [[u8; 16]; 256] = build_expand_ctrl();

    const fn build_expand_ctrl() -> [[u8; 16]; 256] {
        let mut ctrl = [[0u8; 16]; 256];
        let mut m = 0usize;
        while m < 256 {
            let mut src: u8 = 0;
            let mut j = 0usize;
            while j < 8 {
                if (m >> j) & 1 == 1 {
                    ctrl[m][2 * j] = 2 * src;
                    ctrl[m][2 * j + 1] = 2 * src + 1;
                    src += 1;
                } else {
                    ctrl[m][2 * j] = 0x80;
                    ctrl[m][2 * j + 1] = 0x80;
                }
                j += 1;
            }
            m += 1;
        }
        ctrl
    }

    /// Scatters the compacted `values` to their dense bitmask positions in
    /// `bits` (resized to `TILE_ELEMS + LANE_PAD`), 8 positions per
    /// shuffle. Every position is written — zeros come from the shuffle's
    /// zero-fill lanes — so no separate clear pass is needed.
    #[target_feature(enable = "avx2")]
    fn expand_sparse(words: &[u64], values: &[u16], bits: &mut Vec<u16>) {
        bits.clear();
        bits.resize(TILE_ELEMS + LANE_PAD, 0);
        let mut nz = 0usize;
        let mut pos = 0usize;
        for &word in words {
            for byte in word.to_le_bytes() {
                let ctrl = &EXPAND_CTRL[usize::from(byte)];
                // SAFETY: `values` carries `LANE_PAD` zeros past its
                // logical end and `nz` never exceeds the nonzero count, so
                // the 8-lane load at `nz` is in bounds; `pos < TILE_ELEMS`
                // (8 words × 8 bytes × 8 positions = TILE_ELEMS) and `bits`
                // holds `TILE_ELEMS + LANE_PAD` entries, bounding the
                // store; `ctrl` is a 16-byte array.
                unsafe {
                    let src = _mm_loadu_si128(values.as_ptr().add(nz).cast());
                    let shuffled = _mm_shuffle_epi8(src, _mm_loadu_si128(ctrl.as_ptr().cast()));
                    _mm_storeu_si128(bits.as_mut_ptr().add(pos).cast(), shuffled);
                }
                nz += byte.count_ones() as usize;
                pos += 8;
            }
        }
    }

    /// Multiplies every BF16 lane of `bits` by its group's scale, 16 lanes
    /// per step. Eligibility guarantees each 16-lane chunk falls inside one
    /// scale group (`group % 16 == 0`).
    #[target_feature(enable = "avx2")]
    fn scale_bits(bits: &mut [u16], group_scales: &[Bf16], group: usize) {
        let mut pos = 0usize;
        while pos + 16 <= bits.len() {
            let vscale = _mm256_set1_ps(group_scales[pos / group].to_f32());
            // SAFETY: `pos + 16 <= bits.len()` bounds both the 16-lane load
            // and the 16-lane store at `pos`.
            unsafe {
                let raw = _mm256_loadu_si256(bits.as_ptr().add(pos).cast());
                let lo = mul_round(_mm256_cvtepu16_epi32(_mm256_castsi256_si128(raw)), vscale);
                let hi = mul_round(
                    _mm256_cvtepu16_epi32(_mm256_extracti128_si256::<1>(raw)),
                    vscale,
                );
                let packed = _mm256_packus_epi32(lo, hi);
                let fixed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
                _mm256_storeu_si256(bits.as_mut_ptr().add(pos).cast(), fixed);
            }
            pos += 16;
        }
    }

    /// Multiplies 8 BF16 values (zero-extended into u32 lanes) by `vscale`
    /// in f32 and rounds back to BF16 bits, replicating `Bf16::from_f32`
    /// exactly: round-to-nearest-even via the `0x7FFF + lsb` bias in the
    /// integer domain, NaN products quieted by truncate-and-set-quiet-bit.
    #[target_feature(enable = "avx2")]
    fn mul_round(lanes: __m256i, vscale: __m256) -> __m256i {
        let value = _mm256_castsi256_ps(_mm256_slli_epi32::<16>(lanes));
        let product = _mm256_mul_ps(value, vscale);
        let bits = _mm256_castps_si256(product);
        let shifted = _mm256_srli_epi32::<16>(bits);
        let lsb = _mm256_and_si256(shifted, _mm256_set1_epi32(1));
        let biased = _mm256_add_epi32(_mm256_add_epi32(bits, _mm256_set1_epi32(0x7FFF)), lsb);
        let rounded = _mm256_srli_epi32::<16>(biased);
        let quiet = _mm256_or_si256(shifted, _mm256_set1_epi32(0x40));
        let is_nan = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(product, product));
        _mm256_blendv_epi8(rounded, quiet, is_nan)
    }
}

/// The one decision behind [`AutoTunedEngine`]: how many workers fan out
/// whole-matrix decompression (1 = stream in-thread).
///
/// [`CalibrationTable::calibrate`] measures it by timing streamed against
/// fanned-out decompression of one sample matrix;
/// [`CalibrationTable::fixed`] pins it for deterministic tests. Every tile
/// runs the same bit-exact kernel either way, so the choice only ever
/// affects speed, never output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibrationTable {
    /// Worker threads for whole-matrix fan-out (1 = stream in-thread).
    matrix_threads: usize,
}

impl CalibrationTable {
    /// A table fanning matrices out over `threads` workers — the
    /// deterministic override for tests.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn fixed(threads: usize) -> Self {
        assert!(threads > 0, "at least one matrix worker is required");
        CalibrationTable {
            matrix_threads: threads,
        }
    }

    /// The tuned whole-matrix worker count.
    #[must_use]
    pub fn matrix_threads(&self) -> usize {
        self.matrix_threads
    }

    /// Times streamed against fanned-out whole-matrix decompression on one
    /// sample matrix and records the winner. Timing-based, so the *choice*
    /// can vary across hosts — outputs never do.
    #[must_use]
    pub fn calibrate() -> Self {
        use crate::{generator::WeightGenerator, CompressionScheme, Compressor};

        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let matrix_threads = if available <= 1 {
            1
        } else {
            let matrix = Compressor::new(CompressionScheme::bf8_sparse(0.5))
                .compress_matrix(&WeightGenerator::new(0xDECA).dense_matrix(128, 128))
                .expect("calibration matrix compresses");
            let streamed = Self::time_matrix(&SimdEngine::new(), &matrix);
            let fanned = Self::time_matrix(
                &ParallelMatrixEngine::new().with_threads(available),
                &matrix,
            );
            if fanned < streamed {
                available
            } else {
                1
            }
        };
        CalibrationTable { matrix_threads }
    }

    /// The process-wide calibration, measured once on first use so that
    /// constructing [`AutoTunedEngine`] in a loop stays cheap.
    #[must_use]
    pub fn shared() -> &'static CalibrationTable {
        static SHARED: std::sync::OnceLock<CalibrationTable> = std::sync::OnceLock::new();
        SHARED.get_or_init(CalibrationTable::calibrate)
    }

    fn time_matrix(engine: &dyn DecompressEngine, matrix: &CompressedMatrix) -> f64 {
        let mut out = WeightMatrix::zeros(matrix.rows(), matrix.cols());
        let mut run = || {
            engine
                .decompress_matrix_into(matrix, &mut out)
                .expect("calibration decompression");
        };
        run(); // warm scratch buffers and lazy LUTs outside the timed loop
        let start = std::time::Instant::now();
        for _ in 0..4 {
            run();
        }
        start.elapsed().as_secs_f64()
    }
}

/// Calibration-driven whole-matrix dispatcher: every tile runs
/// [`SimdEngine`], and whole matrices either stream in-thread or fan out
/// over the calibrated worker count ([`ParallelMatrixEngine`]).
///
/// Construction via [`AutoTunedEngine::new`] uses the process-wide
/// [`CalibrationTable::shared`] measurement; [`AutoTunedEngine::with_table`]
/// injects an explicit table for deterministic tests. Dispatch never
/// affects results, so the tuner is purely a throughput decision.
#[derive(Debug, Clone)]
pub struct AutoTunedEngine {
    table: CalibrationTable,
    simd: SimdEngine,
}

impl AutoTunedEngine {
    /// Creates the engine from the process-wide calibration.
    #[must_use]
    pub fn new() -> Self {
        AutoTunedEngine::with_table(CalibrationTable::shared().clone())
    }

    /// Creates the engine with an explicit calibration table.
    #[must_use]
    pub fn with_table(table: CalibrationTable) -> Self {
        AutoTunedEngine {
            table,
            simd: SimdEngine::new(),
        }
    }

    /// The decision table driving dispatch.
    #[must_use]
    pub fn table(&self) -> &CalibrationTable {
        &self.table
    }
}

impl Default for AutoTunedEngine {
    fn default() -> Self {
        AutoTunedEngine::new()
    }
}

impl DecompressEngine for AutoTunedEngine {
    fn name(&self) -> &'static str {
        "auto-tuned"
    }

    fn decompress_tile_into(
        &self,
        tile: &CompressedTile,
        scratch: &mut DecompressScratch,
        out: &mut DenseTile,
    ) -> Result<(), CompressError> {
        self.simd.decompress_tile_into(tile, scratch, out)
    }

    fn decompress_matrix_into(
        &self,
        matrix: &CompressedMatrix,
        out: &mut WeightMatrix,
    ) -> Result<(), CompressError> {
        if self.table.matrix_threads() > 1 {
            return ParallelMatrixEngine::new()
                .with_threads(self.table.matrix_threads())
                .decompress_matrix_into(matrix, out);
        }
        self.simd.decompress_matrix_into(matrix, out)
    }
}

/// Names every provided engine so that tests and benchmarks can enumerate
/// them and report which one ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// [`ScalarEngine`] — the per-element functional reference.
    Scalar,
    /// [`SimdEngine`] — AVX2 vector kernels with a portable word loop.
    Simd,
    /// [`ParallelMatrixEngine`] — scoped-thread fan-out over tile rows.
    ParallelMatrix,
    /// [`AutoTunedEngine`] — SIMD tiles, calibrated matrix fan-out.
    AutoTuned,
}

impl EngineKind {
    /// Every provided backend, in reference-first order.
    #[must_use]
    pub fn all() -> [EngineKind; 4] {
        [
            EngineKind::Scalar,
            EngineKind::Simd,
            EngineKind::ParallelMatrix,
            EngineKind::AutoTuned,
        ]
    }

    /// The backend's stable name (matches [`DecompressEngine::name`]).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Scalar => "scalar",
            EngineKind::Simd => "simd",
            EngineKind::ParallelMatrix => "parallel-matrix",
            EngineKind::AutoTuned => "auto-tuned",
        }
    }

    /// Instantiates the backend.
    #[must_use]
    pub fn build(self) -> Box<dyn DecompressEngine> {
        match self {
            EngineKind::Scalar => Box::new(ScalarEngine::new()),
            EngineKind::Simd => Box::new(SimdEngine::new()),
            EngineKind::ParallelMatrix => Box::new(ParallelMatrixEngine::new()),
            EngineKind::AutoTuned => Box::new(AutoTunedEngine::new()),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generator::WeightGenerator, CompressionScheme, Compressor, Decompressor};

    fn sample_tile(scheme: CompressionScheme, seed: u64) -> CompressedTile {
        let tile = WeightGenerator::new(seed).dense_matrix(16, 32).tile(0, 0);
        Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress")
    }

    fn schemes() -> Vec<CompressionScheme> {
        vec![
            CompressionScheme::bf16_dense(),
            CompressionScheme::bf16_sparse(0.3),
            CompressionScheme::bf8_dense(),
            CompressionScheme::bf8_sparse(0.5),
            CompressionScheme::bf8_sparse(0.05),
            CompressionScheme::mxfp4(),
            CompressionScheme::mxfp4_sparse(0.4),
        ]
    }

    #[test]
    fn all_engines_match_the_reference_tile_output() {
        let reference = Decompressor::new();
        for scheme in schemes() {
            let tile = sample_tile(scheme, 31);
            let expected = reference.decompress_tile(&tile).expect("reference");
            for kind in EngineKind::all() {
                let engine = kind.build();
                let mut out = DenseTile::zero();
                let mut scratch = DecompressScratch::new();
                engine
                    .decompress_tile_into(&tile, &mut scratch, &mut out)
                    .expect("engine");
                for (a, b) in expected.elements().iter().zip(out.elements()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind} on {scheme}");
                }
            }
        }
    }

    #[test]
    fn output_tile_is_fully_overwritten() {
        // A reused output buffer must not leak values from a previous tile,
        // on either path of the SIMD engine.
        let dense = sample_tile(CompressionScheme::bf8_dense(), 5);
        let sparse = sample_tile(CompressionScheme::bf8_sparse(0.05), 6);
        let reference = Decompressor::new().decompress_tile(&sparse).expect("ref");
        for engine in [SimdEngine::new(), SimdEngine::portable()] {
            let mut scratch = DecompressScratch::new();
            let mut out = DenseTile::zero();
            engine
                .decompress_tile_into(&dense, &mut scratch, &mut out)
                .expect("dense");
            engine
                .decompress_tile_into(&sparse, &mut scratch, &mut out)
                .expect("sparse");
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn matrix_decompression_matches_reference_for_ragged_shapes() {
        let g = WeightGenerator::new(9);
        let m = g.dense_matrix(50, 70); // not tile-aligned on purpose
        let cm = Compressor::new(CompressionScheme::bf8_sparse(0.3))
            .compress_matrix(&m)
            .expect("compress");
        let expected = Decompressor::new().decompress_matrix(&cm).expect("ref");
        for kind in EngineKind::all() {
            let got = kind.build().decompress_matrix(&cm).expect("engine");
            assert_eq!(got, expected, "{kind}");
        }
    }

    #[test]
    fn parallel_engine_thread_cap_is_respected_and_correct() {
        let g = WeightGenerator::new(10);
        let m = g.dense_matrix(128, 96);
        let cm = Compressor::new(CompressionScheme::mxfp4())
            .compress_matrix(&m)
            .expect("compress");
        let expected = Decompressor::new().decompress_matrix(&cm).expect("ref");
        for threads in [1, 2, 7] {
            let engine = ParallelMatrixEngine::new().with_threads(threads);
            assert_eq!(
                engine.decompress_matrix(&cm).expect("engine"),
                expected,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let g = WeightGenerator::new(11);
        let cm = Compressor::new(CompressionScheme::bf8_dense())
            .compress_matrix(&g.dense_matrix(32, 32))
            .expect("compress");
        let mut wrong = WeightMatrix::zeros(16, 32);
        for kind in EngineKind::all() {
            assert!(matches!(
                kind.build().decompress_matrix_into(&cm, &mut wrong),
                Err(CompressError::InvalidShape { .. })
            ));
        }
    }

    #[test]
    fn format_luts_cover_every_sub_byte_format() {
        let luts = FormatLuts::precomputed();
        for format in [
            QuantFormat::Bf8,
            QuantFormat::E4m3,
            QuantFormat::Fp4,
            QuantFormat::Int8,
            QuantFormat::Int4,
            QuantFormat::Custom {
                exp_bits: 3,
                man_bits: 2,
            },
        ] {
            let table = luts.table(format).expect("table");
            assert_eq!(table.format(), format);
            let direct = DequantTable::for_format(format);
            assert_eq!(table.entries(), direct.entries());
        }
        assert!(luts.table(QuantFormat::Bf16).is_none());
    }

    #[test]
    fn engine_kind_labels_round_trip() {
        for kind in EngineKind::all() {
            assert_eq!(kind.build().name(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn simd_portable_fallback_matches_reference() {
        // The forced portable path must stay bit-exact even on hosts where
        // the AVX2 path would normally run — this is the regression test
        // for the feature-detection contract.
        let engine = SimdEngine::portable();
        assert!(!engine.uses_avx2());
        let reference = Decompressor::new();
        for scheme in schemes() {
            let tile = sample_tile(scheme, 47);
            let expected = reference.decompress_tile(&tile).expect("reference");
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            engine
                .decompress_tile_into(&tile, &mut scratch, &mut out)
                .expect("portable");
            for (a, b) in expected.elements().iter().zip(out.elements()) {
                assert_eq!(a.to_bits(), b.to_bits(), "portable on {scheme}");
            }
        }
    }

    #[test]
    fn simd_routes_forged_infinite_scales_to_the_fallback() {
        use deca_numerics::mx::ScaleE8M0;
        // E8M0 code 255 promotes to +inf; the vector scale pass multiplies
        // zeros too, so such tiles must take the portable word loop.
        let tile = sample_tile(CompressionScheme::mxfp4_sparse(0.4), 13);
        let forged = CompressedTile::new(
            *tile.scheme(),
            tile.nonzero_bytes().to_vec(),
            tile.nonzero_count(),
            tile.bitmask().cloned(),
            vec![ScaleE8M0::from_code(255); tile.scales().len()],
        )
        .expect("forged tile still validates");
        let expected = Decompressor::new()
            .decompress_tile(&forged)
            .expect("reference");
        for engine in [SimdEngine::new(), SimdEngine::portable()] {
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            engine
                .decompress_tile_into(&forged, &mut scratch, &mut out)
                .expect("simd");
            for (pos, (a, b)) in expected.elements().iter().zip(out.elements()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "position {pos}");
            }
        }
    }

    #[test]
    fn auto_tuned_table_override_is_deterministic_and_bit_exact() {
        let table = CalibrationTable::fixed(1);
        let engine = AutoTunedEngine::with_table(table.clone());
        assert_eq!(engine.table(), &table);
        assert_eq!(table.matrix_threads(), 1);
        let m = WeightGenerator::new(21).dense_matrix(48, 64);
        let cm = Compressor::new(CompressionScheme::mxfp4_sparse(0.3))
            .compress_matrix(&m)
            .expect("compress");
        let expected = Decompressor::new().decompress_matrix(&cm).expect("ref");
        assert_eq!(engine.decompress_matrix(&cm).expect("engine"), expected);
    }

    #[test]
    fn shared_calibration_chooses_only_fixed_tile_backends() {
        // The shared calibration decides only the matrix fan-out: a worker
        // count the host can run, under which the auto-tuned engine (SIMD
        // tiles, streamed or fanned out) stays bit-exact.
        let table = CalibrationTable::shared();
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert!((1..=available).contains(&table.matrix_threads()));
        let m = WeightGenerator::new(22).dense_matrix(80, 96);
        for scheme in schemes() {
            let cm = Compressor::new(scheme)
                .compress_matrix(&m)
                .expect("compress");
            let expected = Decompressor::new().decompress_matrix(&cm).expect("ref");
            let got = AutoTunedEngine::new()
                .decompress_matrix(&cm)
                .expect("engine");
            assert_eq!(got, expected, "{scheme}");
        }
    }
}
