//! Weight compression substrate for the DECA reproduction.
//!
//! The paper assumes weight matrices that were compressed *offline* with a
//! combination of low-bit quantization and unstructured sparsification
//! (Fig. 1). At inference time, tiles of those matrices must be decompressed
//! *online* into dense BF16 tiles before the in-core TMUL engine can consume
//! them. This crate implements the offline side plus a reference (scalar)
//! online decompressor:
//!
//! * [`CompressionScheme`] — a quantization format + density (+ optional
//!   group quantization), with exact byte/compression-factor accounting,
//! * [`Bitmask`] — the bitmask sparse format (one bit per element of the
//!   original tile, nonzeros stored contiguously),
//! * [`DenseTile`] / [`CompressedTile`] — the 16×32-element AMX weight tile
//!   in dense BF16 and compressed forms,
//! * [`WeightMatrix`] / [`CompressedMatrix`] — whole matrices tiled for AMX,
//! * [`Compressor`] / [`Decompressor`] — offline compression and reference
//!   online decompression,
//! * [`engine`] — the streaming decompression backends
//!   ([`DecompressEngine`]): the scalar reference, one fast tile kernel
//!   (SIMD: AVX2 with a portable POPCNT/prefix-sum style word loop),
//!   threaded whole-matrix fan-out over that kernel and a calibrated
//!   dispatcher choosing between streaming and fan-out, all bit-exact
//!   against each other,
//! * [`generator`] — synthetic weight matrices with controlled density.
//!
//! # Example
//!
//! ```
//! use deca_compress::{CompressionScheme, Compressor, Decompressor, generator};
//!
//! let scheme = CompressionScheme::bf8_sparse(0.5);
//! let weights = generator::WeightGenerator::new(7).dense_matrix(32, 64);
//! let compressed = Compressor::new(scheme).compress_matrix(&weights)?;
//! let restored = Decompressor::new().decompress_matrix(&compressed)?;
//! assert_eq!(restored.rows(), 32);
//! # Ok::<(), deca_compress::CompressError>(())
//! ```

// Unsafe code is denied crate-wide (reinforcing the workspace lint); the one
// sanctioned exception is the `engine::simd_x86` intrinsics module, which
// opts back in locally with `#[allow(unsafe_code)]` and documents the safety
// argument for every unsafe block.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bitmask;
mod compressor;
mod decompressor;
pub mod engine;
mod error;
pub mod generator;
mod matrix;
mod scheme;
mod tile;

pub use bitmask::Bitmask;
pub use compressor::{compress, Compressor};
pub use decompressor::Decompressor;
pub use engine::{
    AutoTunedEngine, CalibrationTable, DecompressEngine, DecompressScratch, EngineKind, FormatLuts,
    ParallelMatrixEngine, ScalarEngine, SimdEngine,
};
pub use error::CompressError;
pub use matrix::{CompressedMatrix, WeightMatrix};
pub use scheme::{CompressionScheme, SchemeSet};
pub use tile::{pack_codes, unpack_codes_into, CompressedTile, DenseTile};

/// Rows in an AMX weight tile (§2.3).
pub const TILE_ROWS: usize = 16;
/// BF16 columns in an AMX weight tile (§2.3).
pub const TILE_COLS: usize = 32;
/// Elements per weight tile.
pub const TILE_ELEMS: usize = TILE_ROWS * TILE_COLS;
/// Bytes of a dense BF16 weight tile (1 KB).
pub const TILE_BYTES_BF16: usize = TILE_ELEMS * 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_geometry_matches_amx() {
        assert_eq!(TILE_ROWS, 16);
        assert_eq!(TILE_COLS, 32);
        assert_eq!(TILE_ELEMS, 512);
        assert_eq!(TILE_BYTES_BF16, 1024);
    }
}
