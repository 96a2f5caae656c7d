//! Weight matrices and their tiled, compressed representations.
//!
//! The FC layers of an LLM store weight matrices that are tiled into 16×32
//! AMX weight tiles. A [`WeightMatrix`] is the dense f32 "master" copy used
//! for offline compression and for functional GeMM verification; a
//! [`CompressedMatrix`] holds one [`CompressedTile`] per tile position.

use deca_numerics::Bf16;

use crate::{CompressError, CompressedTile, CompressionScheme, DenseTile, TILE_COLS, TILE_ROWS};

/// A dense weight matrix in row-major f32.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl WeightMatrix {
    /// Creates an all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        WeightMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidShape`] if `data.len() != rows*cols`
    /// or a dimension is zero.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, CompressError> {
        if rows == 0 || cols == 0 {
            return Err(CompressError::InvalidShape {
                rows,
                cols,
                reason: "dimensions must be positive",
            });
        }
        if data.len() != rows * cols {
            return Err(CompressError::InvalidShape {
                rows,
                cols,
                reason: "data length does not match rows*cols",
            });
        }
        Ok(WeightMatrix { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[must_use]
    pub fn elems(&self) -> usize {
        self.rows * self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Sets element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// Row-major data slice.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Fraction of nonzero elements.
    #[must_use]
    pub fn density(&self) -> f64 {
        let nnz = self.data.iter().filter(|v| **v != 0.0).count();
        nnz as f64 / self.elems() as f64
    }

    /// Number of tile rows (16-row blocks), padding the last block.
    #[must_use]
    pub fn tile_rows(&self) -> usize {
        self.rows.div_ceil(TILE_ROWS)
    }

    /// Number of tile columns (32-column blocks), padding the last block.
    #[must_use]
    pub fn tile_cols(&self) -> usize {
        self.cols.div_ceil(TILE_COLS)
    }

    /// Total number of weight tiles covering the matrix.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tile_rows() * self.tile_cols()
    }

    /// Extracts the dense tile at tile coordinates `(tr, tc)`, zero-padding
    /// past the matrix edge.
    ///
    /// # Panics
    ///
    /// Panics if the tile coordinates are out of range.
    #[must_use]
    pub fn tile(&self, tr: usize, tc: usize) -> DenseTile {
        let mut tile = DenseTile::zero();
        self.copy_tile_into(tr, tc, &mut tile);
        tile
    }

    /// Writes the dense tile at `(tr, tc)` into a reused buffer, row slice
    /// by row slice, zero-padding past the matrix edge.
    ///
    /// # Panics
    ///
    /// Panics if the tile coordinates are out of range.
    pub(crate) fn copy_tile_into(&self, tr: usize, tc: usize, tile: &mut DenseTile) {
        assert!(
            tr < self.tile_rows() && tc < self.tile_cols(),
            "tile coordinates out of range"
        );
        let (row0, col0) = (tr * TILE_ROWS, tc * TILE_COLS);
        let cols = TILE_COLS.min(self.cols - col0);
        if row0 + TILE_ROWS > self.rows || cols < TILE_COLS {
            tile.fill_zero();
        }
        let rows = self.data[row0 * self.cols..].chunks(self.cols);
        for (dst, row) in tile.elements_mut().chunks_exact_mut(TILE_COLS).zip(rows) {
            for (d, &v) in dst.iter_mut().zip(&row[col0..col0 + cols]) {
                *d = Bf16::from_f32(v);
            }
        }
    }

    /// Memory footprint of the uncompressed matrix in BF16 bytes.
    #[must_use]
    pub fn bf16_bytes(&self) -> usize {
        self.elems() * 2
    }
}

/// A weight matrix compressed tile-by-tile under a single scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedMatrix {
    scheme: CompressionScheme,
    rows: usize,
    cols: usize,
    tile_rows: usize,
    tile_cols: usize,
    tiles: Vec<CompressedTile>,
}

impl CompressedMatrix {
    /// Assembles a compressed matrix from its tiles in row-major tile order.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidShape`] if the number of tiles does
    /// not match the tiled dimensions.
    pub fn new(
        scheme: CompressionScheme,
        rows: usize,
        cols: usize,
        tiles: Vec<CompressedTile>,
    ) -> Result<Self, CompressError> {
        let tile_rows = rows.div_ceil(TILE_ROWS);
        let tile_cols = cols.div_ceil(TILE_COLS);
        if tiles.len() != tile_rows * tile_cols {
            return Err(CompressError::InvalidShape {
                rows,
                cols,
                reason: "tile count does not match tiled dimensions",
            });
        }
        Ok(CompressedMatrix {
            scheme,
            rows,
            cols,
            tile_rows,
            tile_cols,
            tiles,
        })
    }

    /// The compression scheme used.
    #[must_use]
    pub fn scheme(&self) -> &CompressionScheme {
        &self.scheme
    }

    /// Logical rows of the original matrix.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical columns of the original matrix.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tile rows.
    #[must_use]
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Number of tile columns.
    #[must_use]
    pub fn tile_cols(&self) -> usize {
        self.tile_cols
    }

    /// All tiles in row-major tile order.
    #[must_use]
    pub fn tiles(&self) -> &[CompressedTile] {
        &self.tiles
    }

    /// The tile at tile coordinates `(tr, tc)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn tile(&self, tr: usize, tc: usize) -> &CompressedTile {
        assert!(
            tr < self.tile_rows && tc < self.tile_cols,
            "tile out of range"
        );
        &self.tiles[tr * self.tile_cols + tc]
    }

    /// Total compressed bytes across all tiles.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.tiles.iter().map(CompressedTile::byte_size).sum()
    }

    /// Average achieved compression factor versus the dense BF16 matrix.
    #[must_use]
    pub fn compression_factor(&self) -> f64 {
        (self.tiles.len() * crate::TILE_BYTES_BF16) as f64 / self.total_bytes() as f64
    }

    /// Measured density (averaged over tiles).
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        self.tiles.iter().map(CompressedTile::density).sum::<f64>() / self.tiles.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = WeightMatrix::zeros(20, 40);
        assert_eq!(m.rows(), 20);
        assert_eq!(m.cols(), 40);
        assert_eq!(m.elems(), 800);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.bf16_bytes(), 1600);
    }

    #[test]
    fn from_data_validation() {
        assert!(WeightMatrix::from_data(2, 2, vec![1.0; 4]).is_ok());
        assert!(WeightMatrix::from_data(2, 2, vec![1.0; 3]).is_err());
        assert!(WeightMatrix::from_data(0, 2, vec![]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = WeightMatrix::zeros(16, 32);
        m.set(5, 7, 2.5);
        assert_eq!(m.get(5, 7), 2.5);
        assert_eq!(m.data()[5 * 32 + 7], 2.5);
        m.data_mut()[0] = 1.0;
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn tiling_dimensions_round_up() {
        let m = WeightMatrix::zeros(17, 33);
        assert_eq!(m.tile_rows(), 2);
        assert_eq!(m.tile_cols(), 2);
        assert_eq!(m.tile_count(), 4);
        let exact = WeightMatrix::zeros(32, 64);
        assert_eq!(exact.tile_count(), 2 * 2);
    }

    #[test]
    fn tile_extraction_pads_with_zeros() {
        let mut m = WeightMatrix::zeros(17, 33);
        m.set(16, 32, 3.0);
        m.set(0, 0, 1.0);
        let t00 = m.tile(0, 0);
        assert_eq!(t00.get(0, 0).to_f32(), 1.0);
        let t11 = m.tile(1, 1);
        assert_eq!(t11.get(0, 0).to_f32(), 3.0);
        // Everything beyond the edge is zero padding.
        assert_eq!(t11.get(1, 1).to_f32(), 0.0);
        assert_eq!(t11.nonzero_count(), 1);
    }

    #[test]
    fn density_counts_nonzeros() {
        let mut m = WeightMatrix::zeros(4, 4);
        m.set(0, 0, 1.0);
        m.set(1, 1, -1.0);
        assert!((m.density() - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn compressed_matrix_requires_matching_tile_count() {
        let scheme = CompressionScheme::bf8_dense();
        let err = CompressedMatrix::new(scheme, 16, 32, vec![]);
        assert!(err.is_err());
    }
}
