//! DECA Loaders (§5.2, §6.1).
//!
//! A Loader receives tile *metadata* from the core (base addresses and
//! lengths of the nonzero array, the bitmask and the scale factors), issues
//! the corresponding memory reads through its load queue (LDQ), and fills
//! the PE's input queues. A PE has two Loaders so that one tile can be
//! fetched while the pipeline processes the other.

use deca_compress::{CompressedTile, DecompressEngine, DecompressScratch, DenseTile};

use crate::DecaError;

/// The metadata the core passes when invoking DECA for one tile: the three
/// memory structures to fetch (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileMetadata {
    /// Base address of the packed nonzero array.
    pub data_addr: u64,
    /// Length of the nonzero array in bytes.
    pub data_len: u32,
    /// Base address of the bitmask (0 when the tile is dense).
    pub bitmask_addr: u64,
    /// Length of the bitmask in bytes (0 when dense).
    pub bitmask_len: u32,
    /// Base address of the scale factors (0 when not group-quantized).
    pub scale_addr: u64,
    /// Length of the scale factors in bytes (0 when not group-quantized).
    pub scale_len: u32,
}

impl TileMetadata {
    /// Builds metadata describing a compressed tile laid out contiguously at
    /// `base` (nonzeros, then bitmask, then scales).
    #[must_use]
    pub fn for_tile(base: u64, tile: &CompressedTile) -> Self {
        let data_len = tile.payload_bytes() as u32;
        let bitmask_len = tile.bitmask().map_or(0, deca_compress::Bitmask::byte_size) as u32;
        let scale_len = tile.scales().len() as u32;
        TileMetadata {
            data_addr: base,
            data_len,
            bitmask_addr: if bitmask_len > 0 {
                base + u64::from(data_len)
            } else {
                0
            },
            bitmask_len,
            scale_addr: if scale_len > 0 {
                base + u64::from(data_len) + u64::from(bitmask_len)
            } else {
                0
            },
            scale_len,
        }
    }

    /// Total bytes this tile occupies in memory.
    #[must_use]
    pub fn total_bytes(&self) -> u32 {
        self.data_len + self.bitmask_len + self.scale_len
    }

    /// 64-byte cache lines the Loader must fetch for this tile (each of the
    /// three structures starts on its own line).
    #[must_use]
    pub fn cache_lines(&self) -> u32 {
        let lines = |len: u32| len.div_ceil(64);
        lines(self.data_len) + lines(self.bitmask_len) + lines(self.scale_len)
    }
}

/// The state of one Loader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoaderState {
    /// No tile assigned.
    Idle,
    /// Fetching the tile described by the held metadata.
    Fetching,
    /// All data has arrived in the input queues; the pipeline may consume.
    Ready,
}

/// One of the PE's Loaders: LDQ bookkeeping plus fetch statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Loader {
    id: usize,
    ldq_entries: usize,
    state: LoaderState,
    current: Option<TileMetadata>,
    tiles_fetched: u64,
    bytes_fetched: u64,
    prefetches_issued: u64,
}

impl Loader {
    /// Creates loader `id` with `ldq_entries` outstanding-line slots.
    ///
    /// # Panics
    ///
    /// Panics if `ldq_entries` is zero.
    #[must_use]
    pub fn new(id: usize, ldq_entries: usize) -> Self {
        assert!(ldq_entries > 0, "the LDQ needs at least one entry");
        Loader {
            id,
            ldq_entries,
            state: LoaderState::Idle,
            current: None,
            tiles_fetched: 0,
            bytes_fetched: 0,
            prefetches_issued: 0,
        }
    }

    /// This loader's index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> LoaderState {
        self.state
    }

    /// Whether the loader can accept a new tile.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.state == LoaderState::Idle
    }

    /// Accepts tile metadata and starts fetching. Returns the number of
    /// LDQ "waves" required (cache lines divided by LDQ capacity), a lower
    /// bound on how many round trips the fetch needs.
    ///
    /// # Panics
    ///
    /// Panics if the loader is not idle (the structural hazard the TEPL
    /// queue is supposed to prevent).
    pub fn start_fetch(&mut self, metadata: TileMetadata) -> u32 {
        assert!(
            self.is_idle(),
            "loader {} asked to fetch while busy — TEPL/store sequencing bug",
            self.id
        );
        self.state = LoaderState::Fetching;
        self.current = Some(metadata);
        self.tiles_fetched += 1;
        self.bytes_fetched += u64::from(metadata.total_bytes());
        metadata
            .cache_lines()
            .div_ceil(self.ldq_entries as u32)
            .max(1)
    }

    /// Records prefetch requests issued on behalf of future tiles.
    pub fn record_prefetches(&mut self, lines: u64) {
        self.prefetches_issued += lines;
    }

    /// Marks the fetch as complete (data resides in the input queues).
    pub fn fetch_complete(&mut self) {
        if self.state == LoaderState::Fetching {
            self.state = LoaderState::Ready;
        }
    }

    /// Marks the fetch as complete after validating the arrived tile
    /// against the metadata this loader was programmed with and against an
    /// injected decompression engine: the engine streams the tile through
    /// its zero-copy path, which rejects any tile whose memory structures
    /// disagree — the model-level equivalent of DECA faulting on a
    /// corrupted weight stream instead of feeding garbage to the TMUL.
    ///
    /// # Errors
    ///
    /// Returns [`DecaError::Compress`] if the tile's size disagrees with
    /// the programmed metadata or the engine rejects the tile. The loader
    /// stays in the `Fetching` state on error.
    pub fn fetch_complete_validated(
        &mut self,
        tile: &CompressedTile,
        engine: &dyn DecompressEngine,
    ) -> Result<(), DecaError> {
        let Some(metadata) = self.current else {
            return Err(DecaError::Compress(
                deca_compress::CompressError::CorruptTile {
                    reason: "loader has no tile metadata to validate against".to_string(),
                },
            ));
        };
        if metadata.total_bytes() as usize != tile.byte_size() {
            return Err(DecaError::Compress(
                deca_compress::CompressError::CorruptTile {
                    reason: format!(
                        "fetched tile occupies {} bytes but the metadata describes {}",
                        tile.byte_size(),
                        metadata.total_bytes()
                    ),
                },
            ));
        }
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        engine.decompress_tile_into(tile, &mut scratch, &mut out)?;
        self.fetch_complete();
        Ok(())
    }

    /// Releases the loader once the pipeline has drained its tile.
    pub fn release(&mut self) {
        self.state = LoaderState::Idle;
        self.current = None;
    }

    /// Metadata of the tile currently held, if any.
    #[must_use]
    pub fn current(&self) -> Option<&TileMetadata> {
        self.current.as_ref()
    }

    /// Tiles fetched so far.
    #[must_use]
    pub fn tiles_fetched(&self) -> u64 {
        self.tiles_fetched
    }

    /// Bytes fetched so far.
    #[must_use]
    pub fn bytes_fetched(&self) -> u64 {
        self.bytes_fetched
    }

    /// Prefetch requests issued so far.
    #[must_use]
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::{generator::WeightGenerator, CompressionScheme, Compressor};

    fn sample_tile(scheme: CompressionScheme) -> CompressedTile {
        let tile = WeightGenerator::new(3).dense_matrix(16, 32).tile(0, 0);
        Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress")
    }

    #[test]
    fn metadata_layout_is_contiguous() {
        let tile = sample_tile(CompressionScheme::bf8_sparse(0.5));
        let md = TileMetadata::for_tile(0x1000, &tile);
        assert_eq!(md.data_addr, 0x1000);
        assert_eq!(md.data_len, 256);
        assert_eq!(md.bitmask_addr, 0x1100);
        assert_eq!(md.bitmask_len, 64);
        assert_eq!(md.scale_len, 0);
        assert_eq!(md.total_bytes() as usize, tile.byte_size());
    }

    #[test]
    fn metadata_for_dense_and_mx_tiles() {
        let dense = sample_tile(CompressionScheme::bf8_dense());
        let md = TileMetadata::for_tile(0, &dense);
        assert_eq!(md.bitmask_len, 0);
        assert_eq!(md.bitmask_addr, 0);
        let mx = sample_tile(CompressionScheme::mxfp4());
        let md = TileMetadata::for_tile(0, &mx);
        assert_eq!(md.scale_len, 16);
        assert_eq!(md.total_bytes(), 272);
    }

    #[test]
    fn cache_line_accounting_rounds_per_structure() {
        let tile = sample_tile(CompressionScheme::bf8_sparse(0.05));
        let md = TileMetadata::for_tile(0, &tile);
        // ~26 payload bytes -> 1 line, 64 bitmask bytes -> 1 line.
        assert_eq!(md.cache_lines(), 2);
        let dense = sample_tile(CompressionScheme::bf16_dense());
        let md = TileMetadata::for_tile(0, &dense);
        assert_eq!(md.cache_lines(), 16);
    }

    #[test]
    fn loader_lifecycle() {
        let tile = sample_tile(CompressionScheme::bf8_dense());
        let md = TileMetadata::for_tile(0, &tile);
        let mut loader = Loader::new(0, 16);
        assert!(loader.is_idle());
        let waves = loader.start_fetch(md);
        assert_eq!(waves, 1);
        assert_eq!(loader.state(), LoaderState::Fetching);
        assert_eq!(loader.current(), Some(&md));
        loader.fetch_complete();
        assert_eq!(loader.state(), LoaderState::Ready);
        loader.release();
        assert!(loader.is_idle());
        assert_eq!(loader.tiles_fetched(), 1);
        assert_eq!(loader.bytes_fetched(), 512);
    }

    #[test]
    fn small_ldq_needs_multiple_waves() {
        let tile = sample_tile(CompressionScheme::bf16_dense());
        let md = TileMetadata::for_tile(0, &tile);
        let mut loader = Loader::new(1, 4);
        let waves = loader.start_fetch(md);
        assert_eq!(waves, 4); // 16 lines / 4 LDQ entries
    }

    #[test]
    fn validated_fetch_accepts_consistent_tiles() {
        let tile = sample_tile(CompressionScheme::bf8_sparse(0.3));
        let md = TileMetadata::for_tile(0x2000, &tile);
        let engine = deca_compress::SimdEngine::new();
        let mut loader = Loader::new(0, 16);
        loader.start_fetch(md);
        loader
            .fetch_complete_validated(&tile, &engine)
            .expect("consistent tile must validate");
        assert_eq!(loader.state(), LoaderState::Ready);
    }

    #[test]
    fn validated_fetch_rejects_mismatched_metadata() {
        let tile = sample_tile(CompressionScheme::bf8_sparse(0.3));
        let other = sample_tile(CompressionScheme::bf16_dense());
        let engine = deca_compress::ScalarEngine::new();
        let mut loader = Loader::new(0, 16);
        loader.start_fetch(TileMetadata::for_tile(0, &other));
        let err = loader
            .fetch_complete_validated(&tile, &engine)
            .expect_err("metadata mismatch must be rejected");
        assert!(matches!(err, DecaError::Compress(_)));
        assert_eq!(loader.state(), LoaderState::Fetching);
        // An idle loader has nothing to validate against.
        let mut idle = Loader::new(1, 16);
        assert!(idle.fetch_complete_validated(&tile, &engine).is_err());
    }

    #[test]
    #[should_panic(expected = "while busy")]
    fn double_assignment_panics() {
        let tile = sample_tile(CompressionScheme::bf8_dense());
        let md = TileMetadata::for_tile(0, &tile);
        let mut loader = Loader::new(0, 16);
        loader.start_fetch(md);
        loader.start_fetch(md);
    }

    #[test]
    fn prefetch_accounting() {
        let mut loader = Loader::new(0, 16);
        loader.record_prefetches(10);
        loader.record_prefetches(5);
        assert_eq!(loader.prefetches_issued(), 15);
    }
}
