//! Prefetcher models.
//!
//! A stream prefetcher's only job in this workload is to issue tile fetches
//! ahead of the consumer so the DRAM latency is off the critical path. Its
//! effectiveness is captured by how many tiles ahead it can run (bounded by
//! MSHRs / queue capacity) and where it leaves the data (L2 for the L2
//! stream prefetcher and the DECA prefetcher; nowhere for no prefetching).

/// Which prefetcher, if any, covers the compressed-tile stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchKind {
    /// No prefetching: every tile fetch exposes the full demand-miss
    /// latency.
    None,
    /// The regular L2 hardware stream prefetcher.
    L2Stream,
    /// DECA's integrated prefetcher, which tracks the tile metadata stream
    /// directly and keeps L2 MSHR occupancy high (§6.1).
    DecaIntegrated,
}

/// Prefetch behaviour for a tile stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchConfig {
    /// Which engine issues the prefetches.
    pub kind: PrefetchKind,
    /// How many tiles ahead of the consumer the prefetcher runs.
    pub distance_tiles: f64,
    /// Fraction of the stream the prefetcher successfully covers (accounts
    /// for stream start-up, page boundaries and metadata irregularity).
    pub coverage: f64,
}

impl PrefetchConfig {
    /// No prefetching at all.
    #[must_use]
    pub fn none() -> Self {
        PrefetchConfig {
            kind: PrefetchKind::None,
            distance_tiles: 0.0,
            coverage: 0.0,
        }
    }

    /// A generic stream prefetcher running `distance` tiles ahead with the
    /// L2 prefetcher's typical ~85 % coverage on strided streams.
    #[must_use]
    pub fn stream(distance: usize) -> Self {
        PrefetchConfig {
            kind: PrefetchKind::L2Stream,
            distance_tiles: distance as f64,
            coverage: 0.85,
        }
    }

    /// A stream prefetcher with explicit coverage — used for streams the
    /// stock L2 prefetcher tracks poorly, such as DECA's three interleaved
    /// tile structures with data-dependent lengths.
    #[must_use]
    pub fn stream_with_coverage(distance: usize, coverage: f64) -> Self {
        PrefetchConfig {
            kind: PrefetchKind::L2Stream,
            distance_tiles: distance as f64,
            coverage: coverage.clamp(0.0, 1.0),
        }
    }

    /// DECA's integrated prefetcher: it knows the exact addresses and
    /// lengths of the three tile structures from the metadata, so it covers
    /// nearly the whole stream and sustains a deeper distance (§6.1,
    /// "aggressiveness is dynamically adjusted so that a high L2 MSHR
    /// occupancy is preserved").
    #[must_use]
    pub fn deca(distance: usize) -> Self {
        PrefetchConfig {
            kind: PrefetchKind::DecaIntegrated,
            distance_tiles: distance as f64,
            coverage: 0.97,
        }
    }

    /// Whether any prefetching happens.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.kind != PrefetchKind::None && self.distance_tiles > 0.0 && self.coverage > 0.0
    }

    /// The average demand latency actually exposed to the consumer, given
    /// the full miss latency and the latency of the level the prefetcher
    /// fills (usually the L2): covered accesses pay the hit latency, the
    /// rest pay the miss latency.
    #[must_use]
    pub fn exposed_latency(&self, miss_latency: f64, hit_latency: f64) -> f64 {
        if !self.is_enabled() {
            return miss_latency;
        }
        self.coverage * hit_latency + (1.0 - self.coverage) * miss_latency
    }

    /// Clamps the prefetch distance to what the MSHR budget allows for a
    /// given number of cache lines per tile.
    #[must_use]
    pub fn clamped_to_mshrs(mut self, mshrs: usize, lines_per_tile: usize) -> Self {
        if lines_per_tile == 0 {
            return self;
        }
        let max_tiles_in_flight = (mshrs / lines_per_tile).max(1) as f64;
        self.distance_tiles = self.distance_tiles.min(max_tiles_in_flight);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_exposes_full_latency() {
        let p = PrefetchConfig::none();
        assert!(!p.is_enabled());
        assert_eq!(p.exposed_latency(356.0, 16.0), 356.0);
    }

    #[test]
    fn stream_prefetcher_hides_most_latency() {
        let p = PrefetchConfig::stream(8);
        assert!(p.is_enabled());
        let exposed = p.exposed_latency(356.0, 16.0);
        assert!(exposed < 0.25 * 356.0, "exposed {exposed}");
        assert!(exposed > 16.0);
    }

    #[test]
    fn deca_prefetcher_hides_more_than_l2_stream() {
        let l2 = PrefetchConfig::stream(8).exposed_latency(356.0, 16.0);
        let deca = PrefetchConfig::deca(8).exposed_latency(356.0, 16.0);
        assert!(deca < l2);
    }

    #[test]
    fn mshr_clamp_limits_distance() {
        // 16 lines per (dense BF16) tile, 48 MSHRs -> at most 3 tiles ahead.
        let p = PrefetchConfig::deca(16).clamped_to_mshrs(48, 16);
        assert_eq!(p.distance_tiles, 3.0);
        // Small tiles (2 lines) are not limited by 48 MSHRs at distance 16.
        let p2 = PrefetchConfig::deca(16).clamped_to_mshrs(48, 2);
        assert_eq!(p2.distance_tiles, 16.0);
        // Degenerate line count leaves the config untouched.
        let p3 = PrefetchConfig::deca(16).clamped_to_mshrs(48, 0);
        assert_eq!(p3.distance_tiles, 16.0);
    }
}
