//! DECA ↔ core integration options (§5, §9.3).
//!
//! Fig. 17 ablates four integration decisions, starting from a conservative
//! base design and progressively enabling the features the paper proposes:
//!
//! 1. where DECA reads compressed tiles from (LLC vs L2),
//! 2. which prefetcher covers the tile stream (none, the L2 stream
//!    prefetcher, or DECA's own prefetcher),
//! 3. where the decompressed tile is delivered (written back to the L2 vs
//!    held in TOut registers the core reads directly),
//! 4. how the core invokes DECA (memory-mapped stores + fences vs the TEPL
//!    instructions).

/// Where the DECA Loaders read compressed tiles from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadPath {
    /// Read from the LLC slice, bypassing the core's L2.
    Llc,
    /// Read through the core's L2 (enables the L2 prefetcher to help).
    L2,
}

/// Which prefetcher covers the compressed-tile stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TilePrefetcher {
    /// No prefetching.
    None,
    /// The stock L2 hardware stream prefetcher.
    L2Stream,
    /// DECA's integrated prefetcher (tracks the metadata stream, keeps L2
    /// MSHR occupancy high).
    Deca,
}

/// Where decompressed tiles are delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputPath {
    /// Written back to the L2; the core's TLoad reads them from there.
    L2,
    /// Held in DECA's TOut registers, read directly by the core.
    TOutRegisters,
}

/// How the core invokes DECA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvocationScheme {
    /// Memory-mapped stores to the Loader control registers plus a fence per
    /// iteration (Fig. 9): iterations serialize and the core↔DECA
    /// communication latency is exposed.
    StoreFence,
    /// The TEPL ISA extension (Fig. 10): out-of-order, speculative
    /// invocation that hides the communication latency.
    Tepl,
}

/// A complete integration configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntegrationConfig {
    /// Compressed-tile read path.
    pub read_path: ReadPath,
    /// Prefetcher covering the tile stream.
    pub prefetcher: TilePrefetcher,
    /// Decompressed-tile delivery path.
    pub output: OutputPath,
    /// Invocation scheme.
    pub invocation: InvocationScheme,
}

impl IntegrationConfig {
    /// The base configuration of Fig. 17: reads from the LLC, no
    /// prefetcher, writes decompressed tiles to the L2, store+fence
    /// invocation.
    #[must_use]
    pub fn base() -> Self {
        IntegrationConfig {
            read_path: ReadPath::Llc,
            prefetcher: TilePrefetcher::None,
            output: OutputPath::L2,
            invocation: InvocationScheme::StoreFence,
        }
    }

    /// `+Reads L2`: read compressed tiles through the L2 and let the L2
    /// stream prefetcher cover them.
    #[must_use]
    pub fn plus_reads_l2() -> Self {
        IntegrationConfig {
            read_path: ReadPath::L2,
            prefetcher: TilePrefetcher::L2Stream,
            ..IntegrationConfig::base()
        }
    }

    /// `+DECA prefetcher`: use DECA's own prefetcher instead of the L2 one.
    #[must_use]
    pub fn plus_deca_prefetcher() -> Self {
        IntegrationConfig {
            prefetcher: TilePrefetcher::Deca,
            ..IntegrationConfig::plus_reads_l2()
        }
    }

    /// `+TOut Regs`: deliver decompressed tiles through the TOut registers
    /// instead of the L2.
    #[must_use]
    pub fn plus_tout_regs() -> Self {
        IntegrationConfig {
            output: OutputPath::TOutRegisters,
            ..IntegrationConfig::plus_deca_prefetcher()
        }
    }

    /// `+TEPL`: the full DECA design with out-of-order invocation.
    #[must_use]
    pub fn plus_tepl() -> Self {
        IntegrationConfig {
            invocation: InvocationScheme::Tepl,
            ..IntegrationConfig::plus_tout_regs()
        }
    }

    /// The recommended (full) configuration — alias of [`Self::plus_tepl`].
    #[must_use]
    pub fn full() -> Self {
        IntegrationConfig::plus_tepl()
    }

    /// The Fig. 17 ladder, in order, with the paper's labels.
    #[must_use]
    pub fn ablation_ladder() -> Vec<(&'static str, IntegrationConfig)> {
        vec![
            ("Base", IntegrationConfig::base()),
            ("+Reads L2", IntegrationConfig::plus_reads_l2()),
            (
                "+DECA prefetcher",
                IntegrationConfig::plus_deca_prefetcher(),
            ),
            ("+TOut Regs", IntegrationConfig::plus_tout_regs()),
            ("+TEPL (DECA)", IntegrationConfig::plus_tepl()),
        ]
    }
}

impl Default for IntegrationConfig {
    fn default() -> Self {
        IntegrationConfig::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let ladder = IntegrationConfig::ablation_ladder();
        assert_eq!(ladder.len(), 5);
        assert_eq!(ladder[0].1, IntegrationConfig::base());
        assert_eq!(ladder[4].1, IntegrationConfig::full());
        // Each step keeps every previously enabled feature.
        assert_eq!(ladder[1].1.read_path, ReadPath::L2);
        assert_eq!(ladder[2].1.read_path, ReadPath::L2);
        assert_eq!(ladder[2].1.prefetcher, TilePrefetcher::Deca);
        assert_eq!(ladder[3].1.prefetcher, TilePrefetcher::Deca);
        assert_eq!(ladder[3].1.output, OutputPath::TOutRegisters);
        assert_eq!(ladder[4].1.output, OutputPath::TOutRegisters);
        assert_eq!(ladder[4].1.invocation, InvocationScheme::Tepl);
    }

    #[test]
    fn base_is_the_most_conservative() {
        let base = IntegrationConfig::base();
        assert_eq!(base.read_path, ReadPath::Llc);
        assert_eq!(base.prefetcher, TilePrefetcher::None);
        assert_eq!(base.output, OutputPath::L2);
        assert_eq!(base.invocation, InvocationScheme::StoreFence);
    }

    #[test]
    fn default_is_the_full_design() {
        assert_eq!(IntegrationConfig::default(), IntegrationConfig::full());
        assert_eq!(IntegrationConfig::full(), IntegrationConfig::plus_tepl());
    }
}
