//! Glue from DECA configurations to the `deca-sim` tile executor.
//!
//! A DECA-accelerated compressed-GeMM kernel is, from the simulator's point
//! of view, a [`TileExecModel`]: compressed bytes per tile, DECA pipeline
//! cycles per tile, a handful of core instructions per iteration, the TMUL's
//! 16 cycles, the communication latencies implied by the integration
//! options, and the invocation scheme's overlap behaviour. This module
//! builds those models from the analytic (binomial) bubble expectation.

use deca_compress::CompressionScheme;
use deca_sim::{CacheConfig, InvocationModel, PrefetchConfig, TileExecModel};

use crate::{
    DecaConfig, IntegrationConfig, InvocationScheme, OutputPath, ReadPath, TilePrefetcher,
};

/// Core issue-slot cycles per iteration of the TEPL-based kernel
/// (Fig. 10: TEPL + TComp + loop bookkeeping on a 6-wide core).
pub const TEPL_CORE_CYCLES_PER_TILE: f64 = 2.0;
/// Core issue-slot cycles per iteration of the store+fence kernel
/// (Fig. 9: two stores, a fence, TLoad, TComp and loop bookkeeping).
pub const STORE_FENCE_CORE_CYCLES_PER_TILE: f64 = 3.0;
/// Serialized per-iteration overhead of the store+fence scheme: the store
/// must reach the head of the ROB, the fence drains, and the MMIO write to
/// the Loader control register completes before the next iteration proceeds.
pub const STORE_FENCE_OVERHEAD_CYCLES: f64 = 36.0;
/// Latency of the core reading a decompressed tile from the TOut registers
/// over the short core↔DECA link.
pub const TOUT_READ_LATENCY: f64 = 6.0;
/// TMUL occupancy per tile operation (§2.3).
pub const TMUL_CYCLES_PER_TILE: f64 = 16.0;
/// Prefetch run-ahead (in tiles) of the stock L2 stream prefetcher.
pub const L2_PREFETCH_DISTANCE: usize = 8;
/// Prefetch run-ahead (in tiles) of DECA's integrated prefetcher.
pub const DECA_PREFETCH_DISTANCE: usize = 16;

/// Builds the execution model of a DECA-accelerated kernel for `scheme`
/// using the *analytic* bubble expectation (§6.2).
#[must_use]
pub fn tile_exec_model(
    scheme: &CompressionScheme,
    deca: &DecaConfig,
    integration: &IntegrationConfig,
    cache: &CacheConfig,
) -> TileExecModel {
    let prefetch = match integration.prefetcher {
        TilePrefetcher::None => PrefetchConfig::none(),
        // The stock L2 stream prefetcher tracks DECA's three interleaved,
        // variable-length tile structures less well than a regular strided
        // stream, so its coverage is lower than for the software kernel.
        TilePrefetcher::L2Stream => {
            PrefetchConfig::stream_with_coverage(L2_PREFETCH_DISTANCE, 0.75)
        }
        TilePrefetcher::Deca => PrefetchConfig::deca(DECA_PREFETCH_DISTANCE),
    };
    let exposed_pre_latency = match integration.read_path {
        // Reading from the LLC slice adds the NoC hop and the LLC-vs-L2
        // latency difference to every demand access.
        ReadPath::Llc => cache.llc_read_latency() - cache.l2_hit_latency(),
        ReadPath::L2 => 0.0,
    };
    let exposed_post_latency = match integration.output {
        OutputPath::L2 => cache.l2_roundtrip_latency() + cache.noc_hop_latency,
        OutputPath::TOutRegisters => TOUT_READ_LATENCY,
    };
    let (invocation, core_cycles) = match integration.invocation {
        InvocationScheme::StoreFence => (
            InvocationModel::Serialized {
                overhead_cycles: STORE_FENCE_OVERHEAD_CYCLES,
            },
            STORE_FENCE_CORE_CYCLES_PER_TILE,
        ),
        InvocationScheme::Tepl => (InvocationModel::Overlapped, TEPL_CORE_CYCLES_PER_TILE),
    };
    TileExecModel {
        bytes_per_tile: scheme.expected_tile_bytes(),
        decompress_cycles_per_tile: deca.vop_model().cycles_per_tile(scheme),
        core_cycles_per_tile: core_cycles,
        tmul_cycles_per_tile: TMUL_CYCLES_PER_TILE,
        exposed_pre_latency,
        exposed_post_latency,
        invocation,
        buffering_depth: 2,
        prefetch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_roofsurface::MachineConfig;
    use deca_sim::GemmSimulation;

    #[test]
    fn full_integration_model_parameters() {
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let model = tile_exec_model(
            &scheme,
            &DecaConfig::baseline(),
            &IntegrationConfig::full(),
            &CacheConfig::spr(),
        );
        assert!((model.bytes_per_tile - 166.4).abs() < 1e-9);
        assert_eq!(model.tmul_cycles_per_tile, 16.0);
        assert_eq!(model.exposed_pre_latency, 0.0);
        assert_eq!(model.exposed_post_latency, TOUT_READ_LATENCY);
        assert!(matches!(model.invocation, InvocationModel::Overlapped));
        assert!(model.decompress_cycles_per_tile >= 16.0);
        assert!(model.decompress_cycles_per_tile < 24.0);
    }

    #[test]
    fn base_integration_exposes_latency_and_serializes() {
        let scheme = CompressionScheme::bf8_dense();
        let model = tile_exec_model(
            &scheme,
            &DecaConfig::baseline(),
            &IntegrationConfig::base(),
            &CacheConfig::spr(),
        );
        assert!(model.exposed_pre_latency > 0.0);
        assert!(model.exposed_post_latency > TOUT_READ_LATENCY);
        assert!(matches!(
            model.invocation,
            InvocationModel::Serialized { .. }
        ));
        assert!(!model.prefetch.is_enabled());
    }

    #[test]
    fn ablation_ladder_is_monotonically_faster() {
        // Fig. 17: every integration step improves (or at least does not
        // hurt) performance, for every density.
        let machine = MachineConfig::spr_hbm();
        let sim = GemmSimulation::new(machine.clone(), CacheConfig::spr());
        for density in [1.0, 0.5, 0.2, 0.05] {
            let scheme = if density < 1.0 {
                CompressionScheme::bf8_sparse(density)
            } else {
                CompressionScheme::bf8_dense()
            };
            let mut previous = 0.0;
            for (name, integration) in IntegrationConfig::ablation_ladder() {
                let model = tile_exec_model(
                    &scheme,
                    &DecaConfig::baseline(),
                    &integration,
                    &CacheConfig::spr(),
                );
                let tflops = sim.run(&model, 3000).tflops(&machine, 4);
                assert!(
                    tflops >= previous * 0.999,
                    "{name} at density {density}: {tflops} < {previous}"
                );
                previous = tflops;
            }
        }
    }

    #[test]
    fn tepl_benefit_grows_as_density_shrinks() {
        // §9.3: "for 5 % density, TEPLs double the performance".
        let machine = MachineConfig::spr_hbm();
        let sim = GemmSimulation::new(machine.clone(), CacheConfig::spr());
        let speedup_from_tepl = |scheme: &CompressionScheme| {
            let without = tile_exec_model(
                scheme,
                &DecaConfig::baseline(),
                &IntegrationConfig::plus_tout_regs(),
                &CacheConfig::spr(),
            );
            let with = tile_exec_model(
                scheme,
                &DecaConfig::baseline(),
                &IntegrationConfig::plus_tepl(),
                &CacheConfig::spr(),
            );
            sim.run(&with, 3000).tflops(&machine, 4) / sim.run(&without, 3000).tflops(&machine, 4)
        };
        let dense = speedup_from_tepl(&CompressionScheme::bf8_dense());
        let sparse = speedup_from_tepl(&CompressionScheme::bf8_sparse(0.05));
        assert!(sparse > dense, "sparse {sparse} dense {dense}");
        assert!(
            sparse > 1.5,
            "TEPL should give a large boost at 5 % density, got {sparse}"
        );
    }
}
