//! DECA: a near-core ML-model decompression accelerator (paper §5–§6).
//!
//! DECA sits next to each CPU core, reads compressed weight tiles from the
//! memory system, de-sparsifies and dequantizes them in a three-stage vector
//! pipeline, and hands dense BF16 tiles to the core's TMUL through dedicated
//! TOut registers. A new ISA extension, *Tile External Preprocess and Load*
//! (TEPL), lets the core invoke DECA speculatively and out-of-order so the
//! core–accelerator communication latency is hidden.
//!
//! This crate models DECA both *functionally* — the vOp pipeline produces
//! bit-exact decompressed tiles, validated against the reference
//! decompressor, with per-vOp cycle counts and bubbles measured from the
//! actual bitmask — and *temporally* — the analytic per-tile cost and the
//! integration options, which feed the `deca-sim` tile executor.
//!
//! Main types:
//!
//! * [`DecaConfig`] — the PE sizing (`W`, `L`, loaders, queue depths),
//! * [`LutArray`], [`pipeline::VopPipeline`] — the dequantize / expand /
//!   scale pipeline,
//! * [`IntegrationConfig`] — the integration/invocation options ablated in
//!   Fig. 17, including the TEPL invocation scheme (§5.3),
//! * [`timing`] — glue that turns a scheme + configuration into a
//!   [`deca_sim::TileExecModel`],
//! * [`area`] — the §8 area model.
//!
//! # Example
//!
//! ```
//! use deca::{pipeline::VopPipeline, DecaConfig};
//! use deca_compress::{generator::WeightGenerator, CompressionScheme, Compressor};
//!
//! let scheme = CompressionScheme::bf8_sparse(0.2);
//! let tile = WeightGenerator::new(1).dense_matrix(16, 32).tile(0, 0);
//! let compressed = Compressor::new(scheme).compress_tile(&tile)?;
//! let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
//! pipeline.configure(scheme.format());
//! let (out, timing) = pipeline.process(&compressed)?;
//! assert_eq!(out.nonzero_count(), compressed.nonzero_count());
//! assert_eq!(timing.vops, 16);
//! # Ok::<(), deca::DecaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod config;
mod error;
mod integration;
mod lut_array;
pub mod pipeline;
pub mod timing;

pub use config::DecaConfig;
pub use error::DecaError;
pub use integration::{IntegrationConfig, InvocationScheme, OutputPath, ReadPath, TilePrefetcher};
pub use lut_array::LutArray;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::VopPipeline;
    use deca_compress::{
        generator::WeightGenerator, CompressionScheme, Compressor, Decompressor, SchemeSet,
    };

    /// The PE's functional path must agree exactly with the reference
    /// scalar decompressor for every evaluated scheme.
    #[test]
    fn pe_matches_reference_decompressor_for_all_schemes() {
        let generator = WeightGenerator::new(99);
        let matrix = generator.dense_matrix(16, 32);
        let tile = matrix.tile(0, 0);
        let reference = Decompressor::new();
        for scheme in SchemeSet::paper_evaluation() {
            let compressed = Compressor::new(scheme)
                .compress_tile(&tile)
                .expect("compress");
            let expected = reference.decompress_tile(&compressed).expect("reference");
            let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
            pipeline.configure(scheme.format());
            let (produced, _) = pipeline.process(&compressed).expect("pipeline");
            assert_eq!(produced, expected, "scheme {scheme}");
        }
    }

    /// Measured bubbles from real bitmasks track the analytic binomial model
    /// within a few percent of a cycle per vOp.
    #[test]
    fn measured_bubbles_track_binomial_model() {
        use deca_roofsurface::DecaVopModel;
        let generator = WeightGenerator::new(7);
        let matrix = generator.dense_matrix(64, 128);
        for density in [0.5, 0.2, 0.05] {
            let scheme = CompressionScheme::bf8_sparse(density);
            let compressor = Compressor::new(scheme);
            let analytic = DecaVopModel::BASELINE.cycles_per_tile(&scheme);
            let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
            pipeline.configure(scheme.format());
            let mut total_cycles = 0.0;
            let mut tiles = 0.0;
            for tr in 0..matrix.tile_rows() {
                for tc in 0..matrix.tile_cols() {
                    let compressed = compressor
                        .compress_tile(&matrix.tile(tr, tc))
                        .expect("compress");
                    let (_, timing) = pipeline.process(&compressed).expect("pipeline");
                    // Compare steady-state vOp cycles (the analytic model
                    // excludes the 2-cycle pipeline fill each tile pays once).
                    total_cycles += f64::from(timing.vops + timing.bubbles);
                    tiles += 1.0;
                }
            }
            let measured = total_cycles / tiles;
            let rel = (measured - analytic).abs() / analytic;
            assert!(
                rel < 0.10,
                "density {density}: measured {measured:.2} vs analytic {analytic:.2}"
            );
        }
    }
}
