//! LLM next-token inference on the simulated DECA-equipped server.
//!
//! The paper's end-to-end evaluation (§3.1 Table 1, §9.4 Table 4) measures
//! the next-token (generation-phase) latency of Llama2-70B and OPT-66B with
//! software decompression versus DECA. This crate provides:
//!
//! * [`LlmModel`] — layer-exact parameter inventories of both models and the
//!   FC-layer GeMM shapes of one transformer layer,
//! * [`InferenceEstimator`] — the one latency model. Every FC GeMM is timed
//!   through the compressed-GeMM executor (software or DECA engine), and
//!   the non-GeMM stages (attention over the KV cache, normalization,
//!   residuals and framework overhead) are modelled as bandwidth/overhead-
//!   bound work. [`InferenceEstimator::next_token`] prices one decode step;
//!   [`InferenceEstimator::prefill`] prices the prompt-processing phase,
//!   where each decompressed tile feeds `ceil(prompt/16)` TMUL operations,
//!   so long prompts turn compute-bound (time-to-first-token in the
//!   `deca-serve` serving simulator is built on this).
//!   [`InferenceEstimator::new`] is one socket;
//!   [`InferenceEstimator::sharded`] runs the same per-stage arithmetic
//!   under a TP × PP plan and prices the interconnect,
//! * [`parallel`] — the sharding inputs: [`ShardSpec`] (tensor/pipeline
//!   parallelism) and [`InterconnectModel`] (ring all-reduce per TP GeMM,
//!   point-to-point transfer per pipeline boundary),
//! * [`footprint`] — per-socket weight and KV-cache footprints under a plan
//!   (which schemes fit in 64 GB of HBM, and the KV budget left over), so
//!   schemes that overflow one socket become servable at TP ≥ 2.
//!
//! # Example
//!
//! ```
//! use deca_llm::{InferenceEstimator, LlmModel};
//! use deca_compress::CompressionScheme;
//! use deca_kernels::Engine;
//! use deca_roofsurface::MachineConfig;
//!
//! let estimator = InferenceEstimator::new(MachineConfig::spr_hbm());
//! let report = estimator.next_token(
//!     &LlmModel::llama2_70b(),
//!     &CompressionScheme::mxfp4(),
//!     Engine::deca_default(),
//!     1,
//!     128,
//! );
//! assert!(report.total_ms() < 150.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod footprint;
mod inference;
mod model;
pub mod parallel;

pub use inference::{InferenceEstimator, NextTokenReport, PrefillReport};
pub use model::{LayerGeometry, LlmModel};
pub use parallel::{InterconnectModel, ShardSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::CompressionScheme;
    use deca_kernels::Engine;
    use deca_roofsurface::MachineConfig;

    /// Table 4's headline: DECA reduces next-token latency by 1.6×–2.6× over
    /// software decompression, and by 2.5×–5.0× over the uncompressed BF16
    /// model.
    #[test]
    fn table4_speedup_bands() {
        let estimator = InferenceEstimator::new(MachineConfig::spr_hbm());
        for model in [LlmModel::llama2_70b(), LlmModel::opt_66b()] {
            for batch in [1usize, 16] {
                let uncompressed = estimator.next_token(
                    &model,
                    &CompressionScheme::bf16_dense(),
                    Engine::software(),
                    batch,
                    128,
                );
                for scheme in [
                    CompressionScheme::mxfp4(),
                    CompressionScheme::bf8_sparse(0.2),
                    CompressionScheme::bf8_sparse(0.05),
                ] {
                    let sw = estimator.next_token(&model, &scheme, Engine::software(), batch, 128);
                    let deca =
                        estimator.next_token(&model, &scheme, Engine::deca_default(), batch, 128);
                    let vs_sw = sw.total_ms() / deca.total_ms();
                    let vs_uncompressed = uncompressed.total_ms() / deca.total_ms();
                    assert!(
                        (1.2..=3.2).contains(&vs_sw),
                        "{} {} batch {batch}: DECA vs SW {vs_sw:.2}",
                        model.name(),
                        scheme
                    );
                    assert!(
                        (2.0..=6.0).contains(&vs_uncompressed),
                        "{} {} batch {batch}: DECA vs BF16 {vs_uncompressed:.2}",
                        model.name(),
                        scheme
                    );
                }
            }
        }
    }

    /// Table 1: FC-layer GeMMs dominate next-token time — above 95 % with
    /// DDR and 85–90 % with HBM for the uncompressed model.
    #[test]
    fn table1_fc_fraction_bands() {
        for (machine, low, high) in [
            (MachineConfig::spr_ddr(), 0.95, 0.995),
            (MachineConfig::spr_hbm(), 0.84, 0.93),
        ] {
            let estimator = InferenceEstimator::new(machine.clone());
            for batch in [1usize, 4, 16] {
                let report = estimator.next_token(
                    &LlmModel::llama2_70b(),
                    &CompressionScheme::bf16_dense(),
                    Engine::software(),
                    batch,
                    32,
                );
                let frac = report.fc_fraction();
                assert!(
                    (low..=high).contains(&frac),
                    "{} batch {batch}: FC fraction {frac:.3}",
                    machine.name
                );
            }
        }
    }
}
