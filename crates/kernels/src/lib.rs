//! Compressed-GeMM kernels for the DECA reproduction.
//!
//! This crate provides both sides of the paper's comparison:
//!
//! * the **software baseline**: a model of Intel's libxsmm compressed-GeMM
//!   kernels, which decompress tiles with an AVX instruction sequence and
//!   overlap it with AMX through a double software buffer (§2.4). The AVX
//!   instruction budget per tile, and how it changes when the core's vector
//!   resources are scaled (more units / wider units, §7), live in
//!   [`avx_model`];
//! * the **DECA kernel**: the same GeMM invoking a per-core DECA PE through
//!   TEPL (or the store+fence fallback), built on the `deca` crate;
//! * the **workload**: FC-layer GeMM shapes and Parlooper-style static
//!   partitioning across cores;
//! * the **executor**: runs either kernel on the `deca-sim` machine model
//!   and reports TFLOPS, utilization and speedups (the data behind
//!   Figs. 12–15 and Table 3);
//! * a **functional GeMM** used to check that computing with decompressed
//!   weights gives the same result (up to quantization error) as the dense
//!   reference.
//!
//! # Example
//!
//! ```
//! use deca_compress::CompressionScheme;
//! use deca_kernels::{CompressedGemmExecutor, Engine};
//! use deca_roofsurface::MachineConfig;
//!
//! let executor = CompressedGemmExecutor::new(MachineConfig::spr_hbm());
//! let result = executor.run(&CompressionScheme::bf8_sparse(0.2), Engine::software(), 1);
//! assert!(result.tflops > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avx_model;
mod executor;
pub mod functional;
mod gemm;
mod parlooper;
mod software;

pub use avx_model::{AvxOpBudget, VectorResources};
pub use executor::{CompressedGemmExecutor, Engine, GemmRunResult};
pub use gemm::GemmShape;
pub use parlooper::Parlooper;
pub use software::software_exec_model;

#[cfg(test)]
mod tests {
    use super::*;
    use deca_compress::{CompressionScheme, SchemeSet};
    use deca_roofsurface::MachineConfig;

    /// Figure 13's qualitative result: on HBM, DECA beats the software
    /// kernel for (almost) every compression scheme, by up to ~4x, and
    /// approaches the roofline-optimal speedup.
    #[test]
    fn deca_beats_software_on_hbm() {
        let executor = CompressedGemmExecutor::new(MachineConfig::spr_hbm());
        let mut max_speedup: f64 = 0.0;
        for scheme in SchemeSet::paper_evaluation() {
            let sw = executor.run(&scheme, Engine::software(), 1);
            let deca = executor.run(&scheme, Engine::deca_default(), 1);
            let ratio = deca.tflops / sw.tflops;
            assert!(
                ratio > 0.95,
                "{scheme}: DECA ({:.2} TF) should not lose to software ({:.2} TF)",
                deca.tflops,
                sw.tflops
            );
            max_speedup = max_speedup.max(ratio);
        }
        assert!(
            max_speedup > 3.0,
            "DECA's best-case speedup over software should approach 4x, got {max_speedup:.2}"
        );
    }

    /// Figure 12's qualitative result: on DDR, the software kernel is
    /// already near the (memory) roofline for low compression factors, so
    /// DECA only helps for highly compressed schemes.
    #[test]
    fn ddr_speedups_appear_only_at_high_compression() {
        let executor = CompressedGemmExecutor::new(MachineConfig::spr_ddr());
        let low_cf = CompressionScheme::bf16_sparse(0.5);
        let high_cf = CompressionScheme::bf8_sparse(0.05);
        let low = executor.run(&low_cf, Engine::deca_default(), 1).tflops
            / executor.run(&low_cf, Engine::software(), 1).tflops;
        let high = executor.run(&high_cf, Engine::deca_default(), 1).tflops
            / executor.run(&high_cf, Engine::software(), 1).tflops;
        assert!(
            low < 1.15,
            "no meaningful gain expected at low CF on DDR, got {low:.2}"
        );
        assert!(
            high > 1.4,
            "high-CF schemes should gain on DDR, got {high:.2}"
        );
    }
}
