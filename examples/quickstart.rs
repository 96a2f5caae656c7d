//! Quickstart: compress a weight matrix, decompress one tile with a DECA PE,
//! check the result against the reference decompressor, and ask the
//! Roof-Surface model what bounds the kernel.
//!
//! Run with: `cargo run --release --example quickstart`

use deca::{pipeline::VopPipeline, DecaConfig};
use deca_compress::{generator::WeightGenerator, CompressionScheme, Compressor, Decompressor};
use deca_kernels::avx_model::software_signature;
use deca_roofsurface::{DecaVopModel, MachineConfig, RoofSurface};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a synthetic FC-layer weight matrix and compress it with
    //    BF8 quantization plus 20 % density unstructured sparsity.
    let scheme = CompressionScheme::bf8_sparse(0.2);
    let weights = WeightGenerator::new(2024).dense_matrix(64, 128);
    let compressed = Compressor::new(scheme).compress_matrix(&weights)?;
    println!(
        "compressed {} ({} tiles): {:.1} KiB -> {:.1} KiB ({:.2}x)",
        scheme,
        compressed.tiles().len(),
        weights.bf16_bytes() as f64 / 1024.0,
        compressed.total_bytes() as f64 / 1024.0,
        compressed.compression_factor()
    );

    // 2. Run one tile through a DECA PE's vOp pipeline, programmed for the
    //    scheme's format, and compare against the reference scalar
    //    decompressor.
    let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
    pipeline.configure(scheme.format());
    let tile = compressed.tile(0, 0);
    let (dense, timing) = pipeline.process(tile)?;
    let reference = Decompressor::new().decompress_tile(tile)?;
    assert_eq!(dense, reference, "DECA output must be bit-exact");
    println!(
        "DECA PE decompressed one tile in {} pipeline cycles ({} vOps, {} bubbles)",
        timing.pipeline_cycles, timing.vops, timing.bubbles
    );

    // 3. Ask the Roof-Surface model what bounds this kernel on an HBM SPR,
    //    with software decompression and with DECA.
    let machine = MachineConfig::spr_hbm();
    let cpu_surface = RoofSurface::for_cpu(&machine);
    let deca_surface = RoofSurface::for_deca(&machine);
    let sw_sig = software_signature(&scheme);
    let deca_sig = DecaVopModel::BASELINE.signature(&scheme);
    println!(
        "software kernel: {} bound, {:.2} TFLOPS at N=4",
        cpu_surface.bounding_factor(&sw_sig),
        cpu_surface.flops(&sw_sig, 4) / 1e12
    );
    println!(
        "DECA kernel:     {} bound, {:.2} TFLOPS at N=4",
        deca_surface.bounding_factor(&deca_sig),
        deca_surface.flops(&deca_sig, 4) / 1e12
    );
    Ok(())
}
