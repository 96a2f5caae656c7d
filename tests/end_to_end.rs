//! Workspace-level integration tests: the full path from weight generation
//! through compression, DECA decompression and the functional GeMM, across
//! crates and through the public APIs only.

use deca::{pipeline::VopPipeline, DecaConfig};
use deca_compress::{
    generator::WeightGenerator, CompressionScheme, Compressor, DecompressScratch, Decompressor,
    DenseTile, SchemeSet, WeightMatrix, TILE_COLS, TILE_ROWS,
};
use deca_kernels::functional;
use deca_numerics::Bf16;

/// Compress → DECA-decompress → GeMM gives (almost) the same result as the
/// dense GeMM, for every scheme the paper evaluates.
#[test]
fn compressed_gemm_matches_dense_reference_within_quantization_error() {
    let weights = WeightGenerator::new(1001).dense_matrix(96, 64);
    let activations = WeightGenerator::new(1002)
        .with_std_dev(0.5)
        .dense_matrix(4, 96);
    let dense_out = functional::gemm_dense(&activations, &weights);

    for scheme in [
        CompressionScheme::bf8_dense(),
        CompressionScheme::mxfp4(),
        CompressionScheme::bf16_sparse(0.9),
    ] {
        let compressed = Compressor::new(scheme)
            .without_pruning()
            .compress_matrix(&weights)
            .expect("compress");
        let out = functional::gemm_compressed(&activations, &compressed).expect("gemm");
        let err = functional::relative_rms_error(&dense_out, &out);
        // E5M2 carries ~5 % RMS relative error per weight, and the error of a
        // dot product of independently quantized weights stays at roughly the
        // per-weight level (it does not average down), so the 8-bit bound is
        // ~8 %.
        let tolerance = match scheme.format().bits() {
            16 => 1e-6,
            8 => 0.08,
            _ => 0.18,
        };
        assert!(err <= tolerance, "{scheme}: relative RMS error {err}");
    }
}

/// A DECA PE and the reference decompressor reconstruct byte-identical
/// matrices, tile by tile, for a whole compressed matrix.
#[test]
fn deca_pe_reconstruction_is_bit_exact_across_a_matrix() {
    let weights = WeightGenerator::new(2002).dense_matrix(48, 96);
    for scheme in SchemeSet::paper_evaluation() {
        let compressed = Compressor::new(scheme)
            .compress_matrix(&weights)
            .expect("compress");
        let reference = Decompressor::new();
        let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
        pipeline.configure(scheme.format());
        for tr in 0..compressed.tile_rows() {
            for tc in 0..compressed.tile_cols() {
                let tile = compressed.tile(tr, tc);
                let expected = reference.decompress_tile(tile).expect("reference");
                let (produced, _) = pipeline.process(tile).expect("pipeline");
                assert_eq!(produced, expected, "{scheme} tile ({tr},{tc})");
            }
        }
    }
}

/// Pruning keeps exactly the number of nonzeros the scheme's density asks
/// for, and the decompressed matrix reports that density.
#[test]
fn pruned_density_is_respected_end_to_end() {
    let weights = WeightGenerator::new(3003).dense_matrix(64, 64);
    for density in [0.5, 0.2, 0.05] {
        let scheme = CompressionScheme::bf8_sparse(density);
        let compressed = Compressor::new(scheme)
            .compress_matrix(&weights)
            .expect("compress");
        assert!((compressed.density() - density).abs() < 0.01);
        let restored = Decompressor::new()
            .decompress_matrix(&compressed)
            .expect("decompress");
        assert!((restored.density() - density).abs() < 0.01);
    }
}

/// The DECA PE handles a hand-constructed worst-case tile (every element in
/// one row, empty elsewhere) identically to the reference.
#[test]
fn pathological_tiles_are_handled() {
    let mut values = vec![0.0f32; TILE_ROWS * TILE_COLS];
    for c in 0..TILE_COLS {
        values[5 * TILE_COLS + c] = (c as f32 + 1.0) * 0.125;
    }
    let matrix = WeightMatrix::from_data(TILE_ROWS, TILE_COLS, values).expect("matrix");
    let scheme = CompressionScheme::bf8_sparse(0.0625); // exactly one dense row
    let compressed = Compressor::new(scheme)
        .without_pruning()
        .compress_tile(&matrix.tile(0, 0))
        .expect("compress");
    let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
    pipeline.configure(scheme.format());
    let (produced, _) = pipeline.process(&compressed).expect("pipeline");
    for c in 0..TILE_COLS {
        let expected = Bf16::from_f32((c as f32 + 1.0) * 0.125);
        // BF8 quantization error applies, but position and sign must hold.
        let got = produced.get(5, c);
        assert!(!got.is_zero());
        assert!((got.to_f32() - expected.to_f32()).abs() / expected.to_f32() < 0.13);
    }
    assert_eq!(produced.nonzero_count(), TILE_COLS);
}

/// The engine axis end to end: one compressed matrix streams through every
/// backend into the trace-driven simulator and the functional GeMM, and the
/// vOp pipeline validates against each backend — all layers agreeing on one
/// bit-exact ground truth.
#[test]
fn engine_axis_threads_through_every_layer() {
    use deca_compress::EngineKind;

    let weights = WeightGenerator::new(4004).dense_matrix(96, 128);
    let activations = WeightGenerator::new(4005)
        .with_std_dev(0.5)
        .dense_matrix(2, 96);
    let scheme = CompressionScheme::bf8_sparse(0.2);
    let compressed = Compressor::new(scheme)
        .compress_matrix(&weights)
        .expect("compress");

    // Functional layer: engine-parameterized GeMM is backend-independent.
    let reference_gemm = functional::gemm_compressed(&activations, &compressed).expect("gemm");
    for kind in EngineKind::all() {
        let out =
            functional::gemm_compressed_with(kind.build().as_ref(), &activations, &compressed)
                .expect("gemm");
        assert_eq!(out, reference_gemm, "{kind}");
    }

    // Simulation layer: traces generated through any engine are identical
    // and replay the matrix's exact bytes.
    let machine = deca_roofsurface::MachineConfig::spr_hbm();
    let executor = deca_kernels::CompressedGemmExecutor::new(machine.clone());
    let model = executor.exec_model(&scheme, &deca_kernels::Engine::deca_default());
    let sim = deca_sim::GemmSimulation::new(machine, deca_sim::CacheConfig::spr());
    let mut traced_cycles = Vec::new();
    for kind in EngineKind::all() {
        let trace =
            deca_sim::MemoryTrace::from_matrix(&compressed, kind.build().as_ref()).expect("trace");
        assert_eq!(trace.engine(), kind.label());
        let stats = sim.run_trace(&model, &trace);
        assert!((stats.bytes_per_core - compressed.total_bytes() as f64).abs() < 1e-6);
        traced_cycles.push(stats.total_cycles);
    }
    assert!(traced_cycles.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));

    // Core layer: the PE pipeline agrees bit-exactly with every backend on
    // every tile of the matrix.
    let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
    pipeline.configure(scheme.format());
    let mut scratch = DecompressScratch::new();
    let mut expected = DenseTile::zero();
    for kind in EngineKind::all() {
        let engine = kind.build();
        for tile in compressed.tiles() {
            let (produced, _) = pipeline.process(tile).expect("pipeline");
            engine
                .decompress_tile_into(tile, &mut scratch, &mut expected)
                .expect("engine");
            assert_eq!(produced, expected, "{kind}");
        }
    }
}
