//! `weights`: the paper's kernel path on real data. For each of the three
//! auto-tuner classes (Q8_50%, Q8_5%, MXFP4) a seeded 2048×2048 matrix is
//! compressed, decompressed with the auto-tuned engine and checked
//! bit-exact against the scalar reference, streamed tile by tile through
//! the vOp pipeline, turned into a memory trace and replayed by the GeMM
//! simulator for the software and DECA exec models; one design-space sweep
//! closes the pass. The source matrix (16 MiB of f32) plus the three
//! decompressed outputs exceed a 32 MiB last-level cache, as real FC weights
//! do.

use std::time::Instant;

use deca::{pipeline::VopPipeline, DecaConfig};
use deca_compress::{
    generator::WeightGenerator, AutoTunedEngine, CalibrationTable, CompressedMatrix,
    CompressionScheme, Compressor, DecompressEngine, DecompressScratch, Decompressor, DenseTile,
    SchemeSet, WeightMatrix,
};
use deca_kernels::{CompressedGemmExecutor, Engine};
use deca_roofsurface::{DecaVopModel, DesignSpaceExploration, MachineConfig};
use deca_sim::{CacheConfig, GemmSimulation, MemoryTrace, TileExecModel};

use crate::trace::{nanos, quantile_ns, SpanKind, Tracer};
use crate::{metric, Pass, Workload};

/// Matrix rows.
const ROWS: usize = 2048;
/// Matrix columns.
const COLS: usize = 2048;
/// Whole-matrix decompressions per scheme per pass (one would take ~2 ms).
const DECOMPRESS_REPS: usize = 4;
/// Every how many tiles the traced compressor drive samples one.
const COMPRESS_SAMPLE_STRIDE: usize = 8;
/// Values the traced minifloat drive encodes.
const ENCODE_VALUES: usize = 1 << 20;

/// One scheme's fixed inputs.
struct Scheme {
    scheme: CompressionScheme,
    software: TileExecModel,
    deca: TileExecModel,
    /// Decompression target, reused across passes.
    out: WeightMatrix,
}

/// The `weights` workload.
pub struct Weights {
    matrix: WeightMatrix,
    schemes: Vec<Scheme>,
    engine: AutoTunedEngine,
    machine: MachineConfig,
    sim: GemmSimulation,
    dse: DesignSpaceExploration,
    grid: Vec<DecaVopModel>,
}

impl Weights {
    /// Generates the seeded matrix, calibrates the auto-tuner and builds
    /// the exec models and the design-space grid.
    pub fn setup(seed: u64) -> Self {
        let matrix = WeightGenerator::new(seed).dense_matrix(ROWS, COLS);
        let engine = AutoTunedEngine::with_table(CalibrationTable::calibrate());
        let machine = MachineConfig::spr_hbm();
        let executor = CompressedGemmExecutor::new(machine.clone());
        let schemes = [
            CompressionScheme::bf8_sparse(0.5),
            CompressionScheme::bf8_sparse(0.05),
            CompressionScheme::mxfp4(),
        ]
        .into_iter()
        .map(|scheme| Scheme {
            scheme,
            software: executor.exec_model(&scheme, &Engine::software()),
            deca: executor.exec_model(&scheme, &Engine::deca_default()),
            out: WeightMatrix::zeros(ROWS, COLS),
        })
        .collect();
        Weights {
            matrix,
            schemes,
            engine,
            sim: GemmSimulation::new(machine.clone(), CacheConfig::spr()),
            dse: DesignSpaceExploration::new(machine.clone(), SchemeSet::paper_evaluation(), 4),
            machine,
            grid: DesignSpaceExploration::default_grid(),
        }
    }
}

/// Per-pass host seconds of each phase, summed over schemes.
#[derive(Default)]
struct Phases {
    compress: f64,
    decompress: f64,
    pipeline: f64,
    trace: f64,
    gemm: f64,
    dse: f64,
}

/// Per-tile samples of a traced pass.
#[derive(Default)]
struct TileSamples {
    compress_ns: Vec<u64>,
    engine_ns: Vec<u64>,
    pipeline_ns: Vec<u64>,
    vops: u64,
    bit_exact: usize,
}

/// Streams every tile of `compressed` through the vOp pipeline; returns
/// the summed vOps and bubbles, and per-tile host times when `per_tile`.
fn run_pipeline(compressed: &CompressedMatrix, mut per_tile: Option<&mut Vec<u64>>) -> (u64, u64) {
    let mut pipeline = VopPipeline::new(&DecaConfig::baseline());
    pipeline.configure(compressed.scheme().format());
    let mut scratch = DecompressScratch::new();
    let mut out = DenseTile::zero();
    let (mut vops, mut bubbles) = (0u64, 0u64);
    for tile in compressed.tiles() {
        let start = per_tile.is_some().then(Instant::now);
        let timing = pipeline
            .process_into(tile, &mut scratch, &mut out)
            .expect("every compressed tile streams through the pipeline");
        if let (Some(samples), Some(start)) = (per_tile.as_deref_mut(), start) {
            samples.push(nanos(start, Instant::now()));
        }
        vops += u64::from(timing.vops);
        bubbles += u64::from(timing.bubbles);
    }
    (vops, bubbles)
}

impl Workload for Weights {
    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let traced = tracer.is_enabled();
        let mut pass = Pass::default();
        let mut phases = Phases::default();
        let mut samples = TileSamples::default();
        let mut simulated_tiles = 0usize;
        tracer.open("weights.pass", SpanKind::Call);
        for s in &mut self.schemes {
            let label = s.scheme.label();
            let (compressed, secs) = tracer.timed("compress.compressor", SpanKind::Call, |_| {
                Compressor::new(s.scheme)
                    .compress_matrix(&self.matrix)
                    .expect("a dense matrix compresses under every scheme")
            });
            phases.compress += secs;

            // The reference is the check, not the workload: never timed.
            let reference = Decompressor::new()
                .decompress_matrix(&compressed)
                .expect("the scalar reference decompresses every tile");
            let ((), secs) = tracer.timed("compress.engine", SpanKind::Call, |_| {
                for _ in 0..DECOMPRESS_REPS {
                    self.engine
                        .decompress_matrix_into(&compressed, &mut s.out)
                        .expect("the auto-tuned engine decompresses every tile");
                }
            });
            phases.decompress += secs;
            let bit_exact = s.out == reference;
            drop(reference);
            samples.bit_exact += usize::from(bit_exact);

            let ((vops, bubbles), secs) = tracer.timed("core.pipeline", SpanKind::Call, |_| {
                run_pipeline(&compressed, traced.then_some(&mut samples.pipeline_ns))
            });
            phases.pipeline += secs;
            samples.vops += vops;

            let (trace, secs) = tracer.timed("sim.trace", SpanKind::Call, |_| {
                MemoryTrace::from_matrix(&compressed, &self.engine)
                    .expect("the auto-tuned engine streams every tile")
            });
            phases.trace += secs;
            let ((software, deca), secs) = tracer.timed("sim.gemm", SpanKind::Call, |_| {
                (
                    self.sim.run_trace(&s.software, &trace),
                    self.sim.run_trace(&s.deca, &trace),
                )
            });
            phases.gemm += secs;
            simulated_tiles += 2 * trace.len();

            if traced {
                tile_drives(
                    tracer,
                    &self.engine,
                    &self.matrix,
                    &compressed,
                    &mut samples,
                );
            }

            pass.output(format!("{label}.bit_exact"), bit_exact);
            pass.output(
                format!("{label}.compressed_bytes"),
                compressed.total_bytes(),
            );
            pass.output(format!("{label}.pipeline_bubbles"), bubbles);
            pass.output(
                format!("{label}.software_tflops"),
                software.tflops(&self.machine, 1),
            );
            pass.output(
                format!("{label}.deca_tflops"),
                deca.tflops(&self.machine, 1),
            );
        }
        let (outcomes, secs) = tracer.timed("roofsurface.dse", SpanKind::Call, |_| {
            self.dse.sweep(&self.grid)
        });
        phases.dse = secs;
        tracer.close();
        pass.output(
            "dse.vec_free_points",
            outcomes.iter().filter(|o| o.all_escape_vec).count(),
        );
        pass.invariants.push((
            "every scheme decompresses bit-exact",
            samples.bit_exact == self.schemes.len(),
        ));
        let tiles = (ROWS / deca_compress::TILE_ROWS) * (COLS / deca_compress::TILE_COLS);
        pass.invariants.push((
            "every tile is simulated twice per scheme",
            simulated_tiles == 2 * tiles * self.schemes.len(),
        ));

        let schemes = self.schemes.len() as f64;
        let dense_bytes = (ROWS * COLS * 2) as f64;
        pass.wall_s = phases.compress
            + phases.decompress
            + phases.pipeline
            + phases.trace
            + phases.gemm
            + phases.dse;
        pass.figures = vec![
            metric(
                "compress_mb_per_s",
                dense_bytes * schemes / phases.compress / 1e6,
                "MB/s",
            ),
            metric(
                "decompress_gb_per_s",
                dense_bytes * schemes * DECOMPRESS_REPS as f64 / phases.decompress / 1e9,
                "GB/s",
            ),
            metric(
                "gemm_sim_mtiles_per_s",
                simulated_tiles as f64 / phases.gemm / 1e6,
                "Mtiles/s",
            ),
        ];
        if traced {
            let encode_ns = encode_drive(tracer, &self.matrix);
            pass.layers = vec![
                metric("numerics.minifloat_encode_ns", encode_ns, "ns"),
                metric(
                    "compress.compressor.tile_us_p50",
                    quantile_ns(&mut samples.compress_ns, 0.50) * 1e-3,
                    "us",
                ),
                metric(
                    "compress.compressor.tile_us_p99",
                    quantile_ns(&mut samples.compress_ns, 0.99) * 1e-3,
                    "us",
                ),
                metric(
                    "compress.engine.tile_ns_p50",
                    quantile_ns(&mut samples.engine_ns, 0.50),
                    "ns",
                ),
                metric(
                    "compress.engine.tile_ns_p99",
                    quantile_ns(&mut samples.engine_ns, 0.99),
                    "ns",
                ),
                metric("compress.engine.busy_s", phases.decompress, "s"),
                metric(
                    "compress.engine.bit_exact_frac",
                    samples.bit_exact as f64 / schemes,
                    "frac",
                ),
                metric(
                    "core.pipeline.tile_ns_p50",
                    quantile_ns(&mut samples.pipeline_ns, 0.50),
                    "ns",
                ),
                metric(
                    "core.pipeline.tile_ns_p99",
                    quantile_ns(&mut samples.pipeline_ns, 0.99),
                    "ns",
                ),
                metric("core.pipeline.vops", samples.vops as f64, "count"),
                metric("sim.trace.busy_s", phases.trace, "s"),
                metric("sim.gemm.busy_s", phases.gemm, "s"),
                metric("sim.gemm.tiles", simulated_tiles as f64, "count"),
                metric("roofsurface.dse.busy_us", phases.dse * 1e6, "us"),
            ];
        }
        pass
    }
}

/// Per-tile drives of the compressor (every [`COMPRESS_SAMPLE_STRIDE`]th
/// tile) and of the auto-tuned engine's tile path (every tile).
fn tile_drives(
    tracer: &mut Tracer,
    engine: &AutoTunedEngine,
    matrix: &WeightMatrix,
    compressed: &CompressedMatrix,
    samples: &mut TileSamples,
) {
    let compressor = Compressor::new(*compressed.scheme());
    tracer.timed("compress.compressor", SpanKind::Drive, |_| {
        for index in (0..compressed.tiles().len()).step_by(COMPRESS_SAMPLE_STRIDE) {
            let tile = matrix.tile(index / matrix.tile_cols(), index % matrix.tile_cols());
            let start = Instant::now();
            std::hint::black_box(
                compressor
                    .compress_tile(&tile)
                    .expect("a dense tile compresses"),
            );
            samples.compress_ns.push(nanos(start, Instant::now()));
        }
    });
    tracer.timed("compress.engine", SpanKind::Drive, |_| {
        let mut scratch = DecompressScratch::new();
        let mut out = DenseTile::zero();
        for tile in compressed.tiles() {
            let start = Instant::now();
            engine
                .decompress_tile_into(tile, &mut scratch, &mut out)
                .expect("the auto-tuned engine decompresses every tile");
            samples.engine_ns.push(nanos(start, Instant::now()));
        }
    });
}

/// Nanoseconds per value of the Q8 minifloat encoder over the first
/// [`ENCODE_VALUES`] weights of the matrix.
fn encode_drive(tracer: &mut Tracer, matrix: &WeightMatrix) -> f64 {
    let codec = CompressionScheme::bf8_sparse(0.5)
        .format()
        .minifloat()
        .expect("Q8 is a minifloat format");
    let values = &matrix.data()[..ENCODE_VALUES.min(matrix.elems())];
    let ((), secs) = tracer.timed("numerics.minifloat", SpanKind::Drive, |_| {
        let mut folded = 0u32;
        for &value in values {
            folded = folded.wrapping_add(u32::from(codec.encode(std::hint::black_box(value))));
        }
        std::hint::black_box(folded);
    });
    secs * 1e9 / values.len() as f64
}
