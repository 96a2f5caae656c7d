//! Criterion benchmark: functional tile decompression throughput of the
//! reference decompressor, per compression scheme, plus the pluggable
//! streaming engines head to head.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use deca_compress::{
    generator::WeightGenerator, CompressionScheme, Compressor, DecompressScratch, Decompressor,
    DenseTile, EngineKind, WeightMatrix, TILE_BYTES_BF16,
};

fn bench_decompress(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_decompression");
    let generator = WeightGenerator::new(42);
    let tile = generator.dense_matrix(16, 32).tile(0, 0);
    let decompressor = Decompressor::new();
    for scheme in [
        CompressionScheme::bf16_sparse(0.5),
        CompressionScheme::bf8_dense(),
        CompressionScheme::bf8_sparse(0.2),
        CompressionScheme::bf8_sparse(0.05),
        CompressionScheme::mxfp4(),
    ] {
        let compressed = Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress");
        group.throughput(Throughput::Bytes(TILE_BYTES_BF16 as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &compressed,
            |b, compressed| {
                b.iter(|| {
                    decompressor
                        .decompress_tile(std::hint::black_box(compressed))
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_compression");
    let generator = WeightGenerator::new(43);
    let tile = generator.dense_matrix(16, 32).tile(0, 0);
    for scheme in [
        CompressionScheme::bf8_sparse(0.2),
        CompressionScheme::mxfp4(),
    ] {
        let compressor = Compressor::new(scheme);
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &tile,
            |b, tile| {
                b.iter(|| {
                    compressor
                        .compress_tile(std::hint::black_box(tile))
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_engines_tile(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_tile_decompression");
    let tile = WeightGenerator::new(44).dense_matrix(16, 32).tile(0, 0);
    let compressed = Compressor::new(CompressionScheme::bf8_sparse(0.5))
        .compress_tile(&tile)
        .expect("compress");
    for kind in EngineKind::all() {
        let engine = kind.build();
        let mut out = DenseTile::zero();
        let mut scratch = DecompressScratch::new();
        group.throughput(Throughput::Bytes(TILE_BYTES_BF16 as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &compressed,
            |b, compressed| {
                b.iter(|| {
                    engine
                        .decompress_tile_into(
                            std::hint::black_box(compressed),
                            &mut scratch,
                            &mut out,
                        )
                        .unwrap();
                });
            },
        );
    }
    group.finish();
}

fn bench_engines_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_matrix_decompression");
    let weights = WeightGenerator::new(45).dense_matrix(256, 512);
    let compressed = Compressor::new(CompressionScheme::bf8_sparse(0.5))
        .compress_matrix(&weights)
        .expect("compress");
    let dense_bytes = (weights.rows() * weights.cols() * 2) as u64;
    for kind in EngineKind::all() {
        let engine = kind.build();
        let mut out = WeightMatrix::zeros(weights.rows(), weights.cols());
        group.throughput(Throughput::Bytes(dense_bytes));
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &compressed,
            |b, compressed| {
                b.iter(|| {
                    engine
                        .decompress_matrix_into(std::hint::black_box(compressed), &mut out)
                        .unwrap();
                });
            },
        );
    }
    group.finish();
}

/// SIMD-focused group: the AVX2 path against its forced portable word
/// loop, per scheme family, so a regression on either path is visible even
/// on hosts where the other one runs.
fn bench_engine_simd(c: &mut Criterion) {
    use deca_compress::{DecompressEngine, SimdEngine};

    let mut group = c.benchmark_group("engine_simd");
    let tile = WeightGenerator::new(46).dense_matrix(16, 32).tile(0, 0);
    let engines: [(&str, Box<dyn DecompressEngine>); 2] = [
        ("simd", Box::new(SimdEngine::new())),
        ("simd-portable", Box::new(SimdEngine::portable())),
    ];
    for scheme in [
        CompressionScheme::bf8_dense(),
        CompressionScheme::bf8_sparse(0.5),
        CompressionScheme::mxfp4(),
    ] {
        let compressed = Compressor::new(scheme)
            .compress_tile(&tile)
            .expect("compress");
        for (label, engine) in &engines {
            let mut out = DenseTile::zero();
            let mut scratch = DecompressScratch::new();
            group.throughput(Throughput::Bytes(TILE_BYTES_BF16 as u64));
            group.bench_with_input(
                BenchmarkId::new(*label, scheme.label()),
                &compressed,
                |b, compressed| {
                    b.iter(|| {
                        engine
                            .decompress_tile_into(
                                std::hint::black_box(compressed),
                                &mut scratch,
                                &mut out,
                            )
                            .unwrap();
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decompress,
    bench_compress,
    bench_engines_tile,
    bench_engines_matrix,
    bench_engine_simd
);
criterion_main!(benches);
