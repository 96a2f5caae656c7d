//! One function per paper table/figure. Each returns the formatted text
//! that `paper <name>` prints, so the harness is also unit-testable.
//! [`ARTIFACTS`] names them all; [`all`] and the baseline's `paper`
//! record walk it in order.

use std::fmt::Write as _;

use deca::{area::AreaEstimate, DecaConfig, IntegrationConfig};
use deca_compress::{CompressionScheme, SchemeSet};
use deca_kernels::{
    avx_model::{software_signature, VectorResources},
    CompressedGemmExecutor, Engine,
};
use deca_llm::{InferenceEstimator, LlmModel};
use deca_roofsurface::{
    Bord, DecaVopModel, DesignSpaceExploration, KernelSignature, MachineConfig, RoofSurface,
    Roofline,
};

use crate::report::{fmt_f, fmt_pct, TextTable};

/// The batch sizes used in Table 1.
const TABLE1_BATCHES: [usize; 3] = [1, 4, 16];

fn software_signatures(schemes: &[CompressionScheme]) -> Vec<KernelSignature> {
    schemes.iter().map(software_signature).collect()
}

/// Table 1: contribution of FC-layer GeMMs to the next-token time
/// (Llama2-70B, uncompressed BF16, DDR and HBM, 32/128 input tokens).
#[must_use]
pub fn tab01_fc_fraction() -> String {
    let mut table = TextTable::new(
        "Table 1 — FC GeMM share of Llama2-70B next-token time (BF16, software)",
        &["Memory", "Input tokens", "N=1", "N=4", "N=16"],
    );
    for machine in [MachineConfig::spr_ddr(), MachineConfig::spr_hbm()] {
        let estimator = InferenceEstimator::new(machine.clone());
        for input_tokens in [32usize, 128] {
            let mut cells = vec![machine.name.clone(), input_tokens.to_string()];
            for batch in TABLE1_BATCHES {
                let report = estimator.next_token(
                    &LlmModel::llama2_70b(),
                    &CompressionScheme::bf16_dense(),
                    Engine::software(),
                    batch,
                    input_tokens,
                );
                cells.push(format!("{:.1}%", report.fc_fraction() * 100.0));
            }
            table.add_row(cells);
        }
    }
    table.to_string()
}

/// Figure 3: traditional rooflines for a large FC GeMM at N=4 on DDR and
/// HBM — optimal (roofline) versus observed (simulated software kernel).
#[must_use]
pub fn fig03_roofline() -> String {
    let mut out = String::new();
    let schemes: Vec<CompressionScheme> = std::iter::once(CompressionScheme::bf16_dense())
        .chain(SchemeSet::paper_evaluation())
        .collect();
    for machine in [MachineConfig::spr_ddr(), MachineConfig::spr_hbm()] {
        let roofline = Roofline::new(&machine);
        let executor = CompressedGemmExecutor::new(machine.clone());
        let mut table = TextTable::new(
            format!("Figure 3 — roofline, {}, N=4", machine.name),
            &["kernel", "AI (FLOP/B)", "Optimal TF", "Observed TF", "gap"],
        );
        for scheme in &schemes {
            let ai = scheme.flops_per_byte(4);
            let optimal = roofline.attainable_flops(ai, 4) / 1e12;
            let observed = executor.run(scheme, Engine::software(), 4).tflops;
            table.add_row(vec![
                scheme.label(),
                fmt_f(ai, 2),
                fmt_f(optimal, 2),
                fmt_f(observed, 2),
                format!("{:.2}x", optimal / observed),
            ]);
        }
        out.push_str(&table.to_string());
        out.push('\n');
    }
    out
}

/// Figure 4: the 3D Roof-Surface (region census of the sampled surface) and
/// the R-L vs R-S vs simulated-performance table for HBM at N=4.
#[must_use]
pub fn fig04_roofsurface() -> String {
    let machine = MachineConfig::spr_hbm();
    let surface = RoofSurface::for_cpu(&machine);
    let roofline = Roofline::new(&machine);
    let executor = CompressedGemmExecutor::new(machine.clone());

    let samples = surface.sample_grid((0.001, 0.02), (0.001, 0.05), 48, 4);
    let census = |bound| samples.iter().filter(|s| s.bound == bound).count();
    let mut out = format!(
        "=== Figure 4a — Roof-Surface sample grid (HBM, N=4, 48x48 points) ===\n\
         MEM-bound region: {} points, VEC-bound region: {} points, MTX-bound region: {} points\n\
         peak of surface: {:.1} TFLOPS\n\n",
        census(deca_roofsurface::BoundingFactor::Memory),
        census(deca_roofsurface::BoundingFactor::Vector),
        census(deca_roofsurface::BoundingFactor::Matrix),
        samples.iter().map(|s| s.flops).fold(0.0, f64::max) / 1e12,
    );

    let mut table = TextTable::new(
        "Figure 4b — optimal TFLOPS: roofline (R-L) vs Roof-Surface (R-S) vs simulated (Real), HBM, N=4",
        &["kernel", "R-L", "R-S", "Real", "bound"],
    );
    let mut schemes = vec![CompressionScheme::mxfp4(), CompressionScheme::bf8_dense()];
    schemes.extend([0.5, 0.3, 0.2, 0.1, 0.05].map(CompressionScheme::bf8_sparse));
    schemes.extend([0.5, 0.3, 0.2, 0.1, 0.05].map(CompressionScheme::bf16_sparse));
    for scheme in schemes {
        let sig = software_signature(&scheme);
        let rl = roofline.attainable_flops(scheme.flops_per_byte(4), 4) / 1e12;
        let rs = surface.flops(&sig, 4) / 1e12;
        let real = executor.run(&scheme, Engine::software(), 4).tflops;
        table.add_row(vec![
            scheme.label(),
            fmt_f(rl, 1),
            fmt_f(rs, 1),
            fmt_f(real, 1),
            surface.bounding_factor(&sig).to_string(),
        ]);
    }
    out.push_str(&table.to_string());
    out
}

fn bord_report(title: &str, machine: &MachineConfig) -> String {
    let bord = Bord::new(RoofSurface::for_cpu(machine));
    let sigs = software_signatures(&SchemeSet::paper_evaluation());
    let points = bord.place_all(&sigs);
    let mut table = TextTable::new(title, &["kernel", "AIX_M", "AIX_V", "region"]);
    for p in &points {
        table.add_row(vec![
            p.label.clone(),
            fmt_f(p.aix_m, 5),
            fmt_f(p.aix_v, 5),
            p.region.to_string(),
        ]);
    }
    format!(
        "{}\nregion boundaries: MEM/VEC slope = {:.3}, MEM/MTX at AIX_M = {:.5}, VEC/MTX at AIX_V = {:.5}\n\
         VEC-bound fraction: {}\n{}\n",
        table,
        bord.mem_vec_slope(),
        bord.mem_mtx_boundary(),
        bord.vec_mtx_boundary(),
        fmt_pct(bord.vec_bound_fraction(&sigs)),
        bord.render_ascii(&points, 64, 20),
    )
}

/// Figure 5: the 2D BORD for HBM and DDR with the software kernels placed
/// on it.
#[must_use]
pub fn fig05_bord() -> String {
    let mut out = bord_report(
        "Figure 5a — BORD, SPR-HBM (software kernels)",
        &MachineConfig::spr_hbm(),
    );
    out.push('\n');
    out.push_str(&bord_report(
        "Figure 5b — BORD, SPR-DDR (software kernels)",
        &MachineConfig::spr_ddr(),
    ));
    out
}

/// Figure 6: the BORD for the HBM machine with 4× the vector throughput.
#[must_use]
pub fn fig06_bord_4x_vos() -> String {
    bord_report(
        "Figure 6 — BORD, SPR-HBM with 4x VOS (software kernels)",
        &MachineConfig::spr_hbm().with_vector_scaling(4),
    )
}

fn speedup_figure(title: &str, machine: MachineConfig) -> String {
    let executor = CompressedGemmExecutor::new(machine);
    let baseline = executor.uncompressed_baseline(1);
    let mut table = TextTable::new(title, &["kernel", "Software-only", "DECA", "Optimal"]);
    for scheme in SchemeSet::paper_evaluation() {
        let sw = executor.run(&scheme, Engine::software(), 1);
        let deca = executor.run(&scheme, Engine::deca_default(), 1);
        let optimal = executor.optimal_tflops(&scheme, 1) / baseline.tflops;
        table.add_row(vec![
            scheme.label(),
            format!("{:.2}x", sw.speedup_over(&baseline)),
            format!("{:.2}x", deca.speedup_over(&baseline)),
            format!("{:.2}x", optimal),
        ]);
    }
    table.to_string()
}

/// Figure 12: compressed-GeMM speedups over uncompressed BF16 on DDR, N=1.
#[must_use]
pub fn fig12_speedup_ddr() -> String {
    speedup_figure(
        "Figure 12 — speedup vs uncompressed BF16, DDR, N=1",
        MachineConfig::spr_ddr(),
    )
}

/// Figure 13: compressed-GeMM speedups over uncompressed BF16 on HBM, N=1.
#[must_use]
pub fn fig13_speedup_hbm() -> String {
    speedup_figure(
        "Figure 13 — speedup vs uncompressed BF16, HBM, N=1",
        MachineConfig::spr_hbm(),
    )
}

/// Figure 14: average TFLOPS across all compression schemes versus the
/// number of active cores (DDR, N=4), software versus DECA-augmented cores.
#[must_use]
pub fn fig14_core_scaling() -> String {
    let mut table = TextTable::new(
        "Figure 14 — average TFLOPS across compressions vs active core count, DDR, N=4",
        &["cores", "Software", "DECA"],
    );
    let schemes = SchemeSet::paper_evaluation();
    for cores in [8usize, 16, 24, 32, 40, 48, 56] {
        let machine = MachineConfig::spr_ddr().with_cores(cores);
        let executor = CompressedGemmExecutor::new(machine);
        let avg = |engine: fn() -> Engine| {
            schemes
                .iter()
                .map(|s| executor.run(s, engine(), 4).tflops)
                .sum::<f64>()
                / schemes.len() as f64
        };
        table.add_row(vec![
            cores.to_string(),
            fmt_f(avg(Engine::software), 2),
            fmt_f(avg(Engine::deca_default), 2),
        ]);
    }
    table.to_string()
}

/// Table 3: component utilization for Q8 at several densities (N=1, HBM),
/// software-only versus DECA.
#[must_use]
pub fn tab03_utilization() -> String {
    let executor = CompressedGemmExecutor::new(MachineConfig::spr_hbm());
    let mut table = TextTable::new(
        "Table 3 — component utilization, Q8, N=1, HBM",
        &[
            "density",
            "SW:MEM",
            "SW:TMUL",
            "SW:AVX",
            "DECA:MEM",
            "DECA:TMUL",
            "DECA:DECA",
        ],
    );
    for density in [1.0, 0.5, 0.2, 0.05] {
        let scheme = if density < 1.0 {
            CompressionScheme::bf8_sparse(density)
        } else {
            CompressionScheme::bf8_dense()
        };
        let sw = executor.run(&scheme, Engine::software(), 1).stats;
        let deca = executor.run(&scheme, Engine::deca_default(), 1).stats;
        table.add_row(vec![
            format!("{:.0}%", density * 100.0),
            fmt_pct(sw.memory_utilization()),
            fmt_pct(sw.tmul_utilization()),
            fmt_pct(sw.decompress_utilization()),
            fmt_pct(deca.memory_utilization()),
            fmt_pct(deca.tmul_utilization()),
            fmt_pct(deca.decompress_utilization()),
        ]);
    }
    table.to_string()
}

/// Figure 15: DECA versus conventional vector-resource scaling
/// (4× more AVX units, 4× wider AVX units), HBM, N=1.
#[must_use]
pub fn fig15_vector_scaling() -> String {
    let executor = CompressedGemmExecutor::new(MachineConfig::spr_hbm());
    let baseline = executor.uncompressed_baseline(1);
    let mut table = TextTable::new(
        "Figure 15 — DECA vs traditional vector scaling, HBM, N=1 (speedup vs uncompressed BF16)",
        &["kernel", "More AVX Units", "Wider AVX Units", "DECA"],
    );
    for scheme in SchemeSet::paper_evaluation() {
        let more = executor.run(
            &scheme,
            Engine::software_with(VectorResources::more_avx_units()),
            1,
        );
        let wider = executor.run(
            &scheme,
            Engine::software_with(VectorResources::wider_avx_units()),
            1,
        );
        let deca = executor.run(&scheme, Engine::deca_default(), 1);
        table.add_row(vec![
            scheme.label(),
            format!("{:.2}x", more.speedup_over(&baseline)),
            format!("{:.2}x", wider.speedup_over(&baseline)),
            format!("{:.2}x", deca.speedup_over(&baseline)),
        ]);
    }
    table.to_string()
}

/// Figure 16 / §9.2: design-space exploration over `{W, L}` — BORD regions
/// for the no-DECA CPU and for under/best/over-provisioned DECAs, the
/// analytic recommendation, and the simulated performance ratios quoted in
/// the paper.
#[must_use]
pub fn fig16_dse() -> String {
    let machine = MachineConfig::spr_hbm();
    let schemes = SchemeSet::paper_evaluation();
    let dse = DesignSpaceExploration::new(machine.clone(), schemes.clone(), 4);

    let mut out = String::new();
    // (a) the CPU (no DECA) BORD: how many kernels are VEC-bound.
    let cpu_bord = Bord::new(RoofSurface::for_cpu(&machine));
    let cpu_sigs = software_signatures(&schemes);
    let _ = write!(
        out,
        "=== Figure 16a — no DECA (CPU AVX): {} of {} kernels VEC-bound ===\n\n",
        cpu_sigs
            .iter()
            .filter(|s| cpu_bord.classify(s) == deca_roofsurface::BoundingFactor::Vector)
            .count(),
        cpu_sigs.len()
    );

    let mut table = TextTable::new(
        "Figure 16b — kernels still VEC-bound for different DECA sizings",
        &[
            "sizing",
            "cost proxy (B)",
            "VEC-bound kernels",
            "min TFLOPS",
            "geomean TFLOPS",
        ],
    );
    for model in [
        DecaVopModel::UNDERPROVISIONED,
        DecaVopModel::BASELINE,
        DecaVopModel::OVERPROVISIONED,
    ] {
        let outcome = dse.evaluate(model);
        table.add_row(vec![
            model.to_string(),
            outcome.point.cost.to_string(),
            if outcome.vec_bound_kernels.is_empty() {
                "none".to_string()
            } else {
                outcome.vec_bound_kernels.join(",")
            },
            fmt_f(outcome.min_tflops, 2),
            fmt_f(outcome.geomean_tflops, 2),
        ]);
    }
    out.push_str(&table.to_string());

    let recommended = dse
        .recommend(&DesignSpaceExploration::default_grid())
        .expect("a qualifying design exists");
    let _ = write!(
        out,
        "\nanalytic recommendation: {} (cheapest sizing with no VEC-bound kernel)\n",
        recommended.point.model
    );

    // Simulated validation of the three sizings (geometric mean across the
    // Q8 density sweep, the schemes most sensitive to {W, L}).
    let executor = CompressedGemmExecutor::new(machine);
    let simulated = |config: DecaConfig| {
        let sweep = SchemeSet::q8_density_sweep();
        let product: f64 = sweep
            .iter()
            .map(|s| {
                executor
                    .run(s, Engine::deca(config, IntegrationConfig::full()), 4)
                    .tflops
                    .ln()
            })
            .sum();
        (product / sweep.len() as f64).exp()
    };
    let under = simulated(DecaConfig::underprovisioned());
    let best = simulated(DecaConfig::baseline());
    let over = simulated(DecaConfig::overprovisioned());
    let _ = write!(
        out,
        "simulated geomean TFLOPS (Q8 sweep, N=4): under {:.2}, best {:.2}, over {:.2}\n\
         best / under = {:.2}x (paper: 2x)   over / best = {:.3}x (paper: < 1.03x)\n",
        under,
        best,
        over,
        best / under,
        over / best
    );
    out
}

/// Figure 17: the DECA integration ablation (Q8 densities, HBM, N=4),
/// speedup of each integration step over the base configuration.
#[must_use]
pub fn fig17_integration() -> String {
    let executor = CompressedGemmExecutor::new(MachineConfig::spr_hbm());
    let ladder = IntegrationConfig::ablation_ladder();
    let headers: Vec<&str> = std::iter::once("density")
        .chain(ladder.iter().map(|(name, _)| *name))
        .collect();
    let mut table = TextTable::new(
        "Figure 17 — DECA integration features, Q8, HBM, N=4 (speedup over base config)",
        &headers,
    );
    for density in [1.0, 0.5, 0.3, 0.2, 0.1, 0.05] {
        let scheme = if density < 1.0 {
            CompressionScheme::bf8_sparse(density)
        } else {
            CompressionScheme::bf8_dense()
        };
        let base = executor
            .run(
                &scheme,
                Engine::deca(DecaConfig::baseline(), IntegrationConfig::base()),
                4,
            )
            .tflops;
        let mut cells = vec![format!("{:.0}%", density * 100.0)];
        for (_, integration) in &ladder {
            let tflops = executor
                .run(
                    &scheme,
                    Engine::deca(DecaConfig::baseline(), *integration),
                    4,
                )
                .tflops;
            cells.push(format!("{:.2}x", tflops / base));
        }
        table.add_row(cells);
    }
    table.to_string()
}

/// Table 4: Llama2-70B / OPT-66B next-token latency (ms) on HBM for software
/// versus DECA, batch sizes 1 and 16.
#[must_use]
pub fn tab04_llm_latency() -> String {
    let estimator = InferenceEstimator::new(MachineConfig::spr_hbm());
    let schemes = SchemeSet::llm_evaluation();
    let mut out = String::new();
    for model in [LlmModel::llama2_70b(), LlmModel::opt_66b()] {
        let mut table = TextTable::new(
            format!(
                "Table 4 — {} next-token latency (ms), HBM, 128 input tokens",
                model.name()
            ),
            &[
                "engine",
                "BF16 (N=1)",
                "Q4 (N=1)",
                "Q8_20% (N=1)",
                "Q8_5% (N=1)",
                "BF16 (N=16)",
                "Q4 (N=16)",
                "Q8_20% (N=16)",
                "Q8_5% (N=16)",
            ],
        );
        for (engine_name, engine) in [("SW", Engine::software()), ("DECA", Engine::deca_default())]
        {
            let mut cells = vec![engine_name.to_string()];
            for batch in [1usize, 16] {
                for scheme in &schemes {
                    if engine_name == "DECA" && scheme.is_uncompressed() {
                        // The uncompressed model needs no decompression; DECA
                        // does not apply (the paper leaves this cell empty).
                        cells.push("-".to_string());
                        continue;
                    }
                    let report = estimator.next_token(&model, scheme, engine, batch, 128);
                    cells.push(fmt_f(report.total_ms(), 1));
                }
            }
            table.add_row(cells);
        }
        out.push_str(&table.to_string());
        out.push('\n');
    }
    out
}

/// Batch-size sweep (§9.1: "We repeated this analysis for batch sizes of up
/// to N=16 and observed similar results"): DECA-over-software speedup on HBM
/// for N = 1, 4, 16 across the evaluated schemes.
#[must_use]
pub fn batch_sweep() -> String {
    let executor = CompressedGemmExecutor::new(MachineConfig::spr_hbm());
    let mut table = TextTable::new(
        "Batch sweep — DECA speedup over the software kernel, HBM",
        &["kernel", "N=1", "N=4", "N=16"],
    );
    for scheme in SchemeSet::paper_evaluation() {
        let mut cells = vec![scheme.label()];
        for batch in [1usize, 4, 16] {
            let sw = executor.run(&scheme, Engine::software(), batch);
            let deca = executor.run(&scheme, Engine::deca_default(), batch);
            cells.push(format!("{:.2}x", deca.speedup_over(&sw)));
        }
        table.add_row(cells);
    }
    table.to_string()
}

/// §8 area estimate: per-PE breakdown, 56-PE total and die fraction.
#[must_use]
pub fn area_report() -> String {
    let mut table = TextTable::new(
        "DECA area model (7 nm)",
        &[
            "sizing",
            "per-PE mm2",
            "56 PEs mm2",
            "% of 1600 mm2 die",
            "buffers",
            "LUT array",
            "datapath",
        ],
    );
    for (name, config) in [
        ("{W=8,L=4}", DecaConfig::underprovisioned()),
        ("{W=32,L=8} (baseline)", DecaConfig::baseline()),
        ("{W=64,L=64}", DecaConfig::overprovisioned()),
    ] {
        let est = AreaEstimate::for_config(&config);
        let (b, l, d) = est.breakdown();
        table.add_row(vec![
            name.to_string(),
            fmt_f(est.per_pe_mm2(), 4),
            fmt_f(est.total_mm2(56), 2),
            format!(
                "{:.3}%",
                est.fraction_of_die(56, deca::area::SPR_DIE_MM2) * 100.0
            ),
            fmt_pct(b),
            fmt_pct(l),
            fmt_pct(d),
        ]);
    }
    table.to_string()
}

/// A paper artifact: its name and the function that renders it.
pub type Artifact = (&'static str, fn() -> String);

/// Every paper artifact by name, in the order [`all`] prints them — the one
/// registry behind `paper <name>|all` and the baseline's `paper` record.
pub const ARTIFACTS: &[Artifact] = &[
    ("tab01_fc_fraction", tab01_fc_fraction),
    ("fig03_roofline", fig03_roofline),
    ("fig04_roofsurface", fig04_roofsurface),
    ("fig05_bord", fig05_bord),
    ("fig06_bord_4x_vos", fig06_bord_4x_vos),
    ("fig12_speedup_ddr", fig12_speedup_ddr),
    ("fig13_speedup_hbm", fig13_speedup_hbm),
    ("fig14_core_scaling", fig14_core_scaling),
    ("tab03_utilization", tab03_utilization),
    ("fig15_vector_scaling", fig15_vector_scaling),
    ("fig16_dse", fig16_dse),
    ("fig17_integration", fig17_integration),
    ("tab04_llm_latency", tab04_llm_latency),
    ("batch_sweep", batch_sweep),
    ("area_report", area_report),
];

/// Every artifact in [`ARTIFACTS`], concatenated (`paper all`).
#[must_use]
pub fn all() -> String {
    ARTIFACTS
        .iter()
        .map(|(_, render)| render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_report_has_all_rows() {
        let text = tab01_fc_fraction();
        assert!(text.contains("SPR-DDR"));
        assert!(text.contains("SPR-HBM"));
        assert!(text.matches('%').count() >= 12);
    }

    #[test]
    fn fig04_reports_all_twelve_kernels() {
        let text = fig04_roofsurface();
        for label in ["Q4", "Q8", "Q8_5%", "Q16_5%", "Q16_50%"] {
            assert!(text.contains(label), "missing {label}");
        }
        assert!(text.contains("VEC"));
    }

    #[test]
    fn fig13_shows_deca_column() {
        let text = fig13_speedup_hbm();
        assert!(text.contains("DECA"));
        assert!(text.contains("Q8_5%"));
        assert!(text.contains('x'));
    }

    #[test]
    fn fig16_recommends_the_baseline() {
        let text = fig16_dse();
        assert!(text.contains("{W=32, L=8}"));
        assert!(text.contains("analytic recommendation"));
    }

    #[test]
    fn fig17_has_the_full_ladder() {
        let text = fig17_integration();
        for step in [
            "Base",
            "+Reads L2",
            "+DECA prefetcher",
            "+TOut Regs",
            "+TEPL (DECA)",
        ] {
            assert!(text.contains(step), "missing {step}");
        }
    }

    #[test]
    fn tab04_contains_both_models_and_dashes_for_uncompressed_deca() {
        let text = tab04_llm_latency();
        assert!(text.contains("Llama2-70B"));
        assert!(text.contains("OPT-66B"));
        assert!(text.contains('-'));
    }

    #[test]
    fn batch_sweep_speedups_are_similar_across_batches() {
        // §9.1: the speedup picture at N=16 resembles N=1.
        let text = batch_sweep();
        assert!(text.contains("N=16"));
        assert!(text.contains("Q8_5%"));
    }

    #[test]
    fn area_report_mentions_the_baseline_numbers() {
        let text = area_report();
        assert!(text.contains("2.51") || text.contains("2.50") || text.contains("2.52"));
        assert!(text.contains("baseline"));
    }
}
