//! Workspace-level integration tests of the paper's headline claims, run
//! through the public APIs exactly as a downstream user would.

use deca::{area::AreaEstimate, DecaConfig, IntegrationConfig};
use deca_compress::{CompressionScheme, SchemeSet};
use deca_kernels::{CompressedGemmExecutor, Engine};
use deca_llm::{InferenceEstimator, LlmModel};
use deca_roofsurface::{DecaVopModel, DesignSpaceExploration, MachineConfig};

/// Abstract headline: "DECA accelerates the execution of compressed GeMMs by
/// up to 4x over the use of optimized Intel software kernels" (HBM).
#[test]
fn headline_gemm_speedup_up_to_4x() {
    let executor = CompressedGemmExecutor::new(MachineConfig::spr_hbm());
    let best = SchemeSet::paper_evaluation()
        .into_iter()
        .map(|scheme| {
            let sw = executor.run(&scheme, Engine::software(), 1);
            let deca = executor.run(&scheme, Engine::deca_default(), 1);
            deca.speedup_over(&sw)
        })
        .fold(0.0f64, f64::max);
    assert!(
        (3.2..=5.5).contains(&best),
        "best DECA-over-software speedup {best:.2} (paper: up to 4x)"
    );
}

/// Abstract headline: "DECA reduces the next-token generation time of
/// Llama2-70B and OPT-66B by 1.6x–2.6x over the software-only solution".
#[test]
fn headline_llm_speedup_band() {
    let estimator = InferenceEstimator::new(MachineConfig::spr_hbm());
    let mut speedups = Vec::new();
    for model in [LlmModel::llama2_70b(), LlmModel::opt_66b()] {
        for scheme in [
            CompressionScheme::mxfp4(),
            CompressionScheme::bf8_sparse(0.05),
        ] {
            let sw = estimator.next_token(&model, &scheme, Engine::software(), 1, 128);
            let deca = estimator.next_token(&model, &scheme, Engine::deca_default(), 1, 128);
            speedups.push(sw.total_ms() / deca.total_ms());
        }
    }
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(0.0f64, f64::max);
    assert!(min > 1.6, "minimum LLM speedup {min:.2}");
    assert!(max < 2.6, "maximum LLM speedup {max:.2}");
}

/// §9.2: the Roof-Surface DSE picks {W=32, L=8}, the under-provisioned
/// design loses about 2x in simulation, and the over-provisioned one gains
/// almost nothing.
#[test]
fn headline_dse_sizing() {
    let machine = MachineConfig::spr_hbm();
    let dse = DesignSpaceExploration::new(machine.clone(), SchemeSet::paper_evaluation(), 4);
    let pick = dse
        .recommend(&DesignSpaceExploration::default_grid())
        .expect("qualifying design");
    assert_eq!(pick.point.model, DecaVopModel::BASELINE);

    let executor = CompressedGemmExecutor::new(machine);
    let geomean = |config: DecaConfig| {
        let sweep = SchemeSet::q8_density_sweep();
        let log_sum: f64 = sweep
            .iter()
            .map(|s| {
                executor
                    .run(s, Engine::deca(config, IntegrationConfig::full()), 4)
                    .tflops
                    .ln()
            })
            .sum();
        (log_sum / sweep.len() as f64).exp()
    };
    let under = geomean(DecaConfig::underprovisioned());
    let best = geomean(DecaConfig::baseline());
    let over = geomean(DecaConfig::overprovisioned());
    assert!(
        best / under > 1.6,
        "best vs under-provisioned {:.2}x (paper: 2x)",
        best / under
    );
    assert!(
        over / best < 1.05,
        "over-provisioned gains {:.3}x (paper: < 1.03x)",
        over / best
    );
}

/// §8: 56 DECA PEs cost about 2.51 mm², under 0.2 % of the SPR die.
#[test]
fn headline_area_overhead() {
    let estimate = AreaEstimate::for_config(&DecaConfig::baseline());
    assert!((estimate.total_mm2(56) - 2.51).abs() < 0.05);
    assert!(estimate.fraction_of_die(56, deca::area::SPR_DIE_MM2) < 0.002);
}

/// Fig. 14: 16 DECA-augmented cores outperform 56 conventional cores on the
/// DDR machine (averaged across compression schemes).
#[test]
fn headline_core_count_reduction() {
    let schemes = SchemeSet::paper_evaluation();
    let average = |cores: usize, engine: fn() -> Engine| {
        let machine = MachineConfig::spr_ddr().with_cores(cores);
        let executor = CompressedGemmExecutor::new(machine);
        schemes
            .iter()
            .map(|s| executor.run(s, engine(), 4).tflops)
            .sum::<f64>()
            / schemes.len() as f64
    };
    let deca_16 = average(16, Engine::deca_default);
    let software_56 = average(56, Engine::software);
    assert!(
        deca_16 > software_56,
        "16 DECA cores ({deca_16:.2} TF) should beat 56 software cores ({software_56:.2} TF)"
    );
}
