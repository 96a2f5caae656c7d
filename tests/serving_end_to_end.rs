//! Workspace-level end-to-end serving test: the full path from the HBM
//! footprint accounting through the calibrated prefill/decode estimator to
//! the continuous-batching scheduler and fleet metrics, across crates and
//! through the public APIs only.
//!
//! Everything here runs the *production* cost model
//! ([`deca_serve::EstimatorCostModel`] over [`deca_llm::InferenceEstimator`]
//! over the simulated compressed-GeMM executor) — no linear stand-ins.

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::{footprint, InferenceEstimator, LlmModel, ShardSpec};
use deca_roofsurface::MachineConfig;
use deca_serve::{
    hbm_kv_budget_tokens, simulate_fleet_with, EstimatorCostModel, FleetReport, SchedulerKind,
    ServingConfig, ServingMetrics, ServingSimulator, SloTarget, WorkloadSpec,
};

const MAX_BATCH: usize = 16;

fn served_scheme() -> CompressionScheme {
    CompressionScheme::bf8_sparse(0.05) // Table 4's Q8_5%
}

fn serve(engine: Engine, trace: &deca_serve::RequestTrace) -> deca_serve::ServingReport {
    let model = LlmModel::llama2_70b();
    let scheme = served_scheme();
    let budget = hbm_kv_budget_tokens(&model, &scheme).expect("Q8_5% fits in HBM");
    let cost = EstimatorCostModel::new(MachineConfig::spr_hbm(), model, scheme, engine);
    ServingSimulator::new(cost, ServingConfig::continuous(MAX_BATCH, budget)).run(trace)
}

/// The serving layer's KV budget is exactly the footprint crate's HBM
/// headroom, and a full run against the real estimator never exceeds it.
#[test]
fn kv_budget_comes_from_the_footprint_headroom_and_is_respected() {
    let model = LlmModel::llama2_70b();
    let scheme = served_scheme();
    let single = ShardSpec::single();
    let budget = hbm_kv_budget_tokens(&model, &scheme).expect("Q8_5% fits in HBM");
    assert_eq!(
        budget as u64,
        footprint::max_kv_tokens(&model, &scheme, &single).unwrap()
    );
    // The budget saturates the headroom: budget tokens fit, budget + 1 do not.
    assert!(footprint::fits_in_hbm_with_kv(
        &model, &scheme, &single, budget, 1
    ));
    assert!(!footprint::fits_in_hbm_with_kv(
        &model,
        &scheme,
        &single,
        budget + 1,
        1
    ));
    // Uncompressed BF16 does not even load, so it has no serving budget.
    assert_eq!(
        hbm_kv_budget_tokens(&model, &CompressionScheme::bf16_dense()),
        None
    );

    let trace = WorkloadSpec::chat(1.5, 48, 11).generate();
    let report = serve(Engine::deca_default(), &trace);
    assert_eq!(report.kv_budget_tokens, budget);
    assert!(report.peak_kv_reserved_tokens <= budget);
    assert_eq!(report.completed() + report.rejected, trace.len());
}

/// Time-to-first-token is real: no completed request's TTFT beats the
/// estimator's prefill latency for its own prompt — the serving layer can
/// queue and batch on top of the prefill cost, never undercut it.
#[test]
fn ttft_is_bounded_below_by_the_modeled_prefill_latency() {
    let model = LlmModel::llama2_70b();
    let scheme = served_scheme();
    let estimator = InferenceEstimator::new(MachineConfig::spr_hbm());
    let trace = WorkloadSpec::chat(1.0, 32, 23).generate();
    let report = serve(Engine::deca_default(), &trace);
    assert!(!report.records.is_empty());
    for record in &report.records {
        let prefill = estimator
            .prefill(
                &model,
                &scheme,
                Engine::deca_default(),
                record.prompt_tokens,
                0,
            )
            .total_seconds();
        // Relative epsilon: TTFT is a difference of accumulated simulator
        // timestamps, so an unqueued request can land a few ulps under its
        // own prefill cost.
        assert!(
            record.ttft_s() >= prefill * (1.0 - 1e-9),
            "request {}: TTFT {:.4}s under its own prefill {:.4}s",
            record.id,
            record.ttft_s(),
            prefill
        );
    }
}

/// The fleet headline holds end to end: on the same chat trace, the DECA
/// engine's serving tail and token throughput beat software decompression.
#[test]
fn deca_serves_the_same_trace_with_a_better_tail_than_software() {
    let trace = WorkloadSpec::chat(1.2, 64, 31).generate();
    let software = serve(Engine::software(), &trace);
    let deca = serve(Engine::deca_default(), &trace);

    // Same admission decisions (the budget is engine-independent)...
    assert_eq!(software.rejected, deca.rejected);
    assert_eq!(software.completed(), deca.completed());

    let sw = software.metrics();
    let dc = deca.metrics();
    // ...but every phase is faster on DECA, so the whole distribution is.
    assert!(
        dc.ttft.p99_s < sw.ttft.p99_s,
        "{} vs {}",
        dc.ttft.p99_s,
        sw.ttft.p99_s
    );
    assert!(
        dc.tpot.p99_s < sw.tpot.p99_s,
        "{} vs {}",
        dc.tpot.p99_s,
        sw.tpot.p99_s
    );
    assert!(dc.e2e.p99_s < sw.e2e.p99_s);
    assert!(dc.tokens_per_second > sw.tokens_per_second);
    let slo = SloTarget::interactive();
    assert!(deca.goodput_rps(&slo) >= software.goodput_rps(&slo));
}

/// Continuous batching beats the static run-to-completion baseline on a
/// bursty trace with the real cost model, and a 4-replica fleet conserves
/// the trace while shortening the tail.
#[test]
fn continuous_batching_and_replicas_absorb_bursts() {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let scheme = served_scheme();
    let budget = hbm_kv_budget_tokens(&model, &scheme).expect("fits");
    let trace = WorkloadSpec::bursty_chat(0.8, 96, 59).generate();
    let slo = SloTarget::interactive();

    // One memoized cost model serves both scheduler runs.
    let cost = EstimatorCostModel::new(
        machine.clone(),
        model.clone(),
        scheme,
        Engine::deca_default(),
    );
    let config_for = |kind| ServingConfig::continuous(MAX_BATCH, budget).with_scheduler(kind);
    let mut sim = ServingSimulator::new(cost, config_for(SchedulerKind::ContinuousBatching));
    let continuous = sim.run(&trace);
    let mut sim = ServingSimulator::new(
        sim.into_cost_model(),
        config_for(SchedulerKind::StaticBatching),
    );
    let static_ = sim.run(&trace);
    assert!(continuous.metrics().ttft.p99_s <= static_.metrics().ttft.p99_s);
    assert!(continuous.goodput_rps(&slo) >= static_.goodput_rps(&slo));

    let config = ServingConfig::continuous(MAX_BATCH, budget);
    let engine = Engine::deca_default();
    let cost = || EstimatorCostModel::new(machine.clone(), model.clone(), scheme, engine);
    let one = simulate_fleet_with(cost, &config, 1, &trace);
    let four = simulate_fleet_with(cost, &config, 4, &trace);
    assert_eq!(four.records().len() + four.rejected(), trace.len());
    let p99_e2e = |fleet: &FleetReport| {
        ServingMetrics::from_records(&fleet.records(), fleet.rejected(), fleet.makespan_s())
            .e2e
            .p99_s
    };
    assert!(p99_e2e(&four) <= p99_e2e(&one));
}
