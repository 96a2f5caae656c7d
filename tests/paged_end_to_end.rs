//! Workspace-level end-to-end test of the paged KV-cache subsystem: the
//! full path from the HBM footprint accounting (block pool sizing) through
//! the calibrated cached-prefix prefill estimator to the paged scheduler
//! with radix-tree prefix sharing and preemption-by-recompute, across
//! crates and through the public APIs only.
//!
//! Everything here runs the *production* cost model
//! ([`deca_serve::EstimatorCostModel`] over [`deca_llm::InferenceEstimator`]
//! over the simulated compressed-GeMM executor) — no linear stand-ins.

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::{footprint, InterconnectModel, LlmModel, ShardSpec};
use deca_roofsurface::MachineConfig;
use deca_serve::{
    hbm_kv_budget_tokens, EstimatorCostModel, ServingConfig, ServingSimulator,
    SharedPrefixChatSpec, SloTarget,
};

const MAX_BATCH: usize = 16;
const BLOCK_SIZE: usize = 32;

fn served_scheme() -> CompressionScheme {
    CompressionScheme::bf8_sparse(0.05) // Table 4's Q8_5%
}

fn chat_trace() -> deca_serve::RequestTrace {
    SharedPrefixChatSpec {
        turns_per_session: 3,
        ..SharedPrefixChatSpec::fleet(0.4, 8, 67)
    }
    .generate()
}

fn serve(config: ServingConfig, trace: &deca_serve::RequestTrace) -> deca_serve::ServingReport {
    let cost = EstimatorCostModel::new(
        MachineConfig::spr_hbm(),
        LlmModel::llama2_70b(),
        served_scheme(),
        Engine::deca_default(),
    );
    ServingSimulator::new(cost, config).run(trace)
}

/// The paged block pool is exactly the footprint crate's one-socket token
/// budget in whole blocks.
#[test]
fn block_pool_derives_from_the_footprint_headroom() {
    let model = LlmModel::llama2_70b();
    let scheme = served_scheme();
    let single = ShardSpec::single();
    let tokens = footprint::max_kv_tokens(&model, &scheme, &single).expect("Q8_5% fits");
    let blocks = tokens / BLOCK_SIZE as u64;

    let budget = hbm_kv_budget_tokens(&model, &scheme).expect("fits");
    let config = ServingConfig::paged(MAX_BATCH, budget, BLOCK_SIZE);
    let report = serve(config, &chat_trace());
    let paged = report.paged.expect("paged stats");
    assert_eq!(paged.total_blocks as u64, blocks);
    // The report's budget is the pool in tokens (whole blocks only).
    assert_eq!(report.kv_budget_tokens as u64, blocks * BLOCK_SIZE as u64);
    assert!(paged.peak_allocated_blocks <= paged.total_blocks);
}

/// The acceptance headline, end to end: request conservation
/// (`completed + rejected == offered`) holds under preemption on a pool
/// small enough to thrash, and the preemption counters prove it happened.
#[test]
fn requests_are_conserved_under_preemption() {
    // A fast-arriving conversation wave: 8 concurrent ~700-token contexts
    // whose private suffixes alone overflow a 48-block pool even with the
    // system prompt fully shared — allocation must fail and preemption
    // must fire.
    let trace = SharedPrefixChatSpec {
        turns_per_session: 3,
        ..SharedPrefixChatSpec::fleet(3.0, 8, 67)
    }
    .generate();
    let config = ServingConfig::paged(MAX_BATCH, 1_536, BLOCK_SIZE).with_prefix_sharing(true);
    let report = serve(config, &trace);
    let paged = report.paged.expect("paged stats");
    assert!(paged.preemptions > 0, "the pool must have run dry");
    assert_eq!(
        report.completed() + report.rejected,
        trace.len(),
        "conservation under preemption"
    );
    assert_eq!(report.admitted, report.completed());
    // Preempted-and-resumed requests still have sane records.
    for r in &report.records {
        assert!(r.first_token_s > r.arrival_s);
        assert!(r.completion_s >= r.first_token_s);
    }
}

/// Prefix sharing pays end to end with the real estimator: on the same
/// shared-prefix trace and the same resources, paged+prefix admission
/// reports a positive hit rate, a shorter TTFT tail, and no worse goodput
/// than reserve-up-front.
#[test]
fn prefix_sharing_beats_reserve_up_front_on_the_chat_trace() {
    let model = LlmModel::llama2_70b();
    let budget = hbm_kv_budget_tokens(&model, &served_scheme()).expect("fits");
    let trace = chat_trace();

    let reserve = serve(ServingConfig::continuous(MAX_BATCH, budget), &trace);
    let paged_prefix = serve(
        ServingConfig::paged(MAX_BATCH, budget, BLOCK_SIZE).with_prefix_sharing(true),
        &trace,
    );
    assert_eq!(reserve.completed(), paged_prefix.completed());

    let stats = paged_prefix.paged.expect("paged stats");
    assert!(
        stats.prefix_hit_rate() > 0.3,
        "conversation turns must hit the radix cache, got {}",
        stats.prefix_hit_rate()
    );
    let slo = SloTarget::interactive();
    assert!(
        paged_prefix.metrics().ttft.p99_s < reserve.metrics().ttft.p99_s,
        "cached prefills must shorten the TTFT tail: {} vs {}",
        paged_prefix.metrics().ttft.p99_s,
        reserve.metrics().ttft.p99_s
    );
    assert!(paged_prefix.goodput_rps(&slo) >= reserve.goodput_rps(&slo));
}

/// The paged policy composes with sharding: a TP2 replica prices its
/// cached prefills through `InferenceEstimator::sharded` and still conserves
/// the trace, with a bigger block pool than one socket.
#[test]
fn paged_serving_composes_with_tensor_parallel_sharding() {
    let model = LlmModel::llama2_70b();
    let scheme = served_scheme();
    let tp2 = ShardSpec::tp(2);
    let blocks = |spec: &ShardSpec| {
        footprint::max_kv_tokens(&model, &scheme, spec).expect("fits") / BLOCK_SIZE as u64
    };
    let single_blocks = blocks(&ShardSpec::single());
    let tp2_blocks = blocks(&tp2);
    assert!(
        tp2_blocks > single_blocks,
        "sharded weights leave more room"
    );

    let trace = chat_trace();
    let cost = EstimatorCostModel::sharded(
        MachineConfig::spr_hbm(),
        model,
        scheme,
        Engine::deca_default(),
        tp2,
        InterconnectModel::spr_upi(),
    );
    let config = ServingConfig::paged(MAX_BATCH, tp2_blocks as usize * BLOCK_SIZE, BLOCK_SIZE)
        .with_prefix_sharing(true);
    let report = ServingSimulator::new(cost, config).run(&trace);
    assert_eq!(report.completed() + report.rejected, trace.len());
    assert!(report.paged.expect("paged stats").prefix_hit_tokens > 0);
}
