//! Paged KV-cache serving scenario on the simulated DECA-equipped HBM
//! server: a prefix-heavy chat fleet (shared system prompt, multi-turn
//! conversations) served under the three admission policies —
//!
//! 1. reserve-up-front continuous batching (the pre-paged baseline),
//! 2. paged: block-granular on-demand KV allocation,
//! 3. paged + radix-tree prefix sharing,
//!
//! printing KV utilization, prefix hit rate, preemption counters, the
//! capacity delta at the interactive p99 SLO, and — under an overloaded
//! pool with a DDR tier behind it — the swap/demotion/promotion counters
//! of the tiered KV offload path.
//!
//! Run with: `cargo run --release --example llm_paged_serving`

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::{footprint, LlmModel};
use deca_roofsurface::MachineConfig;
use deca_serve::{
    capacity_search_warm, hbm_kv_budget_tokens, CapacitySpec, EstimatorCostModel, KvTierModel,
    ServingConfig, ServingSimulator, SharedPrefixChatSpec, SloTarget,
};

const MAX_BATCH: usize = 16;
const BLOCK_SIZE: usize = 32;
const SESSIONS: usize = 24;

fn policies(budget: usize) -> [(&'static str, ServingConfig); 3] {
    let paged = ServingConfig::paged(MAX_BATCH, budget, BLOCK_SIZE);
    [
        (
            "reserve-up-front",
            ServingConfig::continuous(MAX_BATCH, budget),
        ),
        ("paged", paged),
        ("paged+prefix", paged.with_prefix_sharing(true)),
    ]
}

fn cost_model(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: CompressionScheme,
) -> EstimatorCostModel {
    EstimatorCostModel::new(
        machine.clone(),
        model.clone(),
        scheme,
        Engine::deca_default(),
    )
}

/// Fixed-load comparison: the same conversation trace under each policy.
fn policy_table(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: CompressionScheme,
    workload: &SharedPrefixChatSpec,
    budget: usize,
    slo: &SloTarget,
) {
    let trace = workload.generate();
    println!(
        "\n-- {} conversations x {} turns ({} requests, {:.0}-token system prompt), DECA {} --",
        workload.sessions,
        workload.turns_per_session,
        trace.len(),
        workload.system_prompt_tokens as f64,
        scheme.label()
    );
    println!(
        "{:<17} {:>9} {:>9} {:>9} {:>8} {:>9} {:>11} {:>9}",
        "policy", "TTFT p99", "E2E p99", "goodput", "KV occ", "hit rate", "preemptions", "KV frag"
    );
    for (name, config) in policies(budget) {
        let mut server = ServingSimulator::new(cost_model(machine, model, scheme), config);
        let report = server.run(&trace);
        let m = report.metrics();
        let (hit, preempt, frag) = report.paged.map_or((0.0, 0, 0.0), |p| {
            (
                p.prefix_hit_rate(),
                p.preemptions,
                p.mean_internal_fragmentation,
            )
        });
        println!(
            "{name:<17} {:>8.2}s {:>8.2}s {:>6.2} r/s {:>7.1}% {:>8.1}% {:>11} {:>8.1}%",
            m.ttft.p99_s,
            m.e2e.p99_s,
            report.goodput_rps(slo),
            report.mean_kv_occupancy * 100.0,
            hit * 100.0,
            preempt,
            frag * 100.0,
        );
    }
}

/// Capacity delta: sessions/sec each policy sustains at the p99 SLO.
fn capacity_table(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: CompressionScheme,
    workload: &SharedPrefixChatSpec,
    budget: usize,
    slo: &SloTarget,
) {
    let spec = CapacitySpec {
        slo: *slo,
        requests: workload.requests(),
        seed: workload.seed,
        min_rate: 0.05,
        max_rate: 16.0,
        iterations: 6,
    };
    println!(
        "\n-- capacity at p99 TTFT <= {:.0} s / TPOT <= {:.0} ms --",
        slo.ttft_s,
        slo.tpot_s * 1e3
    );
    let mut rates = Vec::new();
    // One warm cost model across the three policy searches.
    let mut cost = cost_model(machine, model, scheme);
    for (name, config) in policies(budget) {
        let result = capacity_search_warm(&mut cost, &config, &spec, |rate| {
            workload.with_rate(rate).generate()
        });
        println!(
            "  {name:<17} sustains {:>5.2} sessions/s (p99 TTFT {:.2}s)",
            result.max_rate_rps, result.p99_ttft_s
        );
        rates.push(result.max_rate_rps);
    }
    if rates[0] > 0.0 {
        println!(
            "  => paged+prefix serves {:.2}x the conversations per socket",
            rates[2] / rates[0]
        );
    }
}

/// A deliberately tiny pool under the same load: preemption-by-recompute
/// and prefix-cache eviction both fire, and the trace still drains. Then
/// the same pool with a DDR offload tier behind it: preempted and evicted
/// KV swaps out and comes back instead of being re-prefilled.
fn overload_demo(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: CompressionScheme,
    workload: &SharedPrefixChatSpec,
) {
    let pool_tokens = 2_048;
    let trace = workload.with_rate(4.0).generate();
    let config = ServingConfig::paged(MAX_BATCH, pool_tokens, BLOCK_SIZE).with_prefix_sharing(true);
    let mut server = ServingSimulator::new(cost_model(machine, model, scheme), config);
    let report = server.run(&trace);
    let paged = report.paged.expect("paged run");
    println!(
        "\n-- overload: {}-token pool ({} blocks), burst of {} conversations --",
        pool_tokens, paged.total_blocks, workload.sessions
    );
    println!(
        "  completed {} + rejected {} == offered {} | preemptions {} | cache evictions {} | hit rate {:.1}%",
        report.completed(),
        report.rejected,
        trace.len(),
        paged.preemptions,
        paged.cache_evictions,
        paged.prefix_hit_rate() * 100.0,
    );
    assert_eq!(report.completed() + report.rejected, trace.len());

    let block_kv_bytes = footprint::kv_cache_bytes_per_sequence(model, BLOCK_SIZE) as f64;
    let tiered = config.with_tiers(KvTierModel::ddr_only(block_kv_bytes, 1_024));
    let mut server = ServingSimulator::new(cost_model(machine, model, scheme), tiered);
    let report = server.run(&trace);
    let paged = report.paged.expect("paged run");
    println!("  with a DDR tier behind the pool:");
    println!(
        "  swap-outs {} | swap-ins {} | demotions {} | promotions {} | peak DDR blocks {} | prefilled tokens {}",
        paged.swap_outs,
        paged.swap_ins,
        paged.tier_demotions,
        paged.tier_promotions,
        paged.peak_ddr_blocks,
        paged.prefix_uncached_tokens,
    );
}

fn main() {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let scheme = CompressionScheme::bf8_sparse(0.05);
    let slo = SloTarget::interactive();
    let workload = SharedPrefixChatSpec {
        turns_per_session: 3,
        ..SharedPrefixChatSpec::fleet(0.25, SESSIONS, 29)
    };

    println!(
        "== {} on {} — paged KV-cache serving view ==\n",
        model.name(),
        machine.name
    );
    let budget = hbm_kv_budget_tokens(&model, &scheme).expect("Q8_5% fits in HBM");
    println!(
        "HBM KV budget: {budget} tokens = {} blocks of {BLOCK_SIZE} ({}-token blocks hold {:.1} GB of KV)",
        budget / BLOCK_SIZE,
        BLOCK_SIZE,
        footprint::kv_cache_bytes_per_sequence(&model, budget) as f64 / 1e9,
    );

    policy_table(&machine, &model, scheme, &workload, budget, &slo);
    capacity_table(&machine, &model, scheme, &workload, budget, &slo);
    overload_demo(&machine, &model, scheme, &workload);
}
