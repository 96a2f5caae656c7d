//! LLM serving scenario on the simulated DECA-equipped HBM server — now a
//! full continuous-batching serving simulation (`deca-serve`) instead of a
//! single-batch latency table:
//!
//! 1. footprint + KV budget: how much HBM headroom each Table 4 scheme
//!    leaves for the KV cache,
//! 2. a Poisson chat workload served with continuous batching — TTFT /
//!    TPOT / end-to-end percentiles and goodput, DECA vs software
//!    decompression,
//! 3. continuous vs static batching on a bursty trace,
//! 4. the fleet headline: requests/sec per socket at a p99 SLO.
//!
//! Run with: `cargo run --release --example llm_serving`

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::footprint::{weight_bytes_per_socket, HBM_CAPACITY_BYTES};
use deca_llm::{LlmModel, ShardSpec};
use deca_roofsurface::MachineConfig;
use deca_serve::{
    capacity_search, hbm_kv_budget_tokens, CapacitySpec, EstimatorCostModel, SchedulerKind,
    ServingConfig, ServingSimulator, SloTarget, WorkloadSpec,
};

const MAX_BATCH: usize = 16;

/// 1. HBM headroom per scheme → the scheduler's KV budget.
fn kv_budget_table(model: &LlmModel) {
    println!(
        "{:<10} {:>12} {:>14} {:>16}",
        "scheme", "weights GB", "headroom GB", "KV budget (tok)"
    );
    for scheme in [
        CompressionScheme::bf16_dense(),
        CompressionScheme::mxfp4(),
        CompressionScheme::bf8_sparse(0.2),
        CompressionScheme::bf8_sparse(0.05),
    ] {
        let weights = weight_bytes_per_socket(model, &scheme, &ShardSpec::single());
        let weights_gb = weights / 1e9;
        let headroom_gb = (HBM_CAPACITY_BYTES as f64 - weights) / 1e9;
        let budget = hbm_kv_budget_tokens(model, &scheme)
            .map_or("does not fit".to_string(), |t| t.to_string());
        println!(
            "{:<10} {weights_gb:>12.1} {headroom_gb:>14.1} {budget:>16}",
            scheme.label()
        );
    }
}

/// 2. Poisson chat workload, continuous batching, DECA vs software.
fn poisson_engine_comparison(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: CompressionScheme,
    budget: usize,
    slo: &SloTarget,
) {
    let trace = WorkloadSpec::chat(1.0, 160, 42).generate();
    println!(
        "\n-- continuous batching, {} chat requests at {:.1} req/s, {} --",
        trace.len(),
        trace.offered_rate(),
        scheme.label()
    );
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>11}",
        "engine", "TTFT p50", "TTFT p99", "TPOT p99", "E2E p99", "tok/s", "goodput"
    );
    for (name, engine) in [
        ("software", Engine::software()),
        ("DECA", Engine::deca_default()),
    ] {
        let cost = EstimatorCostModel::new(machine.clone(), model.clone(), scheme, engine);
        let mut server = ServingSimulator::new(cost, ServingConfig::continuous(MAX_BATCH, budget));
        let report = server.run(&trace);
        let m = report.metrics();
        println!(
            "{name:<14} {:>9.2}s {:>9.2}s {:>8.0}ms {:>9.2}s {:>10.1} {:>7.2} r/s",
            m.ttft.p50_s,
            m.ttft.p99_s,
            m.tpot.p99_s * 1e3,
            m.e2e.p99_s,
            m.tokens_per_second,
            report.goodput_rps(slo),
        );
    }
}

/// 3. Continuous vs static batching on a bursty trace (DECA engine).
fn bursty_scheduler_comparison(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: CompressionScheme,
    budget: usize,
    slo: &SloTarget,
) {
    let bursty = WorkloadSpec::bursty_chat(0.6, 160, 43).generate();
    println!(
        "\n-- bursty trace ({} requests, mean {:.1} req/s), DECA {} --",
        bursty.len(),
        bursty.offered_rate(),
        scheme.label()
    );
    println!(
        "{:<14} {:>10} {:>10} {:>11} {:>12}",
        "scheduler", "TTFT p99", "E2E p99", "goodput", "peak queue"
    );
    // One memoized cost model serves both scheduler runs.
    let mut cost = EstimatorCostModel::new(
        machine.clone(),
        model.clone(),
        scheme,
        Engine::deca_default(),
    );
    for kind in [
        SchedulerKind::ContinuousBatching,
        SchedulerKind::StaticBatching,
    ] {
        let config = ServingConfig::continuous(MAX_BATCH, budget).with_scheduler(kind);
        let mut server = ServingSimulator::new(cost, config);
        let report = server.run(&bursty);
        cost = server.into_cost_model();
        let m = report.metrics();
        println!(
            "{:<14} {:>9.2}s {:>9.2}s {:>7.2} r/s {:>12}",
            kind.to_string(),
            m.ttft.p99_s,
            m.e2e.p99_s,
            report.goodput_rps(slo),
            report.peak_queue_depth,
        );
    }
}

/// 4. Fleet headline: requests/sec per socket at the p99 SLO.
fn fleet_headline(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: CompressionScheme,
    budget: usize,
) {
    let spec = CapacitySpec::chat(128, 7);
    let config = ServingConfig::continuous(MAX_BATCH, budget);
    let sw = capacity_search(machine, model, &scheme, Engine::software(), &config, &spec);
    let deca = capacity_search(
        machine,
        model,
        &scheme,
        Engine::deca_default(),
        &config,
        &spec,
    );
    println!(
        "\nat p99 TTFT <= {:.0} s and p99 TPOT <= {:.0} ms on {} {}:",
        spec.slo.ttft_s,
        spec.slo.tpot_s * 1e3,
        model.name(),
        scheme.label()
    );
    println!(
        "  software decompression sustains {:.2} req/s per socket",
        sw.max_rate_rps
    );
    println!(
        "  DECA sustains                  {:.2} req/s per socket",
        deca.max_rate_rps
    );
    if sw.max_rate_rps > 0.0 {
        println!(
            "  => DECA serves {:.2}x the load per socket",
            deca.max_rate_rps / sw.max_rate_rps
        );
    }
}

fn main() {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    println!(
        "== {} on {} — serving-layer view ==\n",
        model.name(),
        machine.name
    );

    kv_budget_table(&model);

    let scheme = CompressionScheme::bf8_sparse(0.05);
    let budget = hbm_kv_budget_tokens(&model, &scheme).expect("Q8_5% fits in HBM");
    let slo = SloTarget::interactive();
    poisson_engine_comparison(&machine, &model, scheme, budget, &slo);
    bursty_scheduler_comparison(&machine, &model, scheme, budget, &slo);
    fleet_headline(&machine, &model, scheme, budget);
}
