//! Disaggregated prefill/decode serving on simulated DECA-equipped HBM
//! servers: a four-socket fleet serving a long-document chat mix (mostly
//! short prompts, an occasional 4k-token document) either colocated —
//! every socket runs prefill and decode — or split into a prefill pool
//! and a decode pool with the prefill KV shipped across UPI.
//!
//! Prints the fixed-load p99 TPOT under each deployment (the document
//! prefills stall colocated decode steps; a decode pool never runs them),
//! then the sustained request rate of every pool split at the
//! long-document p99 SLO versus the colocated fleet.
//!
//! Run with: `cargo run --release --example llm_disagg_serving`

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::{footprint, InterconnectModel, LlmModel};
use deca_roofsurface::MachineConfig;
use deca_serve::{
    best_pool_split, disagg_capacity_search_with, fleet_capacity_search_with, hbm_kv_budget_tokens,
    simulate_disaggregated_with, simulate_fleet_with, CapacitySpec, DisaggSpec, EstimatorCostModel,
    KvShipSpec, LengthDistribution, RequestRecord, ServingConfig, ServingSimulator, SloTarget,
    WorkloadSpec,
};

const MAX_BATCH: usize = 16;
const BLOCK_SIZE: usize = 32;
const SOCKETS: usize = 4;
const REQUESTS: usize = 48;
/// Long-document SLO: a 4k-token prefill alone takes seconds, so TTFT
/// gets a document budget; TPOT keeps the interactive bound — streaming
/// must stay fluid once the first token is out.
const DOC_TTFT_S: f64 = 12.0;

fn doc_workload(rate: f64) -> WorkloadSpec {
    WorkloadSpec {
        arrivals: deca_serve::ArrivalProcess::Poisson { rate_per_sec: rate },
        prompt_lengths: LengthDistribution::Bimodal {
            short: 256,
            long: 4096,
            long_fraction: 0.15,
        },
        output_lengths: LengthDistribution::Uniform { min: 64, max: 192 },
        requests: REQUESTS,
        seed: 41,
    }
}

fn p99(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() as f64 - 1.0) * 0.99).round() as usize]
}

/// Fixed load: the same trace under each deployment.
fn fixed_load_table(proto: &EstimatorCostModel, config: &ServingConfig, ship: KvShipSpec) {
    let rate = 2.0;
    let trace = doc_workload(rate).generate();
    println!(
        "\n-- fixed load: {rate:.1} req/s, {} requests, DECA --",
        trace.len()
    );
    println!(
        "{:<12} {:>9} {:>9} {:>13}",
        "deployment", "TTFT p99", "TPOT p99", "KV transfers"
    );
    let fleet = simulate_fleet_with(&mut || proto.clone(), config, SOCKETS, &trace);
    let records = fleet.records();
    let ttft: Vec<f64> = records.iter().map(RequestRecord::ttft_s).collect();
    let tpot: Vec<f64> = records.iter().map(RequestRecord::tpot_s).collect();
    println!(
        "{:<12} {:>8.2}s {:>7.1}ms {:>13}",
        "colocated",
        p99(&ttft),
        p99(&tpot) * 1e3,
        "-"
    );
    for prefill in 1..SOCKETS {
        let spec = DisaggSpec {
            prefill_replicas: prefill,
            decode_replicas: SOCKETS - prefill,
            kv_ship: ship,
        };
        let report = simulate_disaggregated_with(&mut || proto.clone(), config, &spec, &trace);
        let ttft: Vec<f64> = report.records.iter().map(RequestRecord::ttft_s).collect();
        let tpot: Vec<f64> = report.records.iter().map(RequestRecord::tpot_s).collect();
        let kv_transfers: u64 = report
            .decode
            .reports
            .iter()
            .filter_map(|r| r.paged.map(|p| p.kv_transfers))
            .sum();
        println!(
            "{:<12} {:>8.2}s {:>7.1}ms {:>13}",
            format!("{}p+{}d", prefill, SOCKETS - prefill),
            p99(&ttft),
            p99(&tpot) * 1e3,
            kv_transfers,
        );
    }
}

/// Capacity: the rate each deployment sustains at the document SLO.
fn capacity_table(
    proto: &EstimatorCostModel,
    config: &ServingConfig,
    ship: KvShipSpec,
    slo: SloTarget,
) {
    let spec = CapacitySpec {
        slo,
        requests: REQUESTS,
        seed: 41,
        min_rate: 0.1,
        max_rate: 32.0,
        iterations: 5,
    };
    println!(
        "\n-- capacity at p99 TTFT <= {:.0} s / TPOT <= {:.0} ms --",
        slo.ttft_s,
        slo.tpot_s * 1e3
    );
    let colocated =
        fleet_capacity_search_with(&mut proto.clone(), config, SOCKETS, &spec, |rate| {
            doc_workload(rate).generate()
        });
    println!(
        "  colocated x{SOCKETS}     sustains {:>5.2} req/s (p99 TPOT {:.0} ms)",
        colocated.max_rate_rps,
        colocated.p99_tpot_s * 1e3
    );
    let splits =
        disagg_capacity_search_with(&mut proto.clone(), config, SOCKETS, ship, &spec, |rate| {
            doc_workload(rate).generate()
        });
    for split in &splits {
        println!(
            "  {}p+{}d           sustains {:>5.2} req/s (p99 TPOT {:.0} ms)",
            split.prefill_replicas,
            split.decode_replicas,
            split.capacity.max_rate_rps,
            split.capacity.p99_tpot_s * 1e3
        );
    }
    let best = best_pool_split(&splits).expect("at least one split");
    if colocated.max_rate_rps > 0.0 {
        println!(
            "  => best split ({}p+{}d) serves {:.2}x the colocated fleet",
            best.prefill_replicas,
            best.decode_replicas,
            best.capacity.max_rate_rps / colocated.max_rate_rps
        );
    }
}

fn main() {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let scheme = CompressionScheme::bf8_sparse(0.05);
    let slo = SloTarget {
        ttft_s: DOC_TTFT_S,
        ..SloTarget::interactive()
    };
    let budget = hbm_kv_budget_tokens(&model, &scheme).expect("Q8_5% fits in HBM");
    let config = ServingConfig::paged(MAX_BATCH, budget, BLOCK_SIZE);
    let kv_bytes_per_token = footprint::kv_cache_bytes_per_sequence(&model, 1) as f64;
    let ship = KvShipSpec::over_interconnect(kv_bytes_per_token, &InterconnectModel::spr_upi());

    println!(
        "== {} on {} x{SOCKETS} — disaggregated prefill/decode view, DECA {} ==\n",
        model.name(),
        machine.name,
        scheme.label()
    );
    println!(
        "KV shipped per 4k-token document: {:.2} GB over UPI ({:.0} ms)",
        kv_bytes_per_token * 4096.0 / 1e9,
        ship.transfer_seconds(4096) * 1e3,
    );

    // Warm one estimator on a single mid-rate replica, then clone it into
    // every socket of every probe: the memoized (batch, context) entries
    // are shared instead of re-derived per replica.
    let proto = {
        let cost = EstimatorCostModel::new(
            machine.clone(),
            model.clone(),
            scheme,
            Engine::deca_default(),
        );
        let mut sim = ServingSimulator::new(cost, config);
        sim.run(&doc_workload(1.0).generate());
        sim.into_cost_model()
    };

    fixed_load_table(&proto, &config, ship);
    capacity_table(&proto, &config, ship, slo);
}
