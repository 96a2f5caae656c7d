//! Multi-socket sharded serving on the simulated DECA-equipped HBM fleet:
//! what happens when Llama2-70B stops fitting one socket.
//!
//! 1. per-socket footprints: which Table 4 schemes fit one socket's 64 GB
//!    HBM — with a production KV working set on top of the weights,
//! 2. the TP scaling curve: decode latency versus tensor-parallel degree
//!    over a UPI-class interconnect (all-reduce per TP GeMM),
//! 3. the fleet answer: minimum sockets that hold the working set *and*
//!    meet the interactive p99 SLO, software decompression versus DECA.
//!
//! Run with: `cargo run --release --example llm_sharding`

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::footprint::{max_kv_tokens, weight_bytes_per_socket};
use deca_llm::{InferenceEstimator, InterconnectModel, LlmModel, ShardSpec};
use deca_roofsurface::MachineConfig;
use deca_serve::{
    sharding_sweep, ArrivalProcess, LengthDistribution, ShardingSearchSpec, SloTarget, WorkloadSpec,
};

/// 16 concurrent sequences at 8 k context: the KV working set a production
/// replica must hold.
const WORKING_SET_TOKENS: usize = 16 * 8192;
const MAX_BATCH: usize = 16;

fn plans() -> Vec<ShardSpec> {
    vec![
        ShardSpec::single(),
        ShardSpec::tp(2),
        ShardSpec::tp(4),
        ShardSpec::tp(8),
    ]
}

/// 1. Per-socket weight bytes and KV budgets per plan.
fn footprint_table(model: &LlmModel, schemes: &[CompressionScheme]) {
    println!(
        "{:<8} {:>14} {:>12}  (per sharding plan)",
        "scheme", "weights/socket", "KV budget"
    );
    for scheme in schemes {
        for spec in plans() {
            let weights_gb = weight_bytes_per_socket(model, scheme, &spec) / 1e9;
            let tokens = max_kv_tokens(model, scheme, &spec);
            let budget = tokens.map_or("weights don't fit".to_string(), |t| format!("{t} tok"));
            let holds = tokens.is_some_and(|t| t as usize >= WORKING_SET_TOKENS);
            println!(
                "{:<8} {weights_gb:>12.1}GB {budget:>16}  {spec}{}",
                scheme.label(),
                if holds { "  <- holds working set" } else { "" }
            );
        }
    }
}

/// 2. Decode latency versus TP degree at the working-set context.
fn tp_scaling_curve(machine: &MachineConfig, model: &LlmModel, scheme: &CompressionScheme) {
    println!(
        "\n-- TP scaling of the decode step ({} {}, batch {MAX_BATCH}, context 8192, UPI links) --",
        model.name(),
        scheme.label()
    );
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "plan", "software", "DECA", "comm%"
    );
    for spec in plans() {
        let estimator =
            InferenceEstimator::sharded(machine.clone(), spec, InterconnectModel::spr_upi());
        let sw = estimator.next_token(model, scheme, Engine::software(), MAX_BATCH, 8192);
        let deca = estimator.next_token(model, scheme, Engine::deca_default(), MAX_BATCH, 8192);
        println!(
            "{:<10} {:>10.1}ms {:>10.1}ms {:>9.1}%",
            spec.to_string(),
            sw.total_ms(),
            deca.total_ms(),
            deca.comm_fraction() * 100.0
        );
    }
}

/// 3. Minimum sockets to hold the working set and meet the p99 SLO.
fn min_socket_table(machine: &MachineConfig, model: &LlmModel, schemes: &[CompressionScheme]) {
    let search = ShardingSearchSpec {
        slo: SloTarget::interactive(),
        workload: WorkloadSpec {
            arrivals: ArrivalProcess::Poisson { rate_per_sec: 0.5 },
            prompt_lengths: LengthDistribution::Bimodal {
                short: 256,
                long: 2048,
                long_fraction: 0.1,
            },
            output_lengths: LengthDistribution::Uniform { min: 64, max: 192 },
            requests: 40,
            seed: 17,
        },
        max_batch: MAX_BATCH,
        required_kv_tokens: WORKING_SET_TOKENS,
    };
    println!(
        "\n-- min sockets to hold {WORKING_SET_TOKENS} KV tokens and meet p99 TTFT <= {:.0} s / TPOT <= {:.0} ms --",
        search.slo.ttft_s,
        search.slo.tpot_s * 1e3
    );
    println!("{:<8} {:>16} {:>16}", "scheme", "software", "DECA");
    for scheme in schemes {
        let min_for = |engine| {
            sharding_sweep(
                machine,
                model,
                scheme,
                engine,
                InterconnectModel::spr_upi(),
                &plans(),
                &search,
            )
            .into_iter()
            .filter(|r| r.feasible)
            .min_by_key(|r| r.spec.sockets())
            .map_or("> 8 sockets".to_string(), |r| {
                format!("{} ({}s)", r.spec, r.spec.sockets())
            })
        };
        println!(
            "{:<8} {:>16} {:>16}",
            scheme.label(),
            min_for(Engine::software()),
            if scheme.is_uncompressed() {
                "-".to_string()
            } else {
                min_for(Engine::deca_default())
            }
        );
    }
}

fn main() {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let schemes = [
        CompressionScheme::bf16_dense(),
        CompressionScheme::bf8_dense(),
        CompressionScheme::mxfp4(),
    ];
    println!(
        "== {} sharded across {} sockets — TP/PP over a UPI-class interconnect ==\n",
        model.name(),
        machine.name
    );
    footprint_table(&model, &schemes);
    tp_scaling_curve(&machine, &model, &CompressionScheme::mxfp4());
    min_socket_table(&machine, &model, &schemes);
}
