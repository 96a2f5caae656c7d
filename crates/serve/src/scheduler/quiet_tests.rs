//! Quiet-stretch property suite: running quiet decode steps inline
//! ([`super::RunCore::quiet_until`]) instead of through the event queue
//! changes no output.
//!
//! Each seeded case draws a workload — lane traffic, multi-tenant lane
//! traffic, shared-prefix chat (materialized and streamed), RAG or the
//! agent loop — and a feature set: prefix sharing, KV tiers, a chunk
//! budget, speculation, adapters with QoS aging and KV shipping. It runs
//! the workload on every policy twice, once with inline stretches and once
//! with every step forced through the event queue, and the two reports
//! must match bit for bit: records, counters, `AdapterStats` and every
//! time-weighted mean, compared through their `Debug` text, which
//! round-trips each float exactly. On the estimator cases the cost memo's
//! hit, miss and entry counts must match too. `equivalence_tests.rs`
//! cannot show this: it zeroes the time-weighted means, and its reference
//! loop models neither tiers nor KV shipping.
//!
//! A third of the cases price steps on a 1/8 s grid and round arrivals
//! onto it, so events land exactly on step ends; tier blocks range from
//! 64 KiB to 1 GiB, so some swap transfers outlast a step.

use rand::{rngs::StdRng, Rng, SeedableRng};

use super::{RunCore, ServingConfig, ServingReport, SpeculationSpec};
use crate::cost::{EstimatorCostModel, LinearCostModel, ServingCostModel};
use crate::lora::AdapterModel;
use crate::tenant::{AgentLoopSpec, MultiTenantSpec, RagSpec};
use crate::tier::{KvShipSpec, KvTierModel, KvTierSpec};
use crate::workload::{
    ArrivalProcess, LengthDistribution, Request, RequestTrace, SharedPrefixChatSpec, WorkloadSpec,
};
use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::LlmModel;
use deca_roofsurface::MachineConfig;

/// The workload families, in the order [`draw_workload`] numbers them.
const FAMILIES: [&str; 6] = [
    "lane",
    "multi-tenant lane",
    "chat",
    "streamed chat",
    "rag",
    "agent loop",
];

/// The policies every case runs, by name.
const POLICIES: [&str; 3] = ["continuous", "static", "paged"];

/// One drawn workload: a materialized trace or a chat spec streamed
/// afresh for each run, with its arrivals rounded onto the 1/8 s grid when
/// `grid` is set (rounding keeps them in order).
struct Workload {
    source: Source,
    grid: bool,
}

enum Source {
    Trace(RequestTrace),
    Streamed(SharedPrefixChatSpec),
}

impl Workload {
    fn requests(&self) -> impl Iterator<Item = Request> + '_ {
        let requests: Box<dyn Iterator<Item = Request>> = match &self.source {
            Source::Trace(trace) => Box::new(trace.requests().iter().copied()),
            Source::Streamed(spec) => Box::new(spec.stream()),
        };
        let grid = self.grid;
        requests.map(move |mut request| {
            if grid {
                request.arrival_s = (request.arrival_s * 8.0).round() / 8.0;
            }
            request
        })
    }
}

/// Prices every step at a multiple of 1/8 s, exactly, so steps end on the
/// grid that grid workloads arrive on.
fn grid_cost() -> LinearCostModel {
    LinearCostModel {
        prefill_base: 0.25,
        prefill_per_token: 0.0,
        decode_base: 0.125,
        decode_per_sequence: 0.0,
        decode_per_context_token: 0.0,
    }
}

/// A small workload of family `family` (an index into [`FAMILIES`]).
fn draw_workload(rng: &mut StdRng, family: usize, grid: bool) -> Workload {
    let seed = rng.gen();
    // Offered rates from light load (long quiet stretches) to overload.
    let rate = f64::from(rng.gen_range(1..200u32)) / 20.0;
    let trace = match family {
        0 => {
            let arrivals = if rng.gen() {
                ArrivalProcess::Poisson { rate_per_sec: rate }
            } else {
                ArrivalProcess::Bursty {
                    base_rate: rate * 0.2,
                    burst_rate: rate * 4.0,
                    burst_secs: 3.0,
                    period_secs: 15.0,
                }
            };
            // Short outputs often finish at their prefill.
            let max_output = [4, 96][rng.gen_range(0..2usize)];
            WorkloadSpec {
                arrivals,
                prompt_lengths: LengthDistribution::Uniform { min: 8, max: 640 },
                output_lengths: LengthDistribution::Uniform {
                    min: 1,
                    max: max_output,
                },
                requests: rng.gen_range(2..40),
                seed,
            }
            .generate()
        }
        1 => MultiTenantSpec::fleet(rate, rng.gen_range(2..24), seed).generate(),
        2 | 3 => {
            let spec = SharedPrefixChatSpec::fleet(rate / 4.0, rng.gen_range(1..8), seed);
            if family == 3 {
                let source = Source::Streamed(spec);
                return Workload { source, grid };
            }
            spec.generate()
        }
        4 => RagSpec::fleet(rate / 4.0, rng.gen_range(1..4), seed).generate(),
        _ => AgentLoopSpec::fleet(rate / 4.0, rng.gen_range(1..8), seed).generate(),
    };
    Workload {
        source: Source::Trace(trace),
        grid,
    }
}

/// `base` with each feature axis switched on or off at random.
fn draw_features(rng: &mut StdRng, base: ServingConfig) -> ServingConfig {
    let mut config = base.with_prefix_sharing(rng.gen());
    if rng.gen() {
        // DDR spilling to disk, with blocks from 64 KiB (a swap takes
        // microseconds) to 1 GiB (a swap outlasts a step, or loses to
        // recomputing).
        config = config.with_tiers(KvTierModel {
            block_kv_bytes: f64::from(1u32 << rng.gen_range(16..31u32)),
            ddr: KvTierSpec::ddr(rng.gen_range(0..256)),
            disk: KvTierSpec::nvme(rng.gen_range(0..256)),
        });
    }
    if rng.gen_range(0..3u32) == 0 {
        config = config.with_chunked_prefill(Some(rng.gen_range(8..2_048)));
    }
    if rng.gen_range(0..4u32) == 0 {
        let acceptance = f64::from(rng.gen_range(0..101u32)) / 100.0;
        config = config.with_speculation(SpeculationSpec::new(
            rng.gen_range(1..6),
            acceptance,
            rng.gen(),
        ));
    }
    if rng.gen_range(0..3u32) == 0 {
        config = config
            .with_adapters(AdapterModel::new(64, rng.gen_range(1..4)))
            .with_qos_aging(rng.gen_range(0..12));
    }
    if rng.gen_range(0..3u32) == 0 {
        config = config.with_kv_ship(KvShipSpec {
            bytes_per_token: f64::from(rng.gen_range(1..300u32)) * 1_000.0,
            bandwidth_gbps: 50.0,
            latency_us: 10.0,
        });
    }
    config
}

/// Runs `requests` on a fresh core; `event_path_only` forces every step
/// through the event queue. Returns the report, the cost model and the
/// steps run inline.
fn run<C: ServingCostModel>(
    mut cost: C,
    config: ServingConfig,
    requests: impl Iterator<Item = Request>,
    event_path_only: bool,
) -> (ServingReport, C, u64) {
    let mut core = RunCore::new(config, requests);
    core.event_path_only = event_path_only;
    core.drive(&mut cost);
    let inline_steps = core.inline_steps;
    (core.into_report(), cost, inline_steps)
}

/// Runs `workload` both ways and asserts the reports match bit for bit.
/// Returns both cost models and the steps the inline run ran inline.
fn run_both<C: ServingCostModel + Clone>(
    cost: &C,
    config: ServingConfig,
    workload: &Workload,
    at: &str,
) -> (C, C, u64) {
    let (inline, inline_cost, steps) = run(cost.clone(), config, workload.requests(), false);
    let (events, events_cost, none) = run(cost.clone(), config, workload.requests(), true);
    assert_eq!(none, 0, "{at}: the forced run stepped inline");
    assert_eq!(
        format!("{inline:?}"),
        format!("{events:?}"),
        "{at}: inline stretches changed the report"
    );
    (inline_cost, events_cost, steps)
}

fn estimator() -> EstimatorCostModel {
    EstimatorCostModel::new(
        MachineConfig::spr_hbm(),
        LlmModel::llama2_70b(),
        CompressionScheme::bf8_sparse(0.05),
        Engine::deca_default(),
    )
}

/// The property, over 60 seeded cases (every eighth on the estimator,
/// a third of the others on the grid), each on all three policies. Every
/// family, every policy, the grid and the estimator cases must actually
/// run steps inline, or the equality would prove nothing.
#[test]
fn inline_quiet_stretches_change_no_report() {
    let mut inline_by_family = [0u64; FAMILIES.len()];
    let mut inline_by_policy = [0u64; POLICIES.len()];
    let mut inline_on_the_estimator = 0;
    let mut inline_on_the_grid = 0;
    for case in 0..60u64 {
        let seed = 0x5157_4e43_u64 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(seed);
        let family = case as usize % FAMILIES.len();
        let on_estimator = case % 8 == 7;
        let grid = !on_estimator && case % 3 == 2;
        let workload = draw_workload(&mut rng, family, grid);
        let max_batch = rng.gen_range(1..16);
        let budget = rng.gen_range(3_000..40_000);
        let block_size = [1, 4, 16, 32][rng.gen_range(0..4usize)];
        let policies = [
            ServingConfig::continuous(max_batch, budget),
            ServingConfig::static_batching(max_batch, budget),
            ServingConfig::paged(max_batch, budget, block_size),
        ];
        for (policy, base) in policies.into_iter().enumerate() {
            let config = draw_features(&mut rng, base);
            let at = format!("seed {seed:#x}, {} on {config:?}", FAMILIES[family]);
            let steps = if on_estimator {
                let (inline, events, steps) = run_both(&estimator(), config, &workload, &at);
                assert_eq!(
                    inline.memo_stats(),
                    events.memo_stats(),
                    "{at}: inline stretches changed the memo counts"
                );
                inline_on_the_estimator += steps;
                steps
            } else if grid {
                let steps = run_both(&grid_cost(), config, &workload, &at).2;
                inline_on_the_grid += steps;
                steps
            } else {
                run_both(&LinearCostModel::default_70b(), config, &workload, &at).2
            };
            inline_by_family[family] += steps;
            inline_by_policy[policy] += steps;
        }
    }
    for (name, steps) in FAMILIES.iter().zip(inline_by_family) {
        assert!(steps > 0, "no {name} case ran a step inline");
    }
    for (name, steps) in POLICIES.iter().zip(inline_by_policy) {
        assert!(steps > 0, "no {name} run ran a step inline");
    }
    assert!(
        inline_on_the_estimator > 0,
        "no estimator case ran a step inline"
    );
    assert!(inline_on_the_grid > 0, "no grid case ran a step inline");
}
