//! `tenant_capacity`: the serving question the paper's users ask, on the
//! production cost path (`EstimatorCostModel`). One replica — Llama2-70B
//! Q8_5% on SPR-HBM, paged + prefix sharing, twelve LoRA adapter slots, QoS
//! aging, a 512-token chunked-prefill budget and a DDR KV tier — answers
//! two questions per pass:
//!
//! 1. the per-class QoS capacity of the multi-tenant mix, for software
//!    decompression and for DECA (`qos_capacity_search_with`, from a cold
//!    cost memo each time);
//! 2. one fixed-rate RAG run whose 64 × 4096-token corpus overflows the
//!    HBM KV pool but fits HBM + DDR, so deep document chains are demoted
//!    and promoted through the tier.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use deca_compress::CompressionScheme;
use deca_kernels::{CompressedGemmExecutor, Engine};
use deca_llm::{footprint, InferenceEstimator, LlmModel};
use deca_roofsurface::MachineConfig;
use deca_serve::{
    hbm_kv_budget_tokens, qos_capacity_search_with, AdapterModel, CapacitySpec, EstimatorCostModel,
    KvTierModel, MultiTenantSpec, QosCapacityResult, RagSpec, RequestTrace, ServingConfig,
    ServingSimulator, SloTarget,
};

use crate::serving::{
    drive_layers, run_layers, run_outputs, simulate, CostLog, DriveInputs, TimedCost,
};
use crate::trace::{nanos, Busy, SpanKind, Tracer};
use crate::{metric, Metric, Pass, Workload};

/// Interactive requests per probe (plus a quarter as many Batch jobs).
const INTERACTIVE_REQUESTS: usize = 1_600;
/// Bisection refinements of each capacity search.
const SEARCH_ITERATIONS: usize = 5;
/// Lowest probed interactive rate, requests/s (below every seed's knee).
const MIN_RATE: f64 = 0.02;
/// Highest probed interactive rate, requests/s.
const MAX_RATE: f64 = 16.0;
/// Decode batch limit of the replica.
const MAX_BATCH: usize = 16;
/// Tokens per KV block.
const BLOCK_SIZE: usize = 32;
/// Weight-token footprint of one LoRA adapter.
const ADAPTER_TOKENS: usize = 64;
/// Adapter cache slots (every tenant of the mix fits).
const ADAPTER_SLOTS: usize = 12;
/// Interactive bypasses before a waiting Batch request is promoted.
const QOS_AGING: usize = 8;
/// Prompt tokens per chunked-prefill step.
const CHUNK_BUDGET: usize = 512;
/// DDR tier capacity, blocks: the whole RAG corpus (64 × 128 blocks).
const DDR_BLOCKS: usize = 8_192;
/// RAG corpus documents (4096 tokens, eight questions each).
const RAG_DOCUMENTS: usize = 64;
/// RAG question rate, requests/s.
const RAG_RATE: f64 = 0.25;
/// The Batch lane's relaxed SLO.
const BATCH_SLO: SloTarget = SloTarget {
    ttft_s: 120.0,
    tpot_s: 1.0,
};

/// The `tenant_capacity` workload.
pub struct TenantCapacity {
    mix: MultiTenantSpec,
    spec: CapacitySpec,
    config: ServingConfig,
    /// Cold (empty-memo) cost models, cloned afresh for every search.
    engines: [(&'static str, EstimatorCostModel); 2],
    rag: RequestTrace,
    /// The RAG requests, replayed by the cache drives.
    drive: DriveInputs,
    machine: MachineConfig,
    model: LlmModel,
    scheme: CompressionScheme,
}

impl TenantCapacity {
    /// Builds the replica, its cost models and the seeded RAG trace.
    pub fn setup(seed: u64) -> Self {
        let machine = MachineConfig::spr_hbm();
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let budget = hbm_kv_budget_tokens(&model, &scheme).expect("Q8_5% fits in HBM");
        let block_kv_bytes = footprint::kv_cache_bytes_per_sequence(&model, BLOCK_SIZE) as f64;
        let config = ServingConfig::paged(MAX_BATCH, budget, BLOCK_SIZE)
            .with_prefix_sharing(true)
            .with_adapters(AdapterModel::new(ADAPTER_TOKENS, ADAPTER_SLOTS))
            .with_qos_aging(QOS_AGING)
            .with_chunked_prefill(Some(CHUNK_BUDGET))
            .with_tiers(KvTierModel::ddr_only(block_kv_bytes, DDR_BLOCKS));
        let mix = MultiTenantSpec::fleet(1.0, INTERACTIVE_REQUESTS, seed);
        let cost = |engine| EstimatorCostModel::new(machine.clone(), model.clone(), scheme, engine);
        let rag = RagSpec::fleet(RAG_RATE, RAG_DOCUMENTS, seed).generate();
        TenantCapacity {
            spec: CapacitySpec {
                slo: SloTarget::interactive(),
                requests: mix.requests(),
                seed,
                min_rate: MIN_RATE,
                max_rate: MAX_RATE,
                iterations: SEARCH_ITERATIONS,
            },
            mix,
            config,
            engines: [
                ("software", cost(Engine::software())),
                ("deca", cost(Engine::deca_default())),
            ],
            drive: DriveInputs::new(rag.requests().iter().copied()),
            rag,
            machine,
            model,
            scheme,
        }
    }

    /// One capacity search inside a `serve.sweep` span; when traced, with
    /// the cost model wrapped and probe trace generation timed.
    fn search(
        &self,
        tracer: &mut Tracer,
        cost: &EstimatorCostModel,
        layers: &mut SearchLayers,
    ) -> (QosCapacityResult, EstimatorCostModel, f64) {
        let mix = self.mix;
        if !tracer.is_enabled() {
            let ((result, cost), secs) = tracer.timed("serve.sweep", SpanKind::Call, |_| {
                let mut cost = cost.clone();
                let result = qos_capacity_search_with(
                    &mut cost,
                    &self.config,
                    &self.spec,
                    &BATCH_SLO,
                    |rate| mix.with_rate(rate).generate(),
                );
                (result, cost)
            });
            return (result, cost, secs);
        }
        let log = Rc::new(RefCell::new(CostLog::default()));
        let mut timed = TimedCost::new(cost.clone(), Rc::clone(&log));
        let mut generate = Busy::default();
        let mut sweep_self_ns = 0u64;
        tracer.open("serve.sweep", SpanKind::Call);
        let begin = Instant::now();
        let result =
            qos_capacity_search_with(&mut timed, &self.config, &self.spec, &BATCH_SLO, |rate| {
                let start = Instant::now();
                // Since the previous probe's last pricing call: its report
                // assembly and judging, and this probe's set-up.
                if let Some(last) = log.borrow().last_exit {
                    sweep_self_ns += nanos(last, start);
                }
                let trace = mix.with_rate(rate).generate();
                generate.add(start, Instant::now());
                trace
            });
        let end = Instant::now();
        let calls = log.take();
        if let Some(last) = calls.last_exit {
            sweep_self_ns += nanos(last, end);
        }
        // The probes' simulation runs are not observable from outside the
        // search one by one; their scheduler time is what remains.
        let scheduler = Busy {
            first: Some(begin),
            ns: nanos(begin, end).saturating_sub(generate.ns + calls.calls.ns + sweep_self_ns),
            calls: generate.calls,
        };
        tracer.aggregate("serve.workload", &generate, None);
        tracer.aggregate("serve.scheduler", &scheduler, None);
        let cost_span = tracer.aggregate("serve.cost", &calls.calls, None);
        tracer.aggregate("llm.estimator", &calls.misses, cost_span);
        let secs = tracer.close();
        let cost = timed.into_inner();
        let memo = cost.memo_stats();
        layers.probes += generate.calls;
        layers.sweep_self_s += sweep_self_ns as f64 * 1e-9;
        layers.cost_calls += calls.calls.calls;
        layers.cost_busy_s += calls.calls.seconds();
        layers.memo_hits += memo.hits;
        layers.memo_misses += memo.misses;
        (result, cost, secs)
    }
}

/// Per-layer sums over one traced pass's two searches.
#[derive(Default)]
struct SearchLayers {
    probes: u64,
    sweep_self_s: f64,
    cost_calls: u64,
    cost_busy_s: f64,
    memo_hits: u64,
    memo_misses: u64,
}

impl Workload for TenantCapacity {
    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut layers = SearchLayers::default();
        tracer.open("tenant_capacity.pass", SpanKind::Call);
        let mut search_s = 0.0;
        let mut capacities = Vec::new();
        let mut deca_cost = None;
        for (label, cost) in &self.engines {
            let (result, cost, secs) = self.search(tracer, cost, &mut layers);
            search_s += secs;
            capacities.push(result.max_rate_rps);
            pass.output(format!("{label}.capacity_rps"), result.max_rate_rps);
            for (class, outcome) in [("interactive", result.interactive), ("batch", result.batch)] {
                pass.output(format!("{label}.{class}.p99_ttft_s"), outcome.p99_ttft_s);
                pass.output(format!("{label}.{class}.p99_tpot_s"), outcome.p99_tpot_s);
                pass.output(format!("{label}.{class}.goodput_rps"), outcome.goodput_rps);
            }
            if *label == "deca" {
                deca_cost = Some((cost, result.max_rate_rps));
            }
        }
        let rag_cost = self.engines[1].1.clone();
        let mut rag = simulate(
            tracer,
            rag_cost,
            self.config,
            self.rag.requests().iter().copied(),
        );
        let (_, summary_s) =
            tracer.timed("serve.metrics", SpanKind::Call, |_| rag.report.metrics());
        tracer.close();
        pass.wall_s = search_s + rag.run_s + summary_s;

        let report = &rag.report;
        let paged = report.paged.expect("a paged replica reports paged stats");
        run_outputs(&mut pass, "rag", report);
        pass.output("rag.tier_demotions", paged.tier_demotions);
        pass.output("rag.tier_promotions", paged.tier_promotions);
        pass.output("rag.swap_outs", paged.swap_outs);
        pass.output("rag.swap_ins", paged.swap_ins);
        pass.output("rag.peak_ddr_blocks", paged.peak_ddr_blocks);
        pass.invariants.push((
            "every RAG question completes",
            report.completed() == self.rag.len(),
        ));
        pass.invariants.push((
            "the RAG corpus spills into the DDR tier",
            paged.tier_promotions > 0,
        ));
        pass.invariants.push((
            "DECA sustains at least the software capacity",
            capacities[1] >= capacities[0],
        ));
        pass.figures = vec![
            metric(
                "sim_requests_per_s",
                self.rag.len() as f64 / rag.run_s,
                "1/s",
            ),
            metric("capacity_search_s", search_s / 2.0, "s"),
        ];
        if tracer.is_enabled() {
            let (cost, capacity) = deca_cost.expect("DECA was searched");
            pass.layers = search_layers(&layers);
            pass.layers
                .extend(run_layers(&mut rag, summary_s, BLOCK_SIZE));
            pass.layers.extend([
                metric("serve.tier.demotions", paged.tier_demotions as f64, "count"),
                metric(
                    "serve.tier.promotions",
                    paged.tier_promotions as f64,
                    "count",
                ),
                metric("serve.tier.swap_outs", paged.swap_outs as f64, "count"),
                metric("serve.tier.swap_ins", paged.swap_ins as f64, "count"),
                metric(
                    "serve.tier.peak_ddr_blocks",
                    paged.peak_ddr_blocks as f64,
                    "count",
                ),
            ]);
            pass.layers
                .extend(drive_layers(tracer, &self.config, &self.drive));
            pass.layers.extend(self.estimator_drive(tracer));
            pass.layers
                .extend(self.tenant_drive(tracer, cost, capacity));
        }
        pass
    }
}

fn search_layers(layers: &SearchLayers) -> Vec<Metric> {
    let queries = layers.memo_hits + layers.memo_misses;
    vec![
        metric("serve.sweep.probes", layers.probes as f64, "count"),
        metric("serve.sweep.self_s", layers.sweep_self_s, "s"),
        metric("serve.cost.calls", layers.cost_calls as f64, "count"),
        metric("serve.cost.busy_s", layers.cost_busy_s, "s"),
        metric("serve.cost.memo_hits", layers.memo_hits as f64, "count"),
        metric("serve.cost.memo_misses", layers.memo_misses as f64, "count"),
        metric(
            "serve.cost.memo_hit_rate",
            if queries == 0 {
                0.0
            } else {
                layers.memo_hits as f64 / queries as f64
            },
            "frac",
        ),
    ]
}

/// Mean microseconds of one call of `f` over `inputs`.
fn mean_us<T: Copy>(inputs: &[T], mut f: impl FnMut(T)) -> f64 {
    let start = Instant::now();
    for &input in inputs {
        f(input);
    }
    start.elapsed().as_secs_f64() * 1e6 / inputs.len() as f64
}

impl TenantCapacity {
    /// Direct drives of the estimator and the GeMM executor underneath a
    /// cost-memo miss, over the batch and prompt shapes the replica asks.
    fn estimator_drive(&self, tracer: &mut Tracer) -> Vec<Metric> {
        let estimator = InferenceEstimator::new(self.machine.clone());
        let executor = CompressedGemmExecutor::new(self.machine.clone());
        let shapes: Vec<(usize, Engine)> = (1..=MAX_BATCH)
            .flat_map(|b| [(b, Engine::software()), (b, Engine::deca_default())])
            .collect();
        let prompts: Vec<(usize, Engine)> = (1..=16)
            .flat_map(|i| {
                [
                    (i * 128, Engine::software()),
                    (i * 128, Engine::deca_default()),
                ]
            })
            .collect();
        let (model, scheme) = (&self.model, &self.scheme);
        let (next_us, _) = tracer.timed("llm.estimator", SpanKind::Drive, |_| {
            mean_us(&shapes, |(batch, engine)| {
                std::hint::black_box(estimator.next_token(
                    model,
                    scheme,
                    engine,
                    batch,
                    256 * batch,
                ));
            })
        });
        let (prefill_us, _) = tracer.timed("llm.estimator", SpanKind::Drive, |_| {
            mean_us(&prompts, |(prompt, engine)| {
                std::hint::black_box(estimator.prefill(model, scheme, engine, prompt, 0));
            })
        });
        let (run_us, _) = tracer.timed("kernels.executor", SpanKind::Drive, |_| {
            mean_us(&shapes, |(batch, engine)| {
                std::hint::black_box(executor.run(scheme, engine, batch));
            })
        });
        vec![
            metric("llm.estimator.next_token_us", next_us, "us"),
            metric("llm.estimator.prefill_us", prefill_us, "us"),
            metric("kernels.executor.run_us", run_us, "us"),
        ]
    }

    /// One run of the multi-tenant mix at the DECA capacity (warm memo)
    /// for the adapter-cache and QoS fairness counters the search hides.
    fn tenant_drive(
        &self,
        tracer: &mut Tracer,
        cost: EstimatorCostModel,
        capacity: f64,
    ) -> Vec<Metric> {
        let trace = self.mix.with_rate(capacity.max(MIN_RATE)).generate();
        let (report, _) = tracer.timed("serve.tenant", SpanKind::Drive, |_| {
            ServingSimulator::new(cost, self.config).run(&trace)
        });
        let (adapters, qos) = (report.adapters, report.qos);
        vec![
            metric("serve.lora.loads", adapters.cache_loads as f64, "count"),
            metric("serve.lora.hits", adapters.cache_hits as f64, "count"),
            metric("serve.lora.hit_rate", adapters.hit_rate(), "frac"),
            metric(
                "serve.tenant.aging_promotions",
                qos.aging_promotions as f64,
                "count",
            ),
            metric(
                "serve.tenant.interactive_bypasses",
                qos.interactive_bypasses as f64,
                "count",
            ),
            metric(
                "serve.tenant.peak_interactive_run",
                qos.peak_interactive_run as f64,
                "count",
            ),
        ]
    }
}
