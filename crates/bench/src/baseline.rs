//! The machine-readable benchmark baseline.
//!
//! `cargo run -p deca-bench --release --bin bench_baseline` regenerates
//! `BENCH_baseline.json`: the modeled numbers (Roof-Surface TFLOPS,
//! simulated pipeline cycles/speedups, LLM next-token latencies, the
//! serving experiments) that future optimization PRs are measured
//! against, plus the text every paper artifact prints (`paper`). Nothing
//! here reads a clock, so the file is a pure function of the tree: a
//! regeneration leaves every unmoved record byte-identical, and a diff of
//! the committed artifact shows exactly which modeled quantities a change
//! moved. Host time is measured by `perfbench/`, not here.
//!
//! Tier-1 pins the file too: every record but `bench_simspeed` runs the
//! same workload in both build profiles, and `cargo test` diffs each one
//! against its committed record. Only `bench_simspeed` shrinks in a debug
//! build (`SIMSPEED_SESSIONS`); CI's regeneration pins its full rows.

use deca_compress::{CompressionScheme, SchemeSet};
use deca_kernels::{avx_model::software_signature, CompressedGemmExecutor, Engine};
use deca_llm::{footprint, InferenceEstimator, InterconnectModel, LlmModel, ShardSpec};
use deca_roofsurface::{MachineConfig, RoofSurface};
use deca_serve::{
    best_pool_split, capacity_search, capacity_search_warm, disagg_capacity_search_with,
    fleet_capacity_search_with, hbm_kv_budget_tokens, qos_capacity_search_with, sharding_sweep,
    AdapterModel, AgentLoopSpec, CapacityResult, CapacitySpec, ClassOutcome, EstimatorCostModel,
    KvShipSpec, KvTierModel, LengthDistribution, MultiTenantSpec, QosClass, RagSpec, RequestTrace,
    SchedulerKind, ServingConfig, ServingReport, ServingSimulator, ShardingPlanResult,
    ShardingSearchSpec, SharedPrefixChatSpec, SloTarget, WorkloadSpec,
};

use crate::json::Json;

/// Schema version of the emitted document; bump on breaking layout changes.
pub const SCHEMA_VERSION: u32 = 2;

/// The command that regenerates the artifact.
pub const REGENERATE_COMMAND: &str = "cargo run -p deca-bench --release --bin bench_baseline";

fn num(n: f64) -> Json {
    Json::Num(n)
}

/// Roof-Surface model results: per machine and scheme, the software kernel's
/// signature, the model's attainable TFLOPS at N=1 and N=4, and the bounding
/// resource.
#[must_use]
pub fn roofsurface_results() -> Json {
    let mut machines = Vec::new();
    for machine in [MachineConfig::spr_ddr(), MachineConfig::spr_hbm()] {
        let surface = RoofSurface::for_cpu(&machine);
        let mut kernels = Vec::new();
        for scheme in SchemeSet::paper_evaluation() {
            let sig = software_signature(&scheme);
            kernels.push(Json::obj(vec![
                ("kernel", Json::str(scheme.label())),
                ("aix_m", num(sig.aix_m)),
                ("aix_v", num(sig.aix_v)),
                ("tflops_n1", num(surface.flops(&sig, 1) / 1e12)),
                ("tflops_n4", num(surface.flops(&sig, 4) / 1e12)),
                (
                    "bound",
                    Json::str(surface.bounding_factor(&sig).to_string()),
                ),
            ]));
        }
        machines.push(Json::obj(vec![
            ("machine", Json::str(machine.name.clone())),
            ("kernels", Json::Arr(kernels)),
        ]));
    }
    Json::Arr(machines)
}

/// Simulated compressed-GeMM pipeline results on SPR-HBM at N=1: software
/// versus DECA TFLOPS, modeled cycles per tile, and the DECA speedup.
#[must_use]
pub fn pipeline_results() -> Json {
    let executor = CompressedGemmExecutor::new(MachineConfig::spr_hbm());
    let baseline = executor.uncompressed_baseline(1);
    let mut kernels = Vec::new();
    for scheme in SchemeSet::paper_evaluation() {
        let software = executor.run(&scheme, Engine::software(), 1);
        let deca = executor.run(&scheme, Engine::deca_default(), 1);
        kernels.push(Json::obj(vec![
            ("kernel", Json::str(scheme.label())),
            ("software_tflops", num(software.tflops)),
            ("deca_tflops", num(deca.tflops)),
            (
                "software_cycles_per_tile",
                num(software.stats.cycles_per_tile()),
            ),
            ("deca_cycles_per_tile", num(deca.stats.cycles_per_tile())),
            (
                "software_speedup_vs_bf16",
                num(software.speedup_over(&baseline)),
            ),
            ("deca_speedup_vs_bf16", num(deca.speedup_over(&baseline))),
            (
                "deca_speedup_vs_software",
                num(deca.speedup_over(&software)),
            ),
        ]));
    }
    Json::obj(vec![
        ("machine", Json::str(executor.machine().name.clone())),
        ("batch", num(1.0)),
        ("uncompressed_bf16_tflops", num(baseline.tflops)),
        ("kernels", Json::Arr(kernels)),
    ])
}

/// LLM next-token latency results on SPR-HBM (128 input tokens, batch 1):
/// per model and scheme, software versus DECA milliseconds and the speedup.
#[must_use]
pub fn llm_latency_results() -> Json {
    let estimator = InferenceEstimator::new(MachineConfig::spr_hbm());
    let mut models = Vec::new();
    for model in [LlmModel::llama2_70b(), LlmModel::opt_66b()] {
        let mut schemes = Vec::new();
        for scheme in SchemeSet::llm_evaluation() {
            let software = estimator.next_token(&model, &scheme, Engine::software(), 1, 128);
            let mut entries = vec![
                ("scheme", Json::str(scheme.label())),
                ("software_ms", num(software.total_ms())),
            ];
            // DECA does not apply to the uncompressed model (no
            // decompression work to offload) — mirror Table 4's empty cell.
            if !scheme.is_uncompressed() {
                let deca = estimator.next_token(&model, &scheme, Engine::deca_default(), 1, 128);
                entries.push(("deca_ms", num(deca.total_ms())));
                entries.push(("deca_speedup", num(software.total_ms() / deca.total_ms())));
            }
            schemes.push(Json::obj(entries));
        }
        models.push(Json::obj(vec![
            ("model", Json::str(model.name().to_string())),
            ("batch", num(1.0)),
            ("context_tokens", num(128.0)),
            ("schemes", Json::Arr(schemes)),
        ]));
    }
    Json::Arr(models)
}

/// The printed paper artifacts: every entry of
/// [`crate::experiments::ARTIFACTS`] with its name and the lines
/// `paper <name>` prints. A text pin on Tables 1/3/4, the figures, the
/// batch sweep and the area model; none of it depends on the build
/// profile.
#[must_use]
pub fn paper_results() -> Json {
    let artifacts = crate::experiments::ARTIFACTS
        .iter()
        .map(|(name, render)| {
            Json::obj(vec![
                ("name", Json::str(*name)),
                (
                    "lines",
                    Json::Arr(render().lines().map(Json::str).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("artifacts", Json::Arr(artifacts))])
}

/// Requests per probed rate of the serving capacity search.
const SERVING_SEARCH_REQUESTS: usize = 128;
/// Bisection refinements of the capacity search.
const SERVING_SEARCH_ITERATIONS: usize = 6;
/// Requests on the bursty continuous-vs-static trace.
const SERVING_BURSTY_REQUESTS: usize = 160;
/// Decode batch limit of the simulated replica.
const SERVING_MAX_BATCH: usize = 16;

/// The `bench_serving` headline sentence for the Q8_5% row.
fn serving_headline(
    slo: &SloTarget,
    model: &LlmModel,
    scheme: &CompressionScheme,
    sw: &CapacityResult,
    deca: &CapacityResult,
) -> String {
    if sw.max_rate_rps > 0.0 {
        format!(
            "at p99 TPOT <= {:.0} ms (TTFT <= {:.0} s), DECA sustains {:.2}x the requests/sec \
             of software decompression on {} {} ({:.2} vs {:.2} req/s per socket)",
            slo.tpot_s * 1e3,
            slo.ttft_s,
            deca.max_rate_rps / sw.max_rate_rps,
            model.name(),
            scheme.label(),
            deca.max_rate_rps,
            sw.max_rate_rps
        )
    } else {
        format!(
            "at p99 TPOT <= {:.0} ms (TTFT <= {:.0} s), DECA sustains {:.2} req/s per socket \
             on {} {} — an SLO software decompression cannot meet at any rate",
            slo.tpot_s * 1e3,
            slo.ttft_s,
            deca.max_rate_rps,
            model.name(),
            scheme.label()
        )
    }
}

/// Continuous vs static batching on a bursty trace (DECA, Q8_5%): one row
/// per scheduler plus the `[continuous, static]` goodputs.
fn bursty_scheduler_rows(
    machine: &MachineConfig,
    model: &LlmModel,
    slo: &SloTarget,
) -> (Vec<Json>, Vec<f64>) {
    let scheme = CompressionScheme::bf8_sparse(0.05);
    let budget = hbm_kv_budget_tokens(model, &scheme).expect("Q8_5% fits");
    let bursty = WorkloadSpec::bursty_chat(0.6, SERVING_BURSTY_REQUESTS, 43).generate();
    let mut scheduler_rows = Vec::new();
    let mut goodputs = Vec::new();
    // One memoized cost model across both scheduler runs: its answers are
    // pure functions of (batch, context), independent of the schedule.
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
        let config = ServingConfig::continuous(SERVING_MAX_BATCH, budget).with_scheduler(kind);
        let mut simulator = ServingSimulator::new(cost, config);
        let report = simulator.run(&bursty);
        cost = simulator.into_cost_model();
        let metrics = report.metrics();
        let goodput = report.goodput_rps(slo);
        goodputs.push(goodput);
        scheduler_rows.push(Json::obj(vec![
            ("scheduler", Json::str(kind.to_string())),
            ("goodput_rps", num(goodput)),
            ("p99_ttft_s", num(metrics.ttft.p99_s)),
            ("p99_e2e_s", num(metrics.e2e.p99_s)),
            ("peak_queue_depth", num(report.peak_queue_depth as f64)),
            (
                "peak_kv_reserved_tokens",
                num(report.peak_kv_reserved_tokens as f64),
            ),
            ("completed", num(report.completed() as f64)),
            ("rejected", num(report.rejected as f64)),
        ]));
    }
    (scheduler_rows, goodputs)
}

/// The serving-layer experiment (`deca-serve`): for each Table 4 compressed
/// scheme, the maximum requests/sec one SPR-HBM socket sustains at the
/// interactive p99 SLO with continuous batching — software decompression
/// versus DECA — plus a continuous-vs-static goodput comparison on a bursty
/// trace.
#[must_use]
pub fn serving_results() -> Json {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let slo = SloTarget::interactive();
    let spec = CapacitySpec {
        slo,
        requests: SERVING_SEARCH_REQUESTS,
        seed: 7,
        min_rate: 0.25,
        max_rate: 64.0,
        iterations: SERVING_SEARCH_ITERATIONS,
    };

    let mut capacity_rows = Vec::new();
    let mut headline = String::new();
    for scheme in [
        CompressionScheme::mxfp4(),
        CompressionScheme::bf8_sparse(0.2),
        CompressionScheme::bf8_sparse(0.05),
    ] {
        let budget = hbm_kv_budget_tokens(&model, &scheme)
            .expect("every compressed Table 4 scheme fits in HBM");
        let config = ServingConfig::continuous(SERVING_MAX_BATCH, budget);
        let sw = capacity_search(
            &machine,
            &model,
            &scheme,
            Engine::software(),
            &config,
            &spec,
        );
        let deca = capacity_search(
            &machine,
            &model,
            &scheme,
            Engine::deca_default(),
            &config,
            &spec,
        );
        if scheme == CompressionScheme::bf8_sparse(0.05) {
            headline = serving_headline(&slo, &model, &scheme, &sw, &deca);
        }
        let mut row = vec![
            ("scheme", Json::str(scheme.label())),
            ("kv_budget_tokens", num(budget as f64)),
            ("software_rps", num(sw.max_rate_rps)),
            ("software_p99_tpot_ms", num(sw.p99_tpot_s * 1e3)),
            ("deca_rps", num(deca.max_rate_rps)),
            ("deca_p99_tpot_ms", num(deca.p99_tpot_s * 1e3)),
        ];
        // Software may be unable to meet the SLO at any rate (e.g. Q4's
        // 116 ms decode step leaves no interference headroom under 150 ms);
        // mirror Table 4's empty cell instead of a divide-by-zero ratio.
        if sw.max_rate_rps > 0.0 {
            row.push(("deca_vs_software", num(deca.max_rate_rps / sw.max_rate_rps)));
        }
        capacity_rows.push(Json::obj(row));
    }

    let (scheduler_rows, goodputs) = bursty_scheduler_rows(&machine, &model, &slo);

    Json::obj(vec![
        ("machine", Json::str(machine.name.clone())),
        ("model", Json::str(model.name().to_string())),
        ("max_batch", num(SERVING_MAX_BATCH as f64)),
        ("slo_ttft_s", num(slo.ttft_s)),
        ("slo_tpot_ms", num(slo.tpot_s * 1e3)),
        ("search_requests", num(SERVING_SEARCH_REQUESTS as f64)),
        ("capacity", Json::Arr(capacity_rows)),
        ("headline", Json::str(headline)),
        (
            "continuous_vs_static_goodput",
            num(if goodputs[1] > 0.0 {
                goodputs[0] / goodputs[1]
            } else {
                0.0
            }),
        ),
        ("bursty_schedulers", Json::Arr(scheduler_rows)),
    ])
}

/// Requests per simulated sharding-plan probe.
const SHARDING_REQUESTS: usize = 40;
/// Decode batch limit of the sharded replica.
const SHARDING_MAX_BATCH: usize = 16;
/// The KV working set a production deployment must hold: 16 concurrent
/// sequences at 8 k context. This is what pushes schemes that technically
/// fit their *weights* on one socket (e.g. Q4) past the 64 GB line.
const SHARDING_WORKING_SET_TOKENS: usize = 16 * 8192;
/// Context length of the TP latency-curve probe (the working-set context).
const SHARDING_CURVE_CONTEXT: usize = 8192;

/// The tensor-parallel plans the sharding experiment evaluates, cheapest
/// first.
fn sharding_plans() -> Vec<ShardSpec> {
    vec![
        ShardSpec::single(),
        ShardSpec::tp(2),
        ShardSpec::tp(4),
        ShardSpec::tp(8),
    ]
}

/// The chat workload the sharding SLO probes serve.
fn sharding_workload() -> WorkloadSpec {
    WorkloadSpec {
        arrivals: deca_serve::ArrivalProcess::Poisson { rate_per_sec: 0.5 },
        prompt_lengths: LengthDistribution::Bimodal {
            short: 256,
            long: 2048,
            long_fraction: 0.1,
        },
        output_lengths: LengthDistribution::Uniform { min: 64, max: 192 },
        requests: SHARDING_REQUESTS,
        seed: 17,
    }
}

fn sharding_plan_row(result: &ShardingPlanResult) -> Json {
    let mut row = vec![
        ("plan", Json::str(result.spec.to_string())),
        ("sockets", num(result.spec.sockets() as f64)),
        (
            "kv_budget_tokens",
            result
                .kv_budget_tokens
                .map_or(Json::Null, |b| num(b as f64)),
        ),
        ("servable", Json::Bool(result.servable)),
        ("feasible", Json::Bool(result.feasible)),
    ];
    if result.servable {
        row.push(("p99_ttft_s", num(result.p99_ttft_s)));
        row.push(("p99_tpot_ms", num(result.p99_tpot_s * 1e3)));
        row.push(("goodput_rps", num(result.goodput_rps)));
    }
    Json::obj(row)
}

/// One scheme's sharding row: one-socket fit, TP latency curve, per-plan
/// SLO sweeps for software and (on compressed schemes) DECA, and — when
/// the scheme cannot hold the working set on one socket but DECA serves it
/// sharded — the headline sentence.
fn sharding_scheme_row(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    interconnect: InterconnectModel,
    plans: &[ShardSpec],
    search: &ShardingSearchSpec,
) -> (Json, Option<String>) {
    // One-socket view: do the weights fit at all, and does the working set
    // fit on top of them?
    let single = ShardSpec::single();
    let fits_working_set = footprint::fits_in_hbm_with_kv(
        model,
        scheme,
        &single,
        SHARDING_CURVE_CONTEXT,
        SHARDING_MAX_BATCH,
    );
    let weights_fit_one_socket = footprint::fits_in_hbm(model, scheme, &single);
    let one_socket = Json::obj(vec![
        ("fits_weights", Json::Bool(weights_fit_one_socket)),
        (
            "kv_budget_tokens",
            footprint::max_kv_tokens(model, scheme, &single).map_or(Json::Null, |b| num(b as f64)),
        ),
        ("fits_working_set", Json::Bool(fits_working_set)),
    ]);

    let deca_applies = !scheme.is_uncompressed();
    let curve = plans
        .iter()
        .map(|&spec| sharding_curve_point(machine, model, scheme, spec, interconnect, deca_applies))
        .collect();

    // Minimum sockets holding the working set and meeting the p99 SLO,
    // picked from the already-simulated plans.
    let sweep =
        |engine| sharding_sweep(machine, model, scheme, engine, interconnect, plans, search);
    let min = |results: &[ShardingPlanResult]| {
        results
            .iter()
            .filter(|r| r.feasible)
            .min_by_key(|r| r.spec.sockets())
            .copied()
    };
    let sw_plans = sweep(Engine::software());
    let mut row = vec![
        ("scheme", Json::str(scheme.label())),
        ("one_socket", one_socket),
        ("tp_curve", Json::Arr(curve)),
        (
            "software_plans",
            Json::Arr(sw_plans.iter().map(sharding_plan_row).collect()),
        ),
        (
            "software_min_sockets",
            min(&sw_plans).map_or(Json::Null, |r| num(r.spec.sockets() as f64)),
        ),
    ];
    let mut headline = None;
    if deca_applies {
        let deca_plans = sweep(Engine::deca_default());
        let deca_min = min(&deca_plans);
        // The headline sentence claims the weights fit on one socket, so
        // it only applies to schemes where that is actually true (Q4, not
        // dense Q8, whose weights alone overflow the 64 GB).
        if let (true, false, Some(win)) = (weights_fit_one_socket, fits_working_set, &deca_min) {
            headline = Some(format!(
                "{} {} fits its weights on one socket but cannot hold the \
                 {SHARDING_WORKING_SET_TOKENS}-token KV working set there; with DECA it holds \
                 the working set and meets the interactive p99 SLO at {} ({} sockets, p99 TPOT \
                 {:.0} ms)",
                model.name(),
                scheme.label(),
                win.spec,
                win.spec.sockets(),
                win.p99_tpot_s * 1e3
            ));
        }
        row.push((
            "deca_plans",
            Json::Arr(deca_plans.iter().map(sharding_plan_row).collect()),
        ));
        row.push((
            "deca_min_sockets",
            deca_min.map_or(Json::Null, |r| num(r.spec.sockets() as f64)),
        ));
    }
    (Json::obj(row), headline)
}

/// One point of the TP latency curve: the decode step at the working-set
/// context for software and (when it applies) DECA.
fn sharding_curve_point(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: ShardSpec,
    interconnect: InterconnectModel,
    deca_applies: bool,
) -> Json {
    let estimator = InferenceEstimator::sharded(machine.clone(), spec, interconnect);
    let sw = estimator.next_token(
        model,
        scheme,
        Engine::software(),
        SHARDING_MAX_BATCH,
        SHARDING_CURVE_CONTEXT,
    );
    let mut point = vec![
        ("plan", Json::str(spec.to_string())),
        ("software_ms", num(sw.total_ms())),
    ];
    if deca_applies {
        let deca = estimator.next_token(
            model,
            scheme,
            Engine::deca_default(),
            SHARDING_MAX_BATCH,
            SHARDING_CURVE_CONTEXT,
        );
        point.push(("deca_ms", num(deca.total_ms())));
        point.push(("deca_comm_fraction", num(deca.comm_fraction())));
    }
    Json::obj(point)
}

/// The sharding experiment (`bench_sharding`): for Table 4 schemes that
/// stop fitting one socket — outright (BF16, dense Q8) or once the KV
/// working set grows (Q4) — the TP scaling curve of the decode latency and
/// the minimum socket count that holds the working set *and* meets the
/// interactive p99 SLO, software decompression versus DECA, over a
/// UPI-class interconnect.
#[must_use]
pub fn sharding_results() -> Json {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let interconnect = InterconnectModel::spr_upi();
    let slo = SloTarget::interactive();
    let plans = sharding_plans();
    let search = ShardingSearchSpec {
        slo,
        workload: sharding_workload(),
        max_batch: SHARDING_MAX_BATCH,
        required_kv_tokens: SHARDING_WORKING_SET_TOKENS,
    };

    let mut scheme_rows = Vec::new();
    let mut headline = String::new();
    for scheme in [
        CompressionScheme::bf16_dense(),
        CompressionScheme::bf8_dense(),
        CompressionScheme::mxfp4(),
    ] {
        let (row, scheme_headline) =
            sharding_scheme_row(&machine, &model, &scheme, interconnect, &plans, &search);
        if scheme == CompressionScheme::mxfp4() {
            if let Some(line) = scheme_headline {
                headline = line;
            }
        }
        scheme_rows.push(row);
    }

    Json::obj(vec![
        ("machine", Json::str(machine.name.clone())),
        ("model", Json::str(model.name().to_string())),
        ("interconnect_gbps", num(interconnect.link_bandwidth_gbps)),
        ("interconnect_latency_us", num(interconnect.link_latency_us)),
        (
            "working_set_tokens",
            num(SHARDING_WORKING_SET_TOKENS as f64),
        ),
        ("max_batch", num(SHARDING_MAX_BATCH as f64)),
        ("slo_ttft_s", num(slo.ttft_s)),
        ("slo_tpot_ms", num(slo.tpot_s * 1e3)),
        ("probe_requests", num(SHARDING_REQUESTS as f64)),
        ("schemes", Json::Arr(scheme_rows)),
        ("headline", Json::str(headline)),
    ])
}

/// Sessions of the shared-prefix capacity trace.
const PAGED_SESSIONS: usize = 24;
/// Turns per conversation of the shared-prefix trace.
const PAGED_TURNS: usize = 3;
/// Tokens per KV block of the paged policies.
const PAGED_BLOCK_SIZE: usize = 32;
/// Bisection refinements of the paged capacity searches.
const PAGED_SEARCH_ITERATIONS: usize = 6;
/// Decode batch limit of the paged experiment's replica.
const PAGED_MAX_BATCH: usize = 16;
/// Session rate of the fixed-load policy comparison (sessions/sec).
const PAGED_DETAIL_RATE: f64 = 0.25;
/// KV-token pool of the deliberately overloaded preemption scenario —
/// small enough that even with the 512-token system prompt shared, the
/// concurrent turn-1 wave cannot fit its private suffixes.
const PAGED_OVERLOAD_BUDGET_TOKENS: usize = 2_048;
/// Session rate of the overload scenario (far beyond its tiny pool).
const PAGED_OVERLOAD_RATE: f64 = 4.0;

/// The shared-prefix conversation workload of `bench_paged` (the rate is
/// substituted per capacity probe).
fn paged_workload() -> SharedPrefixChatSpec {
    SharedPrefixChatSpec {
        turns_per_session: PAGED_TURNS,
        ..SharedPrefixChatSpec::fleet(1.0, PAGED_SESSIONS, 29)
    }
}

/// The three admission policies `bench_paged` compares on one replica.
fn paged_policies(budget: usize) -> [(&'static str, ServingConfig); 3] {
    let reserve = ServingConfig::continuous(PAGED_MAX_BATCH, budget);
    let paged = ServingConfig::paged(PAGED_MAX_BATCH, budget, PAGED_BLOCK_SIZE);
    [
        ("reserve", reserve),
        ("paged", paged),
        ("paged+prefix", paged.with_prefix_sharing(true)),
    ]
}

/// One serving run of the shared-prefix trace under `config`, for the
/// fixed-load and overload rows.
fn paged_detail_run(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    engine: Engine,
    config: &ServingConfig,
    rate: f64,
) -> ServingReport {
    let trace = paged_workload().with_rate(rate).generate();
    let cost = EstimatorCostModel::new(machine.clone(), model.clone(), *scheme, engine);
    ServingSimulator::new(cost, *config).run(&trace)
}

/// The JSON row of one fixed-load policy run, including the paged-KV
/// counters when the policy has them.
fn paged_detail_row(label: &str, slo: &SloTarget, report: &ServingReport) -> Json {
    let metrics = report.metrics();
    let mut row = vec![
        ("policy", Json::str(label)),
        ("completed", num(report.completed() as f64)),
        ("rejected", num(report.rejected as f64)),
        ("goodput_rps", num(report.goodput_rps(slo))),
        ("p99_ttft_s", num(metrics.ttft.p99_s)),
        ("p99_tpot_ms", num(metrics.tpot.p99_s * 1e3)),
        ("mean_kv_occupancy", num(report.mean_kv_occupancy)),
        (
            "peak_kv_occupied_tokens",
            num(report.peak_kv_occupied_tokens as f64),
        ),
    ];
    if let Some(paged) = &report.paged {
        row.push(("prefix_hit_rate", num(paged.prefix_hit_rate())));
        row.push(("preemptions", num(paged.preemptions as f64)));
        row.push(("mean_block_utilization", num(paged.mean_block_utilization)));
        row.push((
            "mean_internal_fragmentation",
            num(paged.mean_internal_fragmentation),
        ));
    }
    Json::obj(row)
}

/// The capacity matrix of `bench_paged` — shard plan × engine × policy —
/// plus the headline sentence for the (TP1, DECA) cell.
fn paged_capacity_matrix(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    slo: &SloTarget,
) -> (Vec<Json>, String) {
    let spec = CapacitySpec {
        slo: *slo,
        requests: PAGED_SESSIONS * PAGED_TURNS,
        seed: 29,
        min_rate: 0.05,
        max_rate: 16.0,
        iterations: PAGED_SEARCH_ITERATIONS,
    };
    let workload = paged_workload();
    let mut shard_rows = Vec::new();
    let mut headline = String::new();
    for (shard_label, shard, interconnect) in [
        ("TP1", ShardSpec::single(), InterconnectModel::zero_cost()),
        ("TP2", ShardSpec::tp(2), InterconnectModel::spr_upi()),
    ] {
        let budget = footprint::max_kv_tokens(model, scheme, &shard)
            .expect("Q8_5% fits every probed plan") as usize;
        let mut engine_rows = Vec::new();
        for (engine_label, engine) in [
            ("software", Engine::software()),
            ("deca", Engine::deca_default()),
        ] {
            let mut policy_rows = Vec::new();
            let mut capacities = Vec::new();
            // One warm cost model across the three policy searches: its
            // latencies are pure functions of (batch, context), so the
            // memoized estimator queries are shared, not re-derived.
            let mut cost = EstimatorCostModel::sharded(
                machine.clone(),
                model.clone(),
                *scheme,
                engine,
                shard,
                interconnect,
            );
            for (policy_label, config) in paged_policies(budget) {
                let result = capacity_search_warm(&mut cost, &config, &spec, |rate| {
                    workload.with_rate(rate).generate()
                });
                capacities.push(result.max_rate_rps);
                policy_rows.push(Json::obj(vec![
                    ("policy", Json::str(policy_label)),
                    ("sessions_per_sec", num(result.max_rate_rps)),
                    ("p99_ttft_s", num(result.p99_ttft_s)),
                    ("p99_tpot_ms", num(result.p99_tpot_s * 1e3)),
                    ("goodput_rps", num(result.goodput_rps)),
                ]));
            }
            if shard_label == "TP1" && engine_label == "deca" {
                // Same zero guard as the per-engine ratio field below: a
                // reserve capacity of 0 must read as "unservable", not as
                // an astronomically inflated ratio.
                let verdict = if capacities[0] > 0.0 {
                    format!(
                        "serves {:.2}x the sessions/sec of reserve-up-front",
                        capacities[2] / capacities[0]
                    )
                } else {
                    "serves a load reserve-up-front cannot serve at all".to_string()
                };
                headline = format!(
                    "on a shared-prefix chat trace at the interactive p99 SLO, paged+prefix \
                     admission {verdict} on one DECA socket ({:.2} vs {:.2} sessions/s, {} \
                     Q8_5%)",
                    capacities[2],
                    capacities[0],
                    model.name(),
                );
            }
            let mut engine_row = vec![
                ("engine", Json::str(engine_label)),
                ("policies", Json::Arr(policy_rows)),
            ];
            // Reserve-up-front may fail the SLO at every probed rate (the
            // software engine cannot prefill whole conversations fast
            // enough); mirror Table 4's empty cell instead of a
            // divide-by-zero ratio.
            if capacities[0] > 0.0 {
                engine_row.push((
                    "paged_prefix_vs_reserve",
                    num(capacities[2] / capacities[0]),
                ));
            }
            engine_rows.push(Json::obj(engine_row));
        }
        shard_rows.push(Json::obj(vec![
            ("plan", Json::str(shard_label)),
            ("kv_budget_tokens", num(budget as f64)),
            ("total_blocks", num((budget / PAGED_BLOCK_SIZE) as f64)),
            ("engines", Json::Arr(engine_rows)),
        ]));
    }
    (shard_rows, headline)
}

/// The overload row of `bench_paged`: a deliberately tiny pool under a
/// high session rate forces allocation failures, so preemption-by-
/// recompute (and prefix-cache eviction) must fire — and the run must
/// still conserve the trace.
fn paged_overload_row(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
) -> Json {
    let config = ServingConfig::paged(
        PAGED_MAX_BATCH,
        PAGED_OVERLOAD_BUDGET_TOKENS,
        PAGED_BLOCK_SIZE,
    )
    .with_prefix_sharing(true);
    let overload = paged_detail_run(
        machine,
        model,
        scheme,
        Engine::deca_default(),
        &config,
        PAGED_OVERLOAD_RATE,
    );
    let paged = overload.paged.expect("paged run");
    Json::obj(vec![
        ("kv_budget_tokens", num(PAGED_OVERLOAD_BUDGET_TOKENS as f64)),
        ("sessions_per_sec", num(PAGED_OVERLOAD_RATE)),
        ("offered", num((PAGED_SESSIONS * PAGED_TURNS) as f64)),
        ("completed", num(overload.completed() as f64)),
        ("rejected", num(overload.rejected as f64)),
        ("preemptions", num(paged.preemptions as f64)),
        ("cache_evictions", num(paged.cache_evictions as f64)),
        ("prefix_hit_rate", num(paged.prefix_hit_rate())),
        (
            "peak_allocated_blocks",
            num(paged.peak_allocated_blocks as f64),
        ),
    ])
}

/// The paged-KV experiment (`bench_paged`): on a shared-prefix
/// conversation trace, the session rate one replica sustains at the
/// interactive p99 SLO under reserve-up-front vs paged vs paged+prefix
/// admission — software decompression and DECA, single-socket and TP2 —
/// plus a fixed-load utilization/hit-rate comparison and a deliberately
/// overloaded small-pool scenario that exercises preemption-by-recompute.
#[must_use]
pub fn paged_results() -> Json {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let scheme = CompressionScheme::bf8_sparse(0.05);
    let slo = SloTarget::interactive();
    let (shard_rows, headline) = paged_capacity_matrix(&machine, &model, &scheme, &slo);

    // Fixed-load comparison (DECA, single socket): utilization, prefix hit
    // rate, and tail latency of the three policies at the same rate.
    let budget = hbm_kv_budget_tokens(&model, &scheme).expect("Q8_5% fits");
    let detail_rows: Vec<Json> = paged_policies(budget)
        .iter()
        .map(|(label, config)| {
            let report = paged_detail_run(
                &machine,
                &model,
                &scheme,
                Engine::deca_default(),
                config,
                PAGED_DETAIL_RATE,
            );
            paged_detail_row(label, &slo, &report)
        })
        .collect();
    let overload_row = paged_overload_row(&machine, &model, &scheme);

    Json::obj(vec![
        ("machine", Json::str(machine.name.clone())),
        ("model", Json::str(model.name().to_string())),
        ("scheme", Json::str(scheme.label())),
        ("block_size", num(PAGED_BLOCK_SIZE as f64)),
        ("max_batch", num(PAGED_MAX_BATCH as f64)),
        ("slo_ttft_s", num(slo.ttft_s)),
        ("slo_tpot_ms", num(slo.tpot_s * 1e3)),
        ("sessions", num(PAGED_SESSIONS as f64)),
        ("turns_per_session", num(PAGED_TURNS as f64)),
        (
            "system_prompt_tokens",
            num(paged_workload().system_prompt_tokens as f64),
        ),
        ("capacity", Json::Arr(shard_rows)),
        ("headline", Json::str(headline)),
        ("detail_rate_sessions_per_sec", num(PAGED_DETAIL_RATE)),
        ("detail", Json::Arr(detail_rows)),
        ("overload", overload_row),
    ])
}

/// Sessions of the cold-return swap-vs-recompute trace.
const DISAGG_COLD_SESSIONS: usize = 32;
/// Bisection refinements of the disagg experiment's capacity searches.
const DISAGG_SEARCH_ITERATIONS: usize = 5;
/// KV pool (tokens) of the swap scenario — deliberately tight so a
/// returning session finds its prefix demoted (tiered) or evicted
/// (recompute), and concurrent bursts force preemptions.
const DISAGG_SWAP_BUDGET_TOKENS: usize = 4_096;
/// Tokens per KV block of the disagg experiment's paged replicas.
const DISAGG_BLOCK_SIZE: usize = 32;
/// Decode batch limit of the disagg experiment's replicas.
const DISAGG_MAX_BATCH: usize = 16;
/// DDR tier capacity in blocks — roomy, because host DDR is cheap next
/// to the HBM pool it backs.
const DISAGG_DDR_BLOCKS: usize = 4_096;
/// Sockets split between the prefill and decode pools (and granted to the
/// colocated baseline fleet).
const DISAGG_SOCKETS: usize = 4;
/// Requests per probed rate of the pool-split capacity searches.
const DISAGG_DOC_REQUESTS: usize = 64;
/// Fixed session rate of the swap mechanism detail row (sessions/sec).
const DISAGG_DETAIL_RATE: f64 = 0.2;
/// p99 TTFT bound of the swap half's cold-return SLO. Re-prefilling a
/// returning session's evicted context costs ~1.5 s regardless of load, so
/// preempt-by-recompute has a rate-independent TTFT floor above this bound;
/// tiered offload promotes the demoted prefix from DDR and answers in
/// ~0.8 s. A bound between the two is exactly the regime KV offload exists
/// for (the pools half keeps the plain interactive SLO).
const DISAGG_SWAP_TTFT_S: f64 = 1.2;
/// p99 TTFT bound of the pools half's long-document SLO. Prefilling one
/// 4k-token document alone takes ~9.5 s, so the interactive 4 s bound is
/// unservable by *any* deployment; a document workload gets a document
/// TTFT budget. TPOT keeps the interactive bound — streaming must stay
/// fluid once the first token is out, which is exactly what prefill
/// interference on a colocated fleet breaks.
const DISAGG_DOC_TTFT_S: f64 = 12.0;

/// The cold-return conversation workload of the swap-vs-recompute half of
/// `bench_disagg` (the rate is substituted per capacity probe).
fn disagg_cold_workload() -> SharedPrefixChatSpec {
    SharedPrefixChatSpec::cold_return(1.0, DISAGG_COLD_SESSIONS, 31)
}

/// The long-document chat workload of the disaggregation half: a bimodal
/// prompt mix whose occasional 4k-token documents are exactly the prefill
/// interference that inflates a colocated fleet's p99 TPOT.
fn disagg_doc_workload(rate: f64) -> WorkloadSpec {
    WorkloadSpec {
        arrivals: deca_serve::ArrivalProcess::Poisson { rate_per_sec: rate },
        prompt_lengths: LengthDistribution::Bimodal {
            short: 256,
            long: 4096,
            long_fraction: 0.15,
        },
        output_lengths: LengthDistribution::Uniform { min: 64, max: 192 },
        requests: DISAGG_DOC_REQUESTS,
        seed: 37,
    }
}

/// The JSON fields every capacity-search outcome contributes to a row.
fn disagg_capacity_fields(prefix: &str, result: &CapacityResult) -> Vec<(String, Json)> {
    vec![
        (format!("{prefix}_rps"), num(result.max_rate_rps)),
        (format!("{prefix}_p99_ttft_s"), num(result.p99_ttft_s)),
        (
            format!("{prefix}_p99_tpot_ms"),
            num(result.p99_tpot_s * 1e3),
        ),
        (format!("{prefix}_goodput_rps"), num(result.goodput_rps)),
    ]
}

/// The swap-vs-recompute half of `bench_disagg`: on the cold-return trace
/// with a deliberately tight HBM pool, the session rate one replica
/// sustains at the cold-return p99 SLO ([`DISAGG_SWAP_TTFT_S`] TTFT, the
/// interactive TPOT) with preempt-by-recompute (no tiers) versus tiered KV
/// offload (swap-outs to DDR, cold prefixes demoted and promoted back) —
/// per engine — plus a fixed-rate detail row showing the tier counters
/// that explain the win.
fn disagg_swap_rows(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    slo: &SloTarget,
) -> (Vec<Json>, Json, String) {
    let workload = disagg_cold_workload();
    let spec = CapacitySpec {
        slo: SloTarget {
            ttft_s: DISAGG_SWAP_TTFT_S,
            ..*slo
        },
        requests: workload.requests(),
        seed: 31,
        min_rate: 0.02,
        max_rate: 16.0,
        iterations: DISAGG_SEARCH_ITERATIONS,
    };
    let block_kv_bytes = footprint::kv_cache_bytes_per_sequence(model, DISAGG_BLOCK_SIZE) as f64;
    let recompute_config = ServingConfig::paged(
        DISAGG_MAX_BATCH,
        DISAGG_SWAP_BUDGET_TOKENS,
        DISAGG_BLOCK_SIZE,
    )
    .with_prefix_sharing(true);
    let tiered_config =
        recompute_config.with_tiers(KvTierModel::ddr_only(block_kv_bytes, DISAGG_DDR_BLOCKS));

    let mut engine_rows = Vec::new();
    let mut headline = String::new();
    for (engine_label, engine) in [
        ("software", Engine::software()),
        ("deca", Engine::deca_default()),
    ] {
        // One warm cost model across both searches: its latencies are pure
        // functions of (batch, context), independent of the tier config.
        let mut cost = EstimatorCostModel::new(machine.clone(), model.clone(), *scheme, engine);
        let recompute = capacity_search_warm(&mut cost, &recompute_config, &spec, |rate| {
            workload.with_rate(rate).generate()
        });
        let tiered = capacity_search_warm(&mut cost, &tiered_config, &spec, |rate| {
            workload.with_rate(rate).generate()
        });
        if engine_label == "deca" {
            // Same zero guard as the ratio field: a recompute capacity of 0
            // must read as "unservable", not as an inflated ratio.
            let verdict = if recompute.max_rate_rps > 0.0 {
                format!(
                    "{:.2}x the cold sessions/sec of preempt-by-recompute",
                    tiered.max_rate_rps / recompute.max_rate_rps
                )
            } else {
                "a cold-session load preempt-by-recompute cannot serve at all".to_string()
            };
            headline = format!(
                "with DDR KV offload, one DECA socket sustains {verdict} at the cold-return \
                 p99 SLO ({:.2} vs {:.2} sessions/s, {} {})",
                tiered.max_rate_rps,
                recompute.max_rate_rps,
                model.name(),
                scheme.label(),
            );
        }
        let mut row: Vec<(String, Json)> = vec![("engine".to_string(), Json::str(engine_label))];
        row.extend(disagg_capacity_fields("recompute", &recompute));
        row.extend(disagg_capacity_fields("tiered", &tiered));
        if recompute.max_rate_rps > 0.0 {
            row.push((
                "tiered_vs_recompute".to_string(),
                num(tiered.max_rate_rps / recompute.max_rate_rps),
            ));
        }
        engine_rows.push(Json::Obj(row));
    }

    // The mechanism, at one fixed rate on DECA: where the recompute run
    // burns prefill tokens, the tiered run swaps and promotes instead.
    let trace = workload.with_rate(DISAGG_DETAIL_RATE).generate();
    let run = |config: &ServingConfig| {
        let cost = EstimatorCostModel::new(
            machine.clone(),
            model.clone(),
            *scheme,
            Engine::deca_default(),
        );
        ServingSimulator::new(cost, *config).run(&trace)
    };
    let recompute_run = run(&recompute_config);
    let tiered_run = run(&tiered_config);
    let rstats = recompute_run.paged.expect("paged run");
    let tstats = tiered_run.paged.expect("paged run");
    let detail = Json::obj(vec![
        ("sessions_per_sec", num(DISAGG_DETAIL_RATE)),
        ("recompute_preemptions", num(rstats.preemptions as f64)),
        (
            "recompute_prefilled_tokens",
            num(rstats.prefix_uncached_tokens as f64),
        ),
        (
            "recompute_p99_ttft_s",
            num(recompute_run.metrics().ttft.p99_s),
        ),
        (
            "tiered_prefilled_tokens",
            num(tstats.prefix_uncached_tokens as f64),
        ),
        ("tiered_p99_ttft_s", num(tiered_run.metrics().ttft.p99_s)),
        ("swap_outs", num(tstats.swap_outs as f64)),
        ("swap_ins", num(tstats.swap_ins as f64)),
        ("tier_demotions", num(tstats.tier_demotions as f64)),
        ("tier_promotions", num(tstats.tier_promotions as f64)),
        ("peak_ddr_blocks", num(tstats.peak_ddr_blocks as f64)),
    ]);
    (engine_rows, detail, headline)
}

/// The disaggregation half of `bench_disagg`: on the long-document trace,
/// the arrival rate `DISAGG_SOCKETS` sockets sustain at the long-document
/// p99 SLO ([`DISAGG_DOC_TTFT_S`] TTFT, the interactive TPOT) as a
/// colocated fleet versus every prefill/decode pool split (prefill KV
/// shipped to the decode pool over UPI) — per engine.
fn disagg_pool_rows(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    slo: &SloTarget,
) -> (Vec<Json>, String) {
    let budget = hbm_kv_budget_tokens(model, scheme).expect("Q8_5% fits");
    let config = ServingConfig::paged(DISAGG_MAX_BATCH, budget, DISAGG_BLOCK_SIZE);
    let kv_bytes_per_token = footprint::kv_cache_bytes_per_sequence(model, 1) as f64;
    let ship = KvShipSpec::over_interconnect(kv_bytes_per_token, &InterconnectModel::spr_upi());
    let spec = CapacitySpec {
        slo: SloTarget {
            ttft_s: DISAGG_DOC_TTFT_S,
            ..*slo
        },
        requests: DISAGG_DOC_REQUESTS,
        seed: 37,
        min_rate: 0.1,
        max_rate: 32.0,
        iterations: DISAGG_SEARCH_ITERATIONS,
    };

    let mut engine_rows = Vec::new();
    let mut headline = String::new();
    for (engine_label, engine) in [
        ("software", Engine::software()),
        ("deca", Engine::deca_default()),
    ] {
        // Warm one estimator on a single mid-rate replica run, then clone
        // it into every socket of every probe: the memoized (batch,
        // context) entries are shared instead of re-derived per replica.
        let mut proto = {
            let cost = EstimatorCostModel::new(machine.clone(), model.clone(), *scheme, engine);
            let mut sim = ServingSimulator::new(cost, config);
            sim.run(&disagg_doc_workload(1.0).generate());
            sim.into_cost_model()
        };
        let colocated =
            fleet_capacity_search_with(&mut proto, &config, DISAGG_SOCKETS, &spec, |rate| {
                disagg_doc_workload(rate).generate()
            });
        let splits =
            disagg_capacity_search_with(&mut proto, &config, DISAGG_SOCKETS, ship, &spec, |rate| {
                disagg_doc_workload(rate).generate()
            });
        let best = best_pool_split(&splits).expect("at least one split");
        if engine_label == "deca" {
            let verdict = if colocated.max_rate_rps > 0.0 {
                format!(
                    "{:.2}x the requests/sec of the best colocated fleet",
                    best.capacity.max_rate_rps / colocated.max_rate_rps
                )
            } else {
                "a long-document load the colocated fleet cannot serve at all".to_string()
            };
            headline = format!(
                "splitting {DISAGG_SOCKETS} DECA sockets into {} prefill + {} decode sustains \
                 {verdict} at the long-document p99 SLO ({:.2} vs {:.2} req/s, {} {})",
                best.prefill_replicas,
                best.decode_replicas,
                best.capacity.max_rate_rps,
                colocated.max_rate_rps,
                model.name(),
                scheme.label(),
            );
        }
        let split_rows: Vec<Json> = splits
            .iter()
            .map(|s| {
                let mut row: Vec<(String, Json)> = vec![
                    (
                        "prefill_replicas".to_string(),
                        num(s.prefill_replicas as f64),
                    ),
                    ("decode_replicas".to_string(), num(s.decode_replicas as f64)),
                ];
                row.extend(disagg_capacity_fields("split", &s.capacity));
                Json::Obj(row)
            })
            .collect();
        let mut row: Vec<(String, Json)> = vec![("engine".to_string(), Json::str(engine_label))];
        row.extend(disagg_capacity_fields("colocated", &colocated));
        row.push(("splits".to_string(), Json::Arr(split_rows)));
        row.push((
            "best_split".to_string(),
            Json::str(format!(
                "{}p+{}d",
                best.prefill_replicas, best.decode_replicas
            )),
        ));
        row.extend(disagg_capacity_fields("disagg", &best.capacity));
        if colocated.max_rate_rps > 0.0 {
            row.push((
                "disagg_vs_colocated".to_string(),
                num(best.capacity.max_rate_rps / colocated.max_rate_rps),
            ));
        }
        engine_rows.push(Json::Obj(row));
    }
    (engine_rows, headline)
}

/// The tiered-offload + disaggregation experiment (`bench_disagg`): the
/// swap-vs-recompute capacity comparison on the cold-return trace, and the
/// disaggregated-vs-colocated capacity comparison on the long-document
/// trace, both software and DECA.
#[must_use]
pub fn disagg_results() -> Json {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let scheme = CompressionScheme::bf8_sparse(0.05);
    let slo = SloTarget::interactive();

    let (swap_rows, swap_detail, swap_headline) = disagg_swap_rows(&machine, &model, &scheme, &slo);
    let (pool_rows, pool_headline) = disagg_pool_rows(&machine, &model, &scheme, &slo);

    Json::obj(vec![
        ("machine", Json::str(machine.name.clone())),
        ("model", Json::str(model.name().to_string())),
        ("scheme", Json::str(scheme.label())),
        ("block_size", num(DISAGG_BLOCK_SIZE as f64)),
        ("max_batch", num(DISAGG_MAX_BATCH as f64)),
        ("slo_tpot_ms", num(slo.tpot_s * 1e3)),
        (
            "swap",
            Json::obj(vec![
                ("sessions", num(DISAGG_COLD_SESSIONS as f64)),
                ("kv_budget_tokens", num(DISAGG_SWAP_BUDGET_TOKENS as f64)),
                ("ddr_blocks", num(DISAGG_DDR_BLOCKS as f64)),
                ("slo_ttft_s", num(DISAGG_SWAP_TTFT_S)),
                ("slo_tpot_ms", num(slo.tpot_s * 1e3)),
                ("engines", Json::Arr(swap_rows)),
                ("detail", swap_detail),
                ("headline", Json::str(swap_headline)),
            ]),
        ),
        (
            "pools",
            Json::obj(vec![
                ("sockets", num(DISAGG_SOCKETS as f64)),
                ("requests", num(DISAGG_DOC_REQUESTS as f64)),
                ("slo_ttft_s", num(DISAGG_DOC_TTFT_S)),
                ("slo_tpot_ms", num(slo.tpot_s * 1e3)),
                ("engines", Json::Arr(pool_rows)),
                ("headline", Json::str(pool_headline)),
            ]),
        ),
    ])
}

/// Chat requests of the chunked-prefill experiment's mixed trace.
const CHUNKED_CHAT_REQUESTS: usize = 96;
/// Fixed chat arrival rate of the TPOT-isolation comparison (the document
/// lane rides at an eighth of it, per [`deca_serve::DocChatMixSpec`]).
const CHUNKED_CHAT_RATE: f64 = 0.25;
/// The prefill chunk budget of the headline chunked runs (tokens per
/// batch step).
const CHUNKED_BUDGET_TOKENS: usize = 512;
/// Tokens per KV block of the chunked experiment's paged replicas.
const CHUNKED_BLOCK_SIZE: usize = 32;
/// Decode batch limit of the chunked experiment's replicas.
const CHUNKED_MAX_BATCH: usize = 16;
/// Draft tokens per speculative burst of the acceptance-rate curves.
const CHUNKED_DRAFT_TOKENS: usize = 4;
/// Trace and acceptance-draw seed of the chunked experiment.
const CHUNKED_SEED: u64 = 41;

/// The mixed long-document + chat workload of `bench_chunked`: the fleet
/// document lane with short (autocomplete-style) chat turns, so a turn's
/// decode window fits inside a document backlog and prefill stalls land
/// directly in the turn's TPOT instead of amortizing away.
fn chunked_mix() -> deca_serve::DocChatMixSpec {
    deca_serve::DocChatMixSpec {
        chat_output_tokens: deca_serve::LengthDistribution::Uniform { min: 8, max: 32 },
        ..deca_serve::DocChatMixSpec::fleet(CHUNKED_CHAT_RATE, CHUNKED_CHAT_REQUESTS, CHUNKED_SEED)
    }
}

/// Splits a report's records into (chat, document) lanes and returns the
/// chat lane's p99 TPOT (ms) and the document lane's p99 TTFT (s).
fn chunked_lane_tails(
    mix: &deca_serve::DocChatMixSpec,
    trace: &deca_serve::RequestTrace,
    report: &ServingReport,
) -> (f64, f64) {
    let mut chat_tpot = Vec::new();
    let mut doc_ttft = Vec::new();
    for record in &report.records {
        if mix.is_document(&trace.requests()[record.id]) {
            doc_ttft.push(record.ttft_s());
        } else {
            chat_tpot.push(record.tpot_s());
        }
    }
    (
        deca_serve::percentile(&chat_tpot, 99.0) * 1e3,
        deca_serve::percentile(&doc_ttft, 99.0),
    )
}

/// The TPOT-isolation leg of `bench_chunked`: chunked vs unchunked on the
/// mixed long-document + chat trace, per engine. Returns the per-engine
/// rows and the DECA headline.
fn chunked_isolation_section(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: CompressionScheme,
    config: &ServingConfig,
    mix: &deca_serve::DocChatMixSpec,
    trace: &deca_serve::RequestTrace,
) -> (Vec<Json>, String) {
    let mut isolation_rows = Vec::new();
    let mut isolation_headline = String::new();
    for (engine_label, engine) in [
        ("software", Engine::software()),
        ("deca", Engine::deca_default()),
    ] {
        let mut cost = EstimatorCostModel::new(machine.clone(), model.clone(), scheme, engine);
        let mut run = |chunk_budget: Option<usize>| {
            let mut sim =
                ServingSimulator::new(cost.clone(), config.with_chunked_prefill(chunk_budget));
            let report = sim.run(trace);
            cost = sim.into_cost_model();
            report
        };
        let unchunked = run(None);
        let chunked = run(Some(CHUNKED_BUDGET_TOKENS));
        let (unchunked_chat_tpot, unchunked_doc_ttft) = chunked_lane_tails(mix, trace, &unchunked);
        let (chunked_chat_tpot, chunked_doc_ttft) = chunked_lane_tails(mix, trace, &chunked);
        if engine_label == "deca" {
            isolation_headline = format!(
                "a {CHUNKED_BUDGET_TOKENS}-token chunk budget cuts chat p99 TPOT from \
                 {unchunked_chat_tpot:.1} ms to {chunked_chat_tpot:.1} ms under co-resident \
                 long-document prefill on one DECA socket ({} {})",
                model.name(),
                scheme.label(),
            );
        }
        isolation_rows.push(Json::obj(vec![
            ("engine", Json::str(engine_label)),
            ("unchunked_chat_p99_tpot_ms", num(unchunked_chat_tpot)),
            ("chunked_chat_p99_tpot_ms", num(chunked_chat_tpot)),
            (
                "chunked_vs_unchunked_tpot",
                num(chunked_chat_tpot / unchunked_chat_tpot),
            ),
            ("unchunked_doc_p99_ttft_s", num(unchunked_doc_ttft)),
            ("chunked_doc_p99_ttft_s", num(chunked_doc_ttft)),
            ("chunk_steps", num(chunked.chunk_steps as f64)),
            (
                "chunked_prefill_tokens",
                num(chunked.chunked_prefill_tokens as f64),
            ),
        ]));
    }
    (isolation_rows, isolation_headline)
}

/// The speculation leg of `bench_chunked`: goodput vs acceptance rate with
/// a Llama-2-7B draft against the 70B target, per engine, on a
/// decode-heavy chat trace. Returns the per-engine rows and the DECA
/// headline.
fn chunked_speculation_section(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: CompressionScheme,
    slo: &SloTarget,
    budget: usize,
) -> (Vec<Json>, String) {
    let draft = LlmModel::llama2_7b();
    let chat_trace = WorkloadSpec::chat(2.0, CHUNKED_CHAT_REQUESTS, CHUNKED_SEED).generate();
    let chat_config = ServingConfig::paged(CHUNKED_MAX_BATCH, budget, CHUNKED_BLOCK_SIZE);
    let rates = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut speculation_rows = Vec::new();
    let mut speculation_headline = String::new();
    for (engine_label, engine) in [
        ("software", Engine::software()),
        ("deca", Engine::deca_default()),
    ] {
        let mut cost = EstimatorCostModel::new(machine.clone(), model.clone(), scheme, engine)
            .with_draft_model(draft.clone());
        let curve = deca_serve::speculation_goodput_curve_with(
            &mut cost,
            &chat_config,
            slo,
            CHUNKED_DRAFT_TOKENS,
            CHUNKED_SEED,
            &rates,
            &chat_trace,
        );
        if engine_label == "deca" {
            let (first, last) = (&curve[0], &curve[curve.len() - 1]);
            speculation_headline = format!(
                "with a {} draft at acceptance 1.0, one DECA socket's chat p99 TPOT drops from \
                 {:.1} ms to {:.1} ms ({} target, k={CHUNKED_DRAFT_TOKENS})",
                draft.name(),
                first.p99_tpot_s * 1e3,
                last.p99_tpot_s * 1e3,
                model.name(),
            );
        }
        let points: Vec<Json> = curve
            .iter()
            .map(|point| {
                Json::obj(vec![
                    ("acceptance_rate", num(point.acceptance_rate)),
                    ("p99_ttft_s", num(point.p99_ttft_s)),
                    ("p99_tpot_ms", num(point.p99_tpot_s * 1e3)),
                    ("goodput_rps", num(point.goodput_rps)),
                    ("bursts", num(point.decode_steps as f64)),
                ])
            })
            .collect();
        speculation_rows.push(Json::obj(vec![
            ("engine", Json::str(engine_label)),
            ("points", Json::Arr(points)),
        ]));
    }
    (speculation_rows, speculation_headline)
}

/// The chunked-prefill + speculative-decoding experiment (`bench_chunked`):
///
/// * **TPOT isolation** — on the mixed long-document + chat trace at a
///   fixed rate, the chat lane's p99 TPOT and the document lane's p99
///   TTFT, chunked versus unchunked, software versus DECA. Chunking bounds
///   the decode stall a monolithic document prefill inflicts on
///   co-resident chats; the document pays its prefill in installments.
/// * **Chunk-budget capacity sweep** (DECA) — the chat rate one replica
///   sustains at the interactive p99 SLO across chunk budgets, locating
///   the knee between stall isolation and per-chunk step overhead.
/// * **Goodput vs acceptance rate** — speculative decoding with a
///   Llama-2-7B draft model against the 70B target on a decode-heavy chat
///   trace: p99 TPOT and SLO goodput as the acceptance rate rises from 0
///   to 1, software versus DECA.
#[must_use]
pub fn chunked_results() -> Json {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let scheme = CompressionScheme::bf8_sparse(0.05);
    let slo = SloTarget::interactive();
    let budget = hbm_kv_budget_tokens(&model, &scheme).expect("Q8_5% fits");
    let config = ServingConfig::paged(CHUNKED_MAX_BATCH, budget, CHUNKED_BLOCK_SIZE)
        .with_prefix_sharing(true);
    let mix = chunked_mix();
    let trace = mix.generate();

    let (isolation_rows, isolation_headline) =
        chunked_isolation_section(&machine, &model, scheme, &config, &mix, &trace);

    // Chunk-budget capacity sweep on DECA: where is the knee? The
    // interactive SLO can never admit a document lane (an 8k-token prefill
    // alone runs ~25 s), so the sweep judges against a document-tolerant
    // target: TTFT bounded by the backlog budget, TPOT by a streaming
    // bound loose enough that only unchunked (or over-coarse) runs blow
    // through it.
    let doc_slo = SloTarget {
        ttft_s: 60.0,
        tpot_s: 2.0,
    };
    let spec = CapacitySpec {
        slo: doc_slo,
        requests: mix.requests(),
        seed: CHUNKED_SEED,
        min_rate: 0.05,
        max_rate: 1.0,
        iterations: 5,
    };
    let mut sweep_cost = EstimatorCostModel::new(
        machine.clone(),
        model.clone(),
        scheme,
        Engine::deca_default(),
    );
    let sweep_points = deca_serve::chunk_budget_capacity_sweep_with(
        &mut sweep_cost,
        &config,
        &spec,
        &[None, Some(256), Some(CHUNKED_BUDGET_TOKENS), Some(2_048)],
        |rate| mix.with_rate(rate).generate(),
    );
    let sweep_rows: Vec<Json> = sweep_points
        .iter()
        .map(|point| {
            Json::obj(vec![
                (
                    "chunk_budget_tokens",
                    point
                        .chunk_budget_tokens
                        .map_or(Json::Null, |b| num(b as f64)),
                ),
                ("max_rate_rps", num(point.capacity.max_rate_rps)),
                ("p99_ttft_s", num(point.capacity.p99_ttft_s)),
                ("p99_tpot_ms", num(point.capacity.p99_tpot_s * 1e3)),
                ("goodput_rps", num(point.capacity.goodput_rps)),
            ])
        })
        .collect();

    let (speculation_rows, speculation_headline) =
        chunked_speculation_section(&machine, &model, scheme, &slo, budget);

    Json::obj(vec![
        ("machine", Json::str(machine.name.clone())),
        ("model", Json::str(model.name().to_string())),
        ("scheme", Json::str(scheme.label())),
        ("block_size", num(CHUNKED_BLOCK_SIZE as f64)),
        ("max_batch", num(CHUNKED_MAX_BATCH as f64)),
        ("chat_rate_rps", num(CHUNKED_CHAT_RATE)),
        ("chat_requests", num(CHUNKED_CHAT_REQUESTS as f64)),
        ("doc_requests", num(mix.doc_requests as f64)),
        ("chunk_budget_tokens", num(CHUNKED_BUDGET_TOKENS as f64)),
        (
            "isolation",
            Json::obj(vec![
                ("engines", Json::Arr(isolation_rows)),
                ("headline", Json::str(isolation_headline)),
            ]),
        ),
        (
            "budget_sweep",
            Json::obj(vec![
                ("slo_ttft_s", num(doc_slo.ttft_s)),
                ("slo_tpot_ms", num(doc_slo.tpot_s * 1e3)),
                ("points", Json::Arr(sweep_rows)),
            ]),
        ),
        (
            "speculation",
            Json::obj(vec![
                (
                    "draft_model",
                    Json::str(LlmModel::llama2_7b().name().to_string()),
                ),
                ("draft_tokens", num(CHUNKED_DRAFT_TOKENS as f64)),
                ("slo_tpot_ms", num(slo.tpot_s * 1e3)),
                ("engines", Json::Arr(speculation_rows)),
                ("headline", Json::str(speculation_headline)),
            ]),
        ),
    ])
}

/// Interactive requests of the multi-tenant experiment's headline trace.
const TENANT_INTERACTIVE_REQUESTS: usize = 48;
/// Bisection refinements of the per-class capacity search.
const TENANT_SEARCH_ITERATIONS: usize = 5;
/// Tokens per KV block of the multi-tenant replicas.
const TENANT_BLOCK_SIZE: usize = 32;
/// Decode batch limit of the multi-tenant replicas.
const TENANT_MAX_BATCH: usize = 16;
/// Weight-token footprint of one LoRA adapter — the weight traffic a
/// cache miss loads, priced like prefilling that many tokens.
const TENANT_ADAPTER_TOKENS: usize = 64;
/// Adapter cache slots of the headline runs: every one of the trace's
/// twelve tenants fits, so after the warmup loads the cache absorbs the
/// churn (the detail rows shrink it to show what thrash costs).
const TENANT_CACHE_SLOTS: usize = 12;
/// Adapter cache slots of the deliberately thrashing detail row.
const TENANT_THRASH_SLOTS: usize = 2;
/// Consecutive Interactive bypasses before a waiting Batch request is
/// promoted to the queue front.
const TENANT_QOS_AGING: usize = 8;
/// Fixed interactive arrival rate of the adapter-cache detail rows
/// (requests/sec).
const TENANT_DETAIL_RATE: f64 = 0.25;
/// p99 TTFT bound of the Batch lane's relaxed SLO (seconds):
/// latency-tolerant, not unbounded — the anti-starvation check.
const TENANT_BATCH_TTFT_S: f64 = 120.0;
/// p99 TPOT bound of the Batch lane's relaxed SLO (seconds).
const TENANT_BATCH_TPOT_S: f64 = 1.0;
/// Documents of the RAG prefix-reuse corpus (eight sessions each).
const TENANT_RAG_DOCUMENTS: usize = 8;
/// Agent runs of the agentic prefix-reuse trace.
const TENANT_AGENT_SESSIONS: usize = 12;
/// Arrival rate of the prefix-reuse rows (requests or sessions per sec).
const TENANT_PREFIX_RATE: f64 = 0.25;
/// Trace seed of the multi-tenant experiment.
const TENANT_SEED: u64 = 47;

/// The mixed interactive/batch LoRA trace of `bench_multitenant` (the
/// interactive rate is substituted per capacity probe; the batch lane
/// scales with it).
fn tenant_mix(interactive_rate: f64) -> MultiTenantSpec {
    MultiTenantSpec::fleet(interactive_rate, TENANT_INTERACTIVE_REQUESTS, TENANT_SEED)
}

/// The Batch lane's relaxed SLO.
fn tenant_batch_slo() -> SloTarget {
    SloTarget {
        ttft_s: TENANT_BATCH_TTFT_S,
        tpot_s: TENANT_BATCH_TPOT_S,
    }
}

/// The JSON fields one service class contributes to a row.
fn tenant_class_fields(prefix: &str, outcome: &ClassOutcome) -> Vec<(String, Json)> {
    vec![
        (format!("{prefix}_p99_ttft_s"), num(outcome.p99_ttft_s)),
        (
            format!("{prefix}_p99_tpot_ms"),
            num(outcome.p99_tpot_s * 1e3),
        ),
        (format!("{prefix}_goodput_rps"), num(outcome.goodput_rps)),
    ]
}

/// The per-class capacity leg of `bench_multitenant`: the highest
/// interactive rate one replica sustains on the mixed LoRA trace while
/// the Interactive lane meets the interactive p99 SLO *and* the Batch
/// lane meets its relaxed SLO (no starvation), per engine — plus the DECA
/// headline with the winning rate's per-class goodput split.
fn tenant_capacity_rows(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    slo: &SloTarget,
) -> (Vec<Json>, String) {
    let workload = tenant_mix(1.0);
    let budget = hbm_kv_budget_tokens(model, scheme).expect("Q8_5% fits");
    let config = ServingConfig::paged(TENANT_MAX_BATCH, budget, TENANT_BLOCK_SIZE)
        .with_adapters(AdapterModel::new(TENANT_ADAPTER_TOKENS, TENANT_CACHE_SLOTS))
        .with_qos_aging(TENANT_QOS_AGING);
    let batch_slo = tenant_batch_slo();
    let spec = CapacitySpec {
        slo: *slo,
        requests: workload.requests(),
        seed: TENANT_SEED,
        min_rate: 0.05,
        max_rate: 16.0,
        iterations: TENANT_SEARCH_ITERATIONS,
    };
    let mut rows = Vec::new();
    let mut headline = String::new();
    for (engine_label, engine) in [
        ("software", Engine::software()),
        ("deca", Engine::deca_default()),
    ] {
        let mut cost = EstimatorCostModel::new(machine.clone(), model.clone(), *scheme, engine);
        let result = qos_capacity_search_with(&mut cost, &config, &spec, &batch_slo, |rate| {
            workload.with_rate(rate).generate()
        });
        if engine_label == "deca" {
            headline = format!(
                "with {} paged LoRA tenants and QoS admission, one DECA socket sustains {:.2} \
                 interactive req/s at the interactive p99 SLO while the batch lane holds its \
                 relaxed SLO un-starved ({:.2} interactive vs {:.2} batch goodput req/s, {} {})",
                workload.tenants,
                result.max_rate_rps,
                result.interactive.goodput_rps,
                result.batch.goodput_rps,
                model.name(),
                scheme.label(),
            );
        }
        let mut row: Vec<(String, Json)> = vec![
            ("engine".to_string(), Json::str(engine_label)),
            ("interactive_rps".to_string(), num(result.max_rate_rps)),
        ];
        row.extend(tenant_class_fields("interactive", &result.interactive));
        row.extend(tenant_class_fields("batch", &result.batch));
        rows.push(Json::Obj(row));
    }
    (rows, headline)
}

/// The adapter-cache leg of `bench_multitenant`: the mixed trace at one
/// fixed rate (DECA) under no adapters, a deliberately thrashing
/// [`TENANT_THRASH_SLOTS`]-slot cache, and the roomy headline cache —
/// per-class tails plus the cache counters that explain the gap — and the
/// QoS fairness counters of the roomy run.
fn tenant_adapter_rows(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    slo: &SloTarget,
) -> (Vec<Json>, Json) {
    let trace = tenant_mix(TENANT_DETAIL_RATE).generate();
    let budget = hbm_kv_budget_tokens(model, scheme).expect("Q8_5% fits");
    let base = ServingConfig::paged(TENANT_MAX_BATCH, budget, TENANT_BLOCK_SIZE)
        .with_qos_aging(TENANT_QOS_AGING);
    let batch_slo = tenant_batch_slo();
    // One warm cost model across the three runs: its answers are pure
    // functions of (batch, context), independent of the adapter config.
    let mut cost = EstimatorCostModel::new(
        machine.clone(),
        model.clone(),
        *scheme,
        Engine::deca_default(),
    );
    let mut rows = Vec::new();
    let mut qos_detail = Json::Null;
    for (label, adapters) in [
        ("no-adapters", AdapterModel::disabled()),
        (
            "thrash",
            AdapterModel::new(TENANT_ADAPTER_TOKENS, TENANT_THRASH_SLOTS),
        ),
        (
            "cached",
            AdapterModel::new(TENANT_ADAPTER_TOKENS, TENANT_CACHE_SLOTS),
        ),
    ] {
        let mut simulator = ServingSimulator::new(cost.clone(), base.with_adapters(adapters));
        let report = simulator.run(&trace);
        cost = simulator.into_cost_model();
        let interactive = report.class_metrics(QosClass::Interactive);
        let batch = report.class_metrics(QosClass::Batch);
        rows.push(Json::obj(vec![
            ("cache", Json::str(label)),
            ("completed", num(report.completed() as f64)),
            ("rejected", num(report.rejected as f64)),
            ("makespan_s", num(report.makespan_s)),
            ("interactive_p99_ttft_s", num(interactive.ttft.p99_s)),
            ("interactive_p99_tpot_ms", num(interactive.tpot.p99_s * 1e3)),
            (
                "interactive_goodput_rps",
                num(report.class_goodput_rps(QosClass::Interactive, slo)),
            ),
            ("batch_p99_ttft_s", num(batch.ttft.p99_s)),
            (
                "batch_goodput_rps",
                num(report.class_goodput_rps(QosClass::Batch, &batch_slo)),
            ),
            ("adapter_loads", num(report.adapters.cache_loads as f64)),
            ("adapter_hits", num(report.adapters.cache_hits as f64)),
            ("adapter_hit_rate", num(report.adapters.hit_rate())),
            ("adapter_evictions", num(report.adapters.evictions as f64)),
            (
                "adapter_reserved_blocks",
                num(report.adapters.reserved_blocks as f64),
            ),
        ]));
        if label == "cached" {
            qos_detail = Json::obj(vec![
                (
                    "interactive_admitted",
                    num(report.qos.interactive_admitted as f64),
                ),
                ("batch_admitted", num(report.qos.batch_admitted as f64)),
                (
                    "interactive_bypasses",
                    num(report.qos.interactive_bypasses as f64),
                ),
                ("aging_promotions", num(report.qos.aging_promotions as f64)),
                (
                    "peak_interactive_run",
                    num(report.qos.peak_interactive_run as f64),
                ),
            ]);
        }
    }
    (rows, qos_detail)
}

/// The prefix-reuse leg of `bench_multitenant`: unique-prompt chat, the
/// RAG corpus (many sessions per shared document), and the agentic
/// tool-loop trace, each served on one paged + prefix-sharing DECA
/// replica — the prefix-cache hit rate is the experiment's RAG-vs-chat
/// headline number.
fn tenant_prefix_rows(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
) -> (Vec<Json>, String) {
    let budget = hbm_kv_budget_tokens(model, scheme).expect("Q8_5% fits");
    let config =
        ServingConfig::paged(TENANT_MAX_BATCH, budget, TENANT_BLOCK_SIZE).with_prefix_sharing(true);
    let rag = RagSpec::fleet(TENANT_PREFIX_RATE, TENANT_RAG_DOCUMENTS, TENANT_SEED);
    let chat = WorkloadSpec::chat(TENANT_PREFIX_RATE, rag.requests(), TENANT_SEED);
    // Agent runs arrive slower than questions: each run fans out into
    // `tool_calls + 1` requests of its own.
    let agent = AgentLoopSpec::fleet(TENANT_PREFIX_RATE / 4.0, TENANT_AGENT_SESSIONS, TENANT_SEED);
    let workloads: [(&str, RequestTrace); 3] = [
        ("chat", chat.generate()),
        ("rag", rag.generate()),
        ("agentic", agent.generate()),
    ];
    let mut cost = EstimatorCostModel::new(
        machine.clone(),
        model.clone(),
        *scheme,
        Engine::deca_default(),
    );
    let mut rows = Vec::new();
    let mut hit_rates = Vec::new();
    for (label, trace) in workloads {
        let mut simulator = ServingSimulator::new(cost.clone(), config);
        let report = simulator.run(&trace);
        cost = simulator.into_cost_model();
        let paged = report.paged.expect("paged run");
        hit_rates.push(paged.prefix_hit_rate());
        rows.push(Json::obj(vec![
            ("workload", Json::str(label)),
            ("requests", num(trace.len() as f64)),
            ("completed", num(report.completed() as f64)),
            ("prefix_hit_rate", num(paged.prefix_hit_rate())),
            ("prefix_hit_tokens", num(paged.prefix_hit_tokens as f64)),
            (
                "prefix_uncached_tokens",
                num(paged.prefix_uncached_tokens as f64),
            ),
            ("p99_ttft_s", num(report.metrics().ttft.p99_s)),
        ]));
    }
    let headline = format!(
        "on one paged + prefix-sharing DECA socket, RAG sessions over {TENANT_RAG_DOCUMENTS} \
         shared documents reuse {:.0}% of their prompt tokens from the radix cache versus \
         {:.0}% for unique-prompt chat (agentic tool loops: {:.0}%)",
        hit_rates[1] * 100.0,
        hit_rates[0] * 100.0,
        hit_rates[2] * 100.0,
    );
    (rows, headline)
}

/// The multi-tenant serving experiment (`bench_multitenant`):
///
/// * **Per-class capacity** — on the mixed interactive/batch LoRA trace
///   (twelve tenant adapters paged through the block pool), the highest
///   interactive rate one replica sustains with the Interactive lane at
///   the interactive p99 SLO and the Batch lane within its relaxed SLO
///   under priority admission with aging, software versus DECA.
/// * **Adapter cache** — the same trace at a fixed rate under no
///   adapters, a thrashing two-slot cache, and the roomy headline cache:
///   cache-miss weight loads are priced like prefill, so thrash shows up
///   directly in the makespan and the batch lane's tail.
/// * **Prefix reuse** — chat vs RAG vs agentic traces on a paged +
///   prefix-sharing replica: the RAG corpus's shared documents and the
///   agents' growing transcripts turn into radix-cache hits that
///   unique-prompt chat cannot get.
#[must_use]
pub fn multitenant_results() -> Json {
    let machine = MachineConfig::spr_hbm();
    let model = LlmModel::llama2_70b();
    let scheme = CompressionScheme::bf8_sparse(0.05);
    let slo = SloTarget::interactive();

    let (capacity_rows, capacity_headline) = tenant_capacity_rows(&machine, &model, &scheme, &slo);
    let (adapter_rows, qos_detail) = tenant_adapter_rows(&machine, &model, &scheme, &slo);
    let (prefix_rows, prefix_headline) = tenant_prefix_rows(&machine, &model, &scheme);

    Json::obj(vec![
        ("machine", Json::str(machine.name.clone())),
        ("model", Json::str(model.name().to_string())),
        ("scheme", Json::str(scheme.label())),
        ("block_size", num(TENANT_BLOCK_SIZE as f64)),
        ("max_batch", num(TENANT_MAX_BATCH as f64)),
        ("tenants", num(tenant_mix(1.0).tenants as f64)),
        ("adapter_weight_tokens", num(TENANT_ADAPTER_TOKENS as f64)),
        ("adapter_cache_slots", num(TENANT_CACHE_SLOTS as f64)),
        ("qos_aging", num(TENANT_QOS_AGING as f64)),
        ("interactive_slo_ttft_s", num(slo.ttft_s)),
        ("interactive_slo_tpot_ms", num(slo.tpot_s * 1e3)),
        ("batch_slo_ttft_s", num(TENANT_BATCH_TTFT_S)),
        ("batch_slo_tpot_ms", num(TENANT_BATCH_TPOT_S * 1e3)),
        (
            "capacity",
            Json::obj(vec![
                ("engines", Json::Arr(capacity_rows)),
                ("headline", Json::str(capacity_headline)),
            ]),
        ),
        (
            "adapter_cache",
            Json::obj(vec![
                ("rate_rps", num(TENANT_DETAIL_RATE)),
                ("rows", Json::Arr(adapter_rows)),
                ("qos", qos_detail),
            ]),
        ),
        (
            "prefix_reuse",
            Json::obj(vec![
                ("rows", Json::Arr(prefix_rows)),
                ("headline", Json::str(prefix_headline)),
            ]),
        ),
    ])
}

/// Sessions in the sim-speed trace: a million in release, the "millions
/// of users" scale, run once in CI by the baseline regeneration. The one
/// workload a debug build shrinks: there `PrefixCache::evict_lru_demoting`'s
/// `debug_assert_eq!` reruns an O(resident) victim scan on every eviction,
/// so on a shared 2-vCPU host the paged+prefix row took 88 s at 50k
/// sessions, while 2,000 sessions run all three rows in about 2.5 s.
const SIMSPEED_SESSIONS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    1_000_000
};
/// Decode batch limit of the sim-speed replica.
const SIMSPEED_MAX_BATCH: usize = 64;
/// KV budget (tokens) of the sim-speed replica: roomy enough that the
/// reserve-up-front policies rarely queue, tight enough to stay realistic.
const SIMSPEED_KV_BUDGET: usize = 100_000;

/// One sim-speed row: stream the deterministic workload under `config`
/// through the event core and record the simulated makespan, the
/// simulated-time throughput and the step/queue counters that pin the
/// simulation itself. The workload streams through
/// [`ServingSimulator::run_streamed`] — arrivals are generated lazily and
/// request slots recycled, so the run never materializes the million-entry
/// trace. How long the host takes is perfbench's `chat_stream` figure,
/// not this row's.
fn simspeed_row(policy: &str, sessions: usize, config: &ServingConfig) -> Json {
    let spec = SharedPrefixChatSpec::simspeed(sessions);
    let stream = spec.stream();
    let requests = stream.len();
    let report = ServingSimulator::new(deca_serve::LinearCostModel::default_70b(), *config)
        .run_streamed(stream);
    Json::obj(vec![
        ("policy", Json::str(policy)),
        ("sessions", num(sessions as f64)),
        ("requests", num(requests as f64)),
        ("completed", num(report.completed() as f64)),
        ("rejected", num(report.rejected as f64)),
        ("admitted", num(report.admitted as f64)),
        ("makespan_s", num(report.makespan_s)),
        (
            // Sessions per second of *simulated* time: how much serving
            // the modeled replica sustains, fixed by the trace and the
            // cost model.
            "sessions_per_sim_sec",
            num(if report.makespan_s > 0.0 {
                sessions as f64 / report.makespan_s
            } else {
                0.0
            }),
        ),
        ("decode_steps", num(report.decode_steps as f64)),
        ("prefill_steps", num(report.prefill_steps as f64)),
        ("peak_batch", num(report.peak_batch as f64)),
        ("peak_queue_depth", num(report.peak_queue_depth as f64)),
    ])
}

/// The simulator-speed experiment (`bench_simspeed`): the deterministic
/// [`SharedPrefixChatSpec::simspeed`] workload streamed through the event
/// core at million-session scale, pinning its modeled counters over two
/// million requests. Three rows, all at the full session count:
/// continuous batching, paged (no sharing), and paged + prefix sharing.
#[must_use]
pub fn simspeed_results() -> Json {
    let continuous = ServingConfig::continuous(SIMSPEED_MAX_BATCH, SIMSPEED_KV_BUDGET);
    let paged = ServingConfig::paged(SIMSPEED_MAX_BATCH, SIMSPEED_KV_BUDGET, 16);
    let rows = vec![
        simspeed_row("continuous", SIMSPEED_SESSIONS, &continuous),
        simspeed_row("paged", SIMSPEED_SESSIONS, &paged),
        simspeed_row(
            "paged+prefix",
            SIMSPEED_SESSIONS,
            &ServingConfig {
                prefix_sharing: true,
                ..paged
            },
        ),
    ];
    Json::obj(vec![
        ("max_batch", num(SIMSPEED_MAX_BATCH as f64)),
        ("kv_budget_tokens", num(SIMSPEED_KV_BUDGET as f64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Runs one registered experiment, wrapping its results with the name —
/// the record shape `collect` assembles.
fn experiment_record((name, run): (&str, ExperimentFn)) -> Json {
    Json::obj(vec![("name", Json::str(name)), ("results", run())])
}

/// An experiment runner, as registered in [`experiments`].
pub type ExperimentFn = fn() -> Json;

/// The baseline experiment registry, in document order — the single list
/// [`collect`] runs.
#[must_use]
pub fn experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("roofsurface", roofsurface_results),
        ("pipeline", pipeline_results),
        ("llm_latency", llm_latency_results),
        ("bench_serving", serving_results),
        ("bench_sharding", sharding_results),
        ("bench_paged", paged_results),
        ("bench_disagg", disagg_results),
        ("bench_simspeed", simspeed_results),
        ("bench_chunked", chunked_results),
        ("bench_multitenant", multitenant_results),
        ("paper", paper_results),
    ]
}

/// Runs every baseline experiment and assembles the full document.
#[must_use]
pub fn collect() -> Json {
    document(experiments().into_iter().map(experiment_record).collect())
}

/// The document around experiment records: the schema version, the
/// regeneration command, then the records in order.
fn document(records: Vec<Json>) -> Json {
    Json::obj(vec![
        ("schema_version", num(f64::from(SCHEMA_VERSION))),
        ("command", Json::str(REGENERATE_COMMAND)),
        ("experiments", Json::Arr(records)),
    ])
}

/// Writes `doc` to `path` as compact JSON with each record of the
/// top-level `experiments` array on a line of its own, so `git diff`
/// names the experiments a change moved, and a trailing newline.
///
/// # Errors
///
/// Propagates the I/O error when the path cannot be written.
pub fn write_artifact(path: &std::path::Path, doc: &Json) -> std::io::Result<()> {
    let text = match doc {
        Json::Obj(entries) => {
            let fields: Vec<String> = entries
                .iter()
                .map(|(key, value)| {
                    let value = match value {
                        Json::Arr(records) if key == "experiments" => {
                            let lines: Vec<String> = records.iter().map(Json::render).collect();
                            format!("[\n{}\n]", lines.join(",\n"))
                        }
                        other => other.render(),
                    };
                    format!("{}:{value}", Json::str(key.as_str()).render())
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        other => other.render(),
    };
    std::fs::write(path, text + "\n")
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// The one record whose workload depends on the build profile.
    const PROFILE_DEPENDENT: &str = "bench_simspeed";

    fn find<'a>(obj: &'a Json, key: &str) -> &'a Json {
        match obj {
            Json::Obj(entries) => {
                &entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("missing key {key}"))
                    .1
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    /// The record of the registered experiment `name`, computed at most
    /// once per test binary: the first test that asks runs the
    /// experiment, and every other test, concurrent or later, reads
    /// that record.
    fn record(name: &str) -> &'static Json {
        type Entry = (&'static str, ExperimentFn, OnceLock<Json>);
        static REGISTRY: OnceLock<Vec<Entry>> = OnceLock::new();
        let (name, run, cell) = REGISTRY
            .get_or_init(|| {
                experiments()
                    .into_iter()
                    .map(|(name, run)| (name, run, OnceLock::new()))
                    .collect()
            })
            .iter()
            .find(|(registered, _, _)| *registered == name)
            .unwrap_or_else(|| panic!("{name} is not a registered experiment"));
        cell.get_or_init(|| experiment_record((name, *run)))
    }

    /// The results of the registered experiment `name`.
    fn results(name: &str) -> &'static Json {
        find(record(name), "results")
    }

    /// The document `collect` assembles, from the shared records.
    fn assembled() -> Json {
        document(
            experiments()
                .iter()
                .map(|(name, _)| record(name).clone())
                .collect(),
        )
    }

    fn committed() -> Json {
        crate::drift::parse(include_str!("../../../BENCH_baseline.json"))
            .expect("the committed baseline must parse")
    }

    /// The committed file and the assembled document both hold the
    /// current schema version and command, then one `{name, results}`
    /// record per registered experiment, in registry order.
    #[test]
    fn document_has_all_experiments() {
        let registered: Vec<&str> = experiments().iter().map(|(name, _)| *name).collect();
        for (which, doc) in [("committed", committed()), ("assembled", assembled())] {
            let Json::Obj(fields) = &doc else {
                panic!("the {which} document must be an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["schema_version", "command", "experiments"],
                "{which}"
            );
            assert_eq!(
                find(&doc, "schema_version"),
                &num(f64::from(SCHEMA_VERSION)),
                "{which}"
            );
            assert_eq!(
                find(&doc, "command"),
                &Json::str(REGENERATE_COMMAND),
                "{which}"
            );
            let Json::Arr(records) = find(&doc, "experiments") else {
                panic!("the {which} experiments must be an array");
            };
            let names: Vec<&str> = records
                .iter()
                .map(|record| {
                    let Json::Obj(fields) = record else {
                        panic!("a {which} record must be an object");
                    };
                    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, ["name", "results"], "{which}");
                    match find(record, "name") {
                        Json::Str(s) => s.as_str(),
                        other => panic!("a {which} name must be a string, got {other:?}"),
                    }
                })
                .collect();
            assert_eq!(
                names, registered,
                "the {which} records must follow the registry"
            );
        }
    }

    /// Pins the baseline inside `cargo test`: every registered
    /// experiment but the profile-dependent `bench_simspeed` runs its
    /// committed workload in a debug build too, so each must reproduce
    /// its committed `BENCH_baseline.json` record exactly. A one-ulp
    /// drift in any modeled number, or a printed digit moving in any
    /// paper table, fails here with the record and path, not only in
    /// CI's regeneration. A newly registered experiment fails here until
    /// its record is committed.
    #[test]
    fn every_record_but_simspeed_matches_the_committed_baseline() {
        let committed = committed();
        let Json::Arr(records) = find(&committed, "experiments") else {
            panic!("experiments must be an array");
        };
        let mut failures = Vec::new();
        for (name, _) in experiments() {
            if name == PROFILE_DEPENDENT {
                continue;
            }
            let Some(pinned) = records
                .iter()
                .find(|record| matches!(find(record, "name"), Json::Str(s) if s == name))
            else {
                failures.push(format!("{name} is not committed"));
                continue;
            };
            // Through the file's own text, so a non-finite number compares
            // as the `null` the artifact stores.
            let fresh =
                crate::drift::parse(&record(name).render()).expect("a rendered record must parse");
            let lines = crate::drift::diff(pinned, &fresh);
            if !lines.is_empty() {
                failures.push(format!("{name} drifted:\n  {}", lines.join("\n  ")));
            }
        }
        assert!(
            failures.is_empty(),
            "{}\n(if intentional, regenerate with: {REGENERATE_COMMAND})",
            failures.join("\n")
        );
    }

    #[test]
    fn write_then_check_is_clean() {
        let path = std::env::temp_dir().join(format!(
            "deca_bench_write_roundtrip_{}.json",
            std::process::id()
        ));
        let document = assembled();
        write_artifact(&path, &document).expect("artifact must be writable");
        let text = std::fs::read_to_string(&path).expect("artifact must read back");
        std::fs::remove_file(&path).ok();
        assert!(text.ends_with('\n'), "artifact must end with a newline");
        // One line opens the document, one closes it, and each record
        // sits on a line of its own in between.
        let Json::Arr(records) = find(&document, "experiments") else {
            panic!("experiments must be an array");
        };
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), records.len() + 2);
        for (line, record) in lines[1..].iter().zip(records) {
            assert_eq!(line.trim_end_matches(','), record.render());
        }
        let reparsed = crate::drift::parse(&text).expect("artifact must reparse");
        let lines = crate::drift::diff(&reparsed, &document);
        assert!(lines.is_empty(), "write-then-check drifted: {lines:?}");
    }

    /// `bench_simspeed`'s rows at this build's session count: the three
    /// policies in order, each conserving the trace and keeping its batch
    /// within the limit.
    #[test]
    fn simspeed_results_show_every_policy_conserving_the_trace() {
        let simspeed = results(PROFILE_DEPENDENT);
        let Json::Arr(rows) = find(simspeed, "rows") else {
            panic!("rows must be an array");
        };
        let policies: Vec<&Json> = rows.iter().map(|row| find(row, "policy")).collect();
        assert_eq!(
            policies,
            [
                &Json::str("continuous"),
                &Json::str("paged"),
                &Json::str("paged+prefix")
            ]
        );
        for row in rows {
            let count = |key: &str| match find(row, key) {
                Json::Num(v) => *v,
                other => panic!("{key} must be a number, got {other:?}"),
            };
            assert_eq!(count("sessions"), SIMSPEED_SESSIONS as f64);
            assert!(count("completed") > 0.0, "{row:?}");
            assert_eq!(count("completed") + count("rejected"), count("requests"));
            assert_eq!(count("admitted"), count("completed"));
            assert!(count("peak_batch") <= SIMSPEED_MAX_BATCH as f64, "{row:?}");
        }
    }

    #[test]
    fn pipeline_results_report_deca_speedups() {
        let Json::Arr(kernels) = find(results("pipeline"), "kernels") else {
            panic!("kernels must be an array");
        };
        assert!(!kernels.is_empty());
        for kernel in kernels {
            for key in [
                "software_tflops",
                "deca_tflops",
                "software_cycles_per_tile",
                "deca_cycles_per_tile",
                "deca_speedup_vs_software",
            ] {
                match find(kernel, key) {
                    Json::Num(v) => assert!(v.is_finite() && *v > 0.0, "{key} = {v}"),
                    other => panic!("{key} must be a number, got {other:?}"),
                }
            }
        }
    }

    fn try_find<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
        match obj {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[test]
    fn serving_results_show_deca_capacity_advantage() {
        let serving = results("bench_serving");
        let Json::Arr(rows) = find(serving, "capacity") else {
            panic!("capacity must be an array");
        };
        assert_eq!(rows.len(), 3);
        for row in rows {
            // DECA always sustains some load at the interactive SLO.
            match find(row, "deca_rps") {
                Json::Num(v) => assert!(v.is_finite() && *v > 0.0, "deca_rps = {v}"),
                other => panic!("deca_rps must be a number, got {other:?}"),
            }
            // The ratio is present exactly when software met the SLO at
            // all, and it is then strictly above 1: DECA serves more load
            // per socket than software decompression on every scheme.
            let Json::Num(sw) = find(row, "software_rps") else {
                panic!("software_rps must be a number");
            };
            match (*sw > 0.0, try_find(row, "deca_vs_software")) {
                (true, Some(Json::Num(ratio))) => {
                    assert!(*ratio > 1.0, "DECA vs software capacity ratio {ratio}");
                }
                (false, None) => {} // software cannot meet the SLO at all
                (present, ratio) => {
                    panic!("software_rps>0 = {present} inconsistent with ratio {ratio:?}")
                }
            }
        }
        match find(serving, "headline") {
            Json::Str(s) => assert!(s.contains("DECA sustains"), "{s}"),
            other => panic!("headline must be a string, got {other:?}"),
        }
        // Continuous batching beats static batching on goodput for the
        // bursty workload.
        match find(serving, "continuous_vs_static_goodput") {
            Json::Num(ratio) => assert!(*ratio > 1.0, "continuous vs static goodput {ratio}"),
            other => panic!("goodput ratio must be a number, got {other:?}"),
        }
    }

    /// The sharding experiment's acceptance shape: at least one Table 4
    /// scheme fails the one-socket HBM fit with its KV working set but
    /// meets the interactive p99 SLO at TP ≥ 2 with DECA.
    #[test]
    fn sharding_results_show_a_scheme_served_only_by_sharding() {
        let sharding = results("bench_sharding");
        let Json::Arr(schemes) = find(sharding, "schemes") else {
            panic!("schemes must be an array");
        };
        assert_eq!(schemes.len(), 3);
        let mut criterion_met = false;
        for row in schemes {
            let one_socket = find(row, "one_socket");
            let Json::Bool(fits_working_set) = find(one_socket, "fits_working_set") else {
                panic!("fits_working_set must be a bool");
            };
            let deca_min = try_find(row, "deca_min_sockets");
            if let (false, Some(Json::Num(sockets))) = (*fits_working_set, deca_min) {
                assert!(*sockets >= 2.0, "sharding must take at least 2 sockets");
                criterion_met = true;
            }
            // Every scheme reports a full TP curve with positive latencies.
            let Json::Arr(curve) = find(row, "tp_curve") else {
                panic!("tp_curve must be an array");
            };
            assert_eq!(curve.len(), 4);
            for point in curve {
                match find(point, "software_ms") {
                    Json::Num(ms) => assert!(ms.is_finite() && *ms > 0.0),
                    other => panic!("software_ms must be a number, got {other:?}"),
                }
            }
        }
        assert!(
            criterion_met,
            "some Table 4 scheme must fail one socket but serve at TP >= 2 with DECA"
        );
        match find(sharding, "headline") {
            Json::Str(s) => assert!(s.contains("sockets"), "{s}"),
            other => panic!("headline must be a string, got {other:?}"),
        }
    }

    /// The paged experiment's acceptance shape: paged+prefix serves
    /// strictly more sessions/sec at the p99 SLO than reserve-up-front on
    /// the shared-prefix trace (every engine × sharding cell), the prefix
    /// hit rate is positive, and the overload scenario exercises the
    /// preemption counters while conserving the trace.
    #[test]
    fn paged_results_show_the_paged_prefix_capacity_win() {
        let paged = results("bench_paged");
        let Json::Arr(shards) = find(paged, "capacity") else {
            panic!("capacity must be an array");
        };
        assert_eq!(shards.len(), 2, "TP1 and TP2");
        for shard in shards {
            let Json::Arr(engines) = find(shard, "engines") else {
                panic!("engines must be an array");
            };
            assert_eq!(engines.len(), 2, "software and DECA");
            for engine_row in engines {
                let Json::Arr(policies) = find(engine_row, "policies") else {
                    panic!("policies must be an array");
                };
                assert_eq!(policies.len(), 3);
                let rate = |row: &Json| match find(row, "sessions_per_sec") {
                    Json::Num(v) => *v,
                    other => panic!("sessions_per_sec must be a number, got {other:?}"),
                };
                let reserve = rate(&policies[0]);
                let paged_only = rate(&policies[1]);
                let paged_prefix = rate(&policies[2]);
                assert!(
                    paged_prefix > reserve,
                    "paged+prefix ({paged_prefix}) must beat reserve ({reserve})"
                );
                assert!(
                    paged_only >= reserve,
                    "paged ({paged_only}) must not lose to reserve ({reserve})"
                );
                // The ratio is present exactly when reserve-up-front met
                // the SLO at all, and is then strictly above 1.
                match (
                    reserve > 0.0,
                    try_find(engine_row, "paged_prefix_vs_reserve"),
                ) {
                    (true, Some(Json::Num(ratio))) => assert!(*ratio > 1.0, "ratio {ratio}"),
                    (false, None) => {}
                    (present, ratio) => {
                        panic!("reserve>0 = {present} inconsistent with ratio {ratio:?}")
                    }
                }
            }
        }
        match find(paged, "headline") {
            Json::Str(s) => assert!(s.contains("paged+prefix"), "{s}"),
            other => panic!("headline must be a string, got {other:?}"),
        }
        // The fixed-load detail reports a positive hit rate for the
        // prefix-sharing policy (and only for it).
        let Json::Arr(detail) = find(paged, "detail") else {
            panic!("detail must be an array");
        };
        assert_eq!(detail.len(), 3);
        match find(&detail[2], "prefix_hit_rate") {
            Json::Num(rate) => assert!(*rate > 0.0, "hit rate {rate}"),
            other => panic!("prefix_hit_rate must be a number, got {other:?}"),
        }
        match find(&detail[1], "prefix_hit_rate") {
            Json::Num(rate) => assert_eq!(*rate, 0.0, "no sharing, no hits"),
            other => panic!("prefix_hit_rate must be a number, got {other:?}"),
        }
        // Overload: preemptions fired and the trace is conserved.
        let overload = find(paged, "overload");
        match find(overload, "preemptions") {
            Json::Num(n) => assert!(*n > 0.0, "preemptions {n}"),
            other => panic!("preemptions must be a number, got {other:?}"),
        }
        let count = |key: &str| match find(overload, key) {
            Json::Num(v) => *v,
            other => panic!("{key} must be a number, got {other:?}"),
        };
        assert_eq!(count("completed") + count("rejected"), count("offered"));
    }

    /// The disagg experiment's acceptance shape: on the cold-return trace,
    /// tiered KV offload sustains strictly more sessions/sec at the p99
    /// SLO than preempt-by-recompute, and on the long-document trace the
    /// best prefill/decode pool split beats the colocated fleet of the
    /// same socket count — for BOTH engines — with the tier counters
    /// proving the swap path actually fired.
    #[test]
    fn disagg_results_show_the_swap_and_pool_split_wins() {
        let disagg = results("bench_disagg");
        let rate = |row: &Json, key: &str| match find(row, key) {
            Json::Num(v) => *v,
            other => panic!("{key} must be a number, got {other:?}"),
        };

        let swap = find(disagg, "swap");
        let Json::Arr(swap_engines) = find(swap, "engines") else {
            panic!("swap engines must be an array");
        };
        assert_eq!(swap_engines.len(), 2, "software and DECA");
        for row in swap_engines {
            let recompute = rate(row, "recompute_rps");
            let tiered = rate(row, "tiered_rps");
            assert!(
                tiered > recompute,
                "tiered ({tiered}) must beat recompute ({recompute})"
            );
            match (recompute > 0.0, try_find(row, "tiered_vs_recompute")) {
                (true, Some(Json::Num(ratio))) => assert!(*ratio > 1.0, "ratio {ratio}"),
                (false, None) => {}
                (present, ratio) => {
                    panic!("recompute>0 = {present} inconsistent with ratio {ratio:?}")
                }
            }
        }
        // The mechanism fired: swaps and promotions happened, and the
        // tiered run prefilled strictly fewer tokens at the same rate.
        let detail = find(swap, "detail");
        assert!(rate(detail, "tier_promotions") > 0.0, "promotions fired");
        assert!(
            rate(detail, "tiered_prefilled_tokens") < rate(detail, "recompute_prefilled_tokens"),
            "promotion must replace prefill compute"
        );
        assert_eq!(rate(detail, "swap_outs"), rate(detail, "swap_ins"));
        match find(swap, "headline") {
            Json::Str(s) => assert!(s.contains("DDR KV offload"), "{s}"),
            other => panic!("headline must be a string, got {other:?}"),
        }

        let pools = find(disagg, "pools");
        let Json::Arr(pool_engines) = find(pools, "engines") else {
            panic!("pool engines must be an array");
        };
        assert_eq!(pool_engines.len(), 2, "software and DECA");
        for row in pool_engines {
            let colocated = rate(row, "colocated_rps");
            let disagg_rps = rate(row, "disagg_rps");
            assert!(
                disagg_rps > colocated,
                "disagg ({disagg_rps}) must beat colocated ({colocated})"
            );
            let Json::Arr(splits) = find(row, "splits") else {
                panic!("splits must be an array");
            };
            assert_eq!(splits.len(), DISAGG_SOCKETS - 1, "every partition probed");
        }
        match find(pools, "headline") {
            Json::Str(s) => assert!(s.contains("prefill"), "{s}"),
            other => panic!("headline must be a string, got {other:?}"),
        }
    }

    /// The multi-tenant experiment's acceptance shape: DECA sustains a
    /// positive interactive rate with the batch lane un-starved, the
    /// thrashing adapter cache pays for its misses where the roomy one
    /// hits, and the RAG corpus reuses prefix tokens unique-prompt chat
    /// cannot.
    #[test]
    fn multitenant_results_show_per_class_service() {
        let mt = results("bench_multitenant");
        let rate = |row: &Json, key: &str| match find(row, key) {
            Json::Num(v) => *v,
            other => panic!("{key} must be a number, got {other:?}"),
        };

        let capacity = find(mt, "capacity");
        let Json::Arr(engines) = find(capacity, "engines") else {
            panic!("capacity engines must be an array");
        };
        assert_eq!(engines.len(), 2, "software and DECA");
        let deca = &engines[1];
        assert!(
            rate(deca, "interactive_rps") > 0.0,
            "DECA must sustain some interactive load"
        );
        assert!(
            rate(deca, "batch_goodput_rps") > 0.0,
            "the batch lane must not be starved at the winning rate"
        );
        match find(capacity, "headline") {
            Json::Str(s) => assert!(s.contains("interactive"), "{s}"),
            other => panic!("headline must be a string, got {other:?}"),
        }

        // Adapter cache: no adapters → no loads; thrash evicts and
        // re-loads what the roomy cache keeps resident.
        let cache = find(mt, "adapter_cache");
        let Json::Arr(rows) = find(cache, "rows") else {
            panic!("adapter rows must be an array");
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rate(&rows[0], "adapter_loads"), 0.0, "disabled model");
        assert!(
            rate(&rows[1], "adapter_loads") > rate(&rows[2], "adapter_loads"),
            "thrash must re-load what the roomy cache hits"
        );
        assert!(rate(&rows[1], "adapter_evictions") > 0.0);
        assert!(
            rate(&rows[2], "adapter_hit_rate") > rate(&rows[1], "adapter_hit_rate"),
            "the roomy cache must hit more"
        );
        assert!(
            rate(&rows[1], "makespan_s") > rate(&rows[2], "makespan_s"),
            "cache misses are priced as weight traffic, so thrash runs longer"
        );
        let qos = find(cache, "qos");
        assert!(rate(qos, "batch_admitted") > 0.0, "batch lane served");
        assert!(
            rate(qos, "peak_interactive_run") <= TENANT_QOS_AGING as f64,
            "aging must bound the interactive run"
        );

        // Prefix reuse: chat shares nothing; RAG and agents share a lot.
        let prefix = find(mt, "prefix_reuse");
        let Json::Arr(workloads) = find(prefix, "rows") else {
            panic!("prefix rows must be an array");
        };
        assert_eq!(workloads.len(), 3);
        assert_eq!(rate(&workloads[0], "prefix_hit_rate"), 0.0, "unique chat");
        assert!(
            rate(&workloads[1], "prefix_hit_rate") > 0.5,
            "RAG sessions must reuse their shared documents"
        );
        assert!(
            rate(&workloads[2], "prefix_hit_rate") > rate(&workloads[0], "prefix_hit_rate"),
            "agent transcripts must reuse their own history"
        );
    }

    #[test]
    fn llm_results_cover_both_models_and_render() {
        let rendered = results("llm_latency").render();
        assert!(rendered.contains("Llama2-70B"));
        assert!(rendered.contains("OPT-66B"));
        assert!(rendered.contains("deca_speedup"));
    }
}
