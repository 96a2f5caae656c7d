//! Fleet-level sweeps: multi-replica and disaggregated simulation, the SLO
//! capacity search that turns "DECA vs software decompression" into
//! "requests/sec per socket at a p99 SLO", and the sharding sweep that
//! answers "how many sockets does a scheme need to hold its KV working set
//! *and* hit the p99 SLO?".
//!
//! Every capacity search borrows one cost model (`cost: &mut C` with
//! `C: Clone`): a single-replica search hands it back with its memo warm,
//! a fleet or pool-split search runs a clone of it on every socket. Every
//! search, and the sharding sweep, judges a run by one p99 rule.

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::{footprint, InterconnectModel, LlmModel, ShardSpec};
use deca_roofsurface::MachineConfig;

use crate::cost::{DecodePoolCostModel, EstimatorCostModel, ServingCostModel};
use crate::metrics::{percentile, RequestRecord, ServingMetrics, SloTarget};
use crate::scheduler::{ServingConfig, ServingReport, ServingSimulator, SpeculationSpec};
use crate::tenant::QosClass;
use crate::tier::KvShipSpec;
use crate::workload::{Request, RequestTrace, WorkloadSpec};

/// The KV budget (tokens) one socket's HBM headroom sustains for a
/// model/scheme, or `None` when the compressed weights alone do not fit in
/// HBM (such schemes cannot be served from one socket at all — the paper
/// simulates them with larger capacity; [`sharding_sweep`] shards them).
#[must_use]
pub fn hbm_kv_budget_tokens(model: &LlmModel, scheme: &CompressionScheme) -> Option<usize> {
    footprint::max_kv_tokens(model, scheme, &ShardSpec::single()).map(|tokens| tokens as usize)
}

/// What a sharding sweep demands of every candidate plan: hold a KV
/// working set of `required_kv_tokens` and serve `workload` within `slo`
/// at the 99th percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardingSearchSpec {
    /// The p99 objective a feasible plan must meet.
    pub slo: SloTarget,
    /// The workload simulated against every servable plan.
    pub workload: WorkloadSpec,
    /// Decode batch limit of the sharded replica.
    pub max_batch: usize,
    /// KV-token working set the plan must be able to hold (e.g. target
    /// concurrent sequences × target context). Plans whose sharded KV
    /// budget falls short are unservable and skip the simulation.
    pub required_kv_tokens: usize,
}

/// The outcome of one sharding plan under a [`ShardingSearchSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardingPlanResult {
    /// The plan.
    pub spec: ShardSpec,
    /// The plan's sharded KV budget (`None`: the weights don't fit, or a
    /// pipeline stage holds no layers).
    pub kv_budget_tokens: Option<usize>,
    /// Whether the plan fits the weights *and* the required KV working set
    /// (only servable plans are simulated).
    pub servable: bool,
    /// Whether the simulated p99 TTFT/TPOT met the SLO with no rejections.
    pub feasible: bool,
    /// p99 TTFT of the simulated run, seconds (0 when not simulated).
    pub p99_ttft_s: f64,
    /// p99 TPOT of the simulated run, seconds (0 when not simulated).
    pub p99_tpot_s: f64,
    /// SLO goodput of the simulated run, requests/sec (0 when not
    /// simulated).
    pub goodput_rps: f64,
}

/// Evaluates every candidate sharding plan against the search spec: the
/// sharded KV budget ([`footprint::max_kv_tokens`]) gates servability, and
/// servable plans run the full serving simulation (sharded cost model,
/// continuous batching) to check the p99 SLO. A plan with more pipeline
/// stages than the model has layers has no budget, so it is reported
/// unservable. Deterministic: the same inputs always produce the same
/// results.
#[must_use]
pub fn sharding_sweep(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    engine: Engine,
    interconnect: InterconnectModel,
    plans: &[ShardSpec],
    search: &ShardingSearchSpec,
) -> Vec<ShardingPlanResult> {
    let trace = search.workload.generate();
    plans
        .iter()
        .map(|&spec| {
            let kv_budget_tokens =
                footprint::max_kv_tokens(model, scheme, &spec).map(|tokens| tokens as usize);
            let servable = kv_budget_tokens.is_some_and(|b| b >= search.required_kv_tokens);
            let result = ShardingPlanResult {
                spec,
                kv_budget_tokens,
                servable,
                feasible: false,
                p99_ttft_s: 0.0,
                p99_tpot_s: 0.0,
                goodput_rps: 0.0,
            };
            if !servable {
                return result;
            }
            let budget = kv_budget_tokens.expect("servable implies a budget");
            let cost = EstimatorCostModel::sharded(
                machine.clone(),
                model.clone(),
                *scheme,
                engine,
                spec,
                interconnect,
            );
            let config = ServingConfig::continuous(search.max_batch, budget);
            let report = ServingSimulator::new(cost, config).run(&trace);
            let goodput = report.goodput_rps(&search.slo);
            let (feasible, tail) =
                judge_probe(&report.records, report.rejected, goodput, &search.slo);
            ShardingPlanResult {
                feasible,
                p99_ttft_s: tail.p99_ttft_s,
                p99_tpot_s: tail.p99_tpot_s,
                goodput_rps: tail.goodput_rps,
                ..result
            }
        })
        .collect()
}

/// One replica's share plus its report, and the fleet aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Replica count.
    pub replicas: usize,
    /// Per-replica reports, in load-balancer order.
    pub reports: Vec<ServingReport>,
}

impl FleetReport {
    /// All completed records across the fleet.
    #[must_use]
    pub fn records(&self) -> Vec<RequestRecord> {
        let mut all: Vec<RequestRecord> = self
            .reports
            .iter()
            .flat_map(|r| r.records.iter().copied())
            .collect();
        all.sort_by_key(|r| r.id);
        all
    }

    /// Fleet makespan: the slowest replica's.
    #[must_use]
    pub fn makespan_s(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.makespan_s)
            .fold(0.0, f64::max)
    }

    /// Total rejected across the fleet.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.reports.iter().map(|r| r.rejected).sum()
    }
}

/// Simulates a fleet of identical replicas behind a round-robin load
/// balancer, with one cost model per replica drawn from `cost`. The trace
/// is split round-robin across the replicas; every request lands on
/// exactly one, so a fleet run conserves the trace.
///
/// Replicas are independent simulations, so they fan out across OS
/// threads with `std::thread::scope`, banded round-robin over the
/// available cores the same way `ParallelMatrixEngine` bands tiles. The
/// cost-model factory still runs serially in replica order on the calling
/// thread (it is `FnMut` and may carry warm caches), and the reports are
/// reassembled in load-balancer order — the result is byte-identical to
/// the sequential loop.
///
/// # Panics
///
/// Panics if `replicas` is zero, or if a replica's simulation panics on
/// its worker thread.
pub fn simulate_fleet_with<C, F>(
    mut cost: F,
    config: &ServingConfig,
    replicas: usize,
    trace: &RequestTrace,
) -> FleetReport
where
    C: crate::cost::ServingCostModel + Send,
    F: FnMut() -> C,
{
    let shards = trace.split_round_robin(replicas);
    // Build every replica's cost model up front, in replica order.
    let mut jobs: Vec<(usize, RequestTrace, C)> = shards
        .into_iter()
        .enumerate()
        .map(|(idx, shard)| (idx, shard, cost()))
        .collect();
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(replicas)
        .max(1);
    let mut indexed: Vec<(usize, ServingReport)> = if workers <= 1 {
        jobs.drain(..)
            .map(|(idx, shard, cost)| (idx, ServingSimulator::new(cost, *config).run(&shard)))
            .collect()
    } else {
        // Band the replicas round-robin across the workers.
        let mut bands: Vec<Vec<(usize, RequestTrace, C)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (slot, job) in jobs.drain(..).enumerate() {
            bands[slot % workers].push(job);
        }
        let mut collected = Vec::with_capacity(replicas);
        std::thread::scope(|scope| {
            let handles: Vec<_> = bands
                .into_iter()
                .map(|band| {
                    scope.spawn(move || {
                        band.into_iter()
                            .map(|(idx, shard, cost)| {
                                (idx, ServingSimulator::new(cost, *config).run(&shard))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                collected.extend(handle.join().expect("replica worker panicked"));
            }
        });
        collected
    };
    indexed.sort_by_key(|(idx, _)| *idx);
    let reports = indexed.into_iter().map(|(_, report)| report).collect();
    FleetReport { replicas, reports }
}

/// A disaggregated prefill/decode deployment: `prefill_replicas` sockets
/// run nothing but prefills, `decode_replicas` sockets run nothing but
/// decode, and every prefilled request's KV ships from its prefill
/// replica to its decode replica at [`KvShipSpec`] cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisaggSpec {
    /// Sockets in the prefill pool (≥ 1).
    pub prefill_replicas: usize,
    /// Sockets in the decode pool (≥ 1).
    pub decode_replicas: usize,
    /// Pricing of the prefill → decode KV transfer.
    pub kv_ship: KvShipSpec,
}

impl DisaggSpec {
    /// Total sockets across both pools.
    #[must_use]
    pub fn sockets(&self) -> usize {
        self.prefill_replicas + self.decode_replicas
    }
}

/// The outcome of one disaggregated run: both pools' raw fleet reports
/// plus the stitched end-to-end per-request records.
#[derive(Debug, Clone, PartialEq)]
pub struct DisaggReport {
    /// The deployment that produced this report.
    pub spec: DisaggSpec,
    /// The prefill pool's fleet report (its records' completions are
    /// *first tokens*, not end-to-end finishes).
    pub prefill: FleetReport,
    /// The decode pool's fleet report (its records' arrivals are prefill
    /// completions, its TTFTs are meaningless — see `records`).
    pub decode: FleetReport,
    /// End-to-end records: original arrival, first token from the prefill
    /// pool, completion from the decode pool (or from the prefill pool
    /// for single-token outputs). Sorted by request id.
    pub records: Vec<RequestRecord>,
    /// Requests rejected by either pool.
    pub rejected: usize,
}

impl DisaggReport {
    /// Deployment makespan: the slower pool's.
    #[must_use]
    pub fn makespan_s(&self) -> f64 {
        self.prefill.makespan_s().max(self.decode.makespan_s())
    }

    /// Aggregate end-to-end metrics.
    #[must_use]
    pub fn metrics(&self) -> ServingMetrics {
        ServingMetrics::from_records(&self.records, self.rejected, self.makespan_s())
    }

    /// End-to-end goodput under `slo`.
    #[must_use]
    pub fn goodput_rps(&self, slo: &SloTarget) -> f64 {
        ServingMetrics::goodput_rps(&self.records, slo, self.makespan_s())
    }
}

/// Simulates a disaggregated prefill/decode deployment with one cost
/// model per socket drawn from `cost`.
///
/// Three phases, all deterministic:
///
/// 1. **Prefill pool** — the trace's requests, truncated to their first
///    output token, split round-robin over the prefill replicas under
///    `config` (KV shipping off: prompts arrive as tokens, not KV).
/// 2. **Decode pool** — every multi-token request re-arrives at the
///    instant its first token was produced, with [`KvShipSpec`] enabled
///    in the config so the shipped-KV transfer delays admission, and a
///    [`DecodePoolCostModel`] so "prefill" costs nothing but the decode
///    steps price normally. Requests the prefill pool rejected never
///    ship.
/// 3. **Stitch** — each completed request's end-to-end record keeps its
///    original arrival, takes its first token from the prefill pool and
///    its completion from the decode pool. The KV transfer therefore
///    lands exactly between TTFT and the first decode step.
///
/// # Panics
///
/// Panics if either pool is empty.
pub fn simulate_disaggregated_with<C, F>(
    mut cost: F,
    config: &ServingConfig,
    spec: &DisaggSpec,
    trace: &RequestTrace,
) -> DisaggReport
where
    C: ServingCostModel + Send,
    F: FnMut() -> C,
{
    assert!(
        spec.prefill_replicas > 0 && spec.decode_replicas > 0,
        "a disaggregated deployment needs both pools"
    );
    // Phase 1: prefill-only requests (the first output token is the
    // prefill's product; everything after it belongs to the decode pool).
    let prefill_requests: Vec<Request> = trace
        .requests()
        .iter()
        .map(|r| Request {
            output_tokens: 1,
            ..*r
        })
        .collect();
    let prefill_trace = RequestTrace::new(prefill_requests);
    let prefill_config = config.with_kv_ship(KvShipSpec::disabled());
    let prefill = simulate_fleet_with(
        &mut cost,
        &prefill_config,
        spec.prefill_replicas,
        &prefill_trace,
    );

    // Phase 2: re-offer every prefilled multi-token request to the decode
    // pool at the instant its first token existed.
    let prefill_records = prefill.records();
    let by_id: std::collections::HashMap<usize, RequestRecord> =
        prefill_records.iter().map(|r| (r.id, *r)).collect();
    let decode_requests: Vec<Request> = trace
        .requests()
        .iter()
        .filter(|r| r.output_tokens > 1)
        .filter_map(|r| {
            by_id.get(&r.id).map(|done| Request {
                arrival_s: done.first_token_s,
                ..*r
            })
        })
        .collect();
    let decode_trace = RequestTrace::new(decode_requests);
    let decode_config = config.with_kv_ship(spec.kv_ship);
    let decode = simulate_fleet_with(
        || DecodePoolCostModel::new(cost()),
        &decode_config,
        spec.decode_replicas,
        &decode_trace,
    );

    // Phase 3: stitch end-to-end records.
    let mut records: Vec<RequestRecord> = Vec::with_capacity(prefill_records.len());
    let decoded: std::collections::HashMap<usize, RequestRecord> =
        decode.records().iter().map(|r| (r.id, *r)).collect();
    for request in trace.requests() {
        let Some(first) = by_id.get(&request.id) else {
            continue; // rejected by the prefill pool
        };
        if request.output_tokens == 1 {
            records.push(*first);
            continue;
        }
        let Some(done) = decoded.get(&request.id) else {
            continue; // rejected by the decode pool
        };
        records.push(RequestRecord {
            id: request.id,
            arrival_s: request.arrival_s,
            first_token_s: first.first_token_s,
            completion_s: done.completion_s,
            prompt_tokens: request.prompt_tokens,
            output_tokens: request.output_tokens,
            qos: request.qos,
        });
    }
    records.sort_by_key(|r| r.id);
    let rejected = trace.len() - records.len();
    DisaggReport {
        spec: *spec,
        prefill,
        decode,
        records,
        rejected,
    }
}

/// Parameters of an SLO capacity search on one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitySpec {
    /// The objective a feasible rate must meet at the 99th percentile.
    pub slo: SloTarget,
    /// Requests simulated per probed rate (more ⇒ tighter percentiles,
    /// slower search).
    pub requests: usize,
    /// Trace seed (the same lengths are replayed at every probed rate).
    pub seed: u64,
    /// Lower bound of the searched rate range (requests/sec). The search
    /// doubles out of it, so it must be positive and finite.
    pub min_rate: f64,
    /// Upper bound of the searched rate range (requests/sec); a number no
    /// smaller than `min_rate`.
    pub max_rate: f64,
    /// Bisection refinements after bracketing.
    pub iterations: usize,
}

impl CapacitySpec {
    /// A default chat-serving search: interactive SLO, a modest trace per
    /// probe, rates from 0.25 to 64 req/s.
    #[must_use]
    pub fn chat(requests: usize, seed: u64) -> Self {
        CapacitySpec {
            slo: SloTarget::interactive(),
            requests,
            seed,
            min_rate: 0.25,
            max_rate: 64.0,
            iterations: 7,
        }
    }
}

/// The outcome of a capacity search.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityResult {
    /// Highest probed arrival rate whose p99 latencies met the SLO
    /// (0 when even `min_rate` misses it).
    pub max_rate_rps: f64,
    /// p99 TTFT at that rate, seconds.
    pub p99_ttft_s: f64,
    /// p99 TPOT at that rate, seconds.
    pub p99_tpot_s: f64,
    /// Goodput at that rate, requests/sec.
    pub goodput_rps: f64,
}

/// Judges one probe's completed `records` against `slo` at the 99th
/// percentile — the feasibility rule every capacity search shares: no
/// rejections, and p99 TTFT and p99 TPOT within the objective.
/// `goodput_rps` is the probe's SLO goodput, which a fleet, a
/// disaggregated pool or one QoS class computes over its own records.
fn judge_probe(
    records: &[RequestRecord],
    rejected: usize,
    goodput_rps: f64,
    slo: &SloTarget,
) -> (bool, ClassOutcome) {
    let ttft: Vec<f64> = records.iter().map(RequestRecord::ttft_s).collect();
    let tpot: Vec<f64> = records.iter().map(RequestRecord::tpot_s).collect();
    let p99_ttft_s = percentile(&ttft, 99.0);
    let p99_tpot_s = percentile(&tpot, 99.0);
    let feasible = rejected == 0 && p99_ttft_s <= slo.ttft_s && p99_tpot_s <= slo.tpot_s;
    let outcome = ClassOutcome {
        p99_ttft_s,
        p99_tpot_s,
        goodput_rps,
    };
    (feasible, outcome)
}

/// A capacity search's answer: the knee rate and the outcome of the probe
/// that set it.
fn capacity_at((max_rate_rps, tail): (f64, ClassOutcome)) -> CapacityResult {
    CapacityResult {
        max_rate_rps,
        p99_ttft_s: tail.p99_ttft_s,
        p99_tpot_s: tail.p99_tpot_s,
        goodput_rps: tail.goodput_rps,
    }
}

/// Runs one probe on a replica, handing the cost model back with its
/// memoized latencies warm for the next probe (they are pure functions of
/// (batch, context), independent of the arrival rate).
fn run_probe<C: ServingCostModel + Clone>(
    cost: &mut C,
    config: ServingConfig,
    trace: &RequestTrace,
) -> ServingReport {
    let mut simulator = ServingSimulator::new(cost.clone(), config);
    let report = simulator.run(trace);
    *cost = simulator.into_cost_model();
    report
}

/// Finds the highest Poisson arrival rate one replica sustains while its
/// p99 TTFT and p99 TPOT stay within the SLO, by doubling out of
/// `min_rate` to bracket the knee and then bisecting. Deterministic: the
/// same inputs always return the same capacity.
///
/// # Panics
///
/// Panics if `spec.min_rate` is not positive and finite, or if
/// `spec.max_rate` is NaN or below it.
#[must_use]
pub fn capacity_search(
    machine: &MachineConfig,
    model: &LlmModel,
    scheme: &CompressionScheme,
    engine: Engine,
    config: &ServingConfig,
    spec: &CapacitySpec,
) -> CapacityResult {
    let requests = spec.requests;
    let seed = spec.seed;
    capacity_search_warm(
        &mut EstimatorCostModel::new(machine.clone(), model.clone(), *scheme, engine),
        config,
        spec,
        move |rate| WorkloadSpec::chat(rate, requests, seed).generate(),
    )
}

/// The general capacity search: any replica cost model (single-socket or
/// sharded), any admission policy (including
/// [`crate::SchedulerKind::PagedContinuous`]), and any workload family —
/// `trace_for_rate` maps a probed arrival rate to the trace offered at
/// that rate (e.g. [`crate::SharedPrefixChatSpec::with_rate`], so paged +
/// prefix-sharing replicas are searched on the shared-prefix workload they
/// exist for). Same bracketing/bisection as [`capacity_search`]. The cost
/// model is borrowed and left with its memoized latency caches warm — the
/// shape for sweeping several configurations of the *same* replica (e.g.
/// the three admission policies of `bench_paged`), where every search asks
/// the estimator the same (batch, context) questions.
///
/// # Panics
///
/// Panics if `spec.min_rate` is not positive and finite, or if
/// `spec.max_rate` is NaN or below it.
#[must_use]
pub fn capacity_search_warm<C, F>(
    cost: &mut C,
    config: &ServingConfig,
    spec: &CapacitySpec,
    mut trace_for_rate: F,
) -> CapacityResult
where
    C: ServingCostModel + Clone,
    F: FnMut(f64) -> RequestTrace,
{
    capacity_at(bracket_and_bisect(spec, |rate| {
        let report = run_probe(cost, *config, &trace_for_rate(rate));
        let goodput = report.goodput_rps(&spec.slo);
        judge_probe(&report.records, report.rejected, goodput, &spec.slo)
    }))
}

/// The knee search every capacity search shares: double out of
/// `spec.min_rate` until `run` reports infeasible (or `max_rate` is
/// reached), then bisect `spec.iterations` times. `run` maps a probed
/// rate to (feasible, outcome at that rate). Returns the highest feasible
/// rate probed and its outcome, or 0 and the `min_rate` probe's outcome
/// when even that probe fails.
///
/// # Panics
///
/// Panics, before any probe, if `spec.min_rate` is not positive and
/// finite (doubling a zero rate would never bracket the knee), or if
/// `spec.max_rate` is NaN or below `min_rate` (the doubling loop would
/// never run, and the search would report `min_rate` without probing its
/// range).
fn bracket_and_bisect<R>(spec: &CapacitySpec, mut run: impl FnMut(f64) -> (bool, R)) -> (f64, R) {
    assert!(
        spec.min_rate > 0.0 && spec.min_rate.is_finite(),
        "min_rate must be positive and finite, got {}",
        spec.min_rate
    );
    assert!(
        spec.max_rate >= spec.min_rate,
        "max_rate must be a number no smaller than min_rate, got {} < {}",
        spec.max_rate,
        spec.min_rate
    );
    let (feasible, outcome) = run(spec.min_rate);
    if !feasible {
        return (0.0, outcome);
    }
    let mut best = (spec.min_rate, outcome);
    let mut hi = None;
    let mut rate = spec.min_rate;
    while hi.is_none() && rate < spec.max_rate {
        rate = (rate * 2.0).min(spec.max_rate);
        let (feasible, outcome) = run(rate);
        if feasible {
            best = (rate, outcome);
        } else {
            hi = Some(rate);
        }
    }
    let Some(mut hi) = hi else { return best };
    for _ in 0..spec.iterations {
        let mid = 0.5 * (best.0 + hi);
        let (feasible, outcome) = run(mid);
        if feasible {
            best = (mid, outcome);
        } else {
            hi = mid;
        }
    }
    best
}

/// One pool split's sustained capacity, from
/// [`disagg_capacity_search_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSplitResult {
    /// Sockets assigned to the prefill pool.
    pub prefill_replicas: usize,
    /// Sockets assigned to the decode pool.
    pub decode_replicas: usize,
    /// The split's capacity-search outcome.
    pub capacity: CapacityResult,
}

/// Extends the capacity search across *pool splits*: for every way of
/// partitioning `sockets` into a non-empty prefill pool and a non-empty
/// decode pool, finds the highest arrival rate the disaggregated
/// deployment sustains within the p99 SLO (same bracketing/bisection as
/// [`capacity_search_warm`], feasibility judged on the stitched
/// end-to-end records). Every socket of every probe runs a clone of
/// `cost`. Pick the winner with [`best_pool_split`].
///
/// # Panics
///
/// Panics if `sockets` is under 2, or if `spec.min_rate` is not positive
/// and finite or `spec.max_rate` is NaN or below it.
pub fn disagg_capacity_search_with<C, F>(
    cost: &mut C,
    config: &ServingConfig,
    sockets: usize,
    kv_ship: KvShipSpec,
    spec: &CapacitySpec,
    mut trace_for_rate: F,
) -> Vec<PoolSplitResult>
where
    C: ServingCostModel + Clone + Send,
    F: FnMut(f64) -> RequestTrace,
{
    assert!(sockets >= 2, "a split needs a socket in each pool");
    (1..sockets)
        .map(|prefill_replicas| {
            let split = DisaggSpec {
                prefill_replicas,
                decode_replicas: sockets - prefill_replicas,
                kv_ship,
            };
            let capacity = capacity_at(bracket_and_bisect(spec, |rate| {
                let trace = trace_for_rate(rate);
                let report = simulate_disaggregated_with(|| cost.clone(), config, &split, &trace);
                let goodput = report.goodput_rps(&spec.slo);
                judge_probe(&report.records, report.rejected, goodput, &spec.slo)
            }));
            PoolSplitResult {
                prefill_replicas,
                decode_replicas: sockets - prefill_replicas,
                capacity,
            }
        })
        .collect()
}

/// The capacity search over a *colocated* fleet: the highest arrival rate
/// `replicas` identical prefill+decode replicas sustain within the p99
/// SLO — the same-socket-count baseline a disaggregated pool split must
/// beat. Same bracketing/bisection as [`capacity_search_warm`],
/// feasibility judged on the fleet's pooled records. Every replica of
/// every probe runs a clone of `cost`.
///
/// # Panics
///
/// Panics if `spec.min_rate` is not positive and finite, or if
/// `spec.max_rate` is NaN or below it.
pub fn fleet_capacity_search_with<C, F>(
    cost: &mut C,
    config: &ServingConfig,
    replicas: usize,
    spec: &CapacitySpec,
    mut trace_for_rate: F,
) -> CapacityResult
where
    C: ServingCostModel + Clone + Send,
    F: FnMut(f64) -> RequestTrace,
{
    capacity_at(bracket_and_bisect(spec, |rate| {
        let trace = trace_for_rate(rate);
        let fleet = simulate_fleet_with(|| cost.clone(), config, replicas, &trace);
        // Gather and sort the fleet's records once for both the goodput and
        // the p99 judge.
        let records = fleet.records();
        let goodput = ServingMetrics::goodput_rps(&records, &spec.slo, fleet.makespan_s());
        judge_probe(&records, fleet.rejected(), goodput, &spec.slo)
    }))
}

/// One chunk budget's sustained capacity, from
/// [`chunk_budget_capacity_sweep_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkBudgetPoint {
    /// The probed per-step prefill chunk budget (`None` = unchunked:
    /// whole prompts prefill in one wave).
    pub chunk_budget_tokens: Option<usize>,
    /// The budget's capacity-search outcome.
    pub capacity: CapacityResult,
}

/// Extends the capacity search across *prefill chunk budgets*: for every
/// probed budget (including `None`, the unchunked baseline), finds the
/// highest arrival rate one replica sustains within the p99 SLO. Small
/// budgets bound the decode stall a long-document prefill inflicts on
/// co-resident chats (better p99 TPOT) but pay per-chunk step overhead;
/// the sweep locates the knee. Same bracketing/bisection as
/// [`capacity_search_warm`].
///
/// # Panics
///
/// Panics if `budgets` is non-empty and `spec.min_rate` is not positive
/// and finite or `spec.max_rate` is NaN or below it.
pub fn chunk_budget_capacity_sweep_with<C, F>(
    cost: &mut C,
    config: &ServingConfig,
    spec: &CapacitySpec,
    budgets: &[Option<usize>],
    mut trace_for_rate: F,
) -> Vec<ChunkBudgetPoint>
where
    C: ServingCostModel + Clone,
    F: FnMut(f64) -> RequestTrace,
{
    budgets
        .iter()
        .map(|&chunk_budget_tokens| {
            let chunked = config.with_chunked_prefill(chunk_budget_tokens);
            let capacity = capacity_search_warm(cost, &chunked, spec, &mut trace_for_rate);
            ChunkBudgetPoint {
                chunk_budget_tokens,
                capacity,
            }
        })
        .collect()
}

/// One probe's tail latencies and goodput — in
/// [`qos_capacity_search_with`], one service class's share of the probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassOutcome {
    /// p99 TTFT over the class's completed requests, seconds (0 when the
    /// class completed nothing).
    pub p99_ttft_s: f64,
    /// p99 TPOT over the class's completed requests, seconds.
    pub p99_tpot_s: f64,
    /// The class's goodput under its own SLO, requests/sec.
    pub goodput_rps: f64,
}

/// The outcome of a per-class QoS capacity search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosCapacityResult {
    /// Highest probed arrival rate at which *both* classes met their SLOs
    /// with no rejections (0 when even `min_rate` misses).
    pub max_rate_rps: f64,
    /// The Interactive class at that rate.
    pub interactive: ClassOutcome,
    /// The Batch class at that rate.
    pub batch: ClassOutcome,
}

/// The per-class QoS capacity search: the highest arrival rate one replica
/// sustains while *each* service class meets its own p99 SLO — the
/// Interactive class judged against `spec.slo`, the Batch class against
/// the (typically much looser) `batch_slo` — with no rejections in either
/// lane. On a single-class trace the batch side is vacuous and the search
/// degenerates to [`capacity_search_warm`]'s rule exactly. Same
/// bracketing/bisection as every other capacity search.
///
/// # Panics
///
/// Panics if `spec.min_rate` is not positive and finite, or if
/// `spec.max_rate` is NaN or below it.
pub fn qos_capacity_search_with<C, F>(
    cost: &mut C,
    config: &ServingConfig,
    spec: &CapacitySpec,
    batch_slo: &SloTarget,
    mut trace_for_rate: F,
) -> QosCapacityResult
where
    C: ServingCostModel + Clone,
    F: FnMut(f64) -> RequestTrace,
{
    let (max_rate_rps, (interactive, batch)) = bracket_and_bisect(spec, |rate| {
        let report = run_probe(cost, *config, &trace_for_rate(rate));
        // Each class is judged against its own SLO; any rejection, in
        // either class, fails the probe.
        let judge = |class: QosClass, slo: &SloTarget| {
            let goodput = report.class_goodput_rps(class, slo);
            judge_probe(&report.class_records(class), report.rejected, goodput, slo)
        };
        let (interactive_ok, interactive) = judge(QosClass::Interactive, &spec.slo);
        let (batch_ok, batch) = judge(QosClass::Batch, batch_slo);
        (interactive_ok && batch_ok, (interactive, batch))
    });
    QosCapacityResult {
        max_rate_rps,
        interactive,
        batch,
    }
}

/// One acceptance rate's outcome on a fixed trace, from
/// [`speculation_goodput_curve_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationPoint {
    /// The probed draft acceptance rate, in `[0, 1]`.
    pub acceptance_rate: f64,
    /// p99 TTFT on the trace, seconds.
    pub p99_ttft_s: f64,
    /// p99 TPOT on the trace, seconds.
    pub p99_tpot_s: f64,
    /// SLO goodput on the trace, requests/sec.
    pub goodput_rps: f64,
    /// Draft-and-verify bursts the run took (decode steps when the rate
    /// retires one token per burst).
    pub decode_steps: u64,
}

/// Sweeps speculative decoding's acceptance rate on a *fixed* trace: each
/// probed rate replays the same requests with
/// [`crate::SpeculationSpec::new`]`(draft_tokens, rate, draw_seed)` and
/// reports tail latency and SLO goodput — the goodput-vs-acceptance curve
/// that says how good a draft model must be before speculation pays on
/// this hardware. A `draft_tokens` of zero degenerates every point to the
/// plain run (the baseline the curve is read against).
pub fn speculation_goodput_curve_with<C>(
    cost: &mut C,
    config: &ServingConfig,
    slo: &SloTarget,
    draft_tokens: usize,
    draw_seed: u64,
    acceptance_rates: &[f64],
    trace: &RequestTrace,
) -> Vec<SpeculationPoint>
where
    C: ServingCostModel + Clone,
{
    acceptance_rates
        .iter()
        .map(|&acceptance_rate| {
            let speculation = SpeculationSpec::new(draft_tokens, acceptance_rate, draw_seed);
            let report = run_probe(cost, config.with_speculation(speculation), trace);
            let goodput = report.goodput_rps(slo);
            let (_, tail) = judge_probe(&report.records, report.rejected, goodput, slo);
            SpeculationPoint {
                acceptance_rate,
                p99_ttft_s: tail.p99_ttft_s,
                p99_tpot_s: tail.p99_tpot_s,
                goodput_rps: tail.goodput_rps,
                decode_steps: report.decode_steps,
            }
        })
        .collect()
}

/// The winning split of a [`disagg_capacity_search_with`] sweep: highest
/// sustained rate, goodput breaking ties (earlier split on exact ties).
#[must_use]
pub fn best_pool_split(results: &[PoolSplitResult]) -> Option<&PoolSplitResult> {
    results.iter().reduce(|best, candidate| {
        let better = candidate.capacity.max_rate_rps > best.capacity.max_rate_rps
            || (candidate.capacity.max_rate_rps == best.capacity.max_rate_rps
                && candidate.capacity.goodput_rps > best.capacity.goodput_rps);
        if better {
            candidate
        } else {
            best
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinearCostModel;

    /// The threaded fan-out must be invisible: a fleet run equals the
    /// replicas simulated one by one on the calling thread, report for
    /// report, in load-balancer order.
    #[test]
    fn threaded_fleet_matches_the_sequential_replicas() {
        let trace = WorkloadSpec::chat(8.0, 96, 13).generate();
        let config = ServingConfig::continuous(8, 20_000);
        for replicas in [1, 2, 5, 8] {
            let fleet =
                simulate_fleet_with(LinearCostModel::default_70b, &config, replicas, &trace);
            assert_eq!(fleet.replicas, replicas);
            let shards = trace.split_round_robin(replicas);
            let sequential: Vec<ServingReport> = shards
                .iter()
                .map(|shard| {
                    ServingSimulator::new(LinearCostModel::default_70b(), config).run(shard)
                })
                .collect();
            assert_eq!(fleet.reports, sequential);
        }
    }

    /// The chunk-budget sweep probes every budget (unchunked first) and
    /// its degenerate entry reproduces the plain capacity search exactly.
    #[test]
    fn chunk_budget_sweep_covers_the_unchunked_baseline() {
        use crate::workload::DocChatMixSpec;
        let spec = CapacitySpec {
            slo: SloTarget {
                ttft_s: 2.0,
                tpot_s: 0.12,
            },
            requests: 48,
            seed: 21,
            min_rate: 0.25,
            max_rate: 8.0,
            iterations: 4,
        };
        let config = ServingConfig::paged(16, 200_000, 16);
        let mix = DocChatMixSpec::fleet(1.0, 40, 21);
        let mut cost = LinearCostModel::default_70b();
        let points = chunk_budget_capacity_sweep_with(
            &mut cost,
            &config,
            &spec,
            &[None, Some(512), Some(2_048)],
            |rate| mix.with_rate(rate).generate(),
        );
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].chunk_budget_tokens, None);
        let cost = LinearCostModel::default_70b();
        let baseline = capacity_at(bracket_and_bisect(&spec, |rate| {
            let trace = mix.with_rate(rate).generate();
            let report = ServingSimulator::new(cost, config).run(&trace);
            let goodput = report.goodput_rps(&spec.slo);
            judge_probe(&report.records, report.rejected, goodput, &spec.slo)
        }));
        assert_eq!(points[0].capacity, baseline);
        for point in &points {
            assert!(point.capacity.max_rate_rps >= 0.0);
        }
    }

    /// The QoS capacity search honours both classes' SLOs: the mixed
    /// trace sustains a positive rate under sane per-class targets, an
    /// impossible Batch SLO drives capacity to zero even though the
    /// Interactive lane is fine, and on a single-class trace the search
    /// degenerates to the class-blind rule exactly.
    #[test]
    fn qos_capacity_search_honours_both_classes() {
        use crate::tenant::MultiTenantSpec;
        let spec = CapacitySpec {
            slo: SloTarget {
                ttft_s: 8.0,
                tpot_s: 0.3,
            },
            requests: 32,
            seed: 31,
            min_rate: 0.25,
            max_rate: 8.0,
            iterations: 3,
        };
        let batch_slo = SloTarget {
            ttft_s: 60.0,
            tpot_s: 0.5,
        };
        let mix = MultiTenantSpec::fleet(1.0, 24, 31);
        let config = ServingConfig::paged(16, 200_000, 16).with_qos_aging(4);
        let mut cost = LinearCostModel::default_70b();
        let result = qos_capacity_search_with(&mut cost, &config, &spec, &batch_slo, |rate| {
            mix.with_rate(rate).generate()
        });
        assert!(result.max_rate_rps > 0.0);
        assert!(result.interactive.p99_ttft_s <= spec.slo.ttft_s);
        assert!(result.batch.p99_ttft_s <= batch_slo.ttft_s);
        let impossible = SloTarget {
            ttft_s: 1e-9,
            tpot_s: 1e-9,
        };
        let strangled = qos_capacity_search_with(&mut cost, &config, &spec, &impossible, |rate| {
            mix.with_rate(rate).generate()
        });
        assert_eq!(
            strangled.max_rate_rps, 0.0,
            "an unmeetable Batch SLO caps capacity at zero"
        );
        assert!(
            strangled.batch.p99_ttft_s > 0.0,
            "the infeasible probe's breakdown is still reported"
        );
        // Single-class degenerate: same knee as the class-blind search.
        let mut warm = LinearCostModel::default_70b();
        let qos = qos_capacity_search_with(&mut warm, &config, &spec, &spec.slo, |rate| {
            WorkloadSpec::chat(rate, spec.requests, spec.seed).generate()
        });
        let blind = LinearCostModel::default_70b();
        let (plain_rate, _) = bracket_and_bisect(&spec, |rate| {
            let trace = WorkloadSpec::chat(rate, spec.requests, spec.seed).generate();
            let report = ServingSimulator::new(blind, config).run(&trace);
            let goodput = report.goodput_rps(&spec.slo);
            judge_probe(&report.records, report.rejected, goodput, &spec.slo)
        });
        assert_eq!(qos.max_rate_rps, plain_rate);
    }

    /// Higher acceptance rates can only help: on a decode-heavy trace the
    /// all-accept end of the curve beats the none-accept end on p99 TPOT,
    /// and a zero-draft curve is flat at the plain run.
    #[test]
    fn speculation_curve_improves_with_acceptance() {
        let trace = WorkloadSpec::chat(2.0, 48, 23).generate();
        let config = ServingConfig::continuous(16, 200_000);
        let slo = SloTarget {
            ttft_s: 2.0,
            tpot_s: 0.12,
        };
        let mut cost = LinearCostModel::default_70b();
        let curve = speculation_goodput_curve_with(
            &mut cost,
            &config,
            &slo,
            4,
            7,
            &[0.0, 0.5, 1.0],
            &trace,
        );
        assert_eq!(curve.len(), 3);
        // All-accept retires 5 tokens per burst; none-accept pays the same
        // burst for 1. Fewer steps, lower tail.
        assert!(curve[2].decode_steps < curve[0].decode_steps);
        assert!(curve[2].p99_tpot_s < curve[0].p99_tpot_s);
        // Zero draft tokens: every point is the plain run.
        let mut cost = LinearCostModel::default_70b();
        let flat =
            speculation_goodput_curve_with(&mut cost, &config, &slo, 0, 7, &[0.0, 1.0], &trace);
        let outcome =
            |p: &SpeculationPoint| (p.p99_ttft_s, p.p99_tpot_s, p.goodput_rps, p.decode_steps);
        assert_eq!(outcome(&flat[0]), outcome(&flat[1]));
    }

    #[test]
    fn hbm_kv_budget_exists_only_for_fitting_schemes() {
        let llama = LlmModel::llama2_70b();
        assert!(hbm_kv_budget_tokens(&llama, &CompressionScheme::bf16_dense()).is_none());
        let q8_5 =
            hbm_kv_budget_tokens(&llama, &CompressionScheme::bf8_sparse(0.05)).expect("Q8_5% fits");
        let q4 = hbm_kv_budget_tokens(&llama, &CompressionScheme::mxfp4()).expect("Q4 fits");
        // Tighter compression leaves more KV headroom.
        assert!(q8_5 > q4);
        assert!(q4 > 10_000);
    }

    #[test]
    fn sharding_sweep_skips_unservable_plans_and_finds_the_min_sockets() {
        let model = LlmModel::llama2_70b();
        let q8 = CompressionScheme::bf8_dense();
        let search = ShardingSearchSpec {
            slo: SloTarget::interactive(),
            workload: WorkloadSpec::chat(0.4, 12, 11),
            max_batch: 8,
            required_kv_tokens: 10_000,
        };
        let plans = [
            ShardSpec::single(),
            ShardSpec::tp(2),
            ShardSpec::tp(4),
            ShardSpec::pp(model.layers() + 1),
        ];
        let results = sharding_sweep(
            &MachineConfig::spr_hbm(),
            &model,
            &q8,
            Engine::deca_default(),
            InterconnectModel::spr_upi(),
            &plans,
            &search,
        );
        assert_eq!(results.len(), 4);
        // One socket cannot even hold the Q8-dense weights, and a pipeline
        // deeper than the model leaves a stage without layers: neither is
        // simulated.
        for unservable in [&results[0], &results[3]] {
            assert!(!unservable.servable && !unservable.feasible);
            assert_eq!(unservable.kv_budget_tokens, None);
            assert_eq!(unservable.p99_ttft_s, 0.0);
        }
        // TP2 fits and (at this trickle load) meets the SLO.
        assert!(results[1].servable);
        let min = results
            .iter()
            .filter(|r| r.feasible)
            .min_by_key(|r| r.spec.sockets())
            .expect("some plan is feasible");
        assert!(min.spec.sockets() >= 2, "Q8 dense needs sharding");
        assert!(min.feasible && min.p99_ttft_s > 0.0);
    }

    #[test]
    fn fleet_conserves_requests_and_scales_throughput() {
        let trace = WorkloadSpec::chat(4.0, 60, 13).generate();
        let machine = MachineConfig::spr_hbm();
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let budget = hbm_kv_budget_tokens(&model, &scheme).expect("fits");
        let config = ServingConfig::continuous(16, budget);
        let engine = Engine::deca_default();
        let cost = || EstimatorCostModel::new(machine.clone(), model.clone(), scheme, engine);
        let one = simulate_fleet_with(cost, &config, 1, &trace);
        let four = simulate_fleet_with(cost, &config, 4, &trace);
        for fleet in [&one, &four] {
            let completed: usize = fleet.reports.iter().map(ServingReport::completed).sum();
            assert_eq!(completed + fleet.rejected(), 60);
        }
        // Four replicas drain the same offered load no slower (and, under
        // any queueing, strictly faster at the tail).
        let p99_e2e = |fleet: &FleetReport| {
            ServingMetrics::from_records(&fleet.records(), fleet.rejected(), fleet.makespan_s())
                .e2e
                .p99_s
        };
        assert!(p99_e2e(&four) <= p99_e2e(&one));
        assert_eq!(four.records().len(), 60);
    }

    /// A disaggregated run must conserve the trace: every request either
    /// completes with a stitched end-to-end record or counts as rejected,
    /// first tokens come from the prefill pool, and completions land
    /// after the shipped-KV transfer plus the remaining decode steps.
    #[test]
    fn disaggregated_runs_stitch_prefill_and_decode_records() {
        let trace = WorkloadSpec::chat(4.0, 80, 17).generate();
        let config = ServingConfig::continuous(16, 1_000_000);
        let ship = KvShipSpec {
            bytes_per_token: 300_000.0,
            bandwidth_gbps: 50.0,
            latency_us: 10.0,
        };
        let spec = DisaggSpec {
            prefill_replicas: 1,
            decode_replicas: 1,
            kv_ship: ship,
        };
        let report =
            simulate_disaggregated_with(LinearCostModel::default_70b, &config, &spec, &trace);
        assert_eq!(report.records.len() + report.rejected, 80);
        assert!(report.rejected == 0, "generous budget admits everything");
        let min_transfer = ship.transfer_seconds(1);
        for (record, request) in report.records.iter().zip(trace.requests()) {
            assert_eq!(record.id, request.id);
            assert_eq!(record.arrival_s, request.arrival_s, "original arrival");
            assert!(record.first_token_s > record.arrival_s);
            if request.output_tokens > 1 {
                // The KV transfer plus at least one decode step separates
                // the first token from the completion.
                assert!(
                    record.completion_s > record.first_token_s + min_transfer + 0.9 * 0.03,
                    "request {}: completion {:.4} vs first token {:.4}",
                    record.id,
                    record.completion_s,
                    record.first_token_s
                );
            } else {
                assert_eq!(record.completion_s, record.first_token_s);
            }
        }
        // Determinism: same inputs, same stitched report.
        let again =
            simulate_disaggregated_with(LinearCostModel::default_70b, &config, &spec, &trace);
        assert_eq!(report, again);
    }

    #[test]
    fn pool_split_search_covers_every_partition_and_picks_the_best() {
        let spec = CapacitySpec {
            slo: SloTarget::interactive(),
            requests: 40,
            seed: 23,
            min_rate: 0.25,
            max_rate: 16.0,
            iterations: 3,
        };
        let config = ServingConfig::continuous(16, 1_000_000);
        let results = disagg_capacity_search_with(
            &mut LinearCostModel::default_70b(),
            &config,
            4,
            KvShipSpec {
                bytes_per_token: 300_000.0,
                bandwidth_gbps: 50.0,
                latency_us: 10.0,
            },
            &spec,
            |rate| WorkloadSpec::chat(rate, spec.requests, spec.seed).generate(),
        );
        assert_eq!(results.len(), 3, "splits 1+3, 2+2, 3+1");
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.prefill_replicas, i + 1);
            assert_eq!(result.decode_replicas, 4 - (i + 1));
        }
        let best = best_pool_split(&results).expect("non-empty");
        assert!(results
            .iter()
            .all(|r| r.capacity.max_rate_rps <= best.capacity.max_rate_rps));
    }

    /// The capacity search works against any cost model; exercise its
    /// bracketing/bisection logic with the cheap linear model by wiring it
    /// through a local probe.
    #[test]
    fn capacity_search_brackets_the_knee() {
        // With the linear model a decode step costs ~30 ms at batch 1; the
        // interactive SLO (75 ms TPOT) caps the feasible batch, so capacity
        // is finite and well inside [0.25, 64].
        let slo = SloTarget::interactive();
        let spec = CapacitySpec {
            slo,
            requests: 80,
            seed: 5,
            min_rate: 0.25,
            max_rate: 64.0,
            iterations: 5,
        };
        let config = ServingConfig::continuous(64, 1_000_000);
        let feasible_at = |rate: f64| {
            let workload = WorkloadSpec::chat(rate, spec.requests, spec.seed);
            let mut sim = ServingSimulator::new(LinearCostModel::default_70b(), config);
            let report = sim.run(&workload.generate());
            let tpot: Vec<f64> = report.records.iter().map(RequestRecord::tpot_s).collect();
            let ttft: Vec<f64> = report.records.iter().map(RequestRecord::ttft_s).collect();
            percentile(&tpot, 99.0) <= slo.tpot_s && percentile(&ttft, 99.0) <= slo.ttft_s
        };
        assert!(feasible_at(spec.min_rate), "SLO must hold at trickle load");
        assert!(
            !feasible_at(spec.max_rate),
            "SLO must break at saturating load"
        );
    }

    /// Doubling a zero rate never brackets the knee, so a search that
    /// starts there is rejected before its first probe instead of
    /// spinning forever.
    #[test]
    #[should_panic(expected = "min_rate")]
    fn a_non_positive_min_rate_is_rejected_before_any_probe() {
        let spec = CapacitySpec {
            min_rate: 0.0,
            ..CapacitySpec::chat(8, 1)
        };
        let _ = capacity_search_warm(
            &mut LinearCostModel::default_70b(),
            &ServingConfig::continuous(4, 100_000),
            &spec,
            |_| panic!("probed a trace"),
        );
    }

    /// A `max_rate` below `min_rate`, or NaN, would skip the doubling loop
    /// and report `min_rate` as the capacity without probing the range, so
    /// both are rejected before the first probe too.
    #[test]
    fn a_max_rate_below_min_rate_or_nan_is_rejected_before_any_probe() {
        for max_rate in [0.1, f64::NAN] {
            let spec = CapacitySpec {
                max_rate,
                ..CapacitySpec::chat(8, 1)
            };
            let search = std::panic::catch_unwind(|| {
                capacity_search_warm(
                    &mut LinearCostModel::default_70b(),
                    &ServingConfig::continuous(4, 100_000),
                    &spec,
                    |_| panic!("probed a trace"),
                )
            });
            let payload = search.expect_err("the search must panic");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("max_rate"),
                "max_rate {max_rate}: {message}"
            );
        }
    }
}
