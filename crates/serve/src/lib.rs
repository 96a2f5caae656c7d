//! `deca-serve`: a continuous-batching LLM serving simulator on top of the
//! DECA latency model.
//!
//! The paper's evaluation (§9.4, Table 4) stops at single-batch next-token
//! latency. This crate adds the layer above: multi-request serving under
//! realistic load, answering fleet questions — throughput, tail latency,
//! SLO goodput — with every per-step cost still coming from the calibrated
//! [`deca_llm::InferenceEstimator`] (and therefore from the simulated
//! compressed-GeMM machine underneath).
//!
//! The pieces:
//!
//! * [`workload`] — Poisson and bursty arrival processes, prompt/output
//!   length distributions, the replayable [`RequestTrace`], deterministic
//!   per-request [`TokenStream`] token ids, and the shared-prefix chat
//!   workload ([`SharedPrefixChatSpec`]) whose conversations share system
//!   prompts and carry their transcripts forward,
//! * [`cost`] — the [`ServingCostModel`] trait: prefill cost (new in
//!   `deca-llm` for this layer), per-step decode cost, the cached-prefix
//!   prefill query that prices only a prompt's uncached suffix, and the
//!   batch-step interface — a [`StepMix`] of prefill [`ChunkWork`] plus a
//!   decode batch priced as one unit, with speculative bursts priced on a
//!   smaller draft [`deca_llm::LlmModel`] — memoized (bounded, with
//!   [`CostMemoStats`] hit counters) in [`EstimatorCostModel`],
//! * [`event`] — the discrete-event core: a deterministic binary-heap
//!   [`EventQueue`] over typed [`Event`]s (arrivals, step completions,
//!   preemption re-queues) that advances simulation time in
//!   O(log n) pops instead of per-step scans — what makes million-session
//!   traces simulate in seconds,
//! * [`kv`] — the paged KV-cache layer: a fixed-pool, ref-counted
//!   [`BlockAllocator`] of block-granular token slots (alloc/free/fork),
//!   sized from [`deca_llm::footprint::max_kv_tokens`]
//!   (via [`hbm_kv_budget_tokens`] on one socket),
//! * [`prefix`] — a radix-tree [`PrefixCache`] over token-id prefixes with
//!   ref-counted block sharing and LRU eviction of unreferenced blocks;
//!   each cached block is identified by a hash of its whole prefix plus an
//!   independent fingerprint, held in one cache-wide map (the scheduler
//!   derives both in O(1) from a [`TokenStream`]'s keys),
//! * [`scheduler`] — vLLM/Orca-style continuous batching (admission at
//!   token boundaries against an HBM-derived KV budget), the static
//!   run-to-completion baseline, and the paged policy
//!   ([`SchedulerKind::PagedContinuous`]): admission on *current* need,
//!   on-demand block allocation per decode step, prefix-hit prefill
//!   skipping, and preempt-by-recompute when the pool runs dry — with
//!   preemption/eviction/hit-rate counters in [`PagedStats`] — plus two
//!   policy axes on every scheduler: chunked prefill
//!   ([`ServingConfig::with_chunked_prefill`]: long prompts split into
//!   token-budget chunks interleaved with decode at batch boundaries,
//!   completed chunks published into the prefix cache incrementally) and
//!   speculative decoding ([`SpeculationSpec`]: draft-and-verify bursts
//!   with deterministic seeded acceptance draws),
//! * [`tier`] — the KV offload hierarchy: a priced HBM → DDR → disk
//!   [`KvTierModel`] (per-tier capacity, bandwidth, latency — the same
//!   shape as `deca_llm`'s interconnect pricing), the [`TierResidency`]
//!   map tracking demoted prefix blocks and swap reservations, and the
//!   [`KvShipSpec`] pricing prefill → decode KV shipping in the
//!   disaggregated mode,
//! * [`metrics`] — per-request TTFT / TPOT / end-to-end records,
//!   percentile summaries, and SLO goodput,
//! * [`lora`] + [`tenant`] — the multi-tenant layer: per-request
//!   [`AdapterId`]s whose weights page through the block pool behind a
//!   deterministic LRU [`AdapterCache`] (misses priced by
//!   [`ServingCostModel::adapter_load_seconds`]), [`QosClass`] priority
//!   admission with an anti-starvation aging bound ([`QosAdmission`],
//!   counters in [`QosStats`]), and the tenant-shaped workloads —
//!   [`RagSpec`] (shared document prefixes), [`AgentLoopSpec`] (tool-call
//!   loops re-prefilling a growing transcript), and [`MultiTenantSpec`]
//!   (mixed interactive/batch LoRA traffic),
//! * [`sweep`] — multi-replica fleets, the p99-SLO capacity search that
//!   reports requests/sec per socket for DECA versus software
//!   decompression (generalized by [`capacity_search_warm`] to any cost
//!   model, any admission policy — including the paged one — and any
//!   workload family), and the sharding sweep (`deca_llm::parallel` TP/PP
//!   plans over an interconnect model, each gated by its
//!   [`deca_llm::footprint::max_kv_tokens`] budget and priced by a sharded
//!   [`EstimatorCostModel`]) that finds the minimum socket count holding a
//!   KV working set while meeting the p99 SLO — making schemes that
//!   overflow one socket's HBM servable at TP ≥ 2.
//!
//! # Example
//!
//! ```
//! use deca_compress::CompressionScheme;
//! use deca_kernels::Engine;
//! use deca_llm::LlmModel;
//! use deca_roofsurface::MachineConfig;
//! use deca_serve::{
//!     hbm_kv_budget_tokens, EstimatorCostModel, ServingConfig, ServingSimulator, WorkloadSpec,
//! };
//!
//! let model = LlmModel::llama2_70b();
//! let scheme = CompressionScheme::bf8_sparse(0.05);
//! let budget = hbm_kv_budget_tokens(&model, &scheme).expect("Q8_5% fits in HBM");
//! let cost = EstimatorCostModel::new(
//!     MachineConfig::spr_hbm(),
//!     model,
//!     scheme,
//!     Engine::deca_default(),
//! );
//! let mut server = ServingSimulator::new(cost, ServingConfig::continuous(16, budget));
//! let trace = WorkloadSpec::chat(2.0, 40, 7).generate();
//! let report = server.run(&trace);
//! assert_eq!(report.completed() + report.rejected, 40);
//! assert!(report.metrics().ttft.p99_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod event;
pub mod kv;
pub mod lora;
pub mod metrics;
pub mod prefix;
pub mod scheduler;
pub mod sweep;
pub mod tenant;
pub mod tier;
pub mod workload;

pub use cost::{
    ChunkWork, CostMemoStats, DecodePoolCostModel, EstimatorCostModel, LinearCostModel,
    ServingCostModel, StepMix, SHIPPED_PREFILL_EPSILON_S,
};
pub use event::{Event, EventQueue, Scheduled};
pub use kv::{AllocatorStats, BlockAllocator, BlockId};
pub use lora::{AdapterCache, AdapterId, AdapterModel, AdapterStats};
pub use metrics::{
    percentile, LatencySummary, RequestRecord, ServingMetrics, SloTarget, TimeWeightedMean,
};
pub use prefix::{PrefixCache, PrefixCacheStats};
pub use scheduler::{
    PagedStats, SchedulerKind, ServingConfig, ServingReport, ServingSimulator, SpeculationSpec,
    DEFAULT_BLOCK_SIZE,
};
pub use sweep::{
    best_pool_split, capacity_search, capacity_search_warm, chunk_budget_capacity_sweep_with,
    disagg_capacity_search_with, fleet_capacity_search_with, hbm_kv_budget_tokens,
    qos_capacity_search_with, sharding_sweep, simulate_disaggregated_with, simulate_fleet_with,
    speculation_goodput_curve_with, CapacityResult, CapacitySpec, ChunkBudgetPoint, ClassOutcome,
    DisaggReport, DisaggSpec, FleetReport, PoolSplitResult, QosCapacityResult, ShardingPlanResult,
    ShardingSearchSpec, SpeculationPoint,
};
pub use tenant::{
    AgentLoopSpec, MultiTenantSpec, QosAdmission, QosClass, QosPick, QosStats, RagSpec,
};
pub use tier::{KvShipSpec, KvTierModel, KvTierSpec, TierKind, TierResidency};
pub use workload::{
    ArrivalProcess, DocChatMixSpec, LengthDistribution, Request, RequestTrace,
    SharedPrefixChatSpec, TokenStream, WorkloadError, WorkloadSpec,
};
