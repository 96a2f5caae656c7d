//! The serving schedulers: vLLM/Orca-style continuous batching, the paged
//! (PagedAttention-style) variant on the block allocator, and the classic
//! static (run-to-completion) batching baseline.
//!
//! All three run on one discrete-event core ([`crate::event`]): simulation
//! time advances by popping typed events — request arrivals, KV transfers,
//! step completions, preemption re-queues, swap I/O — off a binary-heap
//! event queue. The engine alternates *prefill steps* (process the prompts
//! of newly admitted requests — prefill-prioritized, as in vLLM's default
//! policy) and *decode steps* (one token for every running sequence),
//! optionally fused into chunked batch steps or draft-and-verify bursts.
//! Every step kind ends in the one [`Event::StepDone`] and shares one
//! prompt-complete transition and one per-token decode loop, and the
//! bookkeeping around them is incremental:
//!
//! * arrivals are heap events pulled lazily — one at a time — from the
//!   request source, which can be a materialized [`RequestTrace`] or any
//!   arrival-ordered iterator ([`ServingSimulator::run_streamed`]); retired
//!   request slots are recycled, so the live request store stays
//!   O(batch + queue) however long the workload runs (each completed
//!   request still leaves one [`RequestRecord`], which keeps the
//!   percentiles exact),
//! * occupancy, block utilization and fragmentation come from running
//!   counters maintained at admit/grow/preempt/retire time (no per-step
//!   stamp walk over every sequence's block list),
//! * the time-weighted means integrate the signals over exact inter-event
//!   intervals — including idle gaps and the partial intervals an arrival
//!   splits a step into — via [`crate::metrics::TimeWeightedMean`],
//! * a *quiet* decode step — one whose boundary would only launch the next
//!   decode step — runs inline, without an event round trip: the clock
//!   and the means advance exactly as the event path would advance them,
//!   and one completion event ends each quiet stretch.
//!
//! The policies differ only in three rules the core derives from
//! [`ServingConfig::scheduler`]. *Admission*: the reserve-up-front
//! policies charge a request's whole `prompt + output` footprint against
//! the token budget, so it can never be exceeded;
//! [`SchedulerKind::PagedContinuous`] admits on *current* need and shares
//! prompt prefixes through the [`crate::prefix`] radix cache. *Growth*:
//! paged sequences allocate [`crate::kv`] blocks on demand and preempt
//! when the pool runs dry; reserved ones never grow or preempt.
//! *Retirement*: static batching admits only into an empty batch and
//! releases its slots only once the whole batch has drained.
//!
//! The pre-event-core step loop survives as a test-only reference
//! implementation (`scheduler::reference`); the equivalence property
//! suite proves the event core reproduces its reports exactly (modulo the
//! interval-integrated means) on seeded traces for all three policies.

use std::collections::VecDeque;

use crate::cost::{ChunkWork, ServingCostModel, StepMix};
use crate::event::{Event, EventQueue};
use crate::kv::{BlockAllocator, BlockId};
use crate::lora::{AdapterCache, AdapterId, AdapterModel, AdapterStats};
use crate::metrics::{RequestRecord, ServingMetrics, SloTarget, TimeWeightedMean};
use crate::prefix::{stream_links, BlockLink, PrefixCache};
use crate::tenant::{QosAdmission, QosClass, QosStats};
use crate::tier::{KvShipSpec, KvTierModel, TierKind, TierResidency};
use crate::workload::{splitmix64, Request, RequestTrace};

/// Which admission policy the simulated server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Continuous batching: requests join the running batch at any token
    /// boundary and leave on completion. Admission reserves the whole
    /// `prompt + output` KV footprint up front.
    ContinuousBatching,
    /// Static batching: a batch is formed from the queue only when the
    /// server is idle and runs to completion before the next admission.
    StaticBatching,
    /// Paged continuous batching: admission on current need, block-granular
    /// on-demand KV allocation, optional radix-tree prefix sharing, and
    /// preempt-by-recompute when allocation fails.
    PagedContinuous,
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::ContinuousBatching => write!(f, "continuous"),
            SchedulerKind::StaticBatching => write!(f, "static"),
            SchedulerKind::PagedContinuous => write!(f, "paged"),
        }
    }
}

/// Default tokens per KV block of the paged policy (vLLM's default).
pub const DEFAULT_BLOCK_SIZE: usize = 16;

/// Speculative-decoding policy of a replica: every *pure* decode step
/// becomes a draft-and-verify burst of `draft_tokens` drafts priced by
/// [`crate::cost::ServingCostModel::speculative_burst_seconds`], and each
/// decoding sequence retires its accepted prefix (plus the verify step's
/// own token) when the burst completes. Acceptance is a deterministic
/// seeded draw per (request, burst), so two runs of the same trace accept
/// the exact same tokens. Decodes that ride along inside a chunked batch
/// step stay plain single-token decodes — speculation only pays off when
/// the step is decode-bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationSpec {
    /// Draft tokens proposed per burst (0 disables speculation).
    pub draft_tokens: usize,
    /// Probability each draft token is accepted, conditioned on every
    /// earlier draft in the burst being accepted (the standard
    /// longest-accepted-prefix model).
    pub acceptance_rate: f64,
    /// Seed of the deterministic acceptance draws.
    pub seed: u64,
}

impl SpeculationSpec {
    /// Speculation switched off: every decode step emits one token.
    #[must_use]
    pub fn disabled() -> Self {
        SpeculationSpec {
            draft_tokens: 0,
            acceptance_rate: 0.0,
            seed: 0,
        }
    }

    /// A burst of `draft_tokens` drafts accepted at `acceptance_rate`.
    ///
    /// # Panics
    ///
    /// Panics if the acceptance rate is outside `[0, 1]`.
    #[must_use]
    pub fn new(draft_tokens: usize, acceptance_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&acceptance_rate),
            "acceptance rate must be in [0, 1]"
        );
        SpeculationSpec {
            draft_tokens,
            acceptance_rate,
            seed,
        }
    }

    /// Whether decode steps run as draft-and-verify bursts.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.draft_tokens > 0
    }

    /// Accepted draft tokens of one burst: the longest prefix of the
    /// `draft_tokens` drafts whose seeded uniform draws all land under the
    /// acceptance rate. Deterministic in `(seed, request_id, burst)`, so
    /// replays and the reference loop reproduce the run bit for bit; rate
    /// 1.0 accepts every draft, rate 0.0 none.
    #[must_use]
    pub fn accepted_tokens(&self, request_id: u64, burst: u64) -> usize {
        let base = self
            .seed
            .wrapping_add(request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(burst.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut accepted = 0;
        for i in 0..self.draft_tokens as u64 {
            let unit = (splitmix64(base.wrapping_add(i)) >> 11) as f64 / (1u64 << 53) as f64;
            if unit < self.acceptance_rate {
                accepted += 1;
            } else {
                break;
            }
        }
        accepted
    }
}

/// Configuration of one simulated serving replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Maximum sequences decoded together.
    pub max_batch: usize,
    /// KV-cache budget in tokens (across all resident sequences), e.g. from
    /// [`deca_llm::footprint::max_kv_tokens`]. The paged policy carves this
    /// into `kv_budget_tokens / block_size` whole blocks.
    pub kv_budget_tokens: usize,
    /// Admission policy.
    pub scheduler: SchedulerKind,
    /// Tokens per KV block ([`SchedulerKind::PagedContinuous`] only;
    /// ignored by the reserve-up-front policies).
    pub block_size: usize,
    /// Whether the paged policy shares prompt prefixes through the radix
    /// cache (ignored by the reserve-up-front policies).
    pub prefix_sharing: bool,
    /// KV tiers below HBM ([`SchedulerKind::PagedContinuous`] only).
    /// Disabled by default; with capacity, preemption chooses
    /// swap-vs-recompute by modeled cost and cold prefix blocks demote
    /// instead of evict.
    pub tiers: KvTierModel,
    /// KV shipping on arrival (the disaggregated decode pool's inbound
    /// transfer). Disabled by default; when enabled, every arrival's KV
    /// crosses the interconnect before the request becomes admissible.
    pub kv_ship: KvShipSpec,
    /// Chunked prefill: prompts are split into chunks of at most this many
    /// tokens and interleaved with the decode batch inside chunked batch
    /// steps ([`crate::cost::StepMix`]), so a long document never
    /// monopolizes the engine for a whole prompt. `None` (the default)
    /// prefills whole prompts in dedicated waves — the classic
    /// prefill-prioritized schedule.
    pub chunk_budget_tokens: Option<usize>,
    /// Speculative decoding policy. Disabled by default.
    pub speculation: SpeculationSpec,
    /// LoRA adapter paging ([`crate::lora`]). Disabled by default; when
    /// enabled, the paged scheduler carves the adapter cache's blocks out
    /// of the KV pool, and every batch step activating a non-resident
    /// adapter pays a weight load.
    pub adapters: AdapterModel,
    /// Consecutive Interactive-over-Batch admission bypasses before a
    /// waiting Batch request is force-admitted ([`crate::tenant`]'s aging
    /// rule — the anti-starvation bound). Irrelevant on single-class
    /// traces, where admission degenerates to plain FIFO.
    pub qos_aging: usize,
}

/// Default aging threshold of the QoS admission policy.
fn default_qos_aging() -> usize {
    8
}

impl ServingConfig {
    /// A continuous-batching replica.
    #[must_use]
    pub fn continuous(max_batch: usize, kv_budget_tokens: usize) -> Self {
        ServingConfig {
            max_batch,
            kv_budget_tokens,
            scheduler: SchedulerKind::ContinuousBatching,
            block_size: DEFAULT_BLOCK_SIZE,
            prefix_sharing: false,
            tiers: KvTierModel::disabled(),
            kv_ship: KvShipSpec::disabled(),
            chunk_budget_tokens: None,
            speculation: SpeculationSpec::disabled(),
            adapters: AdapterModel::disabled(),
            qos_aging: default_qos_aging(),
        }
    }

    /// A static-batching replica with the same resources.
    #[must_use]
    pub fn static_batching(max_batch: usize, kv_budget_tokens: usize) -> Self {
        ServingConfig {
            scheduler: SchedulerKind::StaticBatching,
            ..ServingConfig::continuous(max_batch, kv_budget_tokens)
        }
    }

    /// A paged continuous-batching replica (prefix sharing off; enable it
    /// with [`ServingConfig::with_prefix_sharing`]).
    #[must_use]
    pub fn paged(max_batch: usize, kv_budget_tokens: usize, block_size: usize) -> Self {
        ServingConfig {
            max_batch,
            kv_budget_tokens,
            scheduler: SchedulerKind::PagedContinuous,
            block_size,
            prefix_sharing: false,
            tiers: KvTierModel::disabled(),
            kv_ship: KvShipSpec::disabled(),
            chunk_budget_tokens: None,
            speculation: SpeculationSpec::disabled(),
            adapters: AdapterModel::disabled(),
            qos_aging: default_qos_aging(),
        }
    }

    /// The same replica under the other admission policy.
    #[must_use]
    pub fn with_scheduler(self, scheduler: SchedulerKind) -> Self {
        ServingConfig { scheduler, ..self }
    }

    /// The same replica with prefix sharing switched on or off.
    #[must_use]
    pub fn with_prefix_sharing(self, prefix_sharing: bool) -> Self {
        ServingConfig {
            prefix_sharing,
            ..self
        }
    }

    /// The same replica with a KV tier hierarchy below HBM.
    #[must_use]
    pub fn with_tiers(self, tiers: KvTierModel) -> Self {
        ServingConfig { tiers, ..self }
    }

    /// The same replica with inbound KV shipping on every arrival.
    #[must_use]
    pub fn with_kv_ship(self, kv_ship: KvShipSpec) -> Self {
        ServingConfig { kv_ship, ..self }
    }

    /// The same replica with chunked prefill on (`Some(budget)`) or off
    /// (`None`).
    #[must_use]
    pub fn with_chunked_prefill(self, chunk_budget_tokens: Option<usize>) -> Self {
        ServingConfig {
            chunk_budget_tokens,
            ..self
        }
    }

    /// The same replica under a speculative-decoding policy.
    #[must_use]
    pub fn with_speculation(self, speculation: SpeculationSpec) -> Self {
        ServingConfig {
            speculation,
            ..self
        }
    }

    /// The same replica with LoRA adapter paging modeled.
    #[must_use]
    pub fn with_adapters(self, adapters: AdapterModel) -> Self {
        ServingConfig { adapters, ..self }
    }

    /// The same replica with a different QoS aging threshold (the maximum
    /// consecutive Interactive bypasses a waiting Batch request endures).
    #[must_use]
    pub fn with_qos_aging(self, qos_aging: usize) -> Self {
        ServingConfig { qos_aging, ..self }
    }
}

/// Paged-KV counters of one [`SchedulerKind::PagedContinuous`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagedStats {
    /// Tokens per block.
    pub block_size: usize,
    /// Blocks in the pool (`kv_budget_tokens / block_size`).
    pub total_blocks: usize,
    /// Largest allocated-block count observed.
    pub peak_allocated_blocks: usize,
    /// Time-weighted mean fraction of the pool allocated, integrated over
    /// inter-event intervals (idle spans included).
    pub mean_block_utilization: f64,
    /// Time-weighted mean fraction of *sequence-held* block slots not
    /// backing a resident token — the waste of block-granular rounding.
    /// (Blocks held only by the prefix cache are full of cached tokens and
    /// are not waste, so they are excluded; a block shared by N sequences
    /// is one physical block, so it contributes its slots and its tokens
    /// once.)
    pub mean_internal_fragmentation: f64,
    /// Sequences preempted (blocks freed, request re-queued — by
    /// recompute or by swap-out).
    pub preemptions: u64,
    /// Blocks evicted from the prefix cache to satisfy allocations.
    pub cache_evictions: u64,
    /// Largest prefix-cache residency observed, in blocks.
    pub cache_peak_resident_blocks: usize,
    /// Prompt tokens served from the prefix cache (prefill skipped).
    pub prefix_hit_tokens: u64,
    /// Prompt tokens actually prefilled (the uncached suffixes).
    pub prefix_uncached_tokens: u64,
    /// Preemptions resolved by swapping the victim's KV to a lower tier
    /// instead of recomputing it ([`crate::KvTierModel`]).
    pub swap_outs: u64,
    /// Swapped-out sequences whose KV finished reading back into HBM.
    pub swap_ins: u64,
    /// Total blocks written out across all swap-outs.
    pub swapped_out_blocks: u64,
    /// Cold prefix blocks demoted to a lower tier instead of dropped.
    pub tier_demotions: u64,
    /// Demoted prefix blocks promoted back to HBM by a later admission
    /// (a prefill priced as a transfer instead of compute).
    pub tier_promotions: u64,
    /// Arrivals whose KV crossed the interconnect before admission
    /// ([`crate::KvShipSpec`], the disaggregated decode pool).
    pub kv_transfers: u64,
    /// Largest DDR-tier occupancy observed, in blocks.
    pub peak_ddr_blocks: usize,
    /// Largest disk-tier occupancy observed, in blocks.
    pub peak_disk_blocks: usize,
    /// Time-weighted mean fraction of the DDR tier occupied (0 when the
    /// tier is disabled).
    pub mean_ddr_occupancy: f64,
    /// Time-weighted mean fraction of the disk tier occupied (0 when the
    /// tier is disabled).
    pub mean_disk_occupancy: f64,
}

impl PagedStats {
    /// Fraction of prompt tokens served from the prefix cache.
    #[must_use]
    pub fn prefix_hit_rate(&self) -> f64 {
        let total = self.prefix_hit_tokens + self.prefix_uncached_tokens;
        if total == 0 {
            0.0
        } else {
            self.prefix_hit_tokens as f64 / total as f64
        }
    }
}

/// Everything one serving run produced. `PartialEq` so determinism is
/// directly assertable: two runs of the same trace compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// The admission policy that ran.
    pub scheduler: SchedulerKind,
    /// Completed requests with their lifecycle timestamps.
    pub records: Vec<RequestRecord>,
    /// Requests admitted into the batch over the whole run.
    pub admitted: usize,
    /// Requests rejected at admission (their full KV footprint exceeds the
    /// budget outright, so they could never run).
    pub rejected: usize,
    /// Wall-clock end of the run (last completion).
    pub makespan_s: f64,
    /// KV budget the run was configured with.
    pub kv_budget_tokens: usize,
    /// Peak KV tokens *reserved* against the budget at any instant.
    pub peak_kv_reserved_tokens: usize,
    /// Peak KV tokens actually resident (prompt + generated so far). Under
    /// paged prefix sharing, blocks shared across sequences count once, so
    /// this never exceeds the pool.
    pub peak_kv_occupied_tokens: usize,
    /// Time-weighted mean KV occupancy as a fraction of the budget
    /// (distinct resident tokens, so at most 1.0), integrated over
    /// inter-event intervals — idle gaps count as zero occupancy.
    pub mean_kv_occupancy: f64,
    /// Largest decode batch observed.
    pub peak_batch: usize,
    /// Largest admission-queue depth observed.
    pub peak_queue_depth: usize,
    /// Time-weighted mean admission-queue depth, integrated over
    /// inter-event intervals (an arrival mid-step raises the depth from
    /// its own instant, not retroactively over the whole step).
    pub mean_queue_depth: f64,
    /// Decode steps executed. Under speculation each is one
    /// draft-and-verify burst.
    pub decode_steps: u64,
    /// Prefill steps executed (one per admission wave).
    pub prefill_steps: u64,
    /// Chunked batch steps executed (prefill chunks interleaved with the
    /// decode batch; zero when chunked prefill is off).
    pub chunk_steps: u64,
    /// Prompt tokens prefilled inside chunked batch steps. Summed over a
    /// run without preemption this equals the admitted prompt tokens —
    /// the chunk-boundary conservation law the property suite pins.
    pub chunked_prefill_tokens: u64,
    /// Per-class admission and fairness counters ([`crate::tenant`]). On
    /// the paged policy these count *batch entries*, so re-admissions
    /// after preemption count again (unlike [`ServingReport::admitted`]).
    pub qos: QosStats,
    /// Adapter-cache counters ([`crate::lora`]); all zero on adapter-free
    /// runs.
    pub adapters: AdapterStats,
    /// Paged-KV counters (`None` for the reserve-up-front policies).
    pub paged: Option<PagedStats>,
}

impl ServingReport {
    /// Aggregated latency/throughput metrics of the run.
    #[must_use]
    pub fn metrics(&self) -> ServingMetrics {
        ServingMetrics::from_records(&self.records, self.rejected, self.makespan_s)
    }

    /// Requests per second that met `slo`.
    #[must_use]
    pub fn goodput_rps(&self, slo: &SloTarget) -> f64 {
        ServingMetrics::goodput_rps(&self.records, slo, self.makespan_s)
    }

    /// Completed requests.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Completed-request records of one QoS class.
    #[must_use]
    pub fn class_records(&self, class: QosClass) -> Vec<RequestRecord> {
        self.records
            .iter()
            .filter(|r| r.qos == class)
            .copied()
            .collect()
    }

    /// Aggregated metrics of one QoS class (its rejections from
    /// [`ServingReport::qos`], its span the whole run's makespan).
    #[must_use]
    pub fn class_metrics(&self, class: QosClass) -> ServingMetrics {
        let rejected = match class {
            QosClass::Interactive => self.qos.interactive_rejected,
            QosClass::Batch => self.qos.batch_rejected,
        };
        ServingMetrics::from_records(&self.class_records(class), rejected, self.makespan_s)
    }

    /// Requests per second of one QoS class that met `slo`.
    #[must_use]
    pub fn class_goodput_rps(&self, class: QosClass, slo: &SloTarget) -> f64 {
        ServingMetrics::goodput_rps(&self.class_records(class), slo, self.makespan_s)
    }
}

/// A single serving replica: a cost model plus a scheduler configuration.
/// Driving it over a [`RequestTrace`] is a pure function of its inputs.
#[derive(Debug, Clone)]
pub struct ServingSimulator<C: ServingCostModel> {
    cost: C,
    config: ServingConfig,
}

impl<C: ServingCostModel> ServingSimulator<C> {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or the KV budget is zero, if a configured
    /// chunk budget is zero, if the speculative acceptance rate leaves
    /// `[0, 1]`, or — for the paged policy — if the budget does not hold
    /// at least one whole block, or if an enabled adapter cache's
    /// reservation would not leave at least one block for sequences.
    #[must_use]
    pub fn new(cost: C, config: ServingConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.kv_budget_tokens > 0, "KV budget must be positive");
        if let Some(budget) = config.chunk_budget_tokens {
            assert!(budget > 0, "chunk budget must be positive");
        }
        assert!(
            (0.0..=1.0).contains(&config.speculation.acceptance_rate),
            "acceptance rate must be in [0, 1]"
        );
        if config.scheduler == SchedulerKind::PagedContinuous {
            assert!(config.block_size > 0, "block size must be positive");
            assert!(
                config.kv_budget_tokens >= config.block_size,
                "the KV budget must hold at least one whole block"
            );
            if config.adapters.enabled() {
                assert!(
                    config.adapters.reserved_blocks(config.block_size)
                        < config.kv_budget_tokens / config.block_size,
                    "the adapter cache reservation must leave KV blocks for sequences"
                );
            }
        }
        ServingSimulator { cost, config }
    }

    /// The replica configuration.
    #[must_use]
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Consumes the simulator and returns the cost model (with its caches
    /// warm, ready for the next run).
    #[must_use]
    pub fn into_cost_model(self) -> C {
        self.cost
    }

    /// Simulates serving the whole trace to drain: every request is either
    /// completed or rejected when this returns, so
    /// `admitted == completed` and `completed + rejected == trace.len()`.
    pub fn run(&mut self, trace: &RequestTrace) -> ServingReport {
        self.run_streamed(trace.requests().iter().copied())
    }

    /// Simulates serving a stream of requests to drain without ever
    /// materializing them: arrivals are pulled from the iterator lazily,
    /// one at a time, and retired request slots are recycled, so the live
    /// request store stays O(batch + queue) however long the workload
    /// runs. The report still keeps one [`RequestRecord`] per completed
    /// request (its percentiles are exact), so total memory grows with
    /// the completed count. Requests must arrive in non-decreasing
    /// `arrival_s` order with ids assigned in that order — exactly what
    /// [`RequestTrace`] holds and
    /// [`crate::workload::SharedPrefixChatStream`] emits — and on the same
    /// request sequence this produces bit-identical reports to
    /// [`ServingSimulator::run`].
    pub fn run_streamed<I>(&mut self, requests: I) -> ServingReport
    where
        I: IntoIterator<Item = Request>,
    {
        let mut core = RunCore::new(self.config, requests.into_iter());
        core.drive(&mut self.cost);
        core.into_report()
    }
}

/// A sequence resident in the running batch. Under the reserve-up-front
/// rule it holds no blocks and never swaps: its KV was charged whole
/// against the token budget at admission.
#[derive(Debug, Clone)]
struct PagedActive {
    /// Slot id of the request in the run's slot store.
    idx: usize,
    /// Whether the (possibly resumed) prompt has been processed.
    prefilled: bool,
    /// Prompt tokens committed so far (cached + promoted + chunked
    /// prefill) — the chunk cursor of chunked prefill. Unused when whole
    /// prompts prefill in dedicated waves.
    prefilled_tokens: usize,
    /// Draft-and-verify bursts this sequence has decoded through — the
    /// per-sequence counter feeding the deterministic acceptance draws.
    spec_bursts: u64,
    /// Tokens currently resident (prompt + generated so far).
    context_tokens: usize,
    /// Decode tokens still to generate in this residency.
    remaining_decode: usize,
    /// Prompt tokens served from the prefix cache at admission.
    cached_prefix_tokens: usize,
    /// Prompt tokens promoted from a lower KV tier at admission — their
    /// prefill is priced as a swap-in transfer instead of compute.
    promoted_tokens: usize,
    /// Swap-in seconds of the promoted blocks, added to this sequence's
    /// prefill time.
    promote_wait_s: f64,
    /// Whether the sequence is waiting on its swap-in transfer: its HBM
    /// blocks are reserved but decode makes no progress until the
    /// [`Event::SwapInDone`] fires.
    swapping: bool,
    /// KV blocks this sequence holds a reference to, in sequence order.
    blocks: Vec<BlockId>,
    /// Time the last output token was produced (set once generation
    /// finishes; under static batching the slot may stay blocked longer).
    done_s: Option<f64>,
}

impl PagedActive {
    /// A freshly admitted sequence whose first `cached_prefix_tokens +
    /// promoted_tokens` prompt tokens are already committed, resident
    /// context: chunked prefill resumes after them, and occupancy counts
    /// them while the sequence waits for its first chunk.
    fn admitted(
        idx: usize,
        cached_prefix_tokens: usize,
        promoted_tokens: usize,
        promote_wait_s: f64,
        blocks: Vec<BlockId>,
    ) -> Self {
        PagedActive {
            idx,
            prefilled: false,
            prefilled_tokens: cached_prefix_tokens + promoted_tokens,
            spec_bursts: 0,
            context_tokens: cached_prefix_tokens + promoted_tokens,
            remaining_decode: 0,
            cached_prefix_tokens,
            promoted_tokens,
            promote_wait_s,
            swapping: false,
            blocks,
            done_s: None,
        }
    }
}

/// Where a swap-preempted sequence's KV sits while it waits to re-enter
/// the batch: enough state to resume decode exactly where it stopped,
/// without the recompute path's `generated_before` re-prefill. Held in its
/// [`Slot`] from swap-out until the swap-in transfer lands.
#[derive(Debug, Clone, Copy)]
struct SwappedSeq {
    /// Tokens resident when the sequence was preempted.
    context_tokens: usize,
    /// Decode tokens it still had to generate.
    remaining_decode: usize,
    /// HBM blocks it held (and will need again to resume).
    blocks_needed: usize,
    /// The tier holding its KV (reservation released at swap-in).
    tier: TierKind,
}

/// A request alive in a run (queued or running) plus the per-request side
/// state that must survive preemption: a victim's blocks are freed and it
/// re-queues at the front, but its first-token timestamp is stamped only
/// once (the token was already streamed) and its re-prefill resumes from
/// `prompt + generated` tokens — the recompute includes everything it had
/// produced. The slot is recycled once the request retires or rejects, so
/// the store stays O(batch + queue) on an unbounded source.
#[derive(Debug, Clone, Copy)]
struct Slot {
    request: Request,
    /// Time of the first output token (survives preemption).
    first_token: Option<f64>,
    /// Tokens generated before the latest preemption — the recompute
    /// prefill covers `prompt + generated_before` tokens.
    generated_before: usize,
    /// Whether the request was ever admitted (re-admissions after
    /// preemption do not count twice).
    was_admitted: bool,
    /// Set while the request is swapped out, until its swap-in lands.
    swapped: Option<SwappedSeq>,
}

impl Slot {
    fn new(request: Request) -> Self {
        Slot {
            request,
            first_token: None,
            generated_before: 0,
            was_admitted: false,
            swapped: None,
        }
    }
}

/// The event-driven state of one serving run, under any of the three
/// policies.
///
/// Engine steps are *computed at their start*: the step's per-request
/// progress is applied and its completion event scheduled `dt` ahead, so
/// the arithmetic (and therefore every timestamp) is identical to the
/// reference step loop's, while arrivals landing inside the step interval
/// merely join the admission queue until the completion event fires. When
/// the boundary at a step's end would provably do nothing but launch the
/// next plain decode step ([`RunCore::quiet_until`]), that step starts
/// inline instead: [`RunCore::boundary`] advances the clock to the end and
/// starts it, the same calls in the same order the event path makes, so
/// stretches of quiet steps cost no heap traffic and no admit or retire
/// scans.
///
/// The policy is read off the configured [`SchedulerKind`] in two rules.
/// [`RunCore::reserve`] swaps paged admission for a charge of the whole
/// `prompt + output` footprint against the `reserved` token counter: no
/// blocks, no prefix cache, no tiers, no adapter carve, no growth and no
/// preemption, and reports keep the configured token budget as their
/// capacity. [`RunCore::static_batch`] admits only into an empty batch and
/// releases slots only once every member has finished.
///
/// Occupancy and fragmentation come from running counters instead of the
/// old per-step stamp walk over every sequence's block list: `run_refs`
/// counts, per block, the *running sequences* referencing it (the prefix
/// cache's own references are deliberately excluded), and
/// `occupied = Σ context − block_size · (Σ run_refs − distinct blocks)`
/// de-duplicates shared prefix blocks exactly like the walk did — a
/// shared block is always a full block fully covered by every sharer's
/// context, so each extra sharer over-counts exactly `block_size` tokens.
struct RunCore<I> {
    config: ServingConfig,
    /// Arrival-ordered request source; pulled lazily, one outstanding
    /// arrival event at a time.
    source: I,
    /// Live request slots, indexed by the ids `queue`/`running` carry;
    /// recycled on retire/reject.
    slots: Vec<Slot>,
    /// Recycled slot indices available for the next arrival.
    free_slots: Vec<usize>,
    /// Arrival time of the last request pulled from the source.
    last_arrival_s: f64,
    events: EventQueue,
    queue: VecDeque<usize>,
    running: Vec<PagedActive>,
    /// Sequences leaving the batch at this boundary, in batch order (kept
    /// between boundaries so retiring allocates nothing).
    retired: Vec<PagedActive>,
    records: Vec<RequestRecord>,
    allocator: BlockAllocator,
    cache: Option<PrefixCache>,
    /// Occupancy of the KV tiers below HBM (demoted prefix blocks and
    /// swap-out reservations).
    residency: TierResidency,
    /// Whether any tier below HBM has capacity; cached so the untiered
    /// hot path pays one branch, never a residency probe.
    tiers_enabled: bool,
    now: f64,
    /// Whether a step-completion event is pending in the heap.
    step_in_flight: bool,
    admitted: usize,
    rejected: usize,
    /// The QoS priority-admission policy and its per-class counters.
    qos: QosAdmission,
    /// LRU of resident LoRA adapters, backed by `adapter_blocks` (held
    /// outside the KV budget under the reserve rule).
    adapter_cache: AdapterCache,
    /// Blocks carved out of the pool up front for the adapter cache
    /// (empty when adapter paging is disabled). Held for the whole run:
    /// adapter residency churns *within* this reservation.
    adapter_blocks: Vec<BlockId>,
    /// The distinct adapters of the step being priced (kept between steps
    /// so pricing allocates nothing).
    step_adapters: Vec<AdapterId>,
    /// Victims preempted inside the step being launched; their re-queue
    /// events are scheduled at the step's completion time (the reference
    /// loop pushes them mid-step, but the queue is only read at
    /// boundaries, so deferring to the boundary is equivalent).
    pending_preemptions: Vec<usize>,
    /// Victims swapped out inside the step being launched, with their
    /// swap-out durations; their [`Event::SwapOutDone`] re-queues are
    /// scheduled when the step is (transfer overlaps the step).
    pending_swap_outs: Vec<(usize, f64)>,
    /// Per-block count of *running sequences* referencing it.
    run_refs: Vec<u32>,
    /// Σ over blocks of `run_refs` (sequence→block reference pairs).
    total_run_refs: usize,
    /// Blocks with at least one running-sequence reference.
    distinct_blocks: usize,
    /// Running Σ of `context_tokens` over the batch.
    sum_context: usize,
    /// Admitted-but-not-yet-prefilled sequences in the batch.
    pending_prefill: usize,
    /// KV tokens the reserve rule has charged against the budget.
    reserved: usize,
    peak_reserved: usize,
    preemptions: u64,
    prefix_hit_tokens: u64,
    prefix_uncached_tokens: u64,
    swap_outs: u64,
    swap_ins: u64,
    swapped_out_blocks: u64,
    tier_demotions: u64,
    tier_promotions: u64,
    kv_transfers: u64,
    peak_ddr_blocks: usize,
    peak_disk_blocks: usize,
    peak_occupied: usize,
    peak_batch: usize,
    peak_queue: usize,
    /// Test-only: forces every step through the event queue.
    #[cfg(test)]
    event_path_only: bool,
    /// Test-only: steps run inline by quiet stretches.
    #[cfg(test)]
    inline_steps: u64,
    decode_steps: u64,
    prefill_steps: u64,
    chunk_steps: u64,
    chunked_prefill_tokens: u64,
    queue_depth: TimeWeightedMean,
    occupancy: TimeWeightedMean,
    block_util: TimeWeightedMean,
    fragmentation: TimeWeightedMean,
    ddr_occupancy: TimeWeightedMean,
    disk_occupancy: TimeWeightedMean,
}

impl<I: Iterator<Item = Request>> RunCore<I> {
    fn new(config: ServingConfig, source: I) -> Self {
        let reserve = config.scheduler != SchedulerKind::PagedContinuous;
        // The reserve rule charges a token counter, not blocks: an empty
        // pool leaves every block path inert.
        let mut allocator = if reserve {
            BlockAllocator::new(1, 0)
        } else {
            BlockAllocator::from_token_budget(config.block_size, config.kv_budget_tokens)
        };
        let total_blocks = allocator.total_blocks();
        let cache =
            (!reserve && config.prefix_sharing).then(|| PrefixCache::new(config.block_size));
        let mut adapter_cache = AdapterCache::new(config.adapters.cache_slots);
        let mut adapter_blocks = Vec::new();
        // Reserved runs hold the adapter cache outside the KV budget.
        if !reserve && config.adapters.enabled() {
            // The adapter cache's weights live *inside* the KV pool
            // (the S-LoRA unified-paging scheme): carve its blocks out up
            // front so sequence admission competes against the remainder.
            // `ServingSimulator::new` checked that the carve leaves blocks.
            let carve = config.adapters.reserved_blocks(config.block_size);
            for _ in 0..carve {
                adapter_blocks.push(allocator.alloc().expect("reservation fits the pool"));
            }
            adapter_cache.set_reserved_blocks(carve);
        }
        RunCore {
            config,
            source,
            slots: Vec::new(),
            free_slots: Vec::new(),
            last_arrival_s: 0.0,
            events: EventQueue::new(),
            queue: VecDeque::new(),
            running: Vec::new(),
            retired: Vec::new(),
            records: Vec::new(),
            allocator,
            cache,
            residency: TierResidency::new(config.tiers),
            tiers_enabled: !reserve && config.tiers.enabled(),
            now: 0.0,
            step_in_flight: false,
            admitted: 0,
            rejected: 0,
            qos: QosAdmission::new(),
            adapter_cache,
            adapter_blocks,
            step_adapters: Vec::new(),
            pending_preemptions: Vec::new(),
            pending_swap_outs: Vec::new(),
            run_refs: vec![0; total_blocks],
            total_run_refs: 0,
            distinct_blocks: 0,
            sum_context: 0,
            pending_prefill: 0,
            reserved: 0,
            peak_reserved: 0,
            preemptions: 0,
            prefix_hit_tokens: 0,
            prefix_uncached_tokens: 0,
            swap_outs: 0,
            swap_ins: 0,
            swapped_out_blocks: 0,
            tier_demotions: 0,
            tier_promotions: 0,
            kv_transfers: 0,
            peak_ddr_blocks: 0,
            peak_disk_blocks: 0,
            peak_occupied: 0,
            peak_batch: 0,
            peak_queue: 0,
            #[cfg(test)]
            event_path_only: false,
            #[cfg(test)]
            inline_steps: 0,
            decode_steps: 0,
            prefill_steps: 0,
            chunk_steps: 0,
            chunked_prefill_tokens: 0,
            queue_depth: TimeWeightedMean::new(),
            occupancy: TimeWeightedMean::new(),
            block_util: TimeWeightedMean::new(),
            fragmentation: TimeWeightedMean::new(),
            ddr_occupancy: TimeWeightedMean::new(),
            disk_occupancy: TimeWeightedMean::new(),
        }
    }

    /// Whether admission reserves each request's whole footprint up front
    /// (continuous and static batching) instead of paging it.
    fn reserve(&self) -> bool {
        self.config.scheduler != SchedulerKind::PagedContinuous
    }

    /// Whether the batch runs to completion before the next one forms.
    fn static_batch(&self) -> bool {
        self.config.scheduler == SchedulerKind::StaticBatching
    }

    /// A running sequence took a reference to `block`.
    fn add_run_ref(&mut self, block: BlockId) {
        if self.run_refs[block] == 0 {
            self.distinct_blocks += 1;
        }
        self.run_refs[block] += 1;
        self.total_run_refs += 1;
    }

    /// Allocates `fresh` blocks after `blocks` (room was made beforehand)
    /// and takes a running-sequence reference to every block of the
    /// result: the blocks a sequence holds as it enters the batch.
    fn hold_blocks(&mut self, mut blocks: Vec<BlockId>, fresh: usize) -> Vec<BlockId> {
        for _ in 0..fresh {
            blocks.push(self.allocator.alloc().expect("free blocks checked"));
        }
        for &block in &blocks {
            self.add_run_ref(block);
        }
        blocks
    }

    /// Drops a sequence's running reference to each of `blocks` as it
    /// leaves the batch, and releases them: through the prefix cache when
    /// one is attached, so its shared-block bookkeeping resyncs as the
    /// ref-count falls back to the cache's own reference (the
    /// [`PrefixCache::release`] contract), and straight to the allocator
    /// otherwise.
    fn release_blocks(&mut self, blocks: &[BlockId]) {
        for &block in blocks {
            self.run_refs[block] -= 1;
            if self.run_refs[block] == 0 {
                self.distinct_blocks -= 1;
            }
            self.total_run_refs -= 1;
            match &mut self.cache {
                Some(cache) => cache.release(block, &mut self.allocator),
                None => self.allocator.free(block),
            }
        }
    }

    /// Distinct resident tokens across the batch: a prefix block shared by
    /// several sequences backs one physical block, so its tokens count
    /// once, not once per sharer — which is what keeps
    /// `peak_kv_occupied_tokens` within the pool and `mean_kv_occupancy`
    /// within 1.0 under heavy prefix sharing.
    fn occupied_tokens(&self) -> usize {
        self.sum_context - self.config.block_size * (self.total_run_refs - self.distinct_blocks)
    }

    /// Token slots of the blocks held by at least one running sequence.
    fn sequence_slots(&self) -> usize {
        self.distinct_blocks * self.config.block_size
    }

    /// The KV capacity occupancy is measured against: the configured
    /// token budget under the reserve rule, the whole-block pool under
    /// paging.
    fn kv_capacity_tokens(&self) -> usize {
        if self.reserve() {
            self.config.kv_budget_tokens
        } else {
            self.allocator.total_tokens()
        }
    }

    /// The prompt a (possibly resumed) request must prefill: its original
    /// prompt plus everything it had generated before preemption.
    fn effective_prompt(&self, idx: usize) -> usize {
        let slot = &self.slots[idx];
        slot.request.prompt_tokens + slot.generated_before
    }

    /// Pulls the next request from the source (if any), stores it in a
    /// recycled slot, and schedules its arrival event.
    fn schedule_next_arrival(&mut self) {
        if let Some(request) = self.source.next() {
            self.last_arrival_s = request.arrival_s;
            let slot = if let Some(slot) = self.free_slots.pop() {
                self.slots[slot] = Slot::new(request);
                slot
            } else {
                self.slots.push(Slot::new(request));
                self.slots.len() - 1
            };
            self.events
                .push(request.arrival_s, Event::Arrival { request: slot });
        }
    }

    /// Integrates the time-weighted signals over `[now, t)` — all are O(1)
    /// reads of running counters — and advances the clock. The block and
    /// tier gauges exist only under paging.
    fn advance_to(&mut self, t: f64) {
        let dt = t - self.now;
        if dt > 0.0 {
            let occupied = self.occupied_tokens();
            self.queue_depth.observe(self.queue.len() as f64, dt);
            self.occupancy
                .observe(occupied as f64 / self.kv_capacity_tokens() as f64, dt);
            if !self.reserve() {
                self.block_util.observe(self.allocator.utilization(), dt);
                // Internal fragmentation over the sequence-held slots only
                // (cache-only blocks are full of cached tokens, not waste).
                let seq_slots = self.sequence_slots();
                let frag = if seq_slots > 0 {
                    1.0 - occupied as f64 / seq_slots as f64
                } else {
                    0.0
                };
                self.fragmentation.observe(frag, dt);
            }
            if self.tiers_enabled {
                let model = self.residency.model();
                let ddr_cap = model.ddr.capacity_blocks;
                let disk_cap = model.disk.capacity_blocks;
                if ddr_cap > 0 {
                    let used = self.residency.used_blocks(TierKind::Ddr);
                    self.ddr_occupancy.observe(used as f64 / ddr_cap as f64, dt);
                }
                if disk_cap > 0 {
                    let used = self.residency.used_blocks(TierKind::Disk);
                    self.disk_occupancy
                        .observe(used as f64 / disk_cap as f64, dt);
                }
            }
        }
        self.now = t;
    }

    /// Applies one fired event; returns whether it was a step completion.
    fn apply(&mut self, event: Event) -> bool {
        match event {
            Event::Arrival { request } => {
                if self.config.kv_ship.enabled() {
                    // Disaggregated decode pool: the request's prefilled
                    // KV must cross the interconnect before admission.
                    let prompt = self.slots[request].request.prompt_tokens;
                    let at = self.now + self.config.kv_ship.transfer_seconds(prompt);
                    self.events.push(at, Event::KvTransferDone { request });
                    self.kv_transfers += 1;
                } else {
                    self.queue.push_back(request);
                }
                self.schedule_next_arrival();
                false
            }
            Event::KvTransferDone { request } => {
                self.queue.push_back(request);
                false
            }
            Event::Preemption { request } => {
                // Preempted work outranks new arrivals; firing in
                // preemption order re-queues successive victims in their
                // original admission order.
                self.queue.push_front(request);
                false
            }
            Event::SwapOutDone { request } => {
                // The victim's KV landed in its tier: it can re-enter the
                // batch (at the queue front, like a recompute victim) as
                // soon as admission finds it HBM blocks.
                self.queue.push_front(request);
                false
            }
            Event::SwapInDone { request } => {
                let swapped = self.slots[request]
                    .swapped
                    .take()
                    .expect("swap-in completion for a sequence that is not swapped");
                self.residency.release(swapped.tier, swapped.blocks_needed);
                let active = self
                    .running
                    .iter_mut()
                    .find(|a| a.idx == request)
                    .expect("swapping sequence left the batch before its swap-in landed");
                debug_assert!(active.swapping);
                active.swapping = false;
                self.swap_ins += 1;
                false
            }
            Event::StepDone => true,
        }
    }

    /// Drives the run to drain: pop events, drain co-timed ones, process
    /// batch boundaries.
    fn drive<C: ServingCostModel>(&mut self, cost: &mut C) {
        self.schedule_next_arrival();
        while let Some(scheduled) = self.events.pop() {
            self.advance_to(scheduled.at_s);
            let mut step_done = self.apply(scheduled.event);
            // Drain everything co-timed with this event before touching
            // the batch: two arrivals at the same instant must both be
            // admissible in the same wave, exactly as the reference loop's
            // pull-then-admit ordering guarantees.
            while let Some(next) = self.events.pop_due(self.now) {
                step_done |= self.apply(next.event);
            }
            if step_done || !self.step_in_flight {
                self.boundary(cost);
            }
        }
    }

    /// One batch boundary: retire, admit, launch the next step. While the
    /// boundary at that step's end would only launch another plain decode
    /// step ([`RunCore::quiet_until`]), the boundary runs that step inline
    /// — the clock advanced as the event path would — instead of through
    /// the heap. One completion event ends the stretch.
    fn boundary<C: ServingCostModel>(&mut self, cost: &mut C) {
        if self.step_in_flight {
            self.step_in_flight = false;
            self.retire();
        }
        self.peak_queue = self.peak_queue.max(self.queue.len());
        self.admit();
        if self.running.is_empty() {
            // An empty batch holds no KV of its own: nothing is reserved
            // and every resident block belongs solely to the prefix
            // cache, so admission can always make room for the queue head
            // (whose footprint fits outright, or it was rejected above).
            debug_assert!(self.queue.is_empty());
        } else if self.has_steppable_work() {
            let mut end = self.start_step(cost);
            while self.quiet_until(end) {
                #[cfg(test)]
                {
                    self.inline_steps += 1;
                }
                self.advance_to(end);
                end = self.start_step(cost);
            }
            self.events.push(end, Event::StepDone);
            self.step_in_flight = true;
        }
        // Otherwise every running sequence is waiting on a swap-in: spin
        // no decode steps — each swapping sequence has a `SwapInDone`
        // pending in the heap, so the run is guaranteed to progress.
    }

    /// Whether the boundary at `end`, where the step just launched
    /// completes, would provably do nothing but launch the next plain
    /// decode step, so that step can run inline. It would do more when:
    /// - an event fires at or before `end`: in the heap's `total_cmp`
    ///   order, or under the co-timed drain's `<=` (this also catches the
    ///   preemptions the step just scheduled);
    /// - a prefill is pending or speculation is on (the next step would
    ///   not be a plain decode step);
    /// - outside static batching, the queue is non-empty and the batch has
    ///   room (admission might change the batch);
    /// - a sequence is waiting on its swap-in, has newly finished, or,
    ///   outside static batching, is done (retirement would act).
    fn quiet_until(&self, end: f64) -> bool {
        #[cfg(test)]
        if self.event_path_only {
            return false;
        }
        if self.pending_prefill > 0 || self.config.speculation.enabled() {
            return false;
        }
        if let Some(next) = self.events.peek() {
            if next.at_s.total_cmp(&end).is_le() || next.at_s <= end {
                return false;
            }
        }
        let static_batch = self.static_batch();
        if !static_batch && !self.queue.is_empty() && self.running.len() < self.config.max_batch {
            return false;
        }
        let mut decoding = false;
        for active in &self.running {
            let held = static_batch && active.done_s.is_some();
            if active.swapping || (active.remaining_decode == 0 && !held) {
                return false;
            }
            decoding |= active.remaining_decode > 0;
        }
        decoding
    }

    /// Whether a step launched now would make progress: something to
    /// prefill, or at least one running sequence that can actually gain a
    /// token. Without tiers this is always true of a non-empty batch
    /// (finished sequences retire at the boundary — static batching holds
    /// them only beside members still decoding — and unprefilled ones
    /// count as pending prefill); only swap-in waits can make it false.
    fn has_steppable_work(&self) -> bool {
        self.pending_prefill > 0
            || self
                .running
                .iter()
                .any(|a| a.remaining_decode > 0 && !a.swapping)
    }

    /// Probes the lower tiers for demoted continuations of a cached
    /// prefix — `uncached`, the links following the cache hit: each
    /// consecutive demoted block promotes back to HBM, its prefill priced
    /// as a swap-in transfer instead of compute. Returns the promoted
    /// token count and the modeled transfer wait.
    fn promote_demoted_suffix(
        &mut self,
        uncached: impl Iterator<Item = BlockLink>,
    ) -> (usize, f64) {
        if !self.tiers_enabled {
            return (0, 0.0);
        }
        let model = *self.residency.model();
        let mut promoted_tokens = 0;
        let mut promote_wait_s = 0.0;
        for link in uncached {
            let Some(tier) = self.residency.promote(link.hash) else {
                break;
            };
            promoted_tokens += self.config.block_size;
            promote_wait_s += model.swap_in_seconds(tier, 1);
            self.tier_promotions += 1;
        }
        (promoted_tokens, promote_wait_s)
    }

    /// Admission at this batch boundary: QoS-prioritized FIFO
    /// ([`QosAdmission::pick`] — plain FIFO on single-class queues), gated
    /// by the batch limit and the policy's KV rule ([`RunCore::claim`]);
    /// static batching admits only into an empty batch. Requests whose
    /// completed footprint exceeds the token budget (reserve rule) or the
    /// sequence-usable pool (paging; the adapter cache's carve excluded)
    /// are rejected outright: they could never run, even alone with the
    /// cache flushed.
    fn admit(&mut self) {
        if self.static_batch() && !self.running.is_empty() {
            return;
        }
        while self.running.len() < self.config.max_batch {
            let Some(pick) = self.qos.pick(
                self.queue.iter().map(|&s| self.slots[s].request.qos),
                self.config.qos_aging,
            ) else {
                break;
            };
            let head = self.queue[pick.position];
            let class = self.slots[head].request.qos;
            if self.slots[head].swapped.is_some() {
                // A swapped-out victim resumes instead of re-prefilling:
                // admission waits here (head-of-line within its class)
                // until its blocks fit, then its swap-in transfer starts.
                if !self.admit_swap_in(head, pick) {
                    break;
                }
                continue;
            }
            let footprint = self.slots[head].request.kv_tokens_at_completion();
            let never_fits = if self.reserve() {
                footprint > self.config.kv_budget_tokens
            } else {
                self.allocator.blocks_for_tokens(footprint)
                    > self.allocator.total_blocks() - self.adapter_blocks.len()
            };
            if never_fits {
                self.queue.remove(pick.position);
                self.rejected += 1;
                self.qos.record_reject(class);
                self.free_slots.push(head);
                continue;
            }
            // Head-of-line wait for residents to finish. The pick is not
            // committed, so the aging clock does not advance.
            let Some(active) = self.claim(head, footprint) else {
                break;
            };
            self.queue.remove(pick.position);
            self.qos.record_admit(class, pick);
            if !self.slots[head].was_admitted {
                self.slots[head].was_admitted = true;
                self.admitted += 1;
            }
            self.pending_prefill += 1;
            self.sum_context += active.context_tokens;
            self.running.push(active);
        }
        self.peak_reserved = self.peak_reserved.max(self.reserved);
    }

    /// Claims KV for the queue head under the policy's rule, or `None`
    /// when it must wait. The reserve rule charges the whole lifetime
    /// `footprint` against the token budget. Paging needs only enough
    /// free blocks for the prompt and the first output token, after
    /// prefix-cache hits and cold-block eviction, and promotes demoted
    /// continuations of a cached prefix back from the lower tiers.
    fn claim(&mut self, head: usize, footprint: usize) -> Option<PagedActive> {
        if self.reserve() {
            if self.reserved + footprint > self.config.kv_budget_tokens {
                return None;
            }
            self.reserved += footprint;
            return Some(PagedActive::admitted(head, 0, 0, 0.0, Vec::new()));
        }
        let stream = self.slots[head].request.stream;
        let prompt = self.effective_prompt(head);
        let block_size = self.config.block_size;
        // At least one prompt token must be prefilled to produce the next
        // output token, so the lookup stops one short of the prompt end.
        let lookup_len = prompt.saturating_sub(1);
        let matched = match &mut self.cache {
            Some(cache) => cache.lookup_stream(stream, lookup_len, &mut self.allocator),
            None => Vec::new(),
        };
        let cached_tokens = matched.len() * block_size;
        // Blocks for the post-prefill context (prompt + first token).
        let target = self.allocator.blocks_for_tokens(prompt + 1);
        let need_now = target - matched.len();
        if !self.make_room(need_now) {
            // Head-of-line wait: hand the shared references back (a match
            // implies a cache).
            if let Some(cache) = &mut self.cache {
                for block in matched {
                    cache.release(block, &mut self.allocator);
                }
            }
            return None;
        }
        // Only cache evictions demote, so without a cache the first probe
        // misses.
        let (promoted_tokens, promote_wait_s) = self.promote_demoted_suffix(stream_links(
            stream,
            block_size,
            matched.len()..lookup_len / block_size,
        ));
        let blocks = self.hold_blocks(matched, need_now);
        Some(PagedActive::admitted(
            head,
            cached_tokens,
            promoted_tokens,
            promote_wait_s,
            blocks,
        ))
    }

    /// Re-admits a swapped-out sequence: finds it `blocks_needed` free
    /// HBM blocks (evicting cold cache blocks as usual), schedules its
    /// [`Event::SwapInDone`], and parks it in the batch with `swapping`
    /// set — it holds its slot and blocks but gains no tokens until the
    /// transfer lands. Returns `false` when the blocks don't fit yet
    /// (admission waits head-of-line on the in-flight swap-in).
    fn admit_swap_in(&mut self, head: usize, pick: crate::tenant::QosPick) -> bool {
        let swapped = self.slots[head].swapped.expect("a swapped-out slot");
        let need = swapped.blocks_needed;
        if !self.make_room(need) {
            return false;
        }
        self.queue.remove(pick.position);
        // A resumed victim re-enters the batch: that is a per-class batch
        // entry, and it moves the aging clock like a fresh admission.
        self.qos.record_admit(self.slots[head].request.qos, pick);
        let blocks = self.hold_blocks(Vec::with_capacity(need), need);
        self.sum_context += swapped.context_tokens;
        let swap_in = self
            .residency
            .model()
            .swap_in_seconds(swapped.tier, swapped.blocks_needed);
        self.events
            .push(self.now + swap_in, Event::SwapInDone { request: head });
        self.running.push(PagedActive {
            idx: head,
            prefilled: true,
            prefilled_tokens: swapped.context_tokens,
            spec_bursts: 0,
            context_tokens: swapped.context_tokens,
            remaining_decode: swapped.remaining_decode,
            cached_prefix_tokens: 0,
            promoted_tokens: 0,
            promote_wait_s: 0.0,
            swapping: true,
            blocks,
            done_s: None,
        });
        true
    }

    /// Frees at least `need` blocks by evicting cold cache blocks, or
    /// returns `false` (admission waits head-of-line). Feasibility is
    /// checked *before* evicting: a head request that cannot be admitted
    /// even with the cache fully drained must not flush resident blocks
    /// for nothing (later same-prefix arrivals would lose their hits to a
    /// failed admission). The evictable count is read only when the free
    /// list alone cannot cover the need; it is an O(1) counter read
    /// ([`PrefixCache::evictable_blocks`], whose O(cache nodes) scan runs
    /// only as a debug-build cross-check). The count is the
    /// cascade-deliverable total, but if eviction ever under-delivers,
    /// this gives up rather than spinning on an unevictable cache.
    fn make_room(&mut self, need: usize) -> bool {
        if self.allocator.free_blocks() < need {
            let evictable = self
                .cache
                .as_ref()
                .map_or(0, |cache| cache.evictable_blocks(&self.allocator));
            if self.allocator.free_blocks() + evictable < need {
                return false;
            }
        }
        while self.allocator.free_blocks() < need {
            if !self.evict_one() {
                return false;
            }
        }
        true
    }

    /// Evicts one cold prefix-cache block; `false` when nothing is
    /// evictable (no cache, or every resident block is still shared).
    /// With tiers enabled the victim *demotes* — its path hash lands in
    /// the residency map so a later admission can promote it back —
    /// instead of vanishing.
    fn evict_one(&mut self) -> bool {
        if self.tiers_enabled {
            let Some(cache) = self.cache.as_mut() else {
                return false;
            };
            let Some(hash) = cache.evict_lru_demoting(&mut self.allocator) else {
                return false;
            };
            if self.residency.demote(hash).is_some() {
                self.tier_demotions += 1;
                self.note_tier_peaks();
            }
            true
        } else {
            self.cache
                .as_mut()
                .is_some_and(|cache| cache.evict_lru(&mut self.allocator))
        }
    }

    /// Updates the peak tier-occupancy counters after a demotion or swap
    /// reservation.
    fn note_tier_peaks(&mut self) {
        self.peak_ddr_blocks = self
            .peak_ddr_blocks
            .max(self.residency.used_blocks(TierKind::Ddr));
        self.peak_disk_blocks = self
            .peak_disk_blocks
            .max(self.residency.used_blocks(TierKind::Disk));
    }

    /// Launches one engine step — prefill-prioritized (a chunked step
    /// under a chunk budget, else a prefill wave), then decode — schedules
    /// its preemption re-queues and swap-outs, and returns the time `end`,
    /// `dt` ahead, at which it completes.
    fn start_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.peak_batch = self.peak_batch.max(self.running.len());
        let dt = if self.pending_prefill == 0 {
            self.decode_step(cost)
        } else if self.config.chunk_budget_tokens.is_some() {
            self.chunked_step(cost)
        } else {
            self.prefill_step(cost)
        };
        let dt = dt + self.adapter_switch_seconds(cost);
        self.peak_occupied = self.peak_occupied.max(self.occupied_tokens());
        let end = self.now + dt;
        for victim in std::mem::take(&mut self.pending_preemptions) {
            self.events.push(end, Event::Preemption { request: victim });
        }
        // Swap-out transfers start with the step and overlap it; the
        // victim re-queues when its writes land (which may be mid-step —
        // the queue is only read at boundaries, so that is safe).
        for (victim, dur) in std::mem::take(&mut self.pending_swap_outs) {
            self.events
                .push(self.now + dur, Event::SwapOutDone { request: victim });
        }
        end
    }

    /// Adapter-load seconds this step pays: each distinct non-base adapter
    /// of the batch (in batch order) touches the LRU, and every miss
    /// streams its weights in via
    /// [`ServingCostModel::adapter_load_seconds`]. Swap-in waiters
    /// contribute nothing: they gain no token this step, so their adapter
    /// is not activated. Zero — and no cache traffic at all — when adapter
    /// paging is disabled or the batch is all base-model, which keeps
    /// those runs bit-identical.
    fn adapter_switch_seconds<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        if !self.config.adapters.enabled() {
            return 0.0;
        }
        let weight_tokens = self.config.adapters.weight_tokens;
        let mut wait = 0.0;
        let seen = &mut self.step_adapters;
        seen.clear();
        let slots = &self.slots;
        let cache = &mut self.adapter_cache;
        for active in self.running.iter().filter(|a| !a.swapping) {
            let adapter = slots[active.idx].request.adapter;
            if adapter.is_base() || seen.contains(&adapter) {
                continue;
            }
            seen.push(adapter);
            if !cache.touch(adapter) {
                wait += cost.adapter_load_seconds(weight_tokens);
            }
        }
        wait
    }

    /// Prefills every newly admitted (or resumed) sequence back to back,
    /// pricing only the uncached suffix, and publishes the prompt's full
    /// blocks into the prefix cache so concurrent and later same-prefix
    /// requests hit.
    fn prefill_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.prefill_steps += 1;
        let mut cursor = self.now;
        for pos in 0..self.running.len() {
            let active = &self.running[pos];
            if active.prefilled {
                continue;
            }
            let prompt = self.effective_prompt(active.idx);
            // Promoted tokens skip the prefill compute like cached ones,
            // but pay their swap-in transfer instead.
            let committed = active.cached_prefix_tokens + active.promoted_tokens;
            cursor += cost.prefill_seconds_cached(prompt, committed);
            if active.promote_wait_s > 0.0 {
                cursor += active.promote_wait_s;
            }
            self.finish_prefill(pos, cursor);
            self.publish(pos, prompt);
        }
        cursor - self.now
    }

    /// The prompt-complete transition of the sequence at `pos`, whose
    /// prefill produces its first output token at `at`: its context
    /// becomes the prompt plus that token, it owes the rest of its output,
    /// and its prefix hits and misses are counted.
    fn finish_prefill(&mut self, pos: usize, at: f64) {
        let active = &mut self.running[pos];
        let slot = &mut self.slots[active.idx];
        let prompt = slot.request.prompt_tokens + slot.generated_before;
        active.prefilled = true;
        self.pending_prefill -= 1;
        self.sum_context += prompt + 1 - active.context_tokens;
        active.context_tokens = prompt + 1;
        // Saturating: a streamed request can bypass `RequestTrace::new`'s
        // output_tokens ≥ 1 normalization, and an underflow here would
        // wedge the run.
        active.remaining_decode = slot
            .request
            .output_tokens
            .saturating_sub(1 + slot.generated_before);
        if slot.first_token.is_none() {
            slot.first_token = Some(at);
        }
        if active.remaining_decode == 0 {
            // The prefill produced the final token (single-token output,
            // or a resume that had one token left).
            active.done_s = Some(at);
        }
        let cached = active.cached_prefix_tokens;
        self.prefix_hit_tokens += cached as u64;
        self.prefix_uncached_tokens += (prompt - cached - active.promoted_tokens) as u64;
    }

    /// Publishes the full blocks of the first `len` tokens of the sequence
    /// at `pos` into the prefix cache (when one is attached), so concurrent
    /// and later same-prefix requests hit.
    fn publish(&mut self, pos: usize, len: usize) {
        if let Some(cache) = &mut self.cache {
            let active = &self.running[pos];
            let stream = self.slots[active.idx].request.stream;
            cache.insert_stream(stream, len, &active.blocks, &mut self.allocator);
        }
    }

    /// One decode step: every running sequence gains a token. Under
    /// speculation the step is a draft-and-verify burst instead, priced as
    /// `draft_tokens` draft steps plus one verify.
    fn decode_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.decode_steps += 1;
        let batch = self.running.len();
        let max_context = self
            .running
            .iter()
            .map(|a| a.context_tokens)
            .fold(0, usize::max);
        let spec = self.config.speculation;
        let dt = if spec.enabled() {
            cost.speculative_burst_seconds(spec.draft_tokens, batch, max_context)
        } else {
            cost.decode_step_seconds(batch, max_context)
        };
        self.advance_decoders(cost, spec.enabled());
        dt
    }

    /// Gives every decoding sequence its tokens for this step: one, or,
    /// when `speculate`, its accepted draft prefix plus the verify step's
    /// own token (capped at what it still owes). Swap-in waiters hold
    /// their batch slot but gain nothing until the transfer lands. A paged
    /// sequence allocates a fresh block at each block boundary; allocation
    /// failure resolves by evicting cold cache blocks first and preempting
    /// the latest-admitted sequence second. A sequence that must preempt
    /// *itself* keeps nothing more from the step (the recompute prefill
    /// covers what it had committed).
    fn advance_decoders<C: ServingCostModel>(&mut self, cost: &mut C, speculate: bool) {
        let paged = !self.reserve();
        let spec = self.config.speculation;
        let mut i = 0;
        'sequences: while i < self.running.len() {
            let active = &mut self.running[i];
            if active.remaining_decode == 0 || active.swapping {
                i += 1;
                continue;
            }
            let gained = if speculate {
                let id = self.slots[active.idx].request.id as u64;
                let accepted = spec.accepted_tokens(id, active.spec_bursts);
                active.spec_bursts += 1;
                (accepted + 1).min(active.remaining_decode)
            } else {
                1
            };
            for _ in 0..gained {
                if paged && self.needs_block(i) {
                    match self.grow(i, cost) {
                        Some(at) => i = at,
                        // Self-preempted: `i` now names the next sequence.
                        None => continue 'sequences,
                    }
                }
                let active = &mut self.running[i];
                active.context_tokens += 1;
                active.remaining_decode -= 1;
                self.sum_context += 1;
            }
            i += 1;
        }
    }

    /// Whether the paged sequence at `i` must grow a block before its
    /// next token. (Reserved sequences never grow: admission charged
    /// their whole footprint.)
    fn needs_block(&self, i: usize) -> bool {
        let active = &self.running[i];
        active.context_tokens + 1 > active.blocks.len() * self.config.block_size
    }

    /// One chunked batch step: each unprefilled sequence contributes its
    /// next prompt chunk, FIFO against the shared token budget, while the
    /// already-prefilled sequences decode one token alongside — the whole
    /// [`StepMix`] priced as one unit, plus any promoted prefix's swap-in
    /// wait at its sequence's first chunk. Chunk-completed full blocks
    /// publish into the prefix cache *incrementally*, so a concurrent
    /// same-prefix arrival hits mid-document. Chunks are keyed by slot id:
    /// the decode side can preempt and shift running indices, but
    /// mid-prefill sequences are never victims (their `remaining_decode`
    /// is zero), so they survive the step.
    fn chunked_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.chunk_steps += 1;
        let budget = self
            .config
            .chunk_budget_tokens
            .expect("chunked dispatch requires a budget");
        let mut budget_left = budget;
        // (slot id, chunk tokens) of this step's prefill side.
        let mut chunks: Vec<(usize, usize)> = Vec::new();
        let mut mix = StepMix::default();
        let mut decode_batch = 0;
        let mut promote_wait = 0.0;
        for active in &self.running {
            if active.prefilled {
                if active.remaining_decode > 0 && !active.swapping {
                    decode_batch += 1;
                    mix.max_context_tokens = mix.max_context_tokens.max(active.context_tokens);
                }
            } else if budget_left > 0 {
                let prompt = self.effective_prompt(active.idx);
                let committed = active.cached_prefix_tokens + active.promoted_tokens;
                let take = (prompt - active.prefilled_tokens).min(budget_left);
                budget_left -= take;
                if active.prefilled_tokens == committed {
                    // First chunk: the promoted prefix's transfer lands
                    // inside this step.
                    promote_wait += active.promote_wait_s;
                }
                chunks.push((active.idx, take));
                mix.prefill_chunks.push(ChunkWork {
                    suffix_tokens: take,
                    cached_tokens: committed,
                    committed_tokens: active.prefilled_tokens - committed,
                });
            }
        }
        mix.decode_batch = decode_batch;
        let dt = cost.step_seconds(&mix) + promote_wait;
        let end = self.now + dt;
        // Decode progress first, so a prefill completing in this step does
        // not also decode in it.
        self.advance_decoders(cost, false);
        let reserve = self.reserve();
        for (slot, take) in chunks {
            self.chunked_prefill_tokens += take as u64;
            let pos = self
                .running
                .iter()
                .position(|a| a.idx == slot)
                .expect("mid-prefill sequences are never preempted");
            let active = &mut self.running[pos];
            active.prefilled_tokens += take;
            if !reserve {
                // Committed context is resident context: growing it with
                // the cursor keeps the shared-block occupancy arithmetic
                // exact while the document streams in. (A reserved prompt
                // counts as resident only once its last chunk lands.)
                self.sum_context += active.prefilled_tokens - active.context_tokens;
                active.context_tokens = active.prefilled_tokens;
            }
            let len = active.prefilled_tokens;
            if len == self.effective_prompt(slot) {
                self.finish_prefill(pos, end);
            }
            // Publish the chunk-completed blocks now, not at the end of
            // the whole prompt.
            self.publish(pos, len);
        }
        dt
    }

    /// Obtains one more block for the sequence at `i`, evicting and then
    /// preempting as needed. Returns the sequence's (possibly shifted)
    /// index, or `None` if the sequence had to preempt itself.
    fn grow<C: ServingCostModel>(&mut self, mut i: usize, cost: &mut C) -> Option<usize> {
        loop {
            if let Some(block) = self.allocator.alloc() {
                self.running[i].blocks.push(block);
                self.add_run_ref(block);
                return Some(i);
            }
            if self.evict_one() {
                continue;
            }
            // Preempt the latest-admitted sequence that is still decoding
            // (sequences that just finished retire at the end of this step
            // and release their blocks then; swap-in waiters keep their
            // blocks — their transfer is already paid for).
            let victim = (0..self.running.len()).rev().find(|&j| {
                j != i && self.running[j].remaining_decode > 0 && !self.running[j].swapping
            });
            let Some(j) = victim else {
                self.preempt(i, cost);
                return None;
            };
            self.preempt(j, cost);
            if j < i {
                i -= 1;
            }
        }
    }

    /// Preempts the sequence at `j`, choosing swap-vs-recompute by
    /// modeled cost. Either way the victim's HBM blocks are freed and it
    /// re-enters the queue *front* — through a [`Event::SwapOutDone`]
    /// when its writes land, or a [`Event::Preemption`] at the step's end
    /// (the queue is only read at boundaries, so both match the
    /// reference loop's mid-step `push_front`).
    ///
    /// *Swap*: a lower tier reserves the victim's blocks; it resumes its
    /// decode after a swap-in transfer, no recompute. *Recompute*: how
    /// far it had generated is recorded and its prefill is re-priced on
    /// resume. Swap wins when `swap_out + swap_in < re-prefill` of the
    /// victim's context — with no tiers configured the recompute path is
    /// taken unconditionally, without even pricing the comparison.
    fn preempt<C: ServingCostModel>(&mut self, j: usize, cost: &mut C) {
        let victim = self.running.remove(j);
        debug_assert!(victim.prefilled && !victim.swapping);
        self.sum_context -= victim.context_tokens;
        self.preemptions += 1;
        if self.tiers_enabled {
            let blocks_needed = victim.blocks.len();
            if let Some(tier) = self.residency.can_reserve(blocks_needed) {
                let model = *self.residency.model();
                let swap_s = model.swap_out_seconds(tier, blocks_needed)
                    + model.swap_in_seconds(tier, blocks_needed);
                if swap_s < cost.prefill_seconds(victim.context_tokens) {
                    let reserved = self.residency.reserve_swap(blocks_needed);
                    debug_assert_eq!(reserved, Some(tier));
                    self.note_tier_peaks();
                    self.release_blocks(&victim.blocks);
                    self.slots[victim.idx].swapped = Some(SwappedSeq {
                        context_tokens: victim.context_tokens,
                        remaining_decode: victim.remaining_decode,
                        blocks_needed,
                        tier,
                    });
                    self.pending_swap_outs
                        .push((victim.idx, model.swap_out_seconds(tier, blocks_needed)));
                    self.swap_outs += 1;
                    self.swapped_out_blocks += blocks_needed as u64;
                    return;
                }
            }
        }
        let slot = &mut self.slots[victim.idx];
        slot.generated_before = victim.context_tokens - slot.request.prompt_tokens;
        self.release_blocks(&victim.blocks);
        self.pending_preemptions.push(victim.idx);
    }

    /// Stamps generation-finish times and retires finished sequences:
    /// publishes their full blocks (prompt + output) into the prefix cache
    /// so later conversation turns hit, then releases every block
    /// reference (the token reservation, under the reserve rule). Static
    /// batching closes a finished request's record at its own last token
    /// but holds its slot (and KV) until the whole batch drains — the
    /// padding cost of the baseline.
    fn retire(&mut self) {
        let now = self.now;
        for active in &mut self.running {
            if active.prefilled && active.remaining_decode == 0 && active.done_s.is_none() {
                active.done_s = Some(now);
            }
        }
        if self.static_batch() && self.running.iter().any(|a| a.done_s.is_none()) {
            return;
        }
        let mut retired = std::mem::take(&mut self.retired);
        retired.extend(self.running.extract_if(.., |a| a.done_s.is_some()));
        for active in retired.drain(..) {
            let done_s = active.done_s.expect("retired implies done");
            let slot = self.slots[active.idx];
            let request = slot.request;
            if let Some(cache) = &mut self.cache {
                let len = active.context_tokens;
                cache.insert_stream(request.stream, len, &active.blocks, &mut self.allocator);
            }
            if self.reserve() {
                self.reserved -= request.kv_tokens_at_completion();
            }
            self.sum_context -= active.context_tokens;
            self.release_blocks(&active.blocks);
            self.records.push(RequestRecord {
                id: request.id,
                arrival_s: request.arrival_s,
                first_token_s: slot.first_token.expect("prefilled"),
                completion_s: done_s,
                prompt_tokens: request.prompt_tokens,
                output_tokens: request.output_tokens,
                qos: request.qos,
            });
            self.free_slots.push(active.idx);
        }
        self.retired = retired;
    }

    /// Finalizes the report once the source has drained. Reserved runs
    /// report their token-exact reservation peak and no paged counters.
    fn into_report(mut self) -> ServingReport {
        self.records.sort_by_key(|r| r.id);
        let makespan = self
            .records
            .iter()
            .map(|r| r.completion_s)
            .fold(self.now.min(self.last_arrival_s), f64::max);
        let allocator_stats = self.allocator.stats();
        let cache_stats = self
            .cache
            .as_ref()
            .map(PrefixCache::stats)
            .unwrap_or_default();
        let (peak_kv_reserved_tokens, paged) = if self.reserve() {
            (self.peak_reserved, None)
        } else {
            let paged = PagedStats {
                block_size: self.config.block_size,
                total_blocks: allocator_stats.total_blocks,
                peak_allocated_blocks: allocator_stats.peak_allocated_blocks,
                mean_block_utilization: self.block_util.mean(),
                mean_internal_fragmentation: self.fragmentation.mean(),
                preemptions: self.preemptions,
                cache_evictions: cache_stats.evictions,
                cache_peak_resident_blocks: cache_stats.peak_resident_blocks,
                prefix_hit_tokens: self.prefix_hit_tokens,
                prefix_uncached_tokens: self.prefix_uncached_tokens,
                swap_outs: self.swap_outs,
                swap_ins: self.swap_ins,
                swapped_out_blocks: self.swapped_out_blocks,
                tier_demotions: self.tier_demotions,
                tier_promotions: self.tier_promotions,
                kv_transfers: self.kv_transfers,
                peak_ddr_blocks: self.peak_ddr_blocks,
                peak_disk_blocks: self.peak_disk_blocks,
                mean_ddr_occupancy: self.ddr_occupancy.mean(),
                mean_disk_occupancy: self.disk_occupancy.mean(),
            };
            (
                allocator_stats.peak_allocated_blocks * self.config.block_size,
                Some(paged),
            )
        };
        ServingReport {
            scheduler: self.config.scheduler,
            kv_budget_tokens: self.kv_capacity_tokens(),
            records: self.records,
            admitted: self.admitted,
            rejected: self.rejected,
            makespan_s: makespan,
            peak_kv_reserved_tokens,
            peak_kv_occupied_tokens: self.peak_occupied,
            mean_kv_occupancy: self.occupancy.mean(),
            peak_batch: self.peak_batch,
            peak_queue_depth: self.peak_queue,
            mean_queue_depth: self.queue_depth.mean(),
            decode_steps: self.decode_steps,
            prefill_steps: self.prefill_steps,
            chunk_steps: self.chunk_steps,
            chunked_prefill_tokens: self.chunked_prefill_tokens,
            qos: self.qos.stats(),
            adapters: self.adapter_cache.stats(),
            paged,
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod equivalence_tests;

#[cfg(test)]
mod quiet_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinearCostModel;
    use crate::workload::{Request, SharedPrefixChatSpec, TokenStream, WorkloadSpec};

    fn sim(config: ServingConfig) -> ServingSimulator<LinearCostModel> {
        ServingSimulator::new(LinearCostModel::default_70b(), config)
    }

    fn req(id: usize, arrival_s: f64, prompt_tokens: usize, output_tokens: usize) -> Request {
        Request {
            id,
            arrival_s,
            prompt_tokens,
            output_tokens,
            stream: TokenStream::unique(id),
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        }
    }

    /// Regression: a replayed-log request asking for zero output tokens is
    /// normalized to a single-token (prefill-only) request instead of
    /// underflowing `remaining_decode` and spinning the run loop forever.
    #[test]
    fn zero_output_request_terminates_as_single_token() {
        let trace = RequestTrace::new(vec![req(0, 0.0, 64, 0)]);
        assert_eq!(trace.requests()[0].output_tokens, 1);
        let report = sim(ServingConfig::continuous(8, 1_000)).run(&trace);
        assert_eq!(report.completed(), 1);
        let r = report.records[0];
        assert_eq!(r.output_tokens, 1);
        // Prefill-only: done at the first token.
        assert_eq!(r.completion_s, r.first_token_s);
    }

    /// Regression companion to the saturating `kv_tokens_at_completion`:
    /// a fuzzed request whose lengths sum past `usize::MAX` is rejected at
    /// admission (its footprint exceeds any budget) on every policy,
    /// instead of overflowing in debug builds.
    #[test]
    fn overflowing_footprints_are_rejected_not_panicking() {
        let huge = Request {
            id: 0,
            arrival_s: 0.0,
            prompt_tokens: usize::MAX - 4,
            output_tokens: 64,
            stream: TokenStream::unique(0),
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        let trace = RequestTrace::new(vec![huge, req(1, 0.1, 32, 4)]);
        for config in [
            ServingConfig::continuous(8, 1_000),
            ServingConfig::static_batching(8, 1_000),
            ServingConfig::paged(8, 1_000, 16).with_prefix_sharing(true),
        ] {
            let report = sim(config).run(&trace);
            assert_eq!(report.rejected, 1, "{}", config.scheduler);
            assert_eq!(report.completed(), 1);
            assert_eq!(report.records[0].id, 1);
        }
    }

    /// Regression: admission's eviction loop must terminate when the
    /// prefix cache cannot deliver what the feasibility check promised.
    /// Two same-system-prompt sessions admitted in one wave leave session
    /// 1 sharing a mid-tree block without referencing its ancestor (the
    /// dedup-insert case); once session 0 retires, a third arrival sized
    /// exactly to the over-promised gap used to spin forever in release
    /// builds (and fail a debug_assert in debug builds).
    #[test]
    fn paged_admission_terminates_when_eviction_under_delivers() {
        let session = |id: usize, key: u64, output_tokens: usize| Request {
            id,
            arrival_s: 0.0,
            prompt_tokens: 8,
            output_tokens,
            stream: TokenStream::session(key, 4),
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        let trace = RequestTrace::new(vec![session(0, 1, 2), session(1, 2, 6), req(2, 0.0, 19, 1)]);
        // 8 blocks of 4 tokens: the two sessions take 3 blocks each in the
        // first wave; request 2 needs 5 blocks, feasible only by evicting
        // the retired session's cache residue — of which only the leaf is
        // actually deliverable while session 1 still runs.
        let config = ServingConfig::paged(2, 32, 4).with_prefix_sharing(true);
        let report = sim(config).run(&trace);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.rejected, 0);
    }

    /// Regression: occupancy counts *distinct* resident tokens. Four
    /// sequences sharing a 16-token system prompt used to report the
    /// shared blocks once per sharer, pushing `peak_kv_occupied_tokens`
    /// past the pool itself.
    #[test]
    fn shared_prefix_occupancy_counts_distinct_tokens_once() {
        let session = |id: usize, arrival_s: f64| Request {
            id,
            arrival_s,
            prompt_tokens: 17,
            output_tokens: 8,
            stream: TokenStream::session(id as u64, 16),
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        let trace = RequestTrace::new(vec![
            session(0, 0.0),
            session(1, 1e-6),
            session(2, 1e-6),
            session(3, 1e-6),
        ]);
        // 20 blocks of 4: sessions 1-3 share session 0's four system-
        // prompt blocks, so distinct residency peaks at 16 blocks while
        // the per-sharer sum would claim 100 tokens against an 80-token
        // pool.
        let config = ServingConfig::paged(4, 80, 4).with_prefix_sharing(true);
        let report = sim(config).run(&trace);
        assert_eq!(report.completed(), 4);
        let paged = report.paged.expect("paged run");
        assert!(paged.prefix_hit_tokens > 0, "sessions 1-3 hit the cache");
        assert_eq!(paged.preemptions, 0, "pool is sized to avoid preemption");
        assert!(
            report.peak_kv_occupied_tokens <= report.kv_budget_tokens,
            "distinct occupancy {} must fit the pool {}",
            report.peak_kv_occupied_tokens,
            report.kv_budget_tokens
        );
        assert!(report.mean_kv_occupancy <= 1.0);
    }

    #[test]
    fn single_request_lifecycle() {
        let trace = RequestTrace::new(vec![req(0, 1.0, 100, 5)]);
        let mut cost = LinearCostModel::default_70b();
        let prefill = cost.prefill_seconds(100);
        let report = sim(ServingConfig::continuous(8, 1_000)).run(&trace);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.admitted, 1);
        assert_eq!(report.rejected, 0);
        let r = report.records[0];
        assert!((r.ttft_s() - prefill).abs() < 1e-12);
        assert_eq!(report.decode_steps, 4);
        assert_eq!(report.prefill_steps, 1);
        assert!(r.completion_s > r.first_token_s);
        assert_eq!(report.peak_kv_reserved_tokens, 105);
    }

    #[test]
    fn single_token_outputs_complete_at_the_prefill() {
        let trace = RequestTrace::new(vec![req(0, 0.0, 64, 1)]);
        let report = sim(ServingConfig::continuous(8, 1_000)).run(&trace);
        assert_eq!(report.completed(), 1);
        let r = report.records[0];
        assert_eq!(r.completion_s, r.first_token_s);
        assert_eq!(r.tpot_s(), 0.0);
        assert_eq!(report.decode_steps, 0);
    }

    #[test]
    fn oversized_requests_are_rejected_not_wedged() {
        let trace = RequestTrace::new(vec![req(0, 0.0, 5_000, 10), req(1, 0.1, 50, 10)]);
        let report = sim(ServingConfig::continuous(8, 1_000)).run(&trace);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.records[0].id, 1);
        assert_eq!(report.admitted + report.rejected, 2);
    }

    #[test]
    fn kv_budget_gates_admission() {
        // Two requests that each need 600 tokens against a 1000-token
        // budget: the second must wait for the first to retire.
        let trace = RequestTrace::new(vec![req(0, 0.0, 590, 10), req(1, 0.0, 590, 10)]);
        let report = sim(ServingConfig::continuous(8, 1_000)).run(&trace);
        assert_eq!(report.completed(), 2);
        assert!(report.peak_kv_reserved_tokens <= 1_000);
        assert_eq!(report.peak_batch, 1);
        // Sequential service: the second request's first token comes after
        // the first request fully completes.
        assert!(report.records[1].first_token_s >= report.records[0].completion_s);
    }

    #[test]
    fn continuous_admits_mid_batch_but_static_waits() {
        // Request 0 is long-running; request 1 arrives while 0 decodes.
        let trace = RequestTrace::new(vec![req(0, 0.0, 10, 200), req(1, 0.5, 10, 5)]);
        let continuous = sim(ServingConfig::continuous(8, 10_000)).run(&trace);
        let static_ = sim(ServingConfig::static_batching(8, 10_000)).run(&trace);
        // Continuous: request 1 joins while 0 is still going.
        assert!(continuous.peak_batch == 2);
        assert!(continuous.records[1].first_token_s < continuous.records[0].completion_s);
        // Static: request 1 waits for the whole first batch to finish.
        assert_eq!(static_.peak_batch, 1);
        assert!(static_.records[1].first_token_s >= static_.records[0].completion_s);
        // Both conserve requests.
        for r in [&continuous, &static_] {
            assert_eq!(r.admitted, r.completed());
            assert_eq!(r.completed() + r.rejected, 2);
        }
    }

    #[test]
    fn static_batching_pads_to_the_longest_member() {
        // Short and long request admitted together: the short one's record
        // closes at its own last token, but the engine keeps stepping (and
        // its slot stays occupied) until the long one drains.
        let trace = RequestTrace::new(vec![req(0, 0.0, 10, 3), req(1, 0.0, 10, 50)]);
        let report = sim(ServingConfig::static_batching(8, 10_000)).run(&trace);
        assert_eq!(report.completed(), 2);
        assert!(report.records[0].completion_s < report.records[1].completion_s);
        // 49 decode steps for the long request; the short rode along.
        assert_eq!(report.decode_steps, 49);
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = WorkloadSpec::chat(6.0, 150, 9).generate();
        let config = ServingConfig::continuous(16, 50_000);
        let a = sim(config).run(&trace);
        let b = sim(config).run(&trace);
        assert_eq!(a, b);
    }

    #[test]
    fn drains_everything_under_overload() {
        // Offered load far above capacity: the queue grows, but a finite
        // trace still drains and conserves requests.
        let trace = WorkloadSpec::chat(1000.0, 300, 21).generate();
        let report = sim(ServingConfig::continuous(4, 4_000)).run(&trace);
        assert_eq!(report.completed() + report.rejected, 300);
        assert_eq!(report.admitted, report.completed());
        assert!(report.peak_queue_depth > 4);
        assert!(report.mean_queue_depth > 0.0);
        assert!(report.peak_kv_reserved_tokens <= 4_000);
    }

    #[test]
    fn paged_single_request_allocates_blocks_on_demand() {
        let trace = RequestTrace::new(vec![req(0, 0.0, 33, 40)]);
        let report = sim(ServingConfig::paged(8, 1_600, 16)).run(&trace);
        assert_eq!(report.completed(), 1);
        let paged = report.paged.expect("paged stats");
        assert_eq!(paged.block_size, 16);
        assert_eq!(paged.total_blocks, 100);
        // Final context = 73 tokens = 5 blocks; on-demand growth never
        // allocated more than that (no lifetime reservation).
        assert_eq!(paged.peak_allocated_blocks, 5);
        assert_eq!(report.peak_kv_reserved_tokens, 80);
        assert_eq!(paged.preemptions, 0);
        assert_eq!(report.kv_budget_tokens, 1_600);
        assert!(paged.mean_internal_fragmentation > 0.0);
    }

    #[test]
    fn paged_admits_what_reserve_up_front_must_queue() {
        // Two requests, each with a 600-token *lifetime* footprint against
        // a 1000-token budget, but prompts of only 90 tokens: reserve-up-
        // front serializes them, paged runs them together.
        let trace = RequestTrace::new(vec![req(0, 0.0, 90, 510), req(1, 0.0, 90, 510)]);
        let reserve = sim(ServingConfig::continuous(8, 1_000)).run(&trace);
        assert_eq!(reserve.peak_batch, 1, "reserve-up-front serializes");
        let paged = sim(ServingConfig::paged(8, 1_000, 16)).run(&trace);
        assert_eq!(paged.peak_batch, 2, "paged co-runs on current need");
        assert!(
            paged.records[1].first_token_s < reserve.records[1].first_token_s,
            "the queued request starts much earlier under paging"
        );
        // Both runs complete everything; paged preempts one sequence near
        // the end when the pool truly runs out (1200 > 1000 final tokens).
        assert_eq!(paged.completed(), 2);
        assert!(paged.paged.unwrap().preemptions > 0);
    }

    #[test]
    fn paged_preemption_recomputes_and_conserves() {
        // Far more concurrent lifetime demand than the pool holds: heavy
        // preemption, yet every request completes exactly once and the
        // pool is never over-allocated.
        let requests: Vec<Request> = (0..12).map(|id| req(id, 0.0, 64, 200)).collect();
        let trace = RequestTrace::new(requests);
        let report = sim(ServingConfig::paged(12, 1_024, 16)).run(&trace);
        assert_eq!(report.completed(), 12);
        assert_eq!(report.rejected, 0);
        let paged = report.paged.expect("paged stats");
        assert!(paged.preemptions > 0, "the pool must have run dry");
        assert!(paged.peak_allocated_blocks <= paged.total_blocks);
        // Records stay physically sane through preemption.
        for r in &report.records {
            assert!(r.first_token_s > r.arrival_s);
            assert!(r.completion_s >= r.first_token_s);
        }
    }

    #[test]
    fn prefix_sharing_skips_cached_prefill_and_reports_hits() {
        // Same-session turns: the second turn's prompt extends the first
        // turn's prompt + output, so after turn 1 completes, turn 2 hits.
        let stream = TokenStream::session(99, 32);
        let turn1 = Request {
            id: 0,
            arrival_s: 0.0,
            prompt_tokens: 64,
            output_tokens: 32,
            stream,
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        let turn2 = Request {
            id: 1,
            arrival_s: 100.0, // long after turn 1 drains
            prompt_tokens: 64 + 32 + 16,
            output_tokens: 8,
            stream,
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        let trace = RequestTrace::new(vec![turn1, turn2]);
        let config = ServingConfig::paged(8, 4_096, 16).with_prefix_sharing(true);
        let report = sim(config).run(&trace);
        assert_eq!(report.completed(), 2);
        let paged = report.paged.expect("paged stats");
        // Turn 1 inserted 6 full blocks (96 tokens); turn 2's 112-token
        // prompt hits all of them.
        assert_eq!(paged.prefix_hit_tokens, 96);
        assert!(paged.prefix_hit_rate() > 0.5, "{}", paged.prefix_hit_rate());
        assert!(paged.cache_peak_resident_blocks >= 6);
        // The cached prefill is cheaper: TTFT of turn 2 (112-token prompt)
        // beats turn 1's (64-token prompt) despite the longer prompt.
        assert!(report.records[1].ttft_s() < report.records[0].ttft_s());

        // Without sharing, the same trace prefills every token.
        let cold = sim(ServingConfig::paged(8, 4_096, 16)).run(&trace);
        let cold_paged = cold.paged.expect("paged stats");
        assert_eq!(cold_paged.prefix_hit_tokens, 0);
        assert_eq!(cold_paged.prefix_hit_rate(), 0.0);
        assert!(report.records[1].ttft_s() < cold.records[1].ttft_s());
    }

    /// The streamed entry point is the materialized one, bit for bit:
    /// pulling arrivals lazily from [`SharedPrefixChatSpec::stream`] with
    /// slot recycling must reproduce `run(&spec.generate())` exactly —
    /// records, counters, and the interval-integrated means — for every
    /// policy, including the paged one whose slots carry preemption state.
    #[test]
    fn streamed_runs_match_materialized_traces_exactly() {
        let spec = SharedPrefixChatSpec::fleet(4.0, 48, 23);
        let trace = spec.generate();
        for config in [
            ServingConfig::continuous(16, 30_000),
            ServingConfig::static_batching(16, 30_000),
            ServingConfig::paged(16, 3_000, 16).with_prefix_sharing(true),
        ] {
            let materialized = sim(config).run(&trace);
            let streamed = sim(config).run_streamed(spec.stream());
            assert_eq!(materialized, streamed, "{:?}", config.scheduler);
        }
        // The paged run above must actually exercise the interesting
        // machinery, or the equality proves nothing.
        let paged = sim(ServingConfig::paged(16, 3_000, 16).with_prefix_sharing(true)).run(&trace);
        let stats = paged.paged.expect("paged stats");
        assert!(stats.prefix_hit_tokens > 0, "cache must hit");
        assert!(stats.preemptions > 0, "pool must run dry");
    }

    /// What stays O(batch + queue) in a streamed run is the live request
    /// store: slots recycle as requests retire, so under every policy the
    /// store never outgrows `peak_batch + peak_queue_depth + 1` (the `+ 1`
    /// is the arrival pulled ahead of its event), however many requests
    /// stream through. The completed records are kept in full.
    #[test]
    fn streamed_slot_store_stays_within_batch_plus_queue() {
        let spec = SharedPrefixChatSpec::fleet(0.5, 400, 29);
        let requests = spec.requests();
        for config in [
            ServingConfig::continuous(16, 30_000),
            ServingConfig::static_batching(16, 30_000),
            ServingConfig::paged(16, 30_000, 16).with_prefix_sharing(true),
        ] {
            let mut core = RunCore::new(config, spec.stream());
            core.drive(&mut LinearCostModel::default_70b());
            let store = core.slots.len();
            let report = core.into_report();
            assert_eq!(report.completed(), requests, "{}", config.scheduler);
            let bound = report.peak_batch + report.peak_queue_depth + 1;
            assert!(
                store <= bound,
                "{}: {store} slots exceed batch + queue bound {bound}",
                config.scheduler
            );
            assert!(
                store * 4 < requests,
                "{}: {store} slots for {requests} requests do not recycle",
                config.scheduler
            );
        }
    }

    #[test]
    fn paged_runs_are_deterministic() {
        let trace = SharedPrefixChatSpec::fleet(2.0, 24, 17).generate();
        let config = ServingConfig::paged(16, 20_000, 16).with_prefix_sharing(true);
        let a = sim(config).run(&trace);
        let b = sim(config).run(&trace);
        assert_eq!(a, b);
        assert_eq!(a.completed() + a.rejected, trace.len());
        assert!(a.paged.unwrap().prefix_hit_tokens > 0);
    }

    /// The interval-integrated time-weighted means, pinned on a
    /// hand-computed 3-request trace (the satellite fix of the event-core
    /// refactor): queue depth and occupancy integrate over exact
    /// inter-event intervals — including the idle gap before request 2 and
    /// the partial interval request 1's mid-prefill arrival splits the
    /// first step into — instead of sampling once per engine step.
    ///
    /// Timeline under `LinearCostModel::default_70b`, `max_batch = 1`,
    /// budget 1000 (prefill(p) = 0.01 + 2e-4·p; decode(b, c) = 0.03 +
    /// 5e-4·b + 2e-6·c):
    ///
    /// * t = 0: r0 (prompt 100, output 2) admitted; prefill takes 0.03 s.
    /// * t = 0.01: r1 (prompt 50, output 1) arrives — queue depth 1 from
    ///   here until its admission.
    /// * t = 0.03: r0 decodes once: 0.03 + 5e-4 + 2e-6·101 = 0.030702 s.
    /// * t = 0.060702: r0 done; r1 admitted, prefill(50) = 0.02 s; done at
    ///   its own prefill end (single-token output).
    /// * t = 0.080702 → 10: idle (queue 0, occupancy 0).
    /// * t = 10: r2 (prompt 100, output 1) arrives, prefills 0.03 s, done
    ///   at t = 10.03 — the end of the observed span.
    #[test]
    fn time_weighted_means_integrate_over_event_intervals() {
        let trace = RequestTrace::new(vec![
            req(0, 0.0, 100, 2),
            req(1, 0.01, 50, 1),
            req(2, 10.0, 100, 1),
        ]);
        let config = ServingConfig::continuous(1, 1_000);
        let report = sim(config).run(&trace);
        assert_eq!(report.completed(), 3);

        let decode = 0.03 + 5e-4 + 2e-6 * 101.0; // 0.030702
        let elapsed = 10.03;
        // Queue depth 1 over [0.01, 0.060702): r1 waits while r0 prefills
        // (from 0.01) and decodes.
        let queue_integral = (0.03 - 0.01) + decode;
        assert!(
            (report.mean_queue_depth - queue_integral / elapsed).abs() < 1e-12,
            "mean queue depth {}",
            report.mean_queue_depth
        );
        // Occupancy: 101 tokens over r0's prefill + 102 over its decode +
        // 51 over r1's prefill + 101 over r2's prefill, against budget
        // 1000, over 10.03 s total.
        let occupancy_integral = (101.0 * 0.03 + 102.0 * decode + 51.0 * 0.02 + 101.0 * 0.03)
            / config.kv_budget_tokens as f64;
        assert!(
            (report.mean_kv_occupancy - occupancy_integral / elapsed).abs() < 1e-12,
            "mean occupancy {}",
            report.mean_kv_occupancy
        );

        // The reference step loop samples per step and skips idle time, so
        // its means differ — the reason the equivalence suite compares
        // reports modulo the mean fields. Everything else matches exactly.
        let mut cost = LinearCostModel::default_70b();
        let reference = reference::run_reference(&mut cost, config, &trace);
        assert!(reference.mean_queue_depth > report.mean_queue_depth);
        assert_eq!(reference.records, report.records);
        assert_eq!(reference.makespan_s, report.makespan_s);
    }

    /// A fast DDR tier under a pool that runs dry: preemption chooses
    /// swap-out over recompute (its modeled transfer is microseconds
    /// against a ~35 ms re-prefill), every swapped victim swaps back in
    /// and resumes without re-prefilling a single token, the tier
    /// capacity is respected, and the run conserves requests.
    #[test]
    fn swap_preemption_conserves_and_resumes_without_recompute() {
        let requests: Vec<Request> = (0..12).map(|id| req(id, 0.0, 64, 200)).collect();
        let trace = RequestTrace::new(requests);
        // 256 KB per 16-token block over a 200 GB/s DDR tier: a whole
        // victim swaps in microseconds.
        let tiers = KvTierModel::ddr_only(256.0 * 1024.0, 1024);
        let config = ServingConfig::paged(12, 1_024, 16).with_tiers(tiers);
        let report = sim(config).run(&trace);
        assert_eq!(report.completed(), 12);
        assert_eq!(report.rejected, 0);
        let stats = report.paged.expect("paged stats");
        assert!(stats.swap_outs > 0, "the pool must have run dry");
        assert_eq!(
            stats.swap_ins, stats.swap_outs,
            "every swapped victim resumed"
        );
        assert_eq!(
            stats.preemptions, stats.swap_outs,
            "swap won every preemption decision"
        );
        assert!(stats.swapped_out_blocks > 0);
        assert!(stats.peak_ddr_blocks <= 1024);
        assert!(stats.mean_ddr_occupancy >= 0.0);
        // No recompute: each request prefilled exactly once, so the
        // uncached-token total is exactly the sum of the twelve prompts.
        assert_eq!(stats.prefix_uncached_tokens, 12 * 64);
        // The recompute run on the same trace re-prefills its victims.
        let recompute = sim(ServingConfig::paged(12, 1_024, 16)).run(&trace);
        let recompute_stats = recompute.paged.expect("paged stats");
        assert!(recompute_stats.preemptions > 0);
        assert_eq!(recompute_stats.swap_outs, 0, "no tiers, no swaps");
        assert!(
            recompute_stats.prefix_uncached_tokens > 12 * 64,
            "recompute re-prefills generated context"
        );
        // Swapping is also simply faster end to end here.
        assert!(report.makespan_s < recompute.makespan_s);
        // Determinism.
        assert_eq!(report, sim(config).run(&trace));
    }

    /// A tier too small to hold any victim falls back to recompute on
    /// every preemption: zero-capacity DDR behaves exactly like no tiers
    /// at all — bit for bit, not just statistically.
    #[test]
    fn zero_capacity_tiers_reproduce_the_recompute_run_exactly() {
        let requests: Vec<Request> = (0..12).map(|id| req(id, 0.0, 64, 200)).collect();
        let trace = RequestTrace::new(requests);
        let base = ServingConfig::paged(12, 1_024, 16);
        let zero = base.with_tiers(KvTierModel::ddr_only(256.0 * 1024.0, 0));
        assert!(!zero.tiers.enabled(), "zero capacity means disabled");
        let a = sim(base).run(&trace);
        let b = sim(zero).run(&trace);
        assert_eq!(a, b);
        assert!(a.paged.unwrap().preemptions > 0, "the comparison is live");
    }

    /// KV shipping delays admission by the modeled transfer: a decode-pool
    /// replica's first token waits for the prompt's KV to cross the
    /// interconnect. A zero-cost ship is invisible except in the transfer
    /// counter.
    #[test]
    fn kv_shipping_delays_admission_by_the_transfer() {
        let trace = RequestTrace::new(vec![req(0, 1.0, 512, 8)]);
        let ship = KvShipSpec {
            bytes_per_token: 300_000.0,
            bandwidth_gbps: 50.0,
            latency_us: 10.0,
        };
        let transfer = ship.transfer_seconds(512);
        assert!(transfer > 1e-4, "the transfer must be visible");
        for config in [
            ServingConfig::continuous(8, 4_096),
            ServingConfig::paged(8, 4_096, 16),
        ] {
            let base = sim(config).run(&trace);
            let shipped = sim(config.with_kv_ship(ship)).run(&trace);
            assert_eq!(shipped.completed(), 1);
            let delay = shipped.records[0].first_token_s - base.records[0].first_token_s;
            assert!(
                (delay - transfer).abs() < 1e-12,
                "TTFT shifted by {delay} vs transfer {transfer}"
            );
        }
        // Free shipping moves nothing: the paged records match bit for bit
        // and only the transfer counter tells the runs apart.
        let free = KvShipSpec {
            bytes_per_token: 300_000.0,
            bandwidth_gbps: f64::INFINITY,
            latency_us: 0.0,
        };
        let paged = ServingConfig::paged(8, 4_096, 16);
        let base = sim(paged).run(&trace);
        let freighted = sim(paged.with_kv_ship(free)).run(&trace);
        assert_eq!(base.records, freighted.records);
        assert_eq!(freighted.paged.unwrap().kv_transfers, 1);
    }

    /// Chunked prefill splits a long prompt across several batch steps and
    /// lets a co-resident chat sequence keep decoding between the chunks —
    /// the TPOT-isolation effect the headline experiment measures. The
    /// unchunked run stalls the chat decode for the whole document
    /// prefill.
    #[test]
    fn chunked_prefill_interleaves_decode_with_a_long_document() {
        // A short chat request whose decode window sits inside the
        // document prefill: unchunked it stalls for the whole 4096-token
        // wave; chunked it rides the chunk boundaries.
        let trace = RequestTrace::new(vec![req(0, 0.0, 16, 12), req(1, 0.1, 4_096, 8)]);
        let base = ServingConfig::continuous(8, 16_000);
        let unchunked = sim(base).run(&trace);
        let chunked = sim(base.with_chunked_prefill(Some(256))).run(&trace);
        for report in [&unchunked, &chunked] {
            assert_eq!(report.completed(), 2);
            assert_eq!(report.rejected, 0);
        }
        // 4096 tokens at 256 per chunk = 16 chunked steps (the chat
        // prompt rides the first one).
        assert!(
            chunked.chunk_steps >= 16,
            "{} chunk steps",
            chunked.chunk_steps
        );
        assert_eq!(
            chunked.chunked_prefill_tokens,
            16 + 4_096,
            "every admitted prompt token prefills through a chunk"
        );
        assert_eq!(unchunked.chunk_steps, 0);
        assert_eq!(unchunked.chunked_prefill_tokens, 0);
        // The chat request keeps decoding between chunks instead of
        // stalling for the whole document prefill, so both its completion
        // time and its per-token latency improve even though each chunked
        // step is pricier than a plain decode.
        let chat_unchunked = unchunked.records[0];
        let chat_chunked = chunked.records[0];
        assert!(
            chat_chunked.completion_s < chat_unchunked.completion_s,
            "chunked chat completion {} must beat unchunked {}",
            chat_chunked.completion_s,
            chat_unchunked.completion_s
        );
        assert!(
            chat_chunked.tpot_s() < chat_unchunked.tpot_s(),
            "chunked chat TPOT {} must beat unchunked {}",
            chat_chunked.tpot_s(),
            chat_unchunked.tpot_s()
        );
        // Determinism on the new axis.
        assert_eq!(
            chunked,
            sim(base.with_chunked_prefill(Some(256))).run(&trace)
        );
    }

    /// Chunk-boundary conservation on the paged policy under preemption
    /// pressure: every admitted prompt token passes through exactly one
    /// chunk per prefill pass, so the counter equals the prompt total when
    /// nothing recomputes and can only grow beyond it with preemption.
    #[test]
    fn chunked_paged_conserves_prompt_tokens() {
        let requests: Vec<Request> = (0..12).map(|id| req(id, 0.0, 64, 200)).collect();
        let trace = RequestTrace::new(requests);
        let config = ServingConfig::paged(12, 1_024, 16).with_chunked_prefill(Some(48));
        let report = sim(config).run(&trace);
        assert_eq!(report.completed(), 12);
        assert_eq!(report.rejected, 0);
        let prompt_total: u64 = 12 * 64;
        assert!(
            report.chunked_prefill_tokens >= prompt_total,
            "chunked {} must cover the {} prompt tokens",
            report.chunked_prefill_tokens,
            prompt_total
        );
        let paged = report.paged.expect("paged stats");
        assert!(paged.preemptions > 0, "the pool must have run dry");
        // Recomputed prefills re-chunk `generated_before` context too.
        assert_eq!(
            report.chunked_prefill_tokens,
            paged.prefix_hit_tokens + paged.prefix_uncached_tokens,
            "chunks partition the (effective) prompt stream"
        );
        // A preemption-free run is exact.
        let roomy =
            sim(ServingConfig::paged(12, 8_192, 16).with_chunked_prefill(Some(48))).run(&trace);
        assert_eq!(roomy.paged.expect("paged stats").preemptions, 0);
        assert_eq!(roomy.chunked_prefill_tokens, prompt_total);
    }

    /// Chunked prefill publishes completed blocks into the prefix cache
    /// *incrementally*: a same-prefix arrival landing mid-document hits
    /// the chunks already committed, before the first request finishes.
    #[test]
    fn chunked_prefill_publishes_chunks_into_the_prefix_cache() {
        let stream = TokenStream::session(11, 2_048);
        let doc = |id: usize, arrival_s: f64| Request {
            id,
            arrival_s,
            prompt_tokens: 2_048,
            output_tokens: 4,
            stream,
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        // The second document arrives while the first is mid-prefill
        // (chunk budget 128 stretches the 2048-token prefill over 16
        // steps of ~35ms each), late enough that roughly half the chunks
        // have been committed — and published — by the time it admits.
        let trace = RequestTrace::new(vec![doc(0, 0.0), doc(1, 0.3)]);
        let config = ServingConfig::paged(4, 8_192, 16)
            .with_prefix_sharing(true)
            .with_chunked_prefill(Some(128));
        let report = sim(config).run(&trace);
        assert_eq!(report.completed(), 2);
        let paged = report.paged.expect("paged stats");
        assert!(
            paged.prefix_hit_tokens > 0,
            "the second document must hit the first's committed chunks"
        );
        // Admission-time lookup sees only the chunks committed so far —
        // several, but not the whole prompt. Without incremental
        // publication the hit would be zero; without chunking it would be
        // the full prompt.
        assert!(
            (512..2_048).contains(&(paged.prefix_hit_tokens as usize)),
            "hit {} tokens",
            paged.prefix_hit_tokens
        );
    }

    /// Regression: same-prefix sequences admitted mid-document hold the
    /// committed chunks they hit while they wait for chunk budget, and
    /// occupancy counts those shared tokens once, like any sharer's. The
    /// waiting sequences used to count as zero context beside their shared
    /// blocks, so three of them drove the occupancy counter below zero: an
    /// overflow panic in debug builds, a wrapped peak in release.
    #[test]
    fn waiting_chunked_sharers_count_their_cached_prefix_once() {
        let doc = |id: usize, arrival_s: f64| Request {
            id,
            arrival_s,
            prompt_tokens: 2_048,
            output_tokens: 4,
            stream: TokenStream::document(5, id as u64, 2_000),
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        // The first document holds the whole 128-token chunk budget until
        // its prefill is done, so the three arrivals that hit its
        // committed chunks wait beside it.
        let trace = RequestTrace::new(vec![doc(0, 0.0), doc(1, 0.3), doc(2, 0.3), doc(3, 0.3)]);
        let config = ServingConfig::paged(4, 16_384, 16)
            .with_prefix_sharing(true)
            .with_chunked_prefill(Some(128));
        let report = sim(config).run(&trace);
        assert_eq!(report.completed(), 4);
        assert!(report.paged.expect("paged stats").prefix_hit_tokens >= 3 * 512);
        assert!(
            report.peak_kv_occupied_tokens <= report.kv_budget_tokens,
            "peak occupancy {} exceeds the {}-token pool",
            report.peak_kv_occupied_tokens,
            report.kv_budget_tokens
        );
        assert!(report.mean_kv_occupancy <= 1.0);
        // The reference loop's per-step walk over every block list agrees.
        let mut cost = LinearCostModel::default_70b();
        let reference = reference::run_paged_reference(&mut cost, config, &trace);
        assert_eq!(
            reference.peak_kv_occupied_tokens,
            report.peak_kv_occupied_tokens
        );
    }

    /// Speculative decoding at acceptance rate 1.0 retires
    /// `draft_tokens + 1` tokens per burst, cutting decode steps by that
    /// factor; rate 0.0 accepts nothing and decodes one token per burst,
    /// matching the plain run's step count exactly.
    #[test]
    fn speculation_retires_accepted_tokens_per_burst() {
        let trace = RequestTrace::new(vec![req(0, 0.0, 32, 81)]);
        let base = ServingConfig::continuous(4, 2_000);
        let plain = sim(base).run(&trace);
        assert_eq!(plain.decode_steps, 80);
        let always = sim(base.with_speculation(SpeculationSpec::new(4, 1.0, 7))).run(&trace);
        // 80 decode tokens at 5 per burst = 16 bursts.
        assert_eq!(always.decode_steps, 16);
        let never = sim(base.with_speculation(SpeculationSpec::new(4, 0.0, 7))).run(&trace);
        assert_eq!(never.decode_steps, 80);
        // Token totals are conserved on every run.
        for report in [&plain, &always, &never] {
            assert_eq!(report.completed(), 1);
            assert_eq!(report.records[0].output_tokens, 81);
        }
        // Each rejected-draft burst still costs the drafts: the
        // never-accept run is strictly slower than the plain one.
        assert!(never.makespan_s > plain.makespan_s);
    }

    /// The acceptance draws are deterministic and mid-rate runs land
    /// between the all-accept and none-accept extremes.
    #[test]
    fn speculative_acceptance_draws_are_seeded_and_monotone() {
        let spec = SpeculationSpec::new(8, 0.7, 42);
        for burst in 0..4 {
            assert_eq!(
                spec.accepted_tokens(3, burst),
                spec.accepted_tokens(3, burst),
                "draws are pure"
            );
        }
        assert_eq!(SpeculationSpec::new(8, 1.0, 42).accepted_tokens(5, 0), 8);
        assert_eq!(SpeculationSpec::new(8, 0.0, 42).accepted_tokens(5, 0), 0);
        let trace = WorkloadSpec::chat(6.0, 60, 9).generate();
        let base = ServingConfig::paged(16, 50_000, 16);
        let steps = |rate: f64| {
            sim(base.with_speculation(SpeculationSpec::new(4, rate, 11)))
                .run(&trace)
                .decode_steps
        };
        let (lo, mid, hi) = (steps(0.0), steps(0.6), steps(1.0));
        assert!(
            hi < mid && mid < lo,
            "steps must fall with acceptance: {lo} {mid} {hi}"
        );
        // Determinism across repeat runs of the same seeded config.
        let config = base.with_speculation(SpeculationSpec::new(4, 0.6, 11));
        assert_eq!(sim(config).run(&trace), sim(config).run(&trace));
    }

    /// Config validation of the new axes.
    #[test]
    #[should_panic(expected = "chunk budget must be positive")]
    fn zero_chunk_budget_panics() {
        let _ = sim(ServingConfig::continuous(4, 1_000).with_chunked_prefill(Some(0)));
    }

    #[test]
    #[should_panic(expected = "acceptance rate must be in [0, 1]")]
    fn out_of_range_acceptance_rate_panics() {
        let _ = SpeculationSpec::new(4, 1.5, 0);
    }

    /// Cold prefix subtrees demote to DDR instead of vanishing: a later
    /// same-session turn promotes them back at transfer cost, skipping
    /// their prefill compute — cheaper than the no-tier run, which must
    /// re-prefill everything the eviction destroyed.
    #[test]
    fn demoted_prefixes_promote_back_instead_of_reprefilling() {
        let stream = TokenStream::session(7, 16);
        let turn1 = Request {
            id: 0,
            arrival_s: 0.0,
            prompt_tokens: 64,
            output_tokens: 32,
            stream,
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        // An unrelated request big enough to force eviction of turn 1's
        // cached blocks while the session thinks.
        let intruder = req(1, 50.0, 100, 1);
        let turn2 = Request {
            id: 2,
            arrival_s: 100.0,
            prompt_tokens: 64 + 32 + 16,
            output_tokens: 8,
            stream,
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        };
        let trace = RequestTrace::new(vec![turn1, intruder, turn2]);
        // 10 blocks of 16 tokens: turn 1 leaves 6 cached blocks, the
        // intruder needs 7, so cold blocks must go.
        let base = ServingConfig::paged(4, 160, 16).with_prefix_sharing(true);
        let tiered = base.with_tiers(KvTierModel::ddr_only(256.0 * 1024.0, 64));
        let cold = sim(base).run(&trace);
        let warm = sim(tiered).run(&trace);
        for report in [&cold, &warm] {
            assert_eq!(report.completed(), 3);
            assert_eq!(report.rejected, 0);
        }
        let warm_stats = warm.paged.expect("paged stats");
        assert!(warm_stats.tier_demotions > 0, "evictions must demote");
        assert!(warm_stats.tier_promotions > 0, "the return must promote");
        assert!(warm_stats.peak_ddr_blocks <= 64);
        // Turn 2's first token: promotion replaces tens of prefill
        // milliseconds with a microsecond transfer.
        assert!(
            warm.records[2].ttft_s() < cold.records[2].ttft_s(),
            "warm {} vs cold {}",
            warm.records[2].ttft_s(),
            cold.records[2].ttft_s()
        );
        assert_eq!(warm, sim(tiered).run(&trace), "deterministic");
    }

    /// Priority admission with the aging bound, on every policy: a Batch
    /// request queued behind a burst of Interactive arrivals is bypassed
    /// exactly `qos_aging` times, then force-admitted — never starved —
    /// and the per-class counters plus the class-filtered report helpers
    /// agree on what happened.
    #[test]
    fn interactive_bypasses_batch_until_the_aging_bound_promotes_it() {
        let qreq = |id: usize, arrival_s: f64, qos: QosClass| Request {
            qos,
            ..req(id, arrival_s, 64, 16)
        };
        // Request 0 occupies the single batch slot while everything else
        // queues: one Batch job, then four Interactive chats behind it.
        let trace = RequestTrace::new(vec![
            qreq(0, 0.0, QosClass::Interactive),
            qreq(1, 0.01, QosClass::Batch),
            qreq(2, 0.02, QosClass::Interactive),
            qreq(3, 0.03, QosClass::Interactive),
            qreq(4, 0.04, QosClass::Interactive),
            qreq(5, 0.05, QosClass::Interactive),
        ]);
        for config in [
            ServingConfig::continuous(1, 1_000),
            ServingConfig::static_batching(1, 1_000),
            ServingConfig::paged(1, 1_000, 16),
        ] {
            let report = sim(config.with_qos_aging(2)).run(&trace);
            assert_eq!(report.completed(), 6, "{}", config.scheduler);
            let qos = report.qos;
            assert_eq!(qos.interactive_admitted, 5);
            assert_eq!(qos.batch_admitted, 1);
            assert_eq!(qos.interactive_bypasses, 2, "requests 2 and 3 jump");
            assert_eq!(qos.aging_promotions, 1, "then the Batch job ages in");
            assert_eq!(qos.peak_interactive_run, 2);
            assert!(qos.peak_interactive_run <= config.with_qos_aging(2).qos_aging);
            // Service order: the two bypassing chats finish first, the
            // aged Batch job beats the remaining chats.
            let batch = report.records[1];
            assert!(batch.first_token_s > report.records[3].first_token_s);
            assert!(batch.first_token_s < report.records[4].first_token_s);
            // The class-filtered helpers agree with the counters.
            assert_eq!(report.class_records(QosClass::Batch).len(), 1);
            assert_eq!(report.class_metrics(QosClass::Interactive).completed, 5);
            assert_eq!(report.class_metrics(QosClass::Batch).rejected, 0);
            let slo = SloTarget {
                ttft_s: 1e9,
                tpot_s: 1e9,
            };
            assert!(report.class_goodput_rps(QosClass::Interactive, &slo) > 0.0);
            // Determinism on the new axis.
            assert_eq!(report, sim(config.with_qos_aging(2)).run(&trace));
        }
    }

    /// Adapter paging prices the cache misses: a two-tenant batch over a
    /// one-slot cache thrashes (two loads per step), the two-slot cache
    /// loads each adapter once, and the adapter-free run is fastest. The
    /// paged policy additionally carves the cache out of its block pool,
    /// shrinking what sequences can claim.
    #[test]
    fn adapter_cache_misses_price_weight_loads() {
        let tenant = |id: usize, adapter: u32| Request {
            adapter: AdapterId(adapter),
            ..req(id, 0.0, 32, 16)
        };
        let trace = RequestTrace::new(vec![tenant(0, 1), tenant(1, 2)]);
        let base = ServingConfig::continuous(4, 2_000);
        let off = sim(base).run(&trace);
        let thrash = sim(base.with_adapters(AdapterModel::new(64, 1))).run(&trace);
        let roomy = sim(base.with_adapters(AdapterModel::new(64, 2))).run(&trace);
        // 1 prefill wave + 15 decode steps, two tenants each: the one-slot
        // cache reloads both every step, the two-slot cache never evicts.
        assert_eq!(thrash.adapters.cache_loads, 32);
        assert_eq!(thrash.adapters.cache_hits, 0);
        assert!(thrash.adapters.evictions > 0);
        assert_eq!(roomy.adapters.cache_loads, 2);
        assert_eq!(roomy.adapters.evictions, 0);
        assert!(roomy.adapters.hit_rate() > 0.9);
        assert_eq!(off.adapters.cache_loads, 0);
        assert!(off.makespan_s < roomy.makespan_s);
        assert!(roomy.makespan_s < thrash.makespan_s);
        // Identical request progression: only the step times moved. The
        // switch wait lands after the prefill wave's TTFT stamps (it
        // delays the step's completion, not the tokens inside it), so
        // first tokens match and every completion slips.
        for (a, b) in off.records.iter().zip(&thrash.records) {
            assert_eq!(a.output_tokens, b.output_tokens);
            assert_eq!(a.first_token_s, b.first_token_s);
            assert!(b.completion_s > a.completion_s);
        }
        // The paged policy carves the cache (2 × 4 blocks of the 20-block
        // pool) out of the sequence-usable space: a request that fits the
        // raw pool but not the remainder is rejected, and the carve is
        // visible in the stats.
        let paged = ServingConfig::paged(4, 320, 16).with_adapters(AdapterModel::new(64, 2));
        let big = RequestTrace::new(vec![req(0, 0.0, 200, 8)]);
        let without = sim(ServingConfig::paged(4, 320, 16)).run(&big);
        assert_eq!(without.completed(), 1, "13 of 20 blocks fit");
        let carved = sim(paged).run(&big);
        assert_eq!(carved.rejected, 1, "13 blocks exceed the 12 left");
        assert_eq!(carved.adapters.reserved_blocks, 8);
        assert_eq!(carved.qos.interactive_rejected, 1);
    }

    /// The tenant axes are invisible until used: explicitly-disabled
    /// adapters and a different aging threshold reproduce the default run
    /// bit for bit on a single-class base-model trace, and an *enabled*
    /// adapter cache that no request touches changes nothing either (on
    /// the reserve-up-front policies, whose cache lives outside the pool).
    #[test]
    fn unused_tenant_axes_are_bit_invisible() {
        let trace = WorkloadSpec::chat(6.0, 80, 9).generate();
        for config in [
            ServingConfig::continuous(8, 20_000),
            ServingConfig::static_batching(8, 20_000),
            ServingConfig::paged(8, 20_000, 16).with_prefix_sharing(true),
        ] {
            let plain = sim(config).run(&trace);
            let explicit = sim(config
                .with_adapters(AdapterModel::disabled())
                .with_qos_aging(3))
            .run(&trace);
            assert_eq!(plain, explicit, "{}", config.scheduler);
            assert_eq!(plain.adapters, AdapterStats::default());
            assert_eq!(plain.qos.batch_admitted, 0);
            assert_eq!(plain.qos.interactive_bypasses, 0);
        }
        // Enabled-but-untouched adapters: all-BASE traffic never touches
        // the cache, so the reserve-up-front reports match exactly.
        for config in [
            ServingConfig::continuous(8, 20_000),
            ServingConfig::static_batching(8, 20_000),
        ] {
            let plain = sim(config).run(&trace);
            let armed = sim(config.with_adapters(AdapterModel::new(64, 2))).run(&trace);
            assert_eq!(plain, armed, "{}", config.scheduler);
        }
    }

    #[test]
    #[should_panic(expected = "adapter cache reservation")]
    fn adapter_carve_swallowing_the_pool_panics() {
        // 20 blocks of 16 tokens; 2 adapters × 10 blocks leave nothing.
        let config = ServingConfig::paged(4, 320, 16).with_adapters(AdapterModel::new(160, 2));
        let _ = sim(config);
    }
}
