//! The pre-event-core step loop, preserved verbatim as a test-only
//! reference implementation.
//!
//! This is the scheduler exactly as it ran before the discrete-event
//! refactor: time advances step by step, arrivals are probed from the
//! trace every iteration, and occupancy/fragmentation are re-derived each
//! step by walking the running batch (and, for the paged policy, every
//! sequence's block list). The equivalence property suite
//! (`scheduler::equivalence_tests`) runs seeded traces through both this
//! loop and the event core and asserts the reports match exactly — modulo
//! the time-weighted mean fields, which the event core deliberately
//! improves by integrating over exact inter-event intervals (idle gaps
//! included) instead of sampling once per engine step.

use std::collections::VecDeque;

use super::{PagedActive, PagedStats, SchedulerKind, ServingConfig, ServingReport};
use crate::cost::{ChunkWork, ServingCostModel, StepMix};
use crate::kv::BlockAllocator;
use crate::lora::{AdapterCache, AdapterId};
use crate::metrics::RequestRecord;
use crate::prefix::PrefixCache;
use crate::tenant::QosAdmission;
use crate::workload::RequestTrace;

/// A request resident in the running batch.
#[derive(Debug, Clone, Copy)]
struct Active {
    /// Slot id of the request in the run's slot store.
    idx: usize,
    /// Whether the prompt has been processed.
    prefilled: bool,
    /// Prompt tokens prefilled so far — the chunk cursor of chunked
    /// prefill (equals the prompt once `prefilled`; unused, and left at
    /// zero, when whole prompts prefill in dedicated waves).
    prefilled_tokens: usize,
    /// Draft-and-verify bursts this sequence has decoded through — the
    /// per-sequence counter feeding the deterministic acceptance draws.
    spec_bursts: u64,
    /// Time the first output token was produced (valid once prefilled).
    first_token_s: f64,
    /// Tokens currently in the KV cache (prompt + generated so far).
    context_tokens: usize,
    /// Decode tokens still to generate (the prefill emits the first).
    remaining_decode: usize,
    /// KV tokens reserved against the budget at admission.
    reserved_tokens: usize,
    /// Time the last output token was produced (set once generation
    /// finishes; under static batching the slot may stay blocked longer).
    done_s: Option<f64>,
}

/// Runs a reserve-up-front trace through the old step loop.
pub(super) fn run_reference<C: ServingCostModel>(
    cost: &mut C,
    config: ServingConfig,
    trace: &RequestTrace,
) -> ServingReport {
    assert_ne!(config.scheduler, SchedulerKind::PagedContinuous);
    let mut state = RunState::new(config, trace.requests());
    loop {
        state.pull_arrivals();
        state.admit();
        if state.running.is_empty() {
            debug_assert!(state.queue.is_empty());
            if state.next_arrival >= state.requests.len() {
                break; // drained
            }
            // Idle: jump to the next arrival.
            state.now = state.now.max(state.requests[state.next_arrival].arrival_s);
            continue;
        }
        let step_seconds = state.engine_step(cost);
        state.account(step_seconds);
        state.retire();
    }
    state.into_report(trace.duration_s())
}

/// Runs a paged trace through the old step loop.
pub(super) fn run_paged_reference<C: ServingCostModel>(
    cost: &mut C,
    config: ServingConfig,
    trace: &RequestTrace,
) -> ServingReport {
    assert_eq!(config.scheduler, SchedulerKind::PagedContinuous);
    let mut state = PagedRunState::new(config, trace.requests());
    loop {
        state.pull_arrivals();
        state.admit();
        if state.running.is_empty() {
            debug_assert!(state.queue.is_empty());
            if state.next_arrival >= state.requests.len() {
                break; // drained
            }
            state.now = state.now.max(state.requests[state.next_arrival].arrival_s);
            continue;
        }
        let step_seconds = state.engine_step(cost);
        state.account(step_seconds);
        state.retire();
    }
    state.into_report(trace.duration_s())
}

/// The mutable state of one reference serving run.
struct RunState<'a> {
    config: ServingConfig,
    requests: &'a [crate::workload::Request],
    queue: VecDeque<usize>,
    running: Vec<Active>,
    records: Vec<RequestRecord>,
    now: f64,
    next_arrival: usize,
    reserved: usize,
    admitted: usize,
    rejected: usize,
    peak_reserved: usize,
    peak_occupied: usize,
    peak_batch: usize,
    peak_queue: usize,
    decode_steps: u64,
    prefill_steps: u64,
    chunk_steps: u64,
    chunked_prefill_tokens: u64,
    queue_depth_integral: f64,
    occupancy_integral: f64,
    elapsed: f64,
    qos: QosAdmission,
    adapter_cache: AdapterCache,
}

impl<'a> RunState<'a> {
    fn new(config: ServingConfig, requests: &'a [crate::workload::Request]) -> Self {
        let adapter_cache = AdapterCache::new(config.adapters.cache_slots);
        RunState {
            config,
            requests,
            queue: VecDeque::new(),
            running: Vec::new(),
            records: Vec::new(),
            now: 0.0,
            next_arrival: 0,
            reserved: 0,
            admitted: 0,
            rejected: 0,
            peak_reserved: 0,
            peak_occupied: 0,
            peak_batch: 0,
            peak_queue: 0,
            decode_steps: 0,
            prefill_steps: 0,
            chunk_steps: 0,
            chunked_prefill_tokens: 0,
            queue_depth_integral: 0.0,
            occupancy_integral: 0.0,
            elapsed: 0.0,
            qos: QosAdmission::new(),
            adapter_cache,
        }
    }

    /// Pulls every arrival up to the current time into the queue.
    fn pull_arrivals(&mut self) {
        while self.next_arrival < self.requests.len()
            && self.requests[self.next_arrival].arrival_s <= self.now
        {
            self.queue.push_back(self.next_arrival);
            self.next_arrival += 1;
        }
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Admission at this token boundary: FIFO, gated by the batch limit and
    /// the KV reservation budget.
    fn admit(&mut self) {
        let admission_open = match self.config.scheduler {
            SchedulerKind::ContinuousBatching | SchedulerKind::PagedContinuous => true,
            SchedulerKind::StaticBatching => self.running.is_empty(),
        };
        if !admission_open {
            return;
        }
        while self.running.len() < self.config.max_batch {
            let Some(pick) = self.qos.pick(
                self.queue.iter().map(|&i| self.requests[i].qos),
                self.config.qos_aging,
            ) else {
                break;
            };
            let head = self.queue[pick.position];
            let class = self.requests[head].qos;
            let need = self.requests[head].kv_tokens_at_completion();
            if need > self.config.kv_budget_tokens {
                // Could never run on this replica, even alone.
                self.queue.remove(pick.position);
                self.rejected += 1;
                self.qos.record_reject(class);
                continue;
            }
            if self.reserved + need > self.config.kv_budget_tokens {
                // The pick is not committed: the aging clock holds still.
                break;
            }
            self.queue.remove(pick.position);
            self.qos.record_admit(class, pick);
            self.reserved += need;
            self.admitted += 1;
            self.running.push(Active {
                idx: head,
                prefilled: false,
                prefilled_tokens: 0,
                spec_bursts: 0,
                first_token_s: 0.0,
                context_tokens: 0,
                remaining_decode: 0,
                reserved_tokens: need,
                done_s: None,
            });
        }
        self.peak_reserved = self.peak_reserved.max(self.reserved);
    }

    /// One engine step — prefill-prioritized, then decode, with chunked
    /// prefill and speculation branching exactly as the event core does.
    /// Returns the step duration and advances per-request progress (but
    /// not the clock).
    fn engine_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.peak_batch = self.peak_batch.max(self.running.len());
        let pending_prefill = self.running.iter().any(|a| !a.prefilled);
        let dt = if pending_prefill {
            if self.config.chunk_budget_tokens.is_some() {
                self.chunked_step(cost)
            } else {
                self.prefill_steps += 1;
                let mut cursor = self.now;
                for active in self.running.iter_mut().filter(|a| !a.prefilled) {
                    let request = &self.requests[active.idx];
                    cursor += cost.prefill_seconds(request.prompt_tokens);
                    active.prefilled = true;
                    active.first_token_s = cursor;
                    active.context_tokens = request.prompt_tokens + 1;
                    active.remaining_decode = request.output_tokens.saturating_sub(1);
                }
                cursor - self.now
            }
        } else if self.config.speculation.enabled() {
            self.speculative_step(cost)
        } else {
            self.decode_steps += 1;
            let batch = self.running.len();
            let max_context = self
                .running
                .iter()
                .map(|a| a.context_tokens)
                .fold(0, usize::max);
            let dt = cost.decode_step_seconds(batch, max_context);
            for active in &mut self.running {
                if active.remaining_decode > 0 {
                    active.remaining_decode -= 1;
                    active.context_tokens += 1;
                }
            }
            dt
        };
        // The adapter-switch wait delays the step's completion but not the
        // first-token stamps above — exactly as the event core prices it.
        dt + self.adapter_switch_seconds(cost)
    }

    /// Adapter-load seconds this step pays — the event core's rule
    /// verbatim: each distinct non-base adapter of the batch (in batch
    /// order) touches the LRU, and every miss streams its weights in.
    fn adapter_switch_seconds<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        if !self.config.adapters.enabled() {
            return 0.0;
        }
        let weight_tokens = self.config.adapters.weight_tokens;
        let mut wait = 0.0;
        let mut seen: Vec<AdapterId> = Vec::new();
        let requests = self.requests;
        let cache = &mut self.adapter_cache;
        for active in &self.running {
            let adapter = requests[active.idx].adapter;
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

    /// One chunked batch step, mirroring the event core's arithmetic: the
    /// unprefilled sequences' next chunks (FIFO against the budget) plus
    /// one decode token for the already-prefilled ones, priced as one
    /// [`StepMix`]; decode progress lands before chunk progress.
    fn chunked_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.chunk_steps += 1;
        let budget = self
            .config
            .chunk_budget_tokens
            .expect("chunked dispatch requires a budget");
        let mut budget_left = budget;
        let mut chunks: Vec<(usize, usize)> = Vec::new();
        let mut mix = StepMix::default();
        let mut decoders: Vec<usize> = Vec::new();
        for (pos, active) in self.running.iter().enumerate() {
            if active.prefilled {
                if active.remaining_decode > 0 {
                    decoders.push(pos);
                    mix.max_context_tokens = mix.max_context_tokens.max(active.context_tokens);
                }
            } else if budget_left > 0 {
                let prompt = self.requests[active.idx].prompt_tokens;
                let take = (prompt - active.prefilled_tokens).min(budget_left);
                budget_left -= take;
                chunks.push((pos, take));
                mix.prefill_chunks.push(ChunkWork {
                    suffix_tokens: take,
                    cached_tokens: 0,
                    committed_tokens: active.prefilled_tokens,
                });
            }
        }
        mix.decode_batch = decoders.len();
        let dt = cost.step_seconds(&mix);
        let end = self.now + dt;
        for &pos in &decoders {
            let active = &mut self.running[pos];
            active.remaining_decode -= 1;
            active.context_tokens += 1;
        }
        for (pos, take) in chunks {
            self.chunked_prefill_tokens += take as u64;
            let active = &mut self.running[pos];
            active.prefilled_tokens += take;
            let request = &self.requests[active.idx];
            if active.prefilled_tokens == request.prompt_tokens {
                active.prefilled = true;
                active.first_token_s = end;
                active.context_tokens = request.prompt_tokens + 1;
                active.remaining_decode = request.output_tokens.saturating_sub(1);
            }
        }
        dt
    }

    /// One draft-and-verify burst, mirroring the event core: the same
    /// seeded acceptance draws, keyed by request id and per-sequence burst
    /// count.
    fn speculative_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.decode_steps += 1;
        let spec = self.config.speculation;
        let batch = self.running.len();
        let max_context = self
            .running
            .iter()
            .map(|a| a.context_tokens)
            .fold(0, usize::max);
        let dt = cost.speculative_burst_seconds(spec.draft_tokens, batch, max_context);
        let requests = self.requests;
        for active in &mut self.running {
            if active.remaining_decode > 0 {
                let accepted =
                    spec.accepted_tokens(requests[active.idx].id as u64, active.spec_bursts);
                active.spec_bursts += 1;
                let gained = (accepted + 1).min(active.remaining_decode);
                active.remaining_decode -= gained;
                active.context_tokens += gained;
            }
        }
        dt
    }

    /// Advances the clock and the time-weighted statistics by one step —
    /// the per-step *sampling* the event core replaces with exact interval
    /// integration.
    fn account(&mut self, step_seconds: f64) {
        let occupied: usize = self.running.iter().map(|a| a.context_tokens).sum();
        self.peak_occupied = self.peak_occupied.max(occupied);
        self.queue_depth_integral += self.queue.len() as f64 * step_seconds;
        self.occupancy_integral +=
            occupied as f64 / self.config.kv_budget_tokens as f64 * step_seconds;
        self.elapsed += step_seconds;
        self.now += step_seconds;
    }

    /// Stamps generation-finish times and retires finished sequences.
    fn retire(&mut self) {
        let now = self.now;
        for active in &mut self.running {
            if active.prefilled && active.remaining_decode == 0 && active.done_s.is_none() {
                let request = &self.requests[active.idx];
                active.done_s = Some(if request.output_tokens == 1 {
                    active.first_token_s
                } else {
                    now
                });
            }
        }

        let batch_done = self.running.iter().all(|a| a.done_s.is_some());
        let scheduler = self.config.scheduler;
        let requests = self.requests;
        let records = &mut self.records;
        let reserved = &mut self.reserved;
        self.running.retain(|active| {
            let release = match scheduler {
                SchedulerKind::ContinuousBatching | SchedulerKind::PagedContinuous => {
                    active.done_s.is_some()
                }
                SchedulerKind::StaticBatching => batch_done,
            };
            if let (true, Some(done_s)) = (release, active.done_s) {
                let request = &requests[active.idx];
                records.push(RequestRecord {
                    id: request.id,
                    arrival_s: request.arrival_s,
                    first_token_s: active.first_token_s,
                    completion_s: done_s,
                    prompt_tokens: request.prompt_tokens,
                    output_tokens: request.output_tokens,
                    qos: request.qos,
                });
                *reserved -= active.reserved_tokens;
                return false;
            }
            true
        });
    }

    /// Finalizes the report once the trace has drained.
    fn into_report(mut self, trace_duration_s: f64) -> ServingReport {
        self.records.sort_by_key(|r| r.id);
        let makespan = self
            .records
            .iter()
            .map(|r| r.completion_s)
            .fold(self.now.min(trace_duration_s), f64::max);
        ServingReport {
            scheduler: self.config.scheduler,
            records: self.records,
            admitted: self.admitted,
            rejected: self.rejected,
            makespan_s: makespan,
            kv_budget_tokens: self.config.kv_budget_tokens,
            peak_kv_reserved_tokens: self.peak_reserved,
            peak_kv_occupied_tokens: self.peak_occupied,
            mean_kv_occupancy: if self.elapsed > 0.0 {
                self.occupancy_integral / self.elapsed
            } else {
                0.0
            },
            peak_batch: self.peak_batch,
            peak_queue_depth: self.peak_queue,
            mean_queue_depth: if self.elapsed > 0.0 {
                self.queue_depth_integral / self.elapsed
            } else {
                0.0
            },
            decode_steps: self.decode_steps,
            prefill_steps: self.prefill_steps,
            chunk_steps: self.chunk_steps,
            chunked_prefill_tokens: self.chunked_prefill_tokens,
            qos: self.qos.stats(),
            adapters: self.adapter_cache.stats(),
            paged: None,
        }
    }
}

/// The mutable state of one reference paged serving run.
struct PagedRunState<'a> {
    config: ServingConfig,
    requests: &'a [crate::workload::Request],
    queue: VecDeque<usize>,
    running: Vec<PagedActive>,
    records: Vec<RequestRecord>,
    allocator: BlockAllocator,
    cache: Option<PrefixCache>,
    now: f64,
    next_arrival: usize,
    admitted: usize,
    rejected: usize,
    first_token: Vec<Option<f64>>,
    generated_before: Vec<usize>,
    was_admitted: Vec<bool>,
    preemptions: u64,
    prefix_hit_tokens: u64,
    prefix_uncached_tokens: u64,
    peak_occupied: usize,
    peak_batch: usize,
    peak_queue: usize,
    decode_steps: u64,
    prefill_steps: u64,
    chunk_steps: u64,
    chunked_prefill_tokens: u64,
    queue_depth_integral: f64,
    occupancy_integral: f64,
    block_util_integral: f64,
    fragmentation_integral: f64,
    elapsed: f64,
    /// Per-block scratch for `account`'s distinct-block walk (indexed by
    /// `BlockId`): a block whose entry already equals the current stamp
    /// was counted this step.
    touched: Vec<u64>,
    /// The current `account` step's stamp in `touched`.
    stamp: u64,
    qos: QosAdmission,
    adapter_cache: AdapterCache,
    /// Blocks carved out of the pool to back the adapter cache.
    adapter_blocks: Vec<crate::kv::BlockId>,
}

impl<'a> PagedRunState<'a> {
    fn new(config: ServingConfig, requests: &'a [crate::workload::Request]) -> Self {
        assert!(
            !config.tiers.enabled() && !config.kv_ship.enabled(),
            "the reference scheduler models neither KV tiers nor KV shipping"
        );
        let mut allocator =
            BlockAllocator::from_token_budget(config.block_size, config.kv_budget_tokens);
        let total_blocks = allocator.total_blocks();
        let cache = config
            .prefix_sharing
            .then(|| PrefixCache::new(config.block_size));
        let mut adapter_cache = AdapterCache::new(config.adapters.cache_slots);
        let mut adapter_blocks = Vec::new();
        if config.adapters.enabled() {
            let reserve = config.adapters.reserved_blocks(config.block_size);
            assert!(
                reserve < total_blocks,
                "the adapter cache reservation must leave KV blocks for sequences"
            );
            for _ in 0..reserve {
                adapter_blocks.push(allocator.alloc().expect("reservation fits the pool"));
            }
            adapter_cache.set_reserved_blocks(reserve);
        }
        PagedRunState {
            config,
            requests,
            queue: VecDeque::new(),
            running: Vec::new(),
            records: Vec::new(),
            allocator,
            cache,
            now: 0.0,
            next_arrival: 0,
            admitted: 0,
            rejected: 0,
            first_token: vec![None; requests.len()],
            generated_before: vec![0; requests.len()],
            was_admitted: vec![false; requests.len()],
            preemptions: 0,
            prefix_hit_tokens: 0,
            prefix_uncached_tokens: 0,
            peak_occupied: 0,
            peak_batch: 0,
            peak_queue: 0,
            decode_steps: 0,
            prefill_steps: 0,
            chunk_steps: 0,
            chunked_prefill_tokens: 0,
            queue_depth_integral: 0.0,
            occupancy_integral: 0.0,
            block_util_integral: 0.0,
            fragmentation_integral: 0.0,
            elapsed: 0.0,
            touched: vec![0; total_blocks],
            stamp: 0,
            qos: QosAdmission::new(),
            adapter_cache,
            adapter_blocks,
        }
    }

    /// The prompt a (possibly resumed) request must prefill.
    fn effective_prompt(&self, idx: usize) -> usize {
        self.requests[idx].prompt_tokens + self.generated_before[idx]
    }

    /// Pulls every arrival up to the current time into the queue.
    fn pull_arrivals(&mut self) {
        while self.next_arrival < self.requests.len()
            && self.requests[self.next_arrival].arrival_s <= self.now
        {
            self.queue.push_back(self.next_arrival);
            self.next_arrival += 1;
        }
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Paged admission: FIFO, gated by the batch limit and by *current*
    /// need after prefix-cache hits and cold-block eviction.
    fn admit(&mut self) {
        while self.running.len() < self.config.max_batch {
            let Some(pick) = self.qos.pick(
                self.queue.iter().map(|&i| self.requests[i].qos),
                self.config.qos_aging,
            ) else {
                break;
            };
            let head = self.queue[pick.position];
            let class = self.requests[head].qos;
            let request = &self.requests[head];
            let full_need = self
                .allocator
                .blocks_for_tokens(request.kv_tokens_at_completion());
            if full_need > self.allocator.total_blocks() - self.adapter_blocks.len() {
                self.queue.remove(pick.position);
                self.rejected += 1;
                self.qos.record_reject(class);
                continue;
            }
            let prompt = self.effective_prompt(head);
            let matched = match &mut self.cache {
                Some(cache) => {
                    let ids = request.stream.token_ids(prompt.saturating_sub(1));
                    cache.lookup(&ids, &mut self.allocator)
                }
                None => Vec::new(),
            };
            let cached_tokens = matched.len() * self.config.block_size;
            let target = self.allocator.blocks_for_tokens(prompt + 1);
            let need_now = target - matched.len();
            if self.allocator.free_blocks() < need_now {
                let evictable = self
                    .cache
                    .as_ref()
                    .map_or(0, |cache| cache.evictable_blocks(&self.allocator));
                if self.allocator.free_blocks() + evictable < need_now {
                    for block in matched {
                        self.release_block(block);
                    }
                    break;
                }
            }
            let mut starved = false;
            while self.allocator.free_blocks() < need_now {
                if !self.evict_one() {
                    starved = true;
                    break;
                }
            }
            if starved {
                for block in matched {
                    self.release_block(block);
                }
                break;
            }
            self.queue.remove(pick.position);
            self.qos.record_admit(class, pick);
            let mut blocks = matched;
            for _ in 0..need_now {
                blocks.push(self.allocator.alloc().expect("free blocks checked"));
            }
            if !self.was_admitted[head] {
                self.was_admitted[head] = true;
                self.admitted += 1;
            }
            self.running.push(PagedActive {
                idx: head,
                prefilled: false,
                prefilled_tokens: cached_tokens,
                spec_bursts: 0,
                context_tokens: cached_tokens,
                remaining_decode: 0,
                cached_prefix_tokens: cached_tokens,
                promoted_tokens: 0,
                promote_wait_s: 0.0,
                swapping: false,
                blocks,
                done_s: None,
            });
        }
    }

    /// Evicts one cold prefix-cache block.
    fn evict_one(&mut self) -> bool {
        self.cache
            .as_mut()
            .is_some_and(|cache| cache.evict_lru(&mut self.allocator))
    }

    /// Drops one sequence-held block reference: through the prefix cache
    /// when one is attached (the [`PrefixCache::release`] contract keeps
    /// its shared-block bookkeeping in sync), else straight to the
    /// allocator.
    fn release_block(&mut self, block: crate::kv::BlockId) {
        match &mut self.cache {
            Some(cache) => cache.release(block, &mut self.allocator),
            None => self.allocator.free(block),
        }
    }

    /// One engine step — prefill-prioritized, then decode, with chunked
    /// prefill and speculation branching exactly as the event core does.
    fn engine_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.peak_batch = self.peak_batch.max(self.running.len());
        let pending_prefill = self.running.iter().any(|a| !a.prefilled);
        let dt = if pending_prefill {
            if self.config.chunk_budget_tokens.is_some() {
                self.chunked_step(cost)
            } else {
                self.prefill_step(cost)
            }
        } else if self.config.speculation.enabled() {
            self.speculative_step(cost)
        } else {
            self.decode_step(cost)
        };
        // The adapter-switch wait delays the step's completion but not the
        // first-token stamps inside the branches — exactly as the event
        // core prices it.
        dt + self.adapter_switch_seconds(cost)
    }

    /// Adapter-load seconds this step pays — the paged event core's rule
    /// verbatim (swap-in waiters contribute nothing; the reference loop
    /// never swaps, so the filter is vacuous but kept for symmetry).
    fn adapter_switch_seconds<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        if !self.config.adapters.enabled() {
            return 0.0;
        }
        let weight_tokens = self.config.adapters.weight_tokens;
        let mut wait = 0.0;
        let mut seen: Vec<AdapterId> = Vec::new();
        let requests = self.requests;
        let cache = &mut self.adapter_cache;
        for active in self.running.iter().filter(|a| !a.swapping) {
            let adapter = requests[active.idx].adapter;
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

    /// Prefills every newly admitted (or resumed) sequence back to back.
    fn prefill_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.prefill_steps += 1;
        let mut cursor = self.now;
        for active in self.running.iter_mut().filter(|a| !a.prefilled) {
            let request = &self.requests[active.idx];
            let prompt = request.prompt_tokens + self.generated_before[active.idx];
            let cached = active.cached_prefix_tokens;
            cursor += cost.prefill_seconds_cached(prompt, cached);
            active.prefilled = true;
            active.context_tokens = prompt + 1;
            active.remaining_decode = request
                .output_tokens
                .saturating_sub(1 + self.generated_before[active.idx]);
            if self.first_token[active.idx].is_none() {
                self.first_token[active.idx] = Some(cursor);
            }
            if active.remaining_decode == 0 {
                active.done_s = Some(cursor);
            }
            self.prefix_hit_tokens += cached as u64;
            self.prefix_uncached_tokens += (prompt - cached) as u64;
            if let Some(cache) = &mut self.cache {
                let ids = request.stream.token_ids(prompt);
                cache.insert(&ids, &active.blocks, &mut self.allocator);
            }
        }
        cursor - self.now
    }

    /// One decode step: every running sequence gains a token.
    fn decode_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.decode_steps += 1;
        let batch = self.running.len();
        let max_context = self
            .running
            .iter()
            .map(|a| a.context_tokens)
            .fold(0, usize::max);
        let dt = cost.decode_step_seconds(batch, max_context);
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining_decode == 0 {
                i += 1;
                continue;
            }
            let active = &self.running[i];
            let needs_block =
                self.allocator.blocks_for_tokens(active.context_tokens + 1) > active.blocks.len();
            if needs_block {
                match self.grow(i) {
                    Some(at) => i = at,
                    None => continue, // self-preempted
                }
            }
            let active = &mut self.running[i];
            active.context_tokens += 1;
            active.remaining_decode -= 1;
            i += 1;
        }
        dt
    }

    /// One chunked batch step, mirroring the paged event core: chunks are
    /// keyed by request index (the decode side can preempt and shift
    /// running positions, but mid-prefill sequences are never victims),
    /// committed context grows with the cursor, and chunk-completed full
    /// blocks publish into the prefix cache incrementally.
    fn chunked_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.chunk_steps += 1;
        let budget = self
            .config
            .chunk_budget_tokens
            .expect("chunked dispatch requires a budget");
        let mut budget_left = budget;
        let mut chunks: Vec<(usize, usize)> = Vec::new();
        let mut mix = StepMix::default();
        let mut decode_batch = 0;
        for active in &self.running {
            if active.prefilled {
                if active.remaining_decode > 0 {
                    decode_batch += 1;
                    mix.max_context_tokens = mix.max_context_tokens.max(active.context_tokens);
                }
            } else if budget_left > 0 {
                let prompt = self.effective_prompt(active.idx);
                let committed = active.cached_prefix_tokens;
                let take = (prompt - active.prefilled_tokens).min(budget_left);
                budget_left -= take;
                chunks.push((active.idx, take));
                mix.prefill_chunks.push(ChunkWork {
                    suffix_tokens: take,
                    cached_tokens: committed,
                    committed_tokens: active.prefilled_tokens - committed,
                });
            }
        }
        mix.decode_batch = decode_batch;
        let dt = cost.step_seconds(&mix);
        let end = self.now + dt;
        // Decode progress first, with the plain step's grow-and-preempt
        // loop.
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining_decode == 0 {
                i += 1;
                continue;
            }
            let active = &self.running[i];
            let needs_block =
                self.allocator.blocks_for_tokens(active.context_tokens + 1) > active.blocks.len();
            if needs_block {
                match self.grow(i) {
                    Some(at) => i = at,
                    None => continue, // self-preempted
                }
            }
            let active = &mut self.running[i];
            active.context_tokens += 1;
            active.remaining_decode -= 1;
            i += 1;
        }
        for (idx, take) in chunks {
            self.chunked_prefill_tokens += take as u64;
            let pos = self
                .running
                .iter()
                .position(|a| a.idx == idx)
                .expect("mid-prefill sequences are never preempted");
            let active = &mut self.running[pos];
            active.prefilled_tokens += take;
            active.context_tokens = active.prefilled_tokens;
            let request = &self.requests[idx];
            let prompt = request.prompt_tokens + self.generated_before[idx];
            if active.prefilled_tokens == prompt {
                active.prefilled = true;
                active.context_tokens = prompt + 1;
                active.remaining_decode = request
                    .output_tokens
                    .saturating_sub(1 + self.generated_before[idx]);
                if self.first_token[idx].is_none() {
                    self.first_token[idx] = Some(end);
                }
                if active.remaining_decode == 0 {
                    active.done_s = Some(end);
                }
                self.prefix_hit_tokens += active.cached_prefix_tokens as u64;
                self.prefix_uncached_tokens += (prompt - active.cached_prefix_tokens) as u64;
            }
            if let Some(cache) = &mut self.cache {
                let active = &self.running[pos];
                let ids = request.stream.token_ids(active.prefilled_tokens);
                cache.insert(&ids, &active.blocks, &mut self.allocator);
            }
        }
        dt
    }

    /// One draft-and-verify burst, mirroring the paged event core: the
    /// same seeded draws, accepted tokens landing one by one through the
    /// grow-and-preempt loop.
    fn speculative_step<C: ServingCostModel>(&mut self, cost: &mut C) -> f64 {
        self.decode_steps += 1;
        let spec = self.config.speculation;
        let batch = self.running.len();
        let max_context = self
            .running
            .iter()
            .map(|a| a.context_tokens)
            .fold(0, usize::max);
        let dt = cost.speculative_burst_seconds(spec.draft_tokens, batch, max_context);
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining_decode == 0 {
                i += 1;
                continue;
            }
            let accepted = {
                let active = &mut self.running[i];
                let id = self.requests[active.idx].id as u64;
                let accepted = spec.accepted_tokens(id, active.spec_bursts);
                active.spec_bursts += 1;
                accepted
            };
            let gained = (accepted + 1).min(self.running[i].remaining_decode);
            let mut preempted_self = false;
            for _ in 0..gained {
                let active = &self.running[i];
                let needs_block = self.allocator.blocks_for_tokens(active.context_tokens + 1)
                    > active.blocks.len();
                if needs_block {
                    if let Some(at) = self.grow(i) {
                        i = at;
                    } else {
                        preempted_self = true;
                        break;
                    }
                }
                let active = &mut self.running[i];
                active.context_tokens += 1;
                active.remaining_decode -= 1;
            }
            if !preempted_self {
                i += 1;
            }
        }
        dt
    }

    /// Obtains one more block for the sequence at `i`.
    fn grow(&mut self, mut i: usize) -> Option<usize> {
        loop {
            if let Some(block) = self.allocator.alloc() {
                self.running[i].blocks.push(block);
                return Some(i);
            }
            if self.evict_one() {
                continue;
            }
            let victim = (0..self.running.len())
                .rev()
                .find(|&j| j != i && self.running[j].remaining_decode > 0);
            let Some(j) = victim else {
                self.preempt(i);
                return None;
            };
            self.preempt(j);
            if j < i {
                i -= 1;
            }
        }
    }

    /// Preempt-by-recompute: frees every block the victim holds and
    /// re-queues it at the *front* immediately (the mid-step `push_front`
    /// the event core reproduces with a deferred preemption event).
    fn preempt(&mut self, j: usize) {
        let victim = self.running.remove(j);
        let request = &self.requests[victim.idx];
        debug_assert!(victim.prefilled);
        self.generated_before[victim.idx] = victim.context_tokens - request.prompt_tokens;
        for block in victim.blocks {
            self.release_block(block);
        }
        self.queue.push_front(victim.idx);
        self.preemptions += 1;
    }

    /// Advances the clock and the time-weighted statistics by one step —
    /// including the per-step stamp walk over every sequence's block list
    /// that the event core replaces with running counters.
    fn account(&mut self, step_seconds: f64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let touched = &mut self.touched;
        let mut occupied = 0usize;
        let mut seq_slots = 0usize;
        for active in &self.running {
            occupied += active.context_tokens;
            for &block in &active.blocks {
                if touched[block] == stamp {
                    occupied -= self.config.block_size;
                } else {
                    touched[block] = stamp;
                    seq_slots += self.config.block_size;
                }
            }
        }
        self.peak_occupied = self.peak_occupied.max(occupied);
        self.queue_depth_integral += self.queue.len() as f64 * step_seconds;
        self.occupancy_integral +=
            occupied as f64 / self.allocator.total_tokens() as f64 * step_seconds;
        self.block_util_integral += self.allocator.utilization() * step_seconds;
        if seq_slots > 0 {
            self.fragmentation_integral +=
                (1.0 - occupied as f64 / seq_slots as f64) * step_seconds;
        }
        self.elapsed += step_seconds;
        self.now += step_seconds;
    }

    /// Retires finished sequences.
    fn retire(&mut self) {
        let now = self.now;
        for active in &mut self.running {
            if active.prefilled && active.remaining_decode == 0 && active.done_s.is_none() {
                active.done_s = Some(now);
            }
        }
        let requests = self.requests;
        let records = &mut self.records;
        let allocator = &mut self.allocator;
        let cache = &mut self.cache;
        let first_token = &self.first_token;
        self.running.retain(|active| {
            let Some(done_s) = active.done_s else {
                return true;
            };
            let request = &requests[active.idx];
            if let Some(cache) = cache {
                let ids = request.stream.token_ids(active.context_tokens);
                cache.insert(&ids, &active.blocks, allocator);
            }
            for &block in &active.blocks {
                match cache.as_mut() {
                    Some(cache) => cache.release(block, allocator),
                    None => allocator.free(block),
                }
            }
            records.push(RequestRecord {
                id: request.id,
                arrival_s: request.arrival_s,
                first_token_s: first_token[active.idx].expect("prefilled"),
                completion_s: done_s,
                prompt_tokens: request.prompt_tokens,
                output_tokens: request.output_tokens,
                qos: request.qos,
            });
            false
        });
    }

    /// Finalizes the report once the trace has drained.
    fn into_report(mut self, trace_duration_s: f64) -> ServingReport {
        self.records.sort_by_key(|r| r.id);
        let makespan = self
            .records
            .iter()
            .map(|r| r.completion_s)
            .fold(self.now.min(trace_duration_s), f64::max);
        let allocator_stats = self.allocator.stats();
        let cache_stats = self
            .cache
            .as_ref()
            .map(PrefixCache::stats)
            .unwrap_or_default();
        let normalize = |integral: f64| {
            if self.elapsed > 0.0 {
                integral / self.elapsed
            } else {
                0.0
            }
        };
        ServingReport {
            scheduler: self.config.scheduler,
            records: self.records,
            admitted: self.admitted,
            rejected: self.rejected,
            makespan_s: makespan,
            kv_budget_tokens: self.allocator.total_tokens(),
            peak_kv_reserved_tokens: allocator_stats.peak_allocated_blocks * self.config.block_size,
            peak_kv_occupied_tokens: self.peak_occupied,
            mean_kv_occupancy: normalize(self.occupancy_integral),
            peak_batch: self.peak_batch,
            peak_queue_depth: self.peak_queue,
            mean_queue_depth: normalize(self.queue_depth_integral),
            decode_steps: self.decode_steps,
            prefill_steps: self.prefill_steps,
            chunk_steps: self.chunk_steps,
            chunked_prefill_tokens: self.chunked_prefill_tokens,
            qos: self.qos.stats(),
            adapters: self.adapter_cache.stats(),
            paged: Some(PagedStats {
                block_size: self.config.block_size,
                total_blocks: allocator_stats.total_blocks,
                peak_allocated_blocks: allocator_stats.peak_allocated_blocks,
                mean_block_utilization: normalize(self.block_util_integral),
                mean_internal_fragmentation: normalize(self.fragmentation_integral),
                preemptions: self.preemptions,
                cache_evictions: cache_stats.evictions,
                cache_peak_resident_blocks: cache_stats.peak_resident_blocks,
                prefix_hit_tokens: self.prefix_hit_tokens,
                prefix_uncached_tokens: self.prefix_uncached_tokens,
                swap_outs: 0,
                swap_ins: 0,
                swapped_out_blocks: 0,
                tier_demotions: 0,
                tier_promotions: 0,
                kv_transfers: 0,
                peak_ddr_blocks: 0,
                peak_disk_blocks: 0,
                mean_ddr_occupancy: 0.0,
                mean_disk_occupancy: 0.0,
            }),
        }
    }
}
