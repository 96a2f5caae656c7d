//! Per-step cost models: what one engine step costs the serving engine.
//!
//! The scheduler's unit of work is the *batch step*: a [`StepMix`] naming
//! the prefill chunks and the decode batch the engine runs together at one
//! batch boundary, priced as one unit through
//! [`ServingCostModel::step_seconds`]. The classic whole-phase questions —
//! "how long to prefill a `P`-token prompt?" and "how long is one decode
//! step for a batch of `B` sequences at context `C`?" — remain the trait's
//! primitive queries, and the step-mix pricing decomposes into them, so an
//! unchunked step prices exactly as before; chunked prefill
//! (Sarathi-style) and speculative decoding are scheduler policy layered
//! on the same primitives. The production implementation drives
//! [`InferenceEstimator`] (and the whole compressed-GeMM simulation stack
//! underneath), for single-socket replicas and TP/PP sharded ones alike; a
//! linear model exists for fast property tests and analytical what-ifs.

use std::collections::HashMap;

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::{InferenceEstimator, InterconnectModel, LlmModel, ShardSpec};
use deca_roofsurface::MachineConfig;

/// One prefill chunk inside a batch step: `suffix_tokens` prompt tokens
/// streamed through the FC GeMMs while their attention reads everything
/// already resident for the sequence — `cached_tokens` served by the
/// prefix cache (or promoted from a lower tier) plus `committed_tokens`
/// prefilled by this prompt's *earlier chunks*. Both resident kinds price
/// identically (attention context, no compute), so the chunk collapses to
/// one cached-prefill query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkWork {
    /// Prompt tokens this chunk processes.
    pub suffix_tokens: usize,
    /// Prompt tokens already resident via the prefix cache / tier
    /// promotion (never prefilled by this request).
    pub cached_tokens: usize,
    /// Prompt tokens committed by this prompt's earlier chunks.
    pub committed_tokens: usize,
}

impl ChunkWork {
    /// Tokens already resident when this chunk runs — the attention
    /// context its suffix is charged against.
    #[must_use]
    pub fn context_tokens(&self) -> usize {
        self.cached_tokens + self.committed_tokens
    }
}

/// One batch step: the prefill chunks and the decode batch the engine runs
/// together at a batch boundary, priced as one unit by
/// [`ServingCostModel::step_seconds`]. A pure-prefill step has
/// `decode_batch == 0`; a pure-decode step has no chunks. The degenerate
/// mix — one whole-prompt chunk, no decodes — prices bit-identically to
/// the classic [`ServingCostModel::prefill_seconds_cached`] query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepMix {
    /// Prefill chunks of this step, in batch order.
    pub prefill_chunks: Vec<ChunkWork>,
    /// Sequences gaining one token this step (0 for a pure-prefill step).
    pub decode_batch: usize,
    /// Longest decoding sequence's context, in tokens.
    pub max_context_tokens: usize,
}

/// What one engine step costs. Implementations must be deterministic: the
/// same question always gets the same answer, so serving simulations are
/// replayable.
pub trait ServingCostModel {
    /// Seconds to prefill one fresh request with `prompt_tokens` tokens.
    /// Must be strictly positive.
    fn prefill_seconds(&mut self, prompt_tokens: usize) -> f64;

    /// Seconds of one decode step (one token for every sequence) for a
    /// batch of `batch` sequences whose longest context is
    /// `max_context_tokens`. Must be strictly positive.
    fn decode_step_seconds(&mut self, batch: usize, max_context_tokens: usize) -> f64;

    /// Seconds to prefill a `prompt_tokens`-token prompt whose first
    /// `cached_prefix_tokens` tokens are already resident in the KV cache
    /// (a paged-scheduler prefix hit): only the uncached suffix is
    /// processed. The default prices the suffix as a *fresh* prompt, which
    /// under-prices it — a real cached-prefix prefill still attends over
    /// the cached context — so implementations that can express prior
    /// context should override it, as [`EstimatorCostModel`] does to
    /// charge the suffix's attention against the cached tokens too.
    fn prefill_seconds_cached(&mut self, prompt_tokens: usize, cached_prefix_tokens: usize) -> f64 {
        let uncached = prompt_tokens.saturating_sub(cached_prefix_tokens);
        self.prefill_seconds(uncached)
    }

    /// Seconds of one prefill chunk: `suffix_tokens` prompt tokens with
    /// attention over everything already resident (cached *and* committed
    /// context — the two price identically, so the chunk collapses onto
    /// the cached-prefill query and shares its memo table instead of
    /// keying a fresh suffix × cached × committed triple).
    fn chunk_seconds(&mut self, chunk: ChunkWork) -> f64 {
        let context = chunk.context_tokens();
        self.prefill_seconds_cached(context + chunk.suffix_tokens, context)
    }

    /// Seconds of one batch step: every prefill chunk of the mix plus (if
    /// any sequence is decoding) one decode step, as a single unit. The
    /// decomposition into the primitive queries is exact, so a degenerate
    /// mix reproduces the classic per-phase arithmetic bit for bit.
    fn step_seconds(&mut self, mix: &StepMix) -> f64 {
        let mut seconds = 0.0;
        for &chunk in &mix.prefill_chunks {
            seconds += self.chunk_seconds(chunk);
        }
        if mix.decode_batch > 0 {
            seconds += self.decode_step_seconds(mix.decode_batch, mix.max_context_tokens);
        }
        seconds
    }

    /// Seconds of one speculative-decoding burst: `draft_tokens` drafted
    /// tokens plus the target model's verify step for a batch of `batch`
    /// sequences. The default has no draft model to price, so it charges
    /// every drafted token as a full target decode step (speculation
    /// without a cheaper draft buys nothing); [`EstimatorCostModel`]
    /// overrides it when a draft model is configured
    /// ([`EstimatorCostModel::with_draft_model`]).
    fn speculative_burst_seconds(
        &mut self,
        draft_tokens: usize,
        batch: usize,
        max_context_tokens: usize,
    ) -> f64 {
        (draft_tokens as f64 + 1.0) * self.decode_step_seconds(batch, max_context_tokens)
    }

    /// Seconds to load one LoRA adapter's weights (`weight_tokens` in the
    /// same KV-token-equivalent unit the block pool is denominated in)
    /// into the serving engine — the adapter-cache-miss penalty a batch
    /// step pays for activating a non-resident adapter. Streaming adapter
    /// weights is memory-bound, like prefilling a prompt of the same token
    /// footprint, so the default prices it as exactly that; the result is
    /// strictly positive for any `weight_tokens` because
    /// [`ServingCostModel::prefill_seconds`] is.
    fn adapter_load_seconds(&mut self, weight_tokens: usize) -> f64 {
        self.prefill_seconds(weight_tokens)
    }
}

/// Contexts are bucketed (rounded up) to this granularity before hitting
/// the estimator, so a serving run touches a bounded number of distinct
/// latency queries regardless of trace length.
const CONTEXT_BUCKET_TOKENS: usize = 256;
/// Prompt lengths are bucketed (rounded up) to this granularity.
const PROMPT_BUCKET_TOKENS: usize = 64;

fn bucket_up(value: usize, bucket: usize) -> usize {
    value.max(1).div_ceil(bucket) * bucket
}

/// Hard bound on each memo table of [`EstimatorCostModel`]. Chunked
/// prefill multiplies the query space (suffix × cached context × committed
/// context), and although bucketing collapses the cached/committed axes
/// into one context key, an adversarial trace could still walk an
/// unbounded set of buckets — beyond this many entries per table, answers
/// are computed but not cached.
const MEMO_CAPACITY: usize = 4096;

/// Memoization counters of an [`EstimatorCostModel`], for debugging cache
/// behaviour in long sweeps ([`EstimatorCostModel::memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostMemoStats {
    /// Entries currently held across all memo tables (each bounded by an
    /// internal capacity, so this never grows without limit).
    pub entries: usize,
    /// Queries answered from a memo table.
    pub hits: u64,
    /// Queries that had to run the estimator.
    pub misses: u64,
}

impl CostMemoStats {
    /// Fraction of queries answered from the memo tables.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Inserts into a memo table only while it is under [`MEMO_CAPACITY`] —
/// the answer is still returned, just not cached. Returns whether it was.
fn memo_insert<K: std::hash::Hash + Eq>(cache: &mut HashMap<K, f64>, key: K, seconds: f64) -> bool {
    let room = cache.len() < MEMO_CAPACITY;
    if room {
        cache.insert(key, seconds);
    }
    room
}

/// The production cost model: every answer comes from
/// [`InferenceEstimator`] — decode steps from
/// [`InferenceEstimator::next_token`], prefills from
/// [`InferenceEstimator::prefill`] — memoized per bucketed shape. Bucketing
/// rounds *up*, so the model is conservative — a simulated server is never
/// faster than the estimator says.
///
/// [`EstimatorCostModel::new`] prices one socket;
/// [`EstimatorCostModel::sharded`] prices a TP × PP replica with the same
/// estimator built for the plan.
#[derive(Debug, Clone)]
pub struct EstimatorCostModel {
    estimator: InferenceEstimator,
    model: LlmModel,
    scheme: CompressionScheme,
    engine: Engine,
    /// Draft model for speculative-decoding bursts (None: the trait
    /// default prices drafts as target decode steps).
    draft: Option<LlmModel>,
    decode_cache: HashMap<(usize, usize), f64>,
    /// The `decode_cache` entry answered last, checked before the table:
    /// quiet decode stretches repeat one key. Only entries in the table
    /// are remembered, so hits and misses count as the table alone would.
    last_decode: Option<((usize, usize), f64)>,
    prefill_cache: HashMap<usize, f64>,
    cached_prefill_cache: HashMap<(usize, usize), f64>,
    draft_cache: HashMap<(usize, usize), f64>,
    memo_hits: u64,
    memo_misses: u64,
}

impl EstimatorCostModel {
    /// Builds the single-socket cost model for a machine/model/scheme/engine
    /// combination.
    #[must_use]
    pub fn new(
        machine: MachineConfig,
        model: LlmModel,
        scheme: CompressionScheme,
        engine: Engine,
    ) -> Self {
        Self::sharded(
            machine,
            model,
            scheme,
            engine,
            ShardSpec::single(),
            InterconnectModel::zero_cost(),
        )
    }

    /// Builds the cost model of one sharded replica: `spec.sockets()`
    /// machines serving the model together, paying `interconnect` for every
    /// tensor-parallel all-reduce and pipeline-boundary transfer.
    #[must_use]
    pub fn sharded(
        machine: MachineConfig,
        model: LlmModel,
        scheme: CompressionScheme,
        engine: Engine,
        spec: ShardSpec,
        interconnect: InterconnectModel,
    ) -> Self {
        EstimatorCostModel {
            estimator: InferenceEstimator::sharded(machine, spec, interconnect),
            model,
            scheme,
            engine,
            draft: None,
            decode_cache: HashMap::new(),
            last_decode: None,
            prefill_cache: HashMap::new(),
            cached_prefill_cache: HashMap::new(),
            draft_cache: HashMap::new(),
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// Attaches a draft model for speculative decoding: bursts are then
    /// priced as `k` draft-model decode steps (weights streamed per drafted
    /// token) plus one target verify step, the standard approximation that
    /// scoring `k` drafted tokens costs one target pass because the weight
    /// stream, not the extra activation rows, is the bound. `k` comes from
    /// the scheduler's [`crate::SpeculationSpec`] at each call. The draft
    /// rides the same shard plan, scheme and engine as the target.
    #[must_use]
    pub fn with_draft_model(mut self, draft: LlmModel) -> Self {
        self.draft_cache.clear();
        self.draft = Some(draft);
        self
    }

    /// Memoization counters: entries across all tables (each bounded, so
    /// chunked-prefill query storms cannot blow the memory), hits, misses
    /// and the derived hit rate.
    #[must_use]
    pub fn memo_stats(&self) -> CostMemoStats {
        CostMemoStats {
            entries: self.decode_cache.len()
                + self.prefill_cache.len()
                + self.cached_prefill_cache.len()
                + self.draft_cache.len(),
            hits: self.memo_hits,
            misses: self.memo_misses,
        }
    }
}

impl ServingCostModel for EstimatorCostModel {
    fn prefill_seconds(&mut self, prompt_tokens: usize) -> f64 {
        let bucketed = bucket_up(prompt_tokens, PROMPT_BUCKET_TOKENS);
        if let Some(&seconds) = self.prefill_cache.get(&bucketed) {
            self.memo_hits += 1;
            return seconds;
        }
        self.memo_misses += 1;
        let seconds = self
            .estimator
            .prefill(&self.model, &self.scheme, self.engine, bucketed, 0)
            .total_seconds();
        memo_insert(&mut self.prefill_cache, bucketed, seconds);
        seconds
    }

    fn decode_step_seconds(&mut self, batch: usize, max_context_tokens: usize) -> f64 {
        let key = (
            batch.max(1),
            bucket_up(max_context_tokens, CONTEXT_BUCKET_TOKENS),
        );
        if let Some((last, seconds)) = self.last_decode {
            if last == key {
                self.memo_hits += 1;
                return seconds;
            }
        }
        if let Some(&seconds) = self.decode_cache.get(&key) {
            self.memo_hits += 1;
            self.last_decode = Some((key, seconds));
            return seconds;
        }
        self.memo_misses += 1;
        let (batch, context) = key;
        let seconds = self
            .estimator
            .next_token(&self.model, &self.scheme, self.engine, batch, context)
            .total_seconds();
        if memo_insert(&mut self.decode_cache, key, seconds) {
            self.last_decode = Some((key, seconds));
        }
        seconds
    }

    fn prefill_seconds_cached(&mut self, prompt_tokens: usize, cached_prefix_tokens: usize) -> f64 {
        let cached = cached_prefix_tokens.min(prompt_tokens.saturating_sub(1));
        if cached == 0 {
            return self.prefill_seconds(prompt_tokens);
        }
        // Only the uncached suffix streams through the FC GeMMs, but its
        // attention still reads the cached context — the estimator's
        // `context_tokens` argument prices exactly that. Chunked-prefill
        // queries land here too (via the default
        // [`ServingCostModel::chunk_seconds`]): cached and committed
        // context collapse into the one bucketed `context` key, so the
        // chunk axis adds no new key dimension to this table.
        let suffix = bucket_up(prompt_tokens - cached, PROMPT_BUCKET_TOKENS);
        let context = bucket_up(cached, CONTEXT_BUCKET_TOKENS);
        if let Some(&seconds) = self.cached_prefill_cache.get(&(suffix, context)) {
            self.memo_hits += 1;
            return seconds;
        }
        self.memo_misses += 1;
        let seconds = self
            .estimator
            .prefill(&self.model, &self.scheme, self.engine, suffix, context)
            .total_seconds();
        memo_insert(&mut self.cached_prefill_cache, (suffix, context), seconds);
        seconds
    }

    fn speculative_burst_seconds(
        &mut self,
        draft_tokens: usize,
        batch: usize,
        max_context_tokens: usize,
    ) -> f64 {
        if self.draft.is_none() {
            // No draft model configured: the trait default (drafts priced
            // as target decode steps).
            return (draft_tokens as f64 + 1.0)
                * self.decode_step_seconds(batch, max_context_tokens);
        }
        let batch = batch.max(1);
        let context = bucket_up(max_context_tokens, CONTEXT_BUCKET_TOKENS);
        let draft_step = if let Some(&seconds) = self.draft_cache.get(&(batch, context)) {
            self.memo_hits += 1;
            seconds
        } else {
            self.memo_misses += 1;
            let draft = self.draft.as_ref().expect("checked above");
            let seconds = self
                .estimator
                .next_token(draft, &self.scheme, self.engine, batch, context)
                .total_seconds();
            memo_insert(&mut self.draft_cache, (batch, context), seconds);
            seconds
        };
        let verify = self.decode_step_seconds(batch, max_context_tokens);
        draft_tokens as f64 * draft_step + verify
    }
}

/// A closed-form cost model for tests and quick what-ifs: prefills cost
/// `prefill_base + prefill_per_token · P`, decode steps cost
/// `decode_base + decode_per_sequence · B + decode_per_context_token · C`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearCostModel {
    /// Fixed prefill launch cost in seconds.
    pub prefill_base: f64,
    /// Marginal prefill cost per prompt token.
    pub prefill_per_token: f64,
    /// Fixed decode-step cost in seconds (the weight stream).
    pub decode_base: f64,
    /// Marginal decode cost per sequence in the batch.
    pub decode_per_sequence: f64,
    /// Marginal decode cost per context token (KV-cache traffic).
    pub decode_per_context_token: f64,
}

impl LinearCostModel {
    /// A model with round decode/prefill numbers loosely shaped like a 70B
    /// deployment (tens of milliseconds per step), handy in tests.
    #[must_use]
    pub fn default_70b() -> Self {
        LinearCostModel {
            prefill_base: 0.01,
            prefill_per_token: 2e-4,
            decode_base: 0.03,
            decode_per_sequence: 5e-4,
            decode_per_context_token: 2e-6,
        }
    }
}

impl ServingCostModel for LinearCostModel {
    fn prefill_seconds(&mut self, prompt_tokens: usize) -> f64 {
        self.prefill_base + self.prefill_per_token * prompt_tokens as f64
    }

    fn decode_step_seconds(&mut self, batch: usize, max_context_tokens: usize) -> f64 {
        self.decode_base
            + self.decode_per_sequence * batch as f64
            + self.decode_per_context_token * max_context_tokens as f64
    }
}

/// Registering one shipped block is a metadata write, not a GeMM; this
/// nominal per-prefill cost keeps [`DecodePoolCostModel`]'s answers
/// strictly positive (the [`ServingCostModel`] contract) without ever
/// being visible next to real step latencies.
pub const SHIPPED_PREFILL_EPSILON_S: f64 = 1e-9;

/// The cost model of a *decode-pool* replica in a disaggregated
/// prefill/decode deployment ([`crate::sweep::simulate_disaggregated_with`]):
/// every admitted request arrives with its KV already computed by the
/// prefill pool and shipped over the interconnect
/// ([`crate::KvShipSpec`] prices the transfer), so "prefill" here is just
/// registering the shipped blocks.
///
/// This is the one sanctioned exception to the trait's "prefill must be
/// strictly positive" contract's *spirit*: prefills return the nominal
/// [`SHIPPED_PREFILL_EPSILON_S`] (still strictly positive, so the letter
/// holds and event ordering stays total), while decode steps delegate to
/// the wrapped model unchanged.
#[derive(Debug, Clone)]
pub struct DecodePoolCostModel<C: ServingCostModel> {
    inner: C,
}

impl<C: ServingCostModel> DecodePoolCostModel<C> {
    /// Wraps a replica cost model, zeroing its prefill side.
    #[must_use]
    pub fn new(inner: C) -> Self {
        DecodePoolCostModel { inner }
    }
}

impl<C: ServingCostModel> ServingCostModel for DecodePoolCostModel<C> {
    fn prefill_seconds(&mut self, _prompt_tokens: usize) -> f64 {
        SHIPPED_PREFILL_EPSILON_S
    }

    fn decode_step_seconds(&mut self, batch: usize, max_context_tokens: usize) -> f64 {
        self.inner.decode_step_seconds(batch, max_context_tokens)
    }

    fn prefill_seconds_cached(
        &mut self,
        _prompt_tokens: usize,
        _cached_prefix_tokens: usize,
    ) -> f64 {
        SHIPPED_PREFILL_EPSILON_S
    }

    // `chunk_seconds`/`step_seconds` inherit the defaults, which route the
    // chunk side through `prefill_seconds_cached` — every chunk of a
    // shipped prompt is a metadata registration, exactly like the whole
    // prompt.

    fn speculative_burst_seconds(
        &mut self,
        draft_tokens: usize,
        batch: usize,
        max_context_tokens: usize,
    ) -> f64 {
        // Decode work is real in the pool; delegate so a draft-configured
        // inner model keeps pricing the drafts.
        self.inner
            .speculative_burst_seconds(draft_tokens, batch, max_context_tokens)
    }

    fn adapter_load_seconds(&mut self, weight_tokens: usize) -> f64 {
        // Adapter weights really stream into the decode pool — only the
        // prompt KV arrives pre-computed — so the load is priced by the
        // wrapped model, not zeroed like the shipped prefill.
        self.inner.adapter_load_seconds(weight_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_model_is_deterministic_and_cached() {
        let mut cost = EstimatorCostModel::new(
            MachineConfig::spr_hbm(),
            LlmModel::llama2_70b(),
            CompressionScheme::bf8_sparse(0.05),
            Engine::deca_default(),
        );
        let a = cost.decode_step_seconds(4, 300);
        let b = cost.decode_step_seconds(4, 300);
        assert_eq!(a, b);
        assert!(a > 0.0);
        // 300 and 500 land in the same 256-token bucket (both round to 512).
        assert_eq!(a, cost.decode_step_seconds(4, 500));
        assert!(cost.decode_step_seconds(4, 2000) > a);
        let p = cost.prefill_seconds(100);
        assert_eq!(p, cost.prefill_seconds(128));
        assert!(cost.prefill_seconds(1024) > p);
    }

    #[test]
    fn deca_steps_are_faster_than_software_steps() {
        let build = |engine| {
            EstimatorCostModel::new(
                MachineConfig::spr_hbm(),
                LlmModel::llama2_70b(),
                CompressionScheme::bf8_sparse(0.05),
                engine,
            )
        };
        let mut sw = build(Engine::software());
        let mut deca = build(Engine::deca_default());
        assert!(deca.decode_step_seconds(1, 128) < sw.decode_step_seconds(1, 128));
        assert!(deca.prefill_seconds(128) <= sw.prefill_seconds(128));
    }

    #[test]
    fn sharded_replicas_price_the_plan() {
        let build = |spec, interconnect| {
            EstimatorCostModel::sharded(
                MachineConfig::spr_hbm(),
                LlmModel::llama2_70b(),
                CompressionScheme::bf8_sparse(0.05),
                Engine::deca_default(),
                spec,
                interconnect,
            )
        };
        // A TP2 replica over a real interconnect still beats one socket on
        // the weight-stream-bound decode step.
        let mut single = build(ShardSpec::single(), InterconnectModel::zero_cost());
        let mut tp2 = build(ShardSpec::tp(2), InterconnectModel::spr_upi());
        assert!(tp2.decode_step_seconds(4, 1000) < single.decode_step_seconds(4, 1000));
    }

    #[test]
    fn chunk_pricing_collapses_onto_the_cached_prefill_query() {
        let mut cost = EstimatorCostModel::new(
            MachineConfig::spr_hbm(),
            LlmModel::llama2_70b(),
            CompressionScheme::bf8_sparse(0.05),
            Engine::deca_default(),
        );
        // A whole-prompt chunk with no committed context is the classic
        // cached-prefill query, bit for bit.
        let chunk = ChunkWork {
            suffix_tokens: 384,
            cached_tokens: 128,
            committed_tokens: 0,
        };
        assert_eq!(
            cost.chunk_seconds(chunk).to_bits(),
            cost.prefill_seconds_cached(512, 128).to_bits()
        );
        // Cached and committed context price identically — only their sum
        // reaches the estimator.
        let swapped = ChunkWork {
            suffix_tokens: 384,
            cached_tokens: 0,
            committed_tokens: 128,
        };
        assert_eq!(
            cost.chunk_seconds(chunk).to_bits(),
            cost.chunk_seconds(swapped).to_bits()
        );
    }

    #[test]
    fn step_mix_is_the_sum_of_its_parts() {
        let mut cost = LinearCostModel::default_70b();
        let chunks = vec![
            ChunkWork {
                suffix_tokens: 256,
                cached_tokens: 0,
                committed_tokens: 0,
            },
            ChunkWork {
                suffix_tokens: 256,
                cached_tokens: 64,
                committed_tokens: 256,
            },
        ];
        let mix = StepMix {
            prefill_chunks: chunks.clone(),
            decode_batch: 8,
            max_context_tokens: 1024,
        };
        let expected = cost.chunk_seconds(chunks[0])
            + cost.chunk_seconds(chunks[1])
            + cost.decode_step_seconds(8, 1024);
        assert_eq!(cost.step_seconds(&mix).to_bits(), expected.to_bits());
        // A pure-prefill mix prices no decode step.
        let prefill_only = StepMix {
            prefill_chunks: chunks,
            decode_batch: 0,
            max_context_tokens: 0,
        };
        assert!(cost.step_seconds(&prefill_only) < cost.step_seconds(&mix));
    }

    #[test]
    fn memo_stats_count_hits_and_misses() {
        let mut cost = EstimatorCostModel::new(
            MachineConfig::spr_hbm(),
            LlmModel::llama2_70b(),
            CompressionScheme::bf8_sparse(0.05),
            Engine::deca_default(),
        );
        assert_eq!(cost.memo_stats(), CostMemoStats::default());
        let _ = cost.decode_step_seconds(4, 300);
        let _ = cost.decode_step_seconds(4, 300);
        let _ = cost.decode_step_seconds(4, 500); // same 256-token bucket
        let stats = cost.memo_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        // Alternating keys A, B, A, A, B: the last-key check answers the
        // repeat, and the counts are the ones the table alone gives.
        let (a, b) = ((4, 300), (8, 300));
        for (batch, context) in [a, b, a, a, b] {
            let _ = cost.decode_step_seconds(batch, context);
        }
        let stats = cost.memo_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (6, 2, 2));
        // A key the full table refuses is not remembered either: asking
        // for it twice misses twice.
        cost.decode_cache
            .extend((0..MEMO_CAPACITY).map(|batch| ((1_000 + batch, 256), 1.0)));
        let _ = cost.decode_step_seconds(16, 300);
        let _ = cost.decode_step_seconds(16, 300);
        assert_eq!(cost.memo_stats().misses, 4);
        assert_eq!(cost.memo_stats().hits, 6);
    }

    #[test]
    fn speculative_bursts_price_the_draft_model_when_configured() {
        let build = || {
            EstimatorCostModel::new(
                MachineConfig::spr_hbm(),
                LlmModel::llama2_70b(),
                CompressionScheme::bf8_sparse(0.05),
                Engine::deca_default(),
            )
        };
        let mut plain = build();
        // Without a draft model the default pricing holds: k + 1 target
        // decode steps, bit for bit.
        let default_burst = plain.speculative_burst_seconds(4, 8, 1024);
        let step = plain.decode_step_seconds(8, 1024);
        assert_eq!(default_burst.to_bits(), (5.0 * step).to_bits());
        // With the 7B draft attached, four drafted tokens cost far less
        // than four target steps — but still more than the bare verify.
        let mut drafted = build().with_draft_model(LlmModel::llama2_7b());
        let burst = drafted.speculative_burst_seconds(4, 8, 1024);
        assert!(burst < default_burst);
        assert!(burst > step);
        // Exactly k draft-model decode steps plus one target verify step.
        let draft_step = InferenceEstimator::new(MachineConfig::spr_hbm())
            .next_token(
                &LlmModel::llama2_7b(),
                &CompressionScheme::bf8_sparse(0.05),
                Engine::deca_default(),
                8,
                1024,
            )
            .total_seconds();
        assert_eq!(burst.to_bits(), (4.0 * draft_step + step).to_bits());
        // The draft-step memo works: the second identical burst hits.
        let before = drafted.memo_stats();
        let again = drafted.speculative_burst_seconds(4, 8, 1024);
        assert_eq!(burst.to_bits(), again.to_bits());
        assert!(drafted.memo_stats().hits > before.hits);
    }

    #[test]
    fn adapter_loads_price_as_weight_streams() {
        // The default hook prices an adapter load exactly as a prefill of
        // the same token footprint — strictly positive, deterministic.
        let mut linear = LinearCostModel::default_70b();
        let load = linear.adapter_load_seconds(96);
        assert_eq!(load.to_bits(), linear.prefill_seconds(96).to_bits());
        assert!(load > 0.0);
        assert!(linear.adapter_load_seconds(0) > 0.0, "strictly positive");
        let mut estimator = EstimatorCostModel::new(
            MachineConfig::spr_hbm(),
            LlmModel::llama2_70b(),
            CompressionScheme::bf8_sparse(0.05),
            Engine::deca_default(),
        );
        assert_eq!(
            estimator.adapter_load_seconds(128).to_bits(),
            estimator.prefill_seconds(128).to_bits()
        );
        // The decode pool pays real adapter loads (only prompt KV ships).
        let mut pool = DecodePoolCostModel::new(LinearCostModel::default_70b());
        assert_eq!(
            pool.adapter_load_seconds(96).to_bits(),
            LinearCostModel::default_70b()
                .adapter_load_seconds(96)
                .to_bits()
        );
        assert!(pool.adapter_load_seconds(96) > SHIPPED_PREFILL_EPSILON_S);
    }

    #[test]
    fn linear_model_shapes() {
        let mut m = LinearCostModel::default_70b();
        assert!(m.decode_step_seconds(16, 1024) > m.decode_step_seconds(1, 0));
        assert!(m.prefill_seconds(1000) > m.prefill_seconds(10));
    }

    #[test]
    fn decode_pool_model_zeroes_prefill_and_keeps_decode() {
        let mut base = LinearCostModel::default_70b();
        let mut pool = DecodePoolCostModel::new(base);
        assert_eq!(pool.prefill_seconds(4096), SHIPPED_PREFILL_EPSILON_S);
        assert_eq!(
            pool.prefill_seconds_cached(4096, 128),
            SHIPPED_PREFILL_EPSILON_S
        );
        assert!(pool.prefill_seconds(4096) > 0.0);
        assert_eq!(
            pool.decode_step_seconds(8, 2048).to_bits(),
            base.decode_step_seconds(8, 2048).to_bits()
        );
    }
}
