//! Multi-socket sharded inference: tensor/pipeline parallelism over an
//! explicit interconnect model.
//!
//! One SPR socket tops out at 64 GB of HBM, and §8's capacity observations
//! show exactly which Table 4 configurations that excludes (uncompressed
//! BF16, Q16_50%, dense Q8 — and *any* scheme once the KV working set grows
//! past the post-weights headroom). This module answers the production
//! question the single-socket estimator cannot: what does a
//! (scheme × engine × TP × PP) deployment cost in latency and per-socket
//! memory?
//!
//! * [`ShardSpec`] — Megatron-style sharding: tensor parallelism splits
//!   every FC GeMM's output dimension (attention heads, KV heads, FFN
//!   columns and the LM-head vocabulary) across `tensor_parallel` sockets;
//!   pipeline parallelism partitions the layer stack into
//!   `pipeline_parallel` contiguous stages.
//! * [`InterconnectModel`] — per-link bandwidth and latency, priced as a
//!   ring all-reduce per tensor-parallel GeMM and a point-to-point
//!   activation transfer per pipeline-stage boundary.
//! * [`ShardedEstimator`] — wraps [`InferenceEstimator`], reusing its exact
//!   per-tile arithmetic on the per-socket shard shapes, so a
//!   `TP=1 × PP=1` plan with a zero-cost interconnect reproduces the
//!   unsharded numbers bit for bit (property-tested).
//! * [`sharded_max_kv_tokens`] and friends — per-socket weight/KV
//!   footprints and the fleet-wide KV-token budget under a plan (the
//!   admission budget `deca-serve` uses for sharded replicas).

use deca_compress::CompressionScheme;
use deca_kernels::{Engine, GemmShape};
use deca_roofsurface::MachineConfig;

use crate::footprint::{bytes_per_parameter, HBM_CAPACITY_BYTES};
use crate::{InferenceEstimator, LayerGeometry, LlmModel};

/// How a model is sharded across sockets: `tensor_parallel × pipeline_parallel`
/// sockets in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ShardSpec {
    /// Tensor-parallel degree: every FC GeMM's output dimension is split
    /// this many ways (and the KV heads with it).
    pub tensor_parallel: usize,
    /// Pipeline-parallel degree: the layer stack is partitioned into this
    /// many contiguous stages.
    pub pipeline_parallel: usize,
}

impl ShardSpec {
    /// A sharding plan.
    ///
    /// # Panics
    ///
    /// Panics if either degree is zero.
    #[must_use]
    pub fn new(tensor_parallel: usize, pipeline_parallel: usize) -> Self {
        assert!(
            tensor_parallel > 0 && pipeline_parallel > 0,
            "parallelism degrees must be positive"
        );
        ShardSpec {
            tensor_parallel,
            pipeline_parallel,
        }
    }

    /// The unsharded single-socket plan.
    #[must_use]
    pub fn single() -> Self {
        ShardSpec::new(1, 1)
    }

    /// Pure tensor parallelism over `degree` sockets.
    #[must_use]
    pub fn tp(degree: usize) -> Self {
        ShardSpec::new(degree, 1)
    }

    /// Pure pipeline parallelism over `degree` stages.
    #[must_use]
    pub fn pp(degree: usize) -> Self {
        ShardSpec::new(1, degree)
    }

    /// Total sockets the plan occupies.
    #[must_use]
    pub fn sockets(&self) -> usize {
        self.tensor_parallel * self.pipeline_parallel
    }

    /// Whether this is the unsharded single-socket plan.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.sockets() == 1
    }

    /// Layers per pipeline stage: as even as possible, with the first
    /// `layers % pp` stages taking one extra (every stage is non-empty).
    ///
    /// # Panics
    ///
    /// Panics if the model has fewer layers than pipeline stages.
    #[must_use]
    pub fn stage_layers(&self, layers: usize) -> Vec<usize> {
        assert!(
            layers >= self.pipeline_parallel,
            "cannot split {layers} layers into {} pipeline stages",
            self.pipeline_parallel
        );
        let base = layers / self.pipeline_parallel;
        let extra = layers % self.pipeline_parallel;
        (0..self.pipeline_parallel)
            .map(|s| base + usize::from(s < extra))
            .collect()
    }

    /// One socket's share of a layer under tensor parallelism: the Q/KV
    /// heads and FFN columns are split `tensor_parallel` ways (rounded up,
    /// so the modeled socket is the worst-loaded one); the hidden dimension
    /// — every GeMM's *input* — stays full, exactly as in Megatron-style
    /// column/row-parallel sharding.
    #[must_use]
    pub fn shard_layer(&self, layer: &LayerGeometry) -> LayerGeometry {
        let t = self.tensor_parallel;
        LayerGeometry {
            hidden: layer.hidden,
            ffn_hidden: layer.ffn_hidden.div_ceil(t),
            heads: layer.heads.div_ceil(t),
            kv_heads: layer.kv_heads.div_ceil(t),
            head_dim: layer.head_dim,
            ffn: layer.ffn,
        }
    }

    /// One socket's share of the LM-head output (the vocabulary is
    /// column-sharded like every other FC GeMM).
    #[must_use]
    pub fn shard_vocab(&self, vocab: usize) -> usize {
        vocab.div_ceil(self.tensor_parallel)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TP{}xPP{}", self.tensor_parallel, self.pipeline_parallel)
    }
}

/// The socket-to-socket interconnect: every link has a bandwidth and a
/// latency, and the two collective shapes the sharded estimator needs are
/// priced on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectModel {
    /// Usable bandwidth of one socket's links in GB/s.
    pub link_bandwidth_gbps: f64,
    /// One-way link latency in microseconds.
    pub link_latency_us: f64,
}

impl InterconnectModel {
    /// A free interconnect (infinite bandwidth, zero latency): sharding
    /// with this model isolates the pure compute/memory effect, and makes
    /// the `TP=1 × PP=1` plan reproduce the unsharded estimator exactly.
    #[must_use]
    pub fn zero_cost() -> Self {
        InterconnectModel {
            link_bandwidth_gbps: f64::INFINITY,
            link_latency_us: 0.0,
        }
    }

    /// A UPI-class socket interconnect: three 16 GT/s links ≈ 62.4 GB/s of
    /// usable aggregate bandwidth per socket, ~1.2 µs one-way latency.
    #[must_use]
    pub fn spr_upi() -> Self {
        InterconnectModel {
            link_bandwidth_gbps: 62.4,
            link_latency_us: 1.2,
        }
    }

    fn bytes_per_second(&self) -> f64 {
        self.link_bandwidth_gbps * 1e9
    }

    fn latency_seconds(&self) -> f64 {
        self.link_latency_us * 1e-6
    }

    /// Ring all-reduce of `bytes` across `participants` sockets: each
    /// socket sends `2·(p−1)/p · bytes` over `2·(p−1)` latency-bound steps.
    /// Zero for a single participant.
    #[must_use]
    pub fn all_reduce_seconds(&self, bytes: f64, participants: usize) -> f64 {
        if participants <= 1 {
            return 0.0;
        }
        let p = participants as f64;
        let steps = 2.0 * (p - 1.0);
        2.0 * (p - 1.0) / p * bytes / self.bytes_per_second() + steps * self.latency_seconds()
    }

    /// Point-to-point transfer of `bytes` over one link.
    #[must_use]
    pub fn point_to_point_seconds(&self, bytes: f64) -> f64 {
        bytes / self.bytes_per_second() + self.latency_seconds()
    }
}

/// Latency breakdown of one generated token under a sharding plan: the
/// per-socket compute/memory components plus the interconnect cost.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedNextTokenReport {
    /// Model name.
    pub model: String,
    /// Scheme label.
    pub scheme: String,
    /// Engine label.
    pub engine: String,
    /// The sharding plan.
    pub spec: ShardSpec,
    /// Batch size.
    pub batch: usize,
    /// Context length (tokens already in the KV cache).
    pub context_tokens: usize,
    /// Seconds in FC-layer GeMMs, summed over the pipeline stages (each
    /// stage runs its sharded shapes on its own sockets).
    pub fc_seconds: f64,
    /// Seconds of KV-cache traffic (per-socket: the KV heads are sharded).
    pub attention_seconds: f64,
    /// Seconds of per-layer overhead across all stages.
    pub other_seconds: f64,
    /// Seconds of tensor-parallel all-reduces (one per TP GeMM).
    pub allreduce_seconds: f64,
    /// Seconds of pipeline-boundary activation transfers.
    pub transfer_seconds: f64,
}

impl ShardedNextTokenReport {
    /// Total next-token latency in seconds (a decode token traverses every
    /// pipeline stage in sequence).
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.fc_seconds
            + self.attention_seconds
            + self.other_seconds
            + self.allreduce_seconds
            + self.transfer_seconds
    }

    /// Total next-token latency in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_seconds() * 1e3
    }

    /// Total interconnect seconds (all-reduce plus stage transfers).
    #[must_use]
    pub fn comm_seconds(&self) -> f64 {
        self.allreduce_seconds + self.transfer_seconds
    }

    /// Fraction of the token time spent on the interconnect.
    #[must_use]
    pub fn comm_fraction(&self) -> f64 {
        if self.total_seconds() == 0.0 {
            0.0
        } else {
            self.comm_seconds() / self.total_seconds()
        }
    }

    /// Tokens per second for the whole batch.
    #[must_use]
    pub fn tokens_per_second(&self) -> f64 {
        if self.total_seconds() == 0.0 {
            0.0
        } else {
            self.batch as f64 / self.total_seconds()
        }
    }
}

/// Latency breakdown of a prefill under a sharding plan (single-microbatch
/// pipeline: the prompt flows through the stages back to back).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShardedPrefillReport {
    /// Model name.
    pub model: String,
    /// Scheme label.
    pub scheme: String,
    /// Engine label.
    pub engine: String,
    /// The sharding plan.
    pub spec: ShardSpec,
    /// Prompt tokens processed by this prefill.
    pub prompt_tokens: usize,
    /// Tokens already resident in the KV cache before the prefill.
    pub context_tokens: usize,
    /// Seconds in FC-layer GeMMs across all stages.
    pub fc_seconds: f64,
    /// Seconds of causal-attention KV traffic (per-socket).
    pub attention_seconds: f64,
    /// Seconds of per-layer overhead across all stages.
    pub other_seconds: f64,
    /// Seconds of tensor-parallel all-reduces.
    pub allreduce_seconds: f64,
    /// Seconds of pipeline-boundary activation transfers.
    pub transfer_seconds: f64,
}

impl ShardedPrefillReport {
    /// Total prefill latency in seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.fc_seconds
            + self.attention_seconds
            + self.other_seconds
            + self.allreduce_seconds
            + self.transfer_seconds
    }

    /// Total prefill latency in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_seconds() * 1e3
    }

    /// Total interconnect seconds.
    #[must_use]
    pub fn comm_seconds(&self) -> f64 {
        self.allreduce_seconds + self.transfer_seconds
    }

    /// Prompt tokens processed per second.
    #[must_use]
    pub fn tokens_per_second(&self) -> f64 {
        if self.total_seconds() == 0.0 {
            0.0
        } else {
            self.prompt_tokens as f64 / self.total_seconds()
        }
    }
}

/// Estimates sharded prefill/decode latencies and per-socket footprints for
/// any (scheme × engine × TP × PP) deployment point.
///
/// The per-tile pricing, KV-traffic and overhead arithmetic is *shared*
/// with [`InferenceEstimator`] (not re-derived), so the single-socket plan
/// under a [`InterconnectModel::zero_cost`] interconnect reproduces the
/// unsharded reports exactly.
#[derive(Debug, Clone)]
pub struct ShardedEstimator {
    inner: InferenceEstimator,
    spec: ShardSpec,
    interconnect: InterconnectModel,
}

impl ShardedEstimator {
    /// Creates a sharded estimator: every socket is one `machine`.
    #[must_use]
    pub fn new(machine: MachineConfig, spec: ShardSpec, interconnect: InterconnectModel) -> Self {
        ShardedEstimator {
            inner: InferenceEstimator::new(machine),
            spec,
            interconnect,
        }
    }

    /// The sharding plan.
    #[must_use]
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The interconnect model.
    #[must_use]
    pub fn interconnect(&self) -> InterconnectModel {
        self.interconnect
    }

    /// The wrapped single-socket estimator.
    #[must_use]
    pub fn inner(&self) -> &InferenceEstimator {
        &self.inner
    }

    /// Estimates the latency of generating one token under the plan.
    ///
    /// # Panics
    ///
    /// Panics if the model has fewer layers than pipeline stages.
    #[must_use]
    pub fn next_token(
        &self,
        model: &LlmModel,
        scheme: &CompressionScheme,
        engine: Engine,
        batch: usize,
        context_tokens: usize,
    ) -> ShardedNextTokenReport {
        let seconds_per_tile = self.inner.decode_tile_seconds(scheme, engine, batch);
        let (fc_seconds, attention_seconds, other_seconds) = self.stage_components(
            model,
            batch,
            seconds_per_tile,
            |estimator, kv_bytes, layers| {
                estimator.kv_traffic_seconds(kv_bytes, layers, batch, context_tokens)
            },
        );
        ShardedNextTokenReport {
            model: model.name().to_string(),
            scheme: scheme.label(),
            engine: engine.label(),
            spec: self.spec,
            batch,
            context_tokens,
            fc_seconds,
            attention_seconds,
            other_seconds,
            allreduce_seconds: self.allreduce_seconds(model, batch),
            transfer_seconds: self.transfer_seconds(model, batch),
        }
    }

    /// Estimates the latency of a prefill under the plan (single-microbatch
    /// pipeline: stages run back to back, so pipeline parallelism reduces
    /// the per-stage work but not the serial depth).
    ///
    /// # Panics
    ///
    /// Panics if `prompt_tokens` is zero or the model has fewer layers than
    /// pipeline stages.
    #[must_use]
    pub fn prefill(
        &self,
        model: &LlmModel,
        scheme: &CompressionScheme,
        engine: Engine,
        prompt_tokens: usize,
        context_tokens: usize,
    ) -> ShardedPrefillReport {
        assert!(prompt_tokens > 0, "a prefill processes at least one token");
        let seconds_per_tile = self
            .inner
            .prefill_tile_seconds(scheme, engine, prompt_tokens);
        let (fc_seconds, attention_seconds, other_seconds) = self.stage_components(
            model,
            prompt_tokens,
            seconds_per_tile,
            |estimator, kv_bytes, layers| {
                estimator.prefill_kv_traffic_seconds(
                    kv_bytes,
                    layers,
                    prompt_tokens,
                    context_tokens,
                )
            },
        );
        ShardedPrefillReport {
            model: model.name().to_string(),
            scheme: scheme.label(),
            engine: engine.label(),
            spec: self.spec,
            prompt_tokens,
            context_tokens,
            fc_seconds,
            attention_seconds,
            other_seconds,
            allreduce_seconds: self.allreduce_seconds(model, prompt_tokens),
            transfer_seconds: self.transfer_seconds(model, prompt_tokens),
        }
    }

    /// The per-socket compute/memory components summed over the pipeline
    /// stages. `rows` is the activation row count of every GeMM (the batch
    /// for decode, the prompt length for prefill); `kv_traffic` prices one
    /// stage's KV traffic from its per-token KV bytes and layer count.
    fn stage_components(
        &self,
        model: &LlmModel,
        rows: usize,
        seconds_per_tile: f64,
        kv_traffic: impl Fn(&InferenceEstimator, usize, usize) -> f64,
    ) -> (f64, f64, f64) {
        let sharded_layer = self.spec.shard_layer(model.layer());
        let stage_layers = self.spec.stage_layers(model.layers());
        let last = stage_layers.len() - 1;
        let lm_head = GemmShape::new(
            rows,
            model.layer().hidden,
            self.spec.shard_vocab(model.vocab()),
        );

        let mut fc_seconds = 0.0;
        let mut attention_seconds = 0.0;
        let mut other_seconds = 0.0;
        for (stage, &layers) in stage_layers.iter().enumerate() {
            let mut shapes = Vec::new();
            for _ in 0..layers {
                shapes.extend(sharded_layer.fc_gemms(rows));
            }
            if stage == last {
                shapes.push(lm_head);
            }
            fc_seconds += self.inner.fc_seconds_for(&shapes, seconds_per_tile);
            attention_seconds +=
                kv_traffic(&self.inner, sharded_layer.kv_bytes_per_token(), layers);
            other_seconds += InferenceEstimator::overhead_seconds(layers, rows);
        }
        (fc_seconds, attention_seconds, other_seconds)
    }

    /// Tensor-parallel all-reduce time per token step: one ring all-reduce
    /// of the full output activation (`rows × M` at BF16) per TP GeMM —
    /// every layer's GeMMs plus the LM head. A slight over-approximation of
    /// fused Megatron sharding (which folds column/row-parallel pairs into
    /// two all-reduces per layer), so the sharded model is conservative.
    fn allreduce_seconds(&self, model: &LlmModel, rows: usize) -> f64 {
        let tp = self.spec.tensor_parallel;
        if tp <= 1 {
            return 0.0;
        }
        let per_layer: f64 = model
            .layer()
            .fc_gemms(rows)
            .iter()
            .map(|shape| {
                self.interconnect
                    .all_reduce_seconds((shape.n * shape.m * 2) as f64, tp)
            })
            .sum();
        per_layer * model.layers() as f64
            + self
                .interconnect
                .all_reduce_seconds((rows * model.vocab() * 2) as f64, tp)
    }

    /// Pipeline-boundary activation transfers: `PP − 1` point-to-point
    /// sends of the `rows × hidden` BF16 activation.
    fn transfer_seconds(&self, model: &LlmModel, rows: usize) -> f64 {
        let pp = self.spec.pipeline_parallel;
        if pp <= 1 {
            return 0.0;
        }
        (pp - 1) as f64
            * self
                .interconnect
                .point_to_point_seconds((rows * model.layer().hidden * 2) as f64)
    }
}

/// Weight bytes resident on the *worst-loaded* socket under a plan: each
/// pipeline stage holds its layers' FC weights divided `TP` ways, the last
/// stage adds the sharded LM head, and stage 0 carries the (unsharded,
/// BF16) embedding table.
#[must_use]
pub fn sharded_weight_bytes_per_socket(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
) -> f64 {
    stage_weight_bytes(model, scheme, spec)
        .into_iter()
        .fold(0.0, f64::max)
}

/// The fleet-wide KV-token budget under a plan: a resident token stores
/// sharded KV on *every* stage's sockets, so the budget is the minimum over
/// stages of `stage headroom / stage per-token KV bytes`. `None` when some
/// socket's weight shard does not fit, or when a degenerate model has zero
/// per-token KV cost on a stage (mirroring
/// [`crate::footprint::max_kv_tokens`]).
#[must_use]
pub fn sharded_max_kv_tokens(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
) -> Option<u64> {
    let sharded_layer = spec.shard_layer(model.layer());
    let stage_layers = spec.stage_layers(model.layers());
    let mut budget = u64::MAX;
    for (bytes, &layers) in stage_weight_bytes(model, scheme, spec)
        .into_iter()
        .zip(&stage_layers)
    {
        let headroom = HBM_CAPACITY_BYTES as f64 - bytes;
        if headroom < 0.0 {
            return None;
        }
        let per_token = (layers * sharded_layer.kv_bytes_per_token()) as f64;
        if per_token <= 0.0 {
            return None;
        }
        budget = budget.min((headroom / per_token) as u64);
    }
    Some(budget)
}

/// The fleet-wide KV-cache *block* budget under a plan (the paged
/// allocator's pool size for a sharded replica): the sharded token budget
/// in whole blocks of `block_size` tokens, rounded down. `None` exactly
/// when [`sharded_max_kv_tokens`] is `None`.
///
/// # Panics
///
/// Panics if `block_size` is zero.
#[must_use]
pub fn sharded_max_kv_blocks(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
    block_size: usize,
) -> Option<u64> {
    assert!(block_size > 0, "block size must be positive");
    sharded_max_kv_tokens(model, scheme, spec).map(|tokens| tokens / block_size as u64)
}

/// Whether the weight shards *and* the sharded KV cache of `batch`
/// sequences at `context_tokens` fit on every socket of the plan.
#[must_use]
pub fn sharded_fits_in_hbm_with_kv(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
    context_tokens: usize,
    batch: usize,
) -> bool {
    let sharded_layer = spec.shard_layer(model.layer());
    let stage_layers = spec.stage_layers(model.layers());
    stage_weight_bytes(model, scheme, spec)
        .into_iter()
        .zip(&stage_layers)
        .all(|(bytes, &layers)| {
            let kv = (layers * sharded_layer.kv_bytes_per_token() * context_tokens * batch) as f64;
            kv <= HBM_CAPACITY_BYTES as f64 - bytes
        })
}

/// Per-stage worst-socket weight bytes (FC shard + LM-head shard on the
/// last stage + embeddings on stage 0).
fn stage_weight_bytes(model: &LlmModel, scheme: &CompressionScheme, spec: &ShardSpec) -> Vec<f64> {
    let sharded_layer = spec.shard_layer(model.layer());
    let stage_layers = spec.stage_layers(model.layers());
    let last = stage_layers.len() - 1;
    let embedding_bytes = (model.total_params() - model.fc_params()) as f64 * 2.0;
    stage_layers
        .iter()
        .enumerate()
        .map(|(stage, &layers)| {
            let mut params = layers * sharded_layer.fc_params();
            if stage == last {
                params += model.layer().hidden * spec.shard_vocab(model.vocab());
            }
            let mut bytes = params as f64 * bytes_per_parameter(scheme);
            if stage == 0 {
                bytes += embedding_bytes;
            }
            bytes
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint;

    fn hbm_sharded(spec: ShardSpec) -> ShardedEstimator {
        ShardedEstimator::new(MachineConfig::spr_hbm(), spec, InterconnectModel::spr_upi())
    }

    #[test]
    fn single_socket_zero_cost_plan_is_bit_identical_to_the_unsharded_estimator() {
        let machine = MachineConfig::spr_hbm();
        let unsharded = InferenceEstimator::new(machine.clone());
        let sharded =
            ShardedEstimator::new(machine, ShardSpec::single(), InterconnectModel::zero_cost());
        let model = LlmModel::llama2_70b();
        for scheme in [
            CompressionScheme::bf16_dense(),
            CompressionScheme::bf8_sparse(0.05),
        ] {
            let base = unsharded.next_token(&model, &scheme, Engine::deca_default(), 4, 512);
            let shard = sharded.next_token(&model, &scheme, Engine::deca_default(), 4, 512);
            assert_eq!(shard.fc_seconds.to_bits(), base.fc_seconds.to_bits());
            assert_eq!(
                shard.attention_seconds.to_bits(),
                base.attention_seconds.to_bits()
            );
            assert_eq!(shard.other_seconds.to_bits(), base.other_seconds.to_bits());
            assert_eq!(
                shard.total_seconds().to_bits(),
                base.total_seconds().to_bits()
            );
            assert_eq!(shard.comm_seconds(), 0.0);

            let base_p = unsharded.prefill(&model, &scheme, Engine::deca_default(), 384, 0);
            let shard_p = sharded.prefill(&model, &scheme, Engine::deca_default(), 384, 0);
            assert_eq!(
                shard_p.total_seconds().to_bits(),
                base_p.total_seconds().to_bits()
            );
        }
    }

    #[test]
    fn sharded_block_budget_is_the_sharded_token_budget_in_whole_blocks() {
        let model = LlmModel::llama2_70b();
        let q8 = CompressionScheme::bf8_dense();
        // Dense Q8 does not fit one socket: no tokens, no blocks.
        assert_eq!(
            sharded_max_kv_blocks(&model, &q8, &ShardSpec::single(), 16),
            None
        );
        let tp2 = ShardSpec::tp(2);
        let tokens = sharded_max_kv_tokens(&model, &q8, &tp2).expect("TP2 fits");
        assert_eq!(
            sharded_max_kv_blocks(&model, &q8, &tp2, 16),
            Some(tokens / 16)
        );
        // Single socket + block size 1 reduces to the unsharded token budget.
        let q8_5 = CompressionScheme::bf8_sparse(0.05);
        assert_eq!(
            sharded_max_kv_blocks(&model, &q8_5, &ShardSpec::single(), 1),
            footprint::max_kv_tokens(&model, &q8_5)
        );
    }

    #[test]
    fn tensor_parallelism_cuts_per_socket_time_and_memory() {
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let tp1 = hbm_sharded(ShardSpec::single());
        let tp4 = hbm_sharded(ShardSpec::tp(4));
        let base = tp1.next_token(&model, &scheme, Engine::deca_default(), 1, 2048);
        let shard = tp4.next_token(&model, &scheme, Engine::deca_default(), 1, 2048);
        // The weight stream shrinks close to 4x (the per-GeMM launch
        // barrier is a fixed serial cost, so the FC ratio floors above
        // 1/4); KV traffic shards with the KV heads; comm is added on top.
        assert!(shard.fc_seconds < 0.55 * base.fc_seconds);
        assert!(shard.attention_seconds < 0.3 * base.attention_seconds);
        assert!(shard.comm_seconds() > 0.0);
        assert!(shard.total_seconds() < base.total_seconds());

        let w1 = sharded_weight_bytes_per_socket(&model, &scheme, &ShardSpec::single());
        let w4 = sharded_weight_bytes_per_socket(&model, &scheme, &ShardSpec::tp(4));
        assert!(w4 < 0.3 * w1, "TP4 per-socket weights {w4:.2e} vs {w1:.2e}");
    }

    #[test]
    fn pipeline_stages_partition_the_layers() {
        let spec = ShardSpec::pp(3);
        let stages = spec.stage_layers(80);
        assert_eq!(stages.iter().sum::<usize>(), 80);
        assert_eq!(stages, vec![27, 27, 26]);
        assert_eq!(ShardSpec::pp(1).stage_layers(80), vec![80]);
    }

    #[test]
    fn q8_dense_fits_at_tp2_but_not_on_one_socket() {
        // §8: dense Q8 Llama2-70B does not fit in 64 GB of HBM. Two-way
        // tensor parallelism halves the shard and restores a KV budget.
        let model = LlmModel::llama2_70b();
        let q8 = CompressionScheme::bf8_dense();
        assert_eq!(footprint::max_kv_tokens(&model, &q8), None);
        assert_eq!(
            sharded_max_kv_tokens(&model, &q8, &ShardSpec::single()),
            None
        );
        let budget =
            sharded_max_kv_tokens(&model, &q8, &ShardSpec::tp(2)).expect("Q8 dense fits at TP2");
        assert!(budget > 50_000, "budget {budget}");
        assert!(sharded_fits_in_hbm_with_kv(
            &model,
            &q8,
            &ShardSpec::tp(2),
            4096,
            4
        ));
    }

    #[test]
    fn sharded_footprint_reduces_to_the_unsharded_one_on_a_single_socket() {
        let model = LlmModel::llama2_70b();
        for scheme in [
            CompressionScheme::bf8_sparse(0.05),
            CompressionScheme::mxfp4(),
        ] {
            let spec = ShardSpec::single();
            let sharded = sharded_weight_bytes_per_socket(&model, &scheme, &spec);
            let unsharded = footprint::model_footprint_bytes(&model, &scheme);
            assert_eq!(sharded.to_bits(), unsharded.to_bits());
            assert_eq!(
                sharded_max_kv_tokens(&model, &scheme, &spec),
                footprint::max_kv_tokens(&model, &scheme)
            );
        }
    }

    #[test]
    fn interconnect_collectives_price_latency_and_bandwidth() {
        let link = InterconnectModel::spr_upi();
        assert_eq!(link.all_reduce_seconds(1e9, 1), 0.0);
        let two = link.all_reduce_seconds(1e9, 2);
        let four = link.all_reduce_seconds(1e9, 4);
        // More participants move more total bytes per socket and pay more
        // latency steps.
        assert!(four > two && two > 0.0);
        let p2p = link.point_to_point_seconds(62.4e9);
        assert!((p2p - (1.0 + 1.2e-6)).abs() < 1e-9, "p2p {p2p}");
        // Zero-cost interconnect prices everything at exactly zero.
        let free = InterconnectModel::zero_cost();
        assert_eq!(free.all_reduce_seconds(1e12, 8), 0.0);
        assert_eq!(free.point_to_point_seconds(1e12), 0.0);
    }

    #[test]
    fn deep_pipelines_add_transfer_time_but_split_memory() {
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::mxfp4();
        let pp1 = hbm_sharded(ShardSpec::single());
        let pp4 = hbm_sharded(ShardSpec::pp(4));
        let base = pp1.next_token(&model, &scheme, Engine::deca_default(), 1, 128);
        let deep = pp4.next_token(&model, &scheme, Engine::deca_default(), 1, 128);
        // A decode token still traverses every layer, so PP does not cut
        // the serial FC time — it adds boundary transfers...
        assert!(deep.transfer_seconds > 0.0);
        assert!(deep.fc_seconds >= 0.99 * base.fc_seconds);
        // ...but it does split the per-socket weights.
        let w1 = sharded_weight_bytes_per_socket(&model, &scheme, &ShardSpec::single());
        let w4 = sharded_weight_bytes_per_socket(&model, &scheme, &ShardSpec::pp(4));
        assert!(w4 < 0.4 * w1);
    }

    #[test]
    fn gqa_kv_heads_stop_sharding_below_one_head() {
        // Llama2-70B has 8 KV heads: TP16 cannot split below one head per
        // socket, so the KV shard saturates at 1/8 of the full cache.
        let spec = ShardSpec::tp(16);
        let layer = *LlmModel::llama2_70b().layer();
        let sharded = spec.shard_layer(&layer);
        assert_eq!(sharded.kv_heads, 1);
        assert_eq!(sharded.heads, 4);
        assert_eq!(sharded.ffn_hidden, 1792);
    }

    #[test]
    fn spec_display_and_socket_accounting() {
        let spec = ShardSpec::new(4, 2);
        assert_eq!(spec.to_string(), "TP4xPP2");
        assert_eq!(spec.sockets(), 8);
        assert!(!spec.is_single());
        assert!(ShardSpec::single().is_single());
    }
}
