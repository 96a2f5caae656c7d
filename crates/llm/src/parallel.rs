//! Multi-socket sharding plans: tensor/pipeline parallelism over an
//! explicit interconnect model.
//!
//! One SPR socket tops out at 64 GB of HBM, and §8's capacity observations
//! show exactly which Table 4 configurations that excludes (uncompressed
//! BF16, Q16_50%, dense Q8 — and *any* scheme once the KV working set grows
//! past the post-weights headroom). Sharding answers the production
//! question one socket cannot: what does a (scheme × engine × TP × PP)
//! deployment cost in latency and per-socket memory?
//!
//! * [`ShardSpec`] — Megatron-style sharding: tensor parallelism splits
//!   every FC GeMM's output dimension (attention heads, KV heads, FFN
//!   columns and the LM-head vocabulary) across `tensor_parallel` sockets;
//!   pipeline parallelism partitions the layer stack into
//!   `pipeline_parallel` contiguous stages.
//! * [`InterconnectModel`] — per-link bandwidth and latency, priced as a
//!   ring all-reduce per tensor-parallel GeMM and a point-to-point
//!   activation transfer per pipeline-stage boundary.
//!
//! Both are inputs, not models of their own: [`crate::InferenceEstimator`]
//! prices any plan stage by stage (its single-socket constructor is the
//! `TP=1 × PP=1` plan over [`InterconnectModel::zero_cost`]), and every
//! [`crate::footprint`] function takes the plan whose worst-loaded socket
//! it accounts for.

use crate::LayerGeometry;

/// How a model is sharded across sockets: `tensor_parallel × pipeline_parallel`
/// sockets in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

    /// Layers per pipeline stage: as even as possible, with the first
    /// `layers % pp` stages taking one extra. A plan with more stages than
    /// layers leaves its trailing stages empty; such a stage stores no KV,
    /// so [`crate::footprint::max_kv_tokens`] gives the plan no budget.
    #[must_use]
    pub fn stage_layers(&self, layers: usize) -> Vec<usize> {
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
/// latency, and the two collective shapes a sharded plan needs are priced
/// on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectModel {
    /// Usable bandwidth of one socket's links in GB/s.
    pub link_bandwidth_gbps: f64,
    /// One-way link latency in microseconds.
    pub link_latency_us: f64,
}

impl InterconnectModel {
    /// A free interconnect (infinite bandwidth, zero latency): sharding
    /// with this model isolates the pure compute/memory effect. The
    /// single-socket estimator runs over it.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{self, max_kv_tokens, weight_bytes_per_socket};
    use crate::{InferenceEstimator, LlmModel};
    use deca_compress::CompressionScheme;
    use deca_kernels::Engine;
    use deca_roofsurface::MachineConfig;

    fn hbm_sharded(spec: ShardSpec) -> InferenceEstimator {
        InferenceEstimator::sharded(MachineConfig::spr_hbm(), spec, InterconnectModel::spr_upi())
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
        assert!(shard.comm_fraction() > 0.0);
        assert!(shard.total_seconds() < base.total_seconds());

        let w1 = weight_bytes_per_socket(&model, &scheme, &ShardSpec::single());
        let w4 = weight_bytes_per_socket(&model, &scheme, &ShardSpec::tp(4));
        assert!(w4 < 0.3 * w1, "TP4 per-socket weights {w4:.2e} vs {w1:.2e}");
    }

    #[test]
    fn pipeline_stages_partition_the_layers() {
        let spec = ShardSpec::pp(3);
        let stages = spec.stage_layers(80);
        assert_eq!(stages.iter().sum::<usize>(), 80);
        assert_eq!(stages, vec![27, 27, 26]);
        assert_eq!(ShardSpec::pp(1).stage_layers(80), vec![80]);
        // More stages than layers: the trailing stages hold nothing.
        assert_eq!(spec.stage_layers(2), vec![1, 1, 0]);
    }

    #[test]
    fn q8_dense_fits_at_tp2_but_not_on_one_socket() {
        // §8: dense Q8 Llama2-70B does not fit in 64 GB of HBM. Two-way
        // tensor parallelism halves the shard and restores a KV budget.
        let model = LlmModel::llama2_70b();
        let q8 = CompressionScheme::bf8_dense();
        assert_eq!(max_kv_tokens(&model, &q8, &ShardSpec::single()), None);
        let budget = max_kv_tokens(&model, &q8, &ShardSpec::tp(2)).expect("Q8 dense fits at TP2");
        assert!(budget > 50_000, "budget {budget}");
        assert!(footprint::fits_in_hbm_with_kv(
            &model,
            &q8,
            &ShardSpec::tp(2),
            4096,
            4
        ));
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
        let w1 = weight_bytes_per_socket(&model, &scheme, &ShardSpec::single());
        let w4 = weight_bytes_per_socket(&model, &scheme, &ShardSpec::pp(4));
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
        assert_eq!(ShardSpec::single().sockets(), 1);
    }
}
