//! Next-token (generation-phase) and prefill latency estimation, on one
//! socket or any TP × PP sharding plan.
//!
//! One generated token runs, per transformer layer, a set of FC-layer GeMMs
//! (timed through the compressed-GeMM executor on the simulated machine)
//! plus attention over the KV cache and a collection of small stages
//! (normalization, rotary embeddings, softmax, residuals and framework
//! overhead). The FC GeMMs dominate (Table 1); the non-GeMM stages are
//! modelled as KV-cache bandwidth time plus a per-layer overhead calibrated
//! once against Table 1's FC-time fractions and then left untouched for
//! every other experiment.
//!
//! A sharded plan runs the same arithmetic per pipeline stage on one
//! socket's tensor-parallel shard shapes and adds the interconnect: a ring
//! all-reduce per TP GeMM and an activation transfer per stage boundary.
//! The single socket is the one-stage plan over a free interconnect.

use deca_compress::CompressionScheme;
use deca_kernels::{CompressedGemmExecutor, Engine, GemmShape, Parlooper};
use deca_roofsurface::MachineConfig;

use crate::{InterconnectModel, LlmModel, ShardSpec};

/// Fixed per-layer, per-token overhead (µs) for normalization, softmax,
/// residuals, KV-cache bookkeeping and framework dispatch. Calibrated so the
/// uncompressed Llama2-70B FC-time fraction matches Table 1 on both DDR and
/// HBM.
const LAYER_OVERHEAD_US: f64 = 190.0;
/// Additional per-layer overhead per sequence in the batch (µs): the
/// per-token elementwise work scales with the batch size.
const LAYER_OVERHEAD_PER_SEQUENCE_US: f64 = 7.0;
/// Launch/barrier overhead per FC GeMM (µs): Parlooper synchronizes the 56
/// cores at the end of every GeMM, and each GeMM pays a short ramp-up before
/// the tile pipeline reaches steady state.
const GEMM_LAUNCH_BARRIER_US: f64 = 15.0;

/// Latency breakdown of generating one token.
#[derive(Debug, Clone, PartialEq)]
pub struct NextTokenReport {
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
    /// Seconds spent in FC-layer GeMMs, summed over the pipeline stages
    /// (each stage runs its sharded shapes on its own sockets).
    pub fc_seconds: f64,
    /// Seconds spent reading/writing the KV cache during attention
    /// (per socket: the KV heads are sharded).
    pub attention_seconds: f64,
    /// Seconds of per-layer overhead (norms, softmax, residuals, framework).
    pub other_seconds: f64,
    /// Seconds of tensor-parallel all-reduces (one per TP GeMM).
    pub allreduce_seconds: f64,
    /// Seconds of pipeline-boundary activation transfers.
    pub transfer_seconds: f64,
}

impl NextTokenReport {
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

    /// Total next-token latency in milliseconds (the unit of Table 4).
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.total_seconds() * 1e3
    }

    /// Fraction of the next-token time spent in FC-layer GeMMs (Table 1).
    #[must_use]
    pub fn fc_fraction(&self) -> f64 {
        fraction(self.fc_seconds, self.total_seconds())
    }

    /// Fraction of the token time spent on the interconnect (all-reduces
    /// plus stage transfers).
    #[must_use]
    pub fn comm_fraction(&self) -> f64 {
        fraction(
            self.allreduce_seconds + self.transfer_seconds,
            self.total_seconds(),
        )
    }
}

/// Latency breakdown of the prefill (prompt-processing) phase of one
/// sequence: the whole prompt runs through every layer at once, so the FC
/// GeMMs have `prompt_tokens` activation rows and the TMUL — not the weight
/// stream — can become the bound.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefillReport {
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
    /// Tokens already resident in the KV cache before the prefill (0 for a
    /// fresh request).
    pub context_tokens: usize,
    /// Seconds spent in FC-layer GeMMs across all stages.
    pub fc_seconds: f64,
    /// Seconds spent reading/writing the KV cache during causal attention
    /// (per socket).
    pub attention_seconds: f64,
    /// Seconds of per-layer overhead (norms, softmax, residuals, framework).
    pub other_seconds: f64,
    /// Seconds of tensor-parallel all-reduces.
    pub allreduce_seconds: f64,
    /// Seconds of pipeline-boundary activation transfers.
    pub transfer_seconds: f64,
}

impl PrefillReport {
    /// Total prefill latency in seconds — the time-to-first-token
    /// contribution of prompt processing.
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
}

/// `part / whole`, or 0 for an empty whole.
fn fraction(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Estimates prefill and next-token latency for a model/scheme/engine
/// combination on a simulated machine, on one socket or sharded across
/// `spec.sockets()` of them.
#[derive(Debug, Clone)]
pub struct InferenceEstimator {
    machine: MachineConfig,
    executor: CompressedGemmExecutor,
    spec: ShardSpec,
    interconnect: InterconnectModel,
}

impl InferenceEstimator {
    /// Creates a single-socket estimator for a machine: the
    /// [`ShardSpec::single`] plan over [`InterconnectModel::zero_cost`].
    #[must_use]
    pub fn new(machine: MachineConfig) -> Self {
        InferenceEstimator::sharded(machine, ShardSpec::single(), InterconnectModel::zero_cost())
    }

    /// Creates an estimator for a sharding plan: every socket is one
    /// `machine`, and `interconnect` prices every tensor-parallel
    /// all-reduce and pipeline-boundary transfer.
    #[must_use]
    pub fn sharded(
        machine: MachineConfig,
        spec: ShardSpec,
        interconnect: InterconnectModel,
    ) -> Self {
        InferenceEstimator {
            executor: CompressedGemmExecutor::new(machine.clone()),
            machine,
            spec,
            interconnect,
        }
    }

    /// Estimates the latency of generating one token.
    #[must_use]
    pub fn next_token(
        &self,
        model: &LlmModel,
        scheme: &CompressionScheme,
        engine: Engine,
        batch: usize,
        context_tokens: usize,
    ) -> NextTokenReport {
        // One steady-state simulation gives the per-tile rate for this
        // (scheme, engine, batch); every FC GeMM then contributes its own
        // worst-loaded-core tile count at that rate.
        let seconds_per_tile = self.decode_tile_seconds(scheme, engine, batch);
        let (fc_seconds, attention_seconds, other_seconds) =
            self.stage_components(model, batch, seconds_per_tile, |kv_bytes, layers| {
                self.kv_traffic_seconds(kv_bytes, layers, batch, context_tokens)
            });
        NextTokenReport {
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

    /// Estimates the latency of the prefill phase: processing a
    /// `prompt_tokens`-long prompt of one sequence whose KV cache already
    /// holds `context_tokens` tokens.
    ///
    /// The weight stream is identical to a decode step (every FC weight is
    /// read once), but each decompressed tile now feeds
    /// `ceil(prompt_tokens / 16)` TMUL operations, so per tile the pipeline
    /// pays the *slower* of the steady-state (memory/decompress) tile rate
    /// and the TMUL occupancy — long prompts are compute-bound, exactly why
    /// prefill and decode need separate models. A sharded prefill is a
    /// single-microbatch pipeline: the stages run back to back, so pipeline
    /// parallelism reduces the per-stage work but not the serial depth.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_tokens` is zero.
    #[must_use]
    pub fn prefill(
        &self,
        model: &LlmModel,
        scheme: &CompressionScheme,
        engine: Engine,
        prompt_tokens: usize,
        context_tokens: usize,
    ) -> PrefillReport {
        assert!(prompt_tokens > 0, "a prefill processes at least one token");
        let seconds_per_tile = self.prefill_tile_seconds(scheme, engine, prompt_tokens);
        // The elementwise per-token work (norms, rotary, residuals) scales
        // with the prompt length; the fixed per-layer dispatch is paid once.
        let (fc_seconds, attention_seconds, other_seconds) = self.stage_components(
            model,
            prompt_tokens,
            seconds_per_tile,
            |kv_bytes, layers| {
                self.prefill_kv_traffic_seconds(kv_bytes, layers, prompt_tokens, context_tokens)
            },
        );
        PrefillReport {
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
        kv_traffic: impl Fn(usize, usize) -> f64,
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
            fc_seconds += self.fc_seconds_for(&shapes, seconds_per_tile);
            attention_seconds += kv_traffic(sharded_layer.kv_bytes_per_token(), layers);
            other_seconds += overhead_seconds(layers, rows);
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

    fn gemm_seconds(&self, shape: &GemmShape, seconds_per_tile: f64) -> f64 {
        let partition = Parlooper::partition(shape, self.machine.cores);
        partition.max_tiles_per_core() as f64 * seconds_per_tile
    }

    /// Steady-state decode tile rate for a (scheme, engine, batch) point.
    fn decode_tile_seconds(&self, scheme: &CompressionScheme, engine: Engine, batch: usize) -> f64 {
        let run = self.executor.run(scheme, engine, batch);
        run.stats.cycles_per_tile() / self.machine.frequency_hz()
    }

    /// Per-tile prefill rate: the slower of the steady-state stream rate and
    /// the TMUL occupancy — ceil(P/16) tile ops of `tmul_cycles_per_op`
    /// cycles each (the TMUL saturates at 16 activation rows per op).
    fn prefill_tile_seconds(
        &self,
        scheme: &CompressionScheme,
        engine: Engine,
        prompt_tokens: usize,
    ) -> f64 {
        let run = self.executor.run(scheme, engine, prompt_tokens);
        let stream_seconds_per_tile = run.stats.cycles_per_tile() / self.machine.frequency_hz();
        let tmul_seconds_per_tile = prompt_tokens.div_ceil(16) as f64
            * f64::from(self.machine.tmul_cycles_per_op)
            / self.machine.frequency_hz();
        stream_seconds_per_tile.max(tmul_seconds_per_tile)
    }

    /// Total FC time of a list of GeMMs at a fixed per-tile rate: each GeMM
    /// pays its worst-loaded-core tile count plus the launch/barrier cost.
    fn fc_seconds_for(&self, shapes: &[GemmShape], seconds_per_tile: f64) -> f64 {
        shapes
            .iter()
            .map(|shape| self.gemm_seconds(shape, seconds_per_tile))
            .sum::<f64>()
            + shapes.len() as f64 * GEMM_LAUNCH_BARRIER_US * 1e-6
    }

    /// Decode-step KV traffic time for `layers` layers whose per-token KV
    /// cost is `kv_bytes_per_token`: every layer reads the keys and values
    /// of the whole context for every sequence in the batch, and appends
    /// the new token's keys/values.
    fn kv_traffic_seconds(
        &self,
        kv_bytes_per_token: usize,
        layers: usize,
        batch: usize,
        context_tokens: usize,
    ) -> f64 {
        let per_layer_read = kv_bytes_per_token as f64 * context_tokens as f64 * batch as f64;
        let per_layer_write = kv_bytes_per_token as f64 * batch as f64;
        let total_bytes = (per_layer_read + per_layer_write) * layers as f64;
        total_bytes / self.machine.memory_bandwidth_bytes_per_sec()
    }

    /// Causal-attention KV traffic of a prefill: token `i` of the prompt
    /// reads the `context + i` keys/values before it, and every prompt
    /// token appends its own.
    fn prefill_kv_traffic_seconds(
        &self,
        kv_bytes_per_token: usize,
        layers: usize,
        prompt_tokens: usize,
        context_tokens: usize,
    ) -> f64 {
        let p = prompt_tokens as f64;
        let positions_read = p * context_tokens as f64 + p * (p - 1.0) / 2.0;
        let kv_bytes = kv_bytes_per_token as f64;
        let total_bytes = (positions_read + p) * kv_bytes * layers as f64;
        total_bytes / self.machine.memory_bandwidth_bytes_per_sec()
    }
}

/// Per-layer overhead (norms, softmax, residuals, framework dispatch) for
/// `layers` layers processing `sequences` token rows.
fn overhead_seconds(layers: usize, sequences: usize) -> f64 {
    layers as f64 * (LAYER_OVERHEAD_US + LAYER_OVERHEAD_PER_SEQUENCE_US * sequences as f64) * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hbm() -> InferenceEstimator {
        InferenceEstimator::new(MachineConfig::spr_hbm())
    }

    #[test]
    fn uncompressed_llama_latency_is_in_the_table4_ballpark() {
        // Table 4: 192.3 ms for BF16 Llama2-70B at batch 1 on HBM.
        let report = hbm().next_token(
            &LlmModel::llama2_70b(),
            &CompressionScheme::bf16_dense(),
            Engine::software(),
            1,
            128,
        );
        let ms = report.total_ms();
        assert!(
            (160.0..230.0).contains(&ms),
            "BF16 batch-1 next-token latency {ms:.1} ms"
        );
        assert!(report.fc_fraction() > 0.85);
    }

    #[test]
    fn deca_latency_decreases_monotonically_with_compression() {
        let estimator = hbm();
        let model = LlmModel::llama2_70b();
        let mut last = f64::INFINITY;
        for scheme in [
            CompressionScheme::mxfp4(),
            CompressionScheme::bf8_sparse(0.2),
            CompressionScheme::bf8_sparse(0.05),
        ] {
            let ms = estimator
                .next_token(&model, &scheme, Engine::deca_default(), 1, 128)
                .total_ms();
            assert!(ms < last, "{scheme}: {ms:.1} ms not below {last:.1} ms");
            last = ms;
        }
    }

    #[test]
    fn larger_batches_take_longer_but_give_more_tokens_per_second() {
        let estimator = hbm();
        let model = LlmModel::opt_66b();
        let scheme = CompressionScheme::mxfp4();
        let b1 = estimator.next_token(&model, &scheme, Engine::deca_default(), 1, 128);
        let b16 = estimator.next_token(&model, &scheme, Engine::deca_default(), 16, 128);
        assert!(b16.total_ms() > b1.total_ms());
        // Tokens per second for the whole batch.
        assert!(16.0 / b16.total_seconds() > 1.0 / b1.total_seconds());
    }

    #[test]
    fn attention_time_grows_with_context_length() {
        let estimator = hbm();
        let model = LlmModel::opt_66b();
        let scheme = CompressionScheme::bf8_sparse(0.2);
        let short = estimator.next_token(&model, &scheme, Engine::deca_default(), 16, 128);
        let long = estimator.next_token(&model, &scheme, Engine::deca_default(), 16, 4096);
        assert!(long.attention_seconds > 10.0 * short.attention_seconds);
        assert!(long.total_ms() > short.total_ms());
        // FC time itself is unchanged by the context length.
        assert!((long.fc_seconds - short.fc_seconds).abs() < 1e-9);
    }

    #[test]
    fn report_accessors_are_consistent() {
        let report = hbm().next_token(
            &LlmModel::llama2_70b(),
            &CompressionScheme::mxfp4(),
            Engine::deca_default(),
            4,
            128,
        );
        let total = report.fc_seconds + report.attention_seconds + report.other_seconds;
        assert!((report.total_seconds() - total).abs() < 1e-15);
        assert!((report.total_ms() - total * 1e3).abs() < 1e-9);
        assert!(report.fc_fraction() > 0.0 && report.fc_fraction() < 1.0);
        assert_eq!(report.batch, 4);
        assert_eq!(report.scheme, "Q4");
    }

    #[test]
    fn prefill_is_much_faster_than_token_by_token_decode() {
        // The whole point of a prefill phase: 512 prompt tokens through the
        // weight stream once beats 512 decode steps by a wide margin.
        let estimator = hbm();
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let prefill = estimator.prefill(&model, &scheme, Engine::deca_default(), 512, 0);
        let decode = estimator.next_token(&model, &scheme, Engine::deca_default(), 1, 256);
        assert!(
            prefill.total_seconds() < 0.25 * 512.0 * decode.total_seconds(),
            "prefill {:.1} ms vs 512 decode steps {:.1} ms",
            prefill.total_ms(),
            512.0 * decode.total_ms()
        );
        // But a prefill is still far more work than a single decode step.
        assert!(prefill.total_seconds() > 2.0 * decode.total_seconds());
    }

    #[test]
    fn long_prompts_become_tmul_bound() {
        // At short prompts the weight stream dominates (memory-bound), so
        // doubling the prompt barely moves the FC time; at long prompts the
        // TMUL occupancy dominates and the FC time scales linearly. The
        // uncompressed BF16 stream is heavy enough to stay memory-bound up
        // to a few hundred prompt tokens (highly compressed schemes flip to
        // TMUL-bound almost immediately).
        let estimator = hbm();
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf16_dense();
        let fc = |tokens| {
            estimator
                .prefill(&model, &scheme, Engine::software(), tokens, 0)
                .fc_seconds
        };
        let short_ratio = fc(32) / fc(16);
        let long_ratio = fc(2048) / fc(1024);
        assert!(short_ratio < 1.6, "short-prompt FC ratio {short_ratio:.2}");
        assert!(long_ratio > 1.9, "long-prompt FC ratio {long_ratio:.2}");
    }

    #[test]
    fn prefill_attention_grows_quadratically_and_with_prior_context() {
        let estimator = hbm();
        let model = LlmModel::opt_66b();
        let scheme = CompressionScheme::mxfp4();
        let short = estimator.prefill(&model, &scheme, Engine::deca_default(), 256, 0);
        let long = estimator.prefill(&model, &scheme, Engine::deca_default(), 1024, 0);
        // 4x the prompt, ~16x the causal KV reads.
        let ratio = long.attention_seconds / short.attention_seconds;
        assert!((14.0..18.0).contains(&ratio), "attention ratio {ratio:.1}");
        let with_context = estimator.prefill(&model, &scheme, Engine::deca_default(), 256, 4096);
        assert!(with_context.attention_seconds > 5.0 * short.attention_seconds);
        assert_eq!(with_context.context_tokens, 4096);
    }

    #[test]
    fn prefill_report_accessors_are_consistent() {
        let report = hbm().prefill(
            &LlmModel::llama2_70b(),
            &CompressionScheme::mxfp4(),
            Engine::deca_default(),
            128,
            0,
        );
        let total = report.fc_seconds + report.attention_seconds + report.other_seconds;
        assert!((report.total_seconds() - total).abs() < 1e-15);
        assert!((report.total_ms() - total * 1e3).abs() < 1e-9);
        assert_eq!(report.prompt_tokens, 128);
        assert_eq!(report.scheme, "Q4");
    }

    #[test]
    fn deca_prefill_beats_software_prefill() {
        // DECA speeds up the memory/decompress side; on short prompts that
        // side is the bound, so the prefill advantage survives.
        let estimator = hbm();
        let model = LlmModel::llama2_70b();
        let scheme = CompressionScheme::bf8_sparse(0.05);
        let sw = estimator.prefill(&model, &scheme, Engine::software(), 64, 0);
        let deca = estimator.prefill(&model, &scheme, Engine::deca_default(), 64, 0);
        assert!(
            deca.total_seconds() < sw.total_seconds(),
            "DECA {:.1} ms vs software {:.1} ms",
            deca.total_ms(),
            sw.total_ms()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The anchor property: on the single plan every latency part is
        /// its whole-model formula, bit for bit. The stage loop builds
        /// exactly [`LlmModel::fc_gemms_per_token`]'s GeMM list in the same
        /// order, one stage carries every layer's KV traffic and overhead,
        /// and the interconnect parts are exactly zero.
        #[test]
        fn single_plan_parts_are_the_whole_model_formulas(
            scheme_index in 0usize..5,
            opt in proptest::prop::bool::ANY,
            deca in proptest::prop::bool::ANY,
            batch in 1usize..17,
            context in 0usize..4096,
            prompt in 1usize..768,
        ) {
            let estimator = hbm();
            let engine = if deca { Engine::deca_default() } else { Engine::software() };
            let scheme = [
                CompressionScheme::bf16_dense(),
                CompressionScheme::bf8_dense(),
                CompressionScheme::bf8_sparse(0.2),
                CompressionScheme::bf8_sparse(0.05),
                CompressionScheme::mxfp4(),
            ][scheme_index];
            let model = if opt { LlmModel::opt_66b() } else { LlmModel::llama2_70b() };
            let (layers, kv_bytes) = (model.layers(), model.layer().kv_bytes_per_token());

            let decode = estimator.next_token(&model, &scheme, engine, batch, context);
            let tile = estimator.decode_tile_seconds(&scheme, engine, batch);
            let fc = estimator.fc_seconds_for(&model.fc_gemms_per_token(batch), tile);
            let kv = estimator.kv_traffic_seconds(kv_bytes, layers, batch, context);
            prop_assert_eq!(decode.fc_seconds.to_bits(), fc.to_bits());
            prop_assert_eq!(decode.attention_seconds.to_bits(), kv.to_bits());
            prop_assert_eq!(
                decode.other_seconds.to_bits(),
                overhead_seconds(layers, batch).to_bits()
            );
            prop_assert_eq!(decode.allreduce_seconds.to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(decode.transfer_seconds.to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(
                decode.total_seconds().to_bits(),
                (fc + kv + overhead_seconds(layers, batch)).to_bits()
            );

            let prefill = estimator.prefill(&model, &scheme, engine, prompt, context);
            let tile = estimator.prefill_tile_seconds(&scheme, engine, prompt);
            let fc = estimator.fc_seconds_for(&model.fc_gemms_per_token(prompt), tile);
            let kv = estimator.prefill_kv_traffic_seconds(kv_bytes, layers, prompt, context);
            prop_assert_eq!(prefill.fc_seconds.to_bits(), fc.to_bits());
            prop_assert_eq!(prefill.attention_seconds.to_bits(), kv.to_bits());
            prop_assert_eq!(
                prefill.other_seconds.to_bits(),
                overhead_seconds(layers, prompt).to_bits()
            );
            prop_assert_eq!(prefill.allreduce_seconds.to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(prefill.transfer_seconds.to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(
                prefill.total_seconds().to_bits(),
                (fc + kv + overhead_seconds(layers, prompt)).to_bits()
            );
        }
    }
}
