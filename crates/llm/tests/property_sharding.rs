//! Property tests for the sharded estimator (`deca_llm::parallel`).
//!
//! The anchor property: a `TP=1 × PP=1` plan over a zero-cost interconnect
//! is *the same model* as the unsharded [`InferenceEstimator`] — every
//! latency component matches bit for bit across schemes, engines, batch
//! sizes and context lengths. Everything the sharded view adds (per-socket
//! shard shapes, collectives, stage partitions) must therefore be a pure
//! extension, never a re-derivation that drifts.

use deca_compress::CompressionScheme;
use deca_kernels::Engine;
use deca_llm::{
    footprint, parallel, InferenceEstimator, InterconnectModel, LlmModel, ShardSpec,
    ShardedEstimator,
};
use deca_roofsurface::MachineConfig;
use proptest::prelude::*;

fn scheme(index: u32) -> CompressionScheme {
    match index % 5 {
        0 => CompressionScheme::bf16_dense(),
        1 => CompressionScheme::bf8_dense(),
        2 => CompressionScheme::bf8_sparse(0.2),
        3 => CompressionScheme::bf8_sparse(0.05),
        _ => CompressionScheme::mxfp4(),
    }
}

fn model(index: u32) -> LlmModel {
    if index.is_multiple_of(2) {
        LlmModel::llama2_70b()
    } else {
        LlmModel::opt_66b()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TP=1 / PP=1 with a zero-cost interconnect reproduces the unsharded
    /// estimator's numbers exactly (bitwise), for decode and prefill.
    #[test]
    fn single_socket_plan_is_the_unsharded_estimator(
        scheme_index in 0u32..5,
        model_index in 0u32..2,
        deca in proptest::prop::bool::ANY,
        batch in 1usize..17,
        context in 0usize..4096,
        prompt in 1usize..768,
    ) {
        let machine = MachineConfig::spr_hbm();
        let engine = if deca { Engine::deca_default() } else { Engine::software() };
        let scheme = scheme(scheme_index);
        let model = model(model_index);
        let unsharded = InferenceEstimator::new(machine.clone());
        let sharded = ShardedEstimator::new(
            machine,
            ShardSpec::single(),
            InterconnectModel::zero_cost(),
        );

        let base = unsharded.next_token(&model, &scheme, engine, batch, context);
        let shard = sharded.next_token(&model, &scheme, engine, batch, context);
        prop_assert_eq!(shard.fc_seconds.to_bits(), base.fc_seconds.to_bits());
        prop_assert_eq!(
            shard.attention_seconds.to_bits(),
            base.attention_seconds.to_bits()
        );
        prop_assert_eq!(shard.other_seconds.to_bits(), base.other_seconds.to_bits());
        prop_assert_eq!(shard.allreduce_seconds, 0.0);
        prop_assert_eq!(shard.transfer_seconds, 0.0);
        prop_assert_eq!(
            shard.total_seconds().to_bits(),
            base.total_seconds().to_bits()
        );

        let base_p = unsharded.prefill(&model, &scheme, engine, prompt, context);
        let shard_p = sharded.prefill(&model, &scheme, engine, prompt, context);
        prop_assert_eq!(shard_p.fc_seconds.to_bits(), base_p.fc_seconds.to_bits());
        prop_assert_eq!(
            shard_p.attention_seconds.to_bits(),
            base_p.attention_seconds.to_bits()
        );
        prop_assert_eq!(
            shard_p.total_seconds().to_bits(),
            base_p.total_seconds().to_bits()
        );
    }

    /// The single-socket footprint view agrees with `footprint` exactly,
    /// and sharding never *increases* the per-socket weight bytes.
    #[test]
    fn sharded_footprints_are_consistent(
        scheme_index in 0u32..5,
        model_index in 0u32..2,
        tp_exp in 0u32..4,
        pp in 1usize..5,
    ) {
        let scheme = scheme(scheme_index);
        let model = model(model_index);
        let single = ShardSpec::single();
        prop_assert_eq!(
            parallel::sharded_max_kv_tokens(&model, &scheme, &single),
            footprint::max_kv_tokens(&model, &scheme)
        );
        let spec = ShardSpec::new(1 << tp_exp, pp);
        let sharded = parallel::sharded_weight_bytes_per_socket(&model, &scheme, &spec);
        let unsharded = footprint::model_footprint_bytes(&model, &scheme);
        prop_assert!(sharded <= unsharded * 1.0001, "{spec}: {sharded} > {unsharded}");
        // A plan with a budget can hold at least that many tokens.
        if let Some(budget) = parallel::sharded_max_kv_tokens(&model, &scheme, &spec) {
            let budget = usize::try_from(budget).unwrap();
            prop_assert!(parallel::sharded_fits_in_hbm_with_kv(
                &model, &scheme, &spec, budget, 1
            ));
        }
    }
}
