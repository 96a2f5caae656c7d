//! Property tests for the plan-taking footprint (`deca_llm::footprint`).
//!
//! The anchor property: on [`ShardSpec::single`] the per-stage accounting is
//! the whole-model formula — FC parameters at the scheme's bytes per
//! parameter plus the BF16 embeddings, and a KV budget of that headroom
//! over every layer's per-token KV bytes — bit for bit, across schemes and
//! models. Everything a plan adds (shard shapes, stage partitions) must
//! therefore be a pure extension, never a re-derivation that drifts. The
//! estimator's single-plan anchor lives beside its private helpers
//! (`inference.rs`).

use deca_compress::CompressionScheme;
use deca_llm::footprint::{
    bytes_per_parameter, fits_in_hbm_with_kv, max_kv_tokens, weight_bytes_per_socket,
    HBM_CAPACITY_BYTES,
};
use deca_llm::{LlmModel, ShardSpec};
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

    /// The single plan is the whole-model formula exactly (bitwise), and
    /// sharding never *increases* the per-socket weight bytes.
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
        let embeddings = (model.total_params() - model.fc_params()) as f64 * 2.0;
        let whole = model.fc_params() as f64 * bytes_per_parameter(&scheme) + embeddings;
        let one_socket = weight_bytes_per_socket(&model, &scheme, &single);
        prop_assert_eq!(one_socket.to_bits(), whole.to_bits());
        let headroom = HBM_CAPACITY_BYTES as f64 - whole;
        let per_token = (model.layers() * model.layer().kv_bytes_per_token()) as f64;
        let expected = (headroom >= 0.0).then(|| (headroom / per_token) as u64);
        prop_assert_eq!(max_kv_tokens(&model, &scheme, &single), expected);

        let spec = ShardSpec::new(1 << tp_exp, pp);
        let sharded = weight_bytes_per_socket(&model, &scheme, &spec);
        prop_assert!(sharded <= whole * 1.0001, "{spec}: {sharded} > {whole}");
        // A plan with a budget can hold at least that many tokens.
        if let Some(budget) = max_kv_tokens(&model, &scheme, &spec) {
            let budget = usize::try_from(budget).unwrap();
            prop_assert!(fits_in_hbm_with_kv(&model, &scheme, &spec, budget, 1));
        }
    }
}
