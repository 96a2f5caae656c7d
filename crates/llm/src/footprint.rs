//! Per-socket memory footprints per compression scheme and sharding plan
//! (§8).
//!
//! The paper notes that the uncompressed BF16 model, Q16 at 50 % density and
//! dense Q8 do not fit in the 64 GB of on-package HBM, so those
//! configurations are simulated with a larger HBM capacity. This module
//! reproduces that accounting for any [`ShardSpec`]: every function answers
//! for the plan's worst-loaded socket, and [`ShardSpec::single`] is the
//! whole model on one socket.

use deca_compress::{CompressionScheme, TILE_ELEMS};

use crate::{LlmModel, ShardSpec};

/// HBM capacity of the evaluated SPR part in bytes (64 GB).
pub const HBM_CAPACITY_BYTES: u64 = 64 * 1024 * 1024 * 1024;

/// Bytes per weight parameter under a compression scheme (including the
/// bitmask and scale-factor overheads).
#[must_use]
pub fn bytes_per_parameter(scheme: &CompressionScheme) -> f64 {
    scheme.expected_tile_bytes() / TILE_ELEMS as f64
}

/// Weight bytes resident on the *worst-loaded* socket under a plan: each
/// pipeline stage holds its layers' FC weights divided `TP` ways, the last
/// stage adds the sharded LM head, and stage 0 carries the embedding table,
/// which stays unsharded in BF16 (it is not an FC-layer weight). On
/// [`ShardSpec::single`] this is the whole model's footprint.
#[must_use]
pub fn weight_bytes_per_socket(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
) -> f64 {
    stages(model, scheme, spec)
        .map(|(bytes, _)| bytes)
        .fold(0.0, f64::max)
}

/// Whether every socket's weight shard fits in its 64 GB HBM (weights only
/// — see [`fits_in_hbm_with_kv`] for the serving-time check that includes
/// the KV cache).
#[must_use]
pub fn fits_in_hbm(model: &LlmModel, scheme: &CompressionScheme, spec: &ShardSpec) -> bool {
    weight_bytes_per_socket(model, scheme, spec) <= HBM_CAPACITY_BYTES as f64
}

/// Bytes of KV cache held for one sequence at `context_tokens` (keys and
/// values of every layer, BF16).
#[must_use]
pub fn kv_cache_bytes_per_sequence(model: &LlmModel, context_tokens: usize) -> u64 {
    (model.layers() * model.layer().kv_bytes_per_token() * context_tokens) as u64
}

/// Whether the weight shards *and* the sharded KV cache of `batch`
/// sequences at `context_tokens` fit on every socket of the plan.
#[must_use]
pub fn fits_in_hbm_with_kv(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
    context_tokens: usize,
    batch: usize,
) -> bool {
    stages(model, scheme, spec).all(|(bytes, kv_bytes_per_token)| {
        (kv_bytes_per_token * context_tokens * batch) as f64 <= HBM_CAPACITY_BYTES as f64 - bytes
    })
}

/// The total number of KV-cache token slots (summed across all resident
/// sequences) a plan's HBM headroom sustains. A resident token stores
/// sharded KV on *every* stage's sockets, so the budget is the minimum over
/// stages of `stage headroom / stage per-token KV bytes`. This is the KV
/// budget the serving scheduler in `deca-serve` admits against.
///
/// `None` when some socket's weight shard does not fit, or when a stage
/// has zero per-token KV cost (a zero-layer model, zero KV heads via
/// [`LlmModel::new`], or a pipeline stage left without layers): dividing
/// the headroom by `0.0` would produce `inf`, which a `u64` cast saturates
/// into a bogus "unbounded" scheduler budget.
#[must_use]
pub fn max_kv_tokens(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
) -> Option<u64> {
    let mut budget = u64::MAX;
    for (bytes, kv_bytes_per_token) in stages(model, scheme, spec) {
        let headroom = HBM_CAPACITY_BYTES as f64 - bytes;
        if headroom < 0.0 || kv_bytes_per_token == 0 {
            return None;
        }
        budget = budget.min((headroom / kv_bytes_per_token as f64) as u64);
    }
    Some(budget)
}

/// Per pipeline stage, the worst socket's weight bytes (FC shard, plus the
/// LM-head shard on the last stage and the embeddings on stage 0) and its
/// KV bytes per resident token.
fn stages(
    model: &LlmModel,
    scheme: &CompressionScheme,
    spec: &ShardSpec,
) -> impl Iterator<Item = (f64, usize)> {
    let layer = spec.shard_layer(model.layer());
    let stage_layers = spec.stage_layers(model.layers());
    let last = stage_layers.len() - 1;
    let lm_head_params = model.layer().hidden * spec.shard_vocab(model.vocab());
    let embedding_bytes = (model.total_params() - model.fc_params()) as f64 * 2.0;
    let bytes_per_parameter = bytes_per_parameter(scheme);
    stage_layers
        .into_iter()
        .enumerate()
        .map(move |(stage, layers)| {
            let mut params = layers * layer.fc_params();
            if stage == last {
                params += lm_head_params;
            }
            let mut bytes = params as f64 * bytes_per_parameter;
            if stage == 0 {
                bytes += embedding_bytes;
            }
            (bytes, layers * layer.kv_bytes_per_token())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one() -> ShardSpec {
        ShardSpec::single()
    }

    #[test]
    fn bytes_per_parameter_tracks_the_scheme() {
        assert_eq!(bytes_per_parameter(&CompressionScheme::bf16_dense()), 2.0);
        assert_eq!(bytes_per_parameter(&CompressionScheme::bf8_dense()), 1.0);
        assert!((bytes_per_parameter(&CompressionScheme::mxfp4()) - 0.53125).abs() < 1e-9);
        // Q8 at 5 %: 0.05 + 1/8 bitmask bytes per parameter.
        assert!((bytes_per_parameter(&CompressionScheme::bf8_sparse(0.05)) - 0.175).abs() < 1e-9);
    }

    #[test]
    fn paper_capacity_observations_hold() {
        // §8: BF16, Q16_50% and Q8_100% do not fit in 64 GB of HBM; the
        // compressed schemes evaluated with DECA do.
        let llama = LlmModel::llama2_70b();
        let fits = |model, scheme| fits_in_hbm(model, &scheme, &one());
        assert!(!fits(&llama, CompressionScheme::bf16_dense()));
        assert!(!fits(&llama, CompressionScheme::bf16_sparse(0.5)));
        assert!(!fits(&llama, CompressionScheme::bf8_dense()));
        assert!(fits(&llama, CompressionScheme::mxfp4()));
        assert!(fits(&llama, CompressionScheme::bf8_sparse(0.2)));
        assert!(fits(&llama, CompressionScheme::bf8_sparse(0.05)));

        let opt = LlmModel::opt_66b();
        assert!(!fits(&opt, CompressionScheme::bf16_dense()));
        assert!(fits(&opt, CompressionScheme::mxfp4()));
    }

    #[test]
    fn kv_cache_accounting_scales_with_context_and_batch() {
        let llama = LlmModel::llama2_70b();
        // 80 layers x 4096 B/token (GQA) = 327 680 B per context token.
        assert_eq!(kv_cache_bytes_per_sequence(&llama, 1), 327_680);
        assert_eq!(
            kv_cache_bytes_per_sequence(&llama, 4096),
            327_680 * 4096 // ~1.3 GB per sequence, ~21.5 GB for 16
        );
        assert_eq!(kv_cache_bytes_per_sequence(&llama, 0), 0);
        // Only context x batch matters to the fit check.
        let q8_5 = CompressionScheme::bf8_sparse(0.05);
        let budget = max_kv_tokens(&llama, &q8_5, &one()).expect("weights fit") as usize;
        assert!(fits_in_hbm_with_kv(&llama, &q8_5, &one(), budget / 16, 16));
        assert!(!fits_in_hbm_with_kv(
            &llama,
            &q8_5,
            &one(),
            budget / 16 + 1,
            16
        ));
    }

    #[test]
    fn kv_cache_participates_in_the_hbm_fit_check() {
        let llama = LlmModel::llama2_70b();
        let q8_5 = CompressionScheme::bf8_sparse(0.05);
        // Weights fit with lots of headroom...
        assert!(fits_in_hbm_with_kv(&llama, &q8_5, &one(), 4096, 16));
        // ...but a large enough resident KV set overflows even Q8_5%.
        let budget = max_kv_tokens(&llama, &q8_5, &one()).expect("weights fit");
        assert!(budget > 100_000, "budget {budget}");
        assert!(!fits_in_hbm_with_kv(
            &llama,
            &q8_5,
            &one(),
            budget as usize + 1,
            1
        ));
        assert!(fits_in_hbm_with_kv(
            &llama,
            &q8_5,
            &one(),
            budget as usize,
            1
        ));

        // Headroom is consistent with the budget: budget tokens eat it all.
        let headroom = HBM_CAPACITY_BYTES as f64 - weight_bytes_per_socket(&llama, &q8_5, &one());
        let used = kv_cache_bytes_per_sequence(&llama, budget as usize) as f64;
        assert!(used <= headroom && headroom - used < 327_680.0);
    }

    #[test]
    fn models_that_do_not_fit_have_no_kv_budget() {
        let llama = LlmModel::llama2_70b();
        let bf16 = CompressionScheme::bf16_dense();
        assert_eq!(max_kv_tokens(&llama, &bf16, &one()), None);
        assert!(weight_bytes_per_socket(&llama, &bf16, &one()) > HBM_CAPACITY_BYTES as f64);
        assert!(!fits_in_hbm_with_kv(&llama, &bf16, &one(), 0, 1));
    }

    /// Regression: a degenerate zero-layer model has zero per-token KV
    /// cost; before the guard, `headroom / 0.0 == inf` and the `u64` cast
    /// saturated it into a bogus "unbounded" scheduler budget.
    #[test]
    fn degenerate_models_with_zero_kv_cost_have_no_budget() {
        let zero_layers = LlmModel::new("degenerate", 0, *LlmModel::llama2_70b().layer(), 32_000);
        let scheme = CompressionScheme::bf8_sparse(0.05);
        // The (tiny) footprint fits, so the headroom is positive...
        assert!(fits_in_hbm(&zero_layers, &scheme, &one()));
        // ...but the per-token KV cost is zero: no meaningful budget exists.
        assert_eq!(max_kv_tokens(&zero_layers, &scheme, &one()), None);
        // Stages left without layers are the same case, not a panic.
        assert_eq!(
            max_kv_tokens(&zero_layers, &scheme, &ShardSpec::pp(2)),
            None
        );
    }

    #[test]
    fn footprints_are_ordered_by_compression_factor() {
        let llama = LlmModel::llama2_70b();
        let bytes = |scheme| weight_bytes_per_socket(&llama, &scheme, &one());
        let bf16 = bytes(CompressionScheme::bf16_dense());
        let q8 = bytes(CompressionScheme::bf8_dense());
        let q4 = bytes(CompressionScheme::mxfp4());
        let q8_5 = bytes(CompressionScheme::bf8_sparse(0.05));
        assert!(bf16 > q8 && q8 > q4 && q4 > q8_5);
        // The BF16 footprint is roughly 2 bytes per parameter.
        assert!((bf16 / llama.total_params() as f64 - 2.0).abs() < 0.01);
    }
}
