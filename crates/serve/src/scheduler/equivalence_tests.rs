//! Trace-equivalence property suite: the event core vs the reference
//! step loop.
//!
//! The discrete-event refactor must not change *what* the scheduler
//! simulates, only *how fast*: on any trace, every admission decision,
//! rejection, preemption, timestamp and counter must come out identical
//! to the old step loop — the step arithmetic is replayed at schedule
//! time with the same float operations in the same order, so the
//! comparison is exact (`ServingReport: PartialEq`, no tolerances).
//!
//! The only intended divergence is the four time-weighted mean fields
//! (`mean_queue_depth`, `mean_kv_occupancy`, `mean_block_utilization`,
//! `mean_internal_fragmentation`): the event core integrates them over
//! exact inter-event intervals — idle gaps and the partial intervals an
//! arrival splits a step into — where the old loop sampled once per
//! engine step and skipped idle time entirely. [`canon`] zeroes those
//! fields on both sides; everything else must match bit for bit.

use proptest::prelude::*;

use super::reference;
use super::{SchedulerKind, ServingConfig, ServingReport, ServingSimulator, SpeculationSpec};
use crate::cost::LinearCostModel;
use crate::lora::{AdapterId, AdapterModel};
use crate::tenant::{AgentLoopSpec, MultiTenantSpec, QosClass, RagSpec};
use crate::workload::{
    ArrivalProcess, LengthDistribution, RequestTrace, SharedPrefixChatSpec, WorkloadSpec,
};

/// Zeroes the interval-vs-sample mean fields so the rest of the report
/// can be compared exactly.
fn canon(mut report: ServingReport) -> ServingReport {
    report.mean_queue_depth = 0.0;
    report.mean_kv_occupancy = 0.0;
    if let Some(paged) = &mut report.paged {
        paged.mean_block_utilization = 0.0;
        paged.mean_internal_fragmentation = 0.0;
    }
    report
}

/// Runs `trace` through the event core and the reference loop of its
/// policy and asserts canonical equality.
fn assert_equivalent(config: ServingConfig, trace: &RequestTrace) {
    let mut sim = ServingSimulator::new(LinearCostModel::default_70b(), config);
    let event_core = sim.run(trace);
    let mut cost = LinearCostModel::default_70b();
    let reference = if config.scheduler == SchedulerKind::PagedContinuous {
        reference::run_paged_reference(&mut cost, config, trace)
    } else {
        reference::run_reference(&mut cost, config, trace)
    };
    assert_eq!(
        canon(event_core),
        canon(reference),
        "event core diverged from the reference loop ({}, prefix_sharing={})",
        config.scheduler,
        config.prefix_sharing
    );
}

/// A seeded Poisson or bursty chat workload.
fn workload(seed: u64, rate_x10: u32, requests: usize, bursty: bool) -> RequestTrace {
    let rate = f64::from(rate_x10) / 10.0;
    let arrivals = if bursty {
        ArrivalProcess::Bursty {
            base_rate: rate * 0.2,
            burst_rate: rate * 4.0,
            burst_secs: 3.0,
            period_secs: 15.0,
        }
    } else {
        ArrivalProcess::Poisson { rate_per_sec: rate }
    };
    WorkloadSpec {
        arrivals,
        prompt_lengths: LengthDistribution::Uniform { min: 8, max: 640 },
        output_lengths: LengthDistribution::Uniform { min: 1, max: 72 },
        requests,
        seed,
    }
    .generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reserve-up-front equivalence (continuous and static batching)
    /// across seeded Poisson and bursty traces, with budgets small enough
    /// to force rejections and head-of-line waits.
    #[test]
    fn reserve_up_front_cores_are_trace_equivalent(
        seed in 0u64..10_000,
        rate_x10 in 2u32..400,
        requests in 2usize..60,
        max_batch in 1usize..24,
        budget in 600usize..40_000,
        bursty in proptest::prop::bool::ANY,
        static_batching in proptest::prop::bool::ANY,
    ) {
        let trace = workload(seed, rate_x10, requests, bursty);
        let config = if static_batching {
            ServingConfig::static_batching(max_batch, budget)
        } else {
            ServingConfig::continuous(max_batch, budget)
        };
        assert_equivalent(config, &trace);
    }

    /// Paged equivalence on Poisson/bursty traces, pools sized from
    /// thrashing (heavy preemption) to roomy, prefix sharing on and off.
    #[test]
    fn paged_cores_are_trace_equivalent(
        seed in 0u64..10_000,
        rate_x10 in 2u32..300,
        requests in 2usize..48,
        max_batch in 1usize..16,
        budget_blocks in 48usize..1_500,
        block_size_idx in 0usize..4,
        bursty in proptest::prop::bool::ANY,
        prefix_sharing in proptest::prop::bool::ANY,
    ) {
        let block_size = [1usize, 4, 16, 32][block_size_idx];
        let trace = workload(seed, rate_x10, requests, bursty);
        let config = ServingConfig::paged(max_batch, budget_blocks * block_size, block_size)
            .with_prefix_sharing(prefix_sharing);
        assert_equivalent(config, &trace);
    }

    /// Paged + prefix-sharing equivalence on shared-prefix conversation
    /// traces — the workload where cache hits, evictions and the
    /// feasibility-checked admission path all fire.
    #[test]
    fn shared_prefix_traces_are_equivalent_on_every_policy(
        seed in 0u64..10_000,
        sessions in 1usize..12,
        rate_x100 in 5u32..400,
        max_batch in 1usize..16,
        budget_blocks in 64usize..2_000,
    ) {
        let trace = SharedPrefixChatSpec::fleet(f64::from(rate_x100) / 100.0, sessions, seed)
            .generate();
        for config in [
            ServingConfig::continuous(max_batch, budget_blocks * 16),
            ServingConfig::static_batching(max_batch, budget_blocks * 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16).with_prefix_sharing(true),
        ] {
            assert_equivalent(config, &trace);
        }
    }

    /// Chunked-prefill equivalence: the event core's chunked batch steps —
    /// chunk cursors, interleaved decodes, incremental cache publication —
    /// reproduce the reference loop's on every policy, across chunk
    /// budgets from smaller than one prompt to larger than the whole wave.
    #[test]
    fn chunked_runs_are_trace_equivalent(
        seed in 0u64..10_000,
        rate_x10 in 2u32..300,
        requests in 2usize..40,
        max_batch in 1usize..16,
        budget_blocks in 64usize..1_500,
        chunk_budget in 8usize..2_048,
        bursty in proptest::prop::bool::ANY,
        prefix_sharing in proptest::prop::bool::ANY,
    ) {
        let trace = workload(seed, rate_x10, requests, bursty);
        for config in [
            ServingConfig::continuous(max_batch, budget_blocks * 16),
            ServingConfig::static_batching(max_batch, budget_blocks * 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16)
                .with_prefix_sharing(prefix_sharing),
        ] {
            assert_equivalent(config.with_chunked_prefill(Some(chunk_budget)), &trace);
        }
    }

    /// Speculative-decoding equivalence: the event core's draft-and-verify
    /// bursts — seeded acceptance draws, per-token block growth on the
    /// paged policy — reproduce the reference loop's, with and without
    /// chunked prefill underneath.
    #[test]
    fn speculative_runs_are_trace_equivalent(
        seed in 0u64..10_000,
        rate_x10 in 2u32..300,
        requests in 2usize..40,
        max_batch in 1usize..16,
        budget_blocks in 64usize..1_500,
        draft_tokens in 1usize..8,
        acceptance_x100 in 0u32..=100,
        spec_seed in 0u64..1_000,
        chunked in proptest::prop::bool::ANY,
        prefix_sharing in proptest::prop::bool::ANY,
    ) {
        let trace = workload(seed, rate_x10, requests, false);
        let speculation =
            SpeculationSpec::new(draft_tokens, f64::from(acceptance_x100) / 100.0, spec_seed);
        let chunk_budget = chunked.then_some(256);
        for config in [
            ServingConfig::continuous(max_batch, budget_blocks * 16),
            ServingConfig::static_batching(max_batch, budget_blocks * 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16)
                .with_prefix_sharing(prefix_sharing),
        ] {
            assert_equivalent(
                config
                    .with_speculation(speculation)
                    .with_chunked_prefill(chunk_budget),
                &trace,
            );
        }
    }

    /// The degenerate axes are invisible: an infinite chunk budget
    /// (`None`) plus speculation off (zero draft tokens, whatever the
    /// acceptance rate or seed says) reproduces the plain run bit for bit
    /// — full report equality, time-weighted means included — on every
    /// policy, with prefix sharing on and off.
    #[test]
    fn degenerate_chunk_and_speculation_axes_are_bit_invisible(
        seed in 0u64..10_000,
        rate_x10 in 2u32..300,
        requests in 2usize..40,
        max_batch in 1usize..16,
        budget_blocks in 48usize..1_500,
        acceptance_x100 in 0u32..=100,
        spec_seed in 0u64..1_000,
        bursty in proptest::prop::bool::ANY,
    ) {
        let trace = workload(seed, rate_x10, requests, bursty);
        // Zero draft tokens disables speculation regardless of the rest of
        // the spec — the config is degenerate, not merely similar.
        let disabled =
            SpeculationSpec::new(0, f64::from(acceptance_x100) / 100.0, spec_seed);
        for config in [
            ServingConfig::continuous(max_batch, budget_blocks * 16),
            ServingConfig::static_batching(max_batch, budget_blocks * 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16).with_prefix_sharing(true),
        ] {
            let mut plain = ServingSimulator::new(LinearCostModel::default_70b(), config);
            let mut degenerate = ServingSimulator::new(
                LinearCostModel::default_70b(),
                config.with_chunked_prefill(None).with_speculation(disabled),
            );
            prop_assert_eq!(plain.run(&trace), degenerate.run(&trace));
        }
    }

    /// Multi-tenant equivalence: QoS priority admission (with aging) and
    /// adapter-cache pricing — including the paged policy's block carve —
    /// come out identical in the event core and the reference loops across
    /// mixed interactive/batch LoRA traces.
    #[test]
    fn multi_tenant_runs_are_trace_equivalent(
        seed in 0u64..10_000,
        rate_x10 in 2u32..200,
        interactive in 2usize..30,
        max_batch in 1usize..16,
        budget_blocks in 96usize..1_500,
        cache_slots in 1usize..4,
        qos_aging in 0usize..12,
        prefix_sharing in proptest::prop::bool::ANY,
    ) {
        let trace =
            MultiTenantSpec::fleet(f64::from(rate_x10) / 10.0, interactive, seed).generate();
        let adapters = AdapterModel::new(64, cache_slots);
        for config in [
            ServingConfig::continuous(max_batch, budget_blocks * 16),
            ServingConfig::static_batching(max_batch, budget_blocks * 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16)
                .with_prefix_sharing(prefix_sharing),
        ] {
            assert_equivalent(
                config.with_adapters(adapters).with_qos_aging(qos_aging),
                &trace,
            );
        }
    }

    /// The tenant workload families — shared-document RAG and tool-call
    /// agent loops — are trace-equivalent between the event core and the
    /// reference loop, with the prefix cache absorbing the shared
    /// documents / growing transcripts.
    #[test]
    fn tenant_workloads_are_trace_equivalent(
        seed in 0u64..10_000,
        rate_x100 in 5u32..300,
        units in 1usize..8,
        max_batch in 1usize..12,
        budget_blocks in 128usize..2_000,
        agentic in proptest::prop::bool::ANY,
    ) {
        let rate = f64::from(rate_x100) / 100.0;
        let trace = if agentic {
            AgentLoopSpec::fleet(rate, units, seed).generate()
        } else {
            RagSpec::fleet(rate, units, seed).generate()
        };
        for config in [
            ServingConfig::continuous(max_batch, budget_blocks * 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16).with_prefix_sharing(true),
        ] {
            assert_equivalent(config, &trace);
        }
    }

    /// The anti-starvation invariant: under any fuzzed mixed trace, the
    /// Batch lane is never bypassed more than `qos_aging` consecutive
    /// times while it has work queued, and every request still terminates
    /// (completed or rejected — nothing is starved forever).
    #[test]
    fn batch_lane_is_never_starved(
        seed in 0u64..10_000,
        rate_x10 in 5u32..300,
        interactive in 4usize..40,
        max_batch in 1usize..8,
        budget_blocks in 96usize..1_000,
        qos_aging in 1usize..10,
        paged in proptest::prop::bool::ANY,
    ) {
        let trace =
            MultiTenantSpec::fleet(f64::from(rate_x10) / 10.0, interactive, seed).generate();
        let config = if paged {
            ServingConfig::paged(max_batch, budget_blocks * 16, 16)
        } else {
            ServingConfig::continuous(max_batch, budget_blocks * 16)
        };
        let mut sim = ServingSimulator::new(
            LinearCostModel::default_70b(),
            config.with_qos_aging(qos_aging),
        );
        let report = sim.run(&trace);
        prop_assert!(
            report.qos.peak_interactive_run <= qos_aging,
            "{} interactive admissions in a row with Batch work queued (aging bound {})",
            report.qos.peak_interactive_run,
            qos_aging
        );
        prop_assert_eq!(
            report.completed() + report.rejected,
            trace.requests().len()
        );
    }

    /// The tenant axes are invisible until used: explicitly-disabled
    /// adapters plus any aging threshold reproduce the plain run bit for
    /// bit — full report equality, time-weighted means included — on a
    /// single-class base-model trace, on every policy.
    #[test]
    fn degenerate_tenant_axes_are_bit_invisible(
        seed in 0u64..10_000,
        rate_x10 in 2u32..300,
        requests in 2usize..40,
        max_batch in 1usize..16,
        budget_blocks in 48usize..1_500,
        qos_aging in 0usize..16,
        bursty in proptest::prop::bool::ANY,
    ) {
        let trace = workload(seed, rate_x10, requests, bursty);
        for config in [
            ServingConfig::continuous(max_batch, budget_blocks * 16),
            ServingConfig::static_batching(max_batch, budget_blocks * 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16),
            ServingConfig::paged(max_batch, budget_blocks * 16, 16).with_prefix_sharing(true),
        ] {
            let mut plain = ServingSimulator::new(LinearCostModel::default_70b(), config);
            let mut tenant = ServingSimulator::new(
                LinearCostModel::default_70b(),
                config
                    .with_adapters(AdapterModel::disabled())
                    .with_qos_aging(qos_aging),
            );
            prop_assert_eq!(plain.run(&trace), tenant.run(&trace));
        }
    }
}

/// Pinned regression: a pool small enough to preempt on every decode wave
/// stays equivalent through the deferred-preemption event path.
#[test]
fn preemption_heavy_trace_is_equivalent() {
    use crate::workload::{Request, TokenStream};
    let requests: Vec<Request> = (0..12)
        .map(|id| Request {
            id,
            arrival_s: 0.0,
            prompt_tokens: 64,
            output_tokens: 200,
            stream: TokenStream::unique(id),
            qos: QosClass::default(),
            adapter: AdapterId::BASE,
        })
        .collect();
    let trace = RequestTrace::new(requests);
    assert_equivalent(ServingConfig::paged(12, 1_024, 16), &trace);
}

/// Pinned regression: an empty trace produces identical (empty) reports.
#[test]
fn empty_trace_is_equivalent() {
    let trace = RequestTrace::new(Vec::new());
    for config in [
        ServingConfig::continuous(4, 1_000),
        ServingConfig::static_batching(4, 1_000),
        ServingConfig::paged(4, 1_000, 16).with_prefix_sharing(true),
    ] {
        assert_equivalent(config, &trace);
    }
}
