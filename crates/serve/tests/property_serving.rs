//! Property-based tests for the serving schedulers.
//!
//! The scheduler contract, for any workload and any configuration:
//!
//! 1. the KV-cache budget is never exceeded (neither reservations nor
//!    actual occupancy),
//! 2. requests are conserved: every request is either completed or
//!    rejected, and everything admitted completes,
//! 3. runs are deterministic for a fixed trace,
//! 4. latencies are physically sane (first token after arrival, completion
//!    not before the first token),
//!
//! plus the regression the subsystem exists to show: on a bursty trace,
//! static batching's tail latency is no better than continuous batching's.
//!
//! The paged-KV subsystem adds its own contract ([`deca_serve::kv`] and
//! [`deca_serve::prefix`] document the invariants):
//!
//! 5. no block is ever double-freed, and `allocated == 0` after every run
//!    drains (sequences retired, prefix cache flushed),
//! 6. ref-counts of shared prefix blocks return to zero once the sharers
//!    and the cache release them,
//! 7. a paged run with `BlockSize = 1` and no prefix sharing reproduces
//!    the reserve-up-front scheduler's completion and rejection sets,
//! 8. paged runs conserve requests and respect the pool even under heavy
//!    preemption.
//!
//! The tiered-offload subsystem ([`deca_serve::tier`]) adds:
//!
//! 9. tiered runs conserve requests too, no tier ever holds more blocks
//!    than its capacity, and every swap-out is matched by a swap-in,
//! 10. the degenerate configs are exact: a zero-capacity tier reproduces
//!     the recompute-only paged run bit for bit, and a zero-cost KV ship
//!     leaves every record untouched.
//!
//! The batch-step axes (chunked prefill and speculative decoding,
//! [`deca_serve::ServingConfig::with_chunked_prefill`] /
//! [`deca_serve::SpeculationSpec`]) add:
//!
//! 11. the degenerate configs are bit-exact: an infinite chunk budget plus
//!     speculation off reproduces the plain run on every policy, prefix
//!     sharing on or off (the equivalence suite in
//!     `scheduler/equivalence_tests.rs` additionally pins the event core
//!     against the reference loop on the live axes),
//! 12. speculation never changes *what* is served: token totals and the
//!     completion set match the plain run for any acceptance rate, and at
//!     acceptance rate 1.0 the burst count never exceeds the plain run's
//!     decode-step count,
//! 13. chunk boundaries conserve prompt tokens: every admitted prompt
//!     token passes through at least one chunk, even under
//!     preemption-by-recompute and swap-tier pressure that force chunked
//!     prefill passes to restart.

use std::collections::HashSet;

use deca_serve::{
    simulate_fleet_with, ArrivalProcess, BlockAllocator, KvShipSpec, KvTierModel, KvTierSpec,
    LengthDistribution, LinearCostModel, PrefixCache, RequestRecord, SchedulerKind, ServingConfig,
    ServingSimulator, SharedPrefixChatSpec, SloTarget, SpeculationSpec, TokenStream, WorkloadSpec,
};
use proptest::prelude::*;

fn workload(seed: u64, rate_x10: u32, requests: usize, bursty: bool) -> WorkloadSpec {
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariants 1–4 for continuous batching across random workloads,
    /// batch limits and KV budgets (including budgets small enough to
    /// force rejections and head-of-line waits).
    #[test]
    fn continuous_batching_invariants(
        seed in 0u64..10_000,
        rate_x10 in 2u32..400,
        requests in 4usize..120,
        max_batch in 1usize..32,
        budget in 600usize..60_000,
        bursty in proptest::prop::bool::ANY,
    ) {
        let trace = workload(seed, rate_x10, requests, bursty).generate();
        let config = ServingConfig::continuous(max_batch, budget);
        let mut sim = ServingSimulator::new(LinearCostModel::default_70b(), config);
        let report = sim.run(&trace);

        // 1. KV budget respected at every instant.
        prop_assert!(report.peak_kv_reserved_tokens <= budget);
        prop_assert!(report.peak_kv_occupied_tokens <= report.peak_kv_reserved_tokens);
        // 2. Conservation.
        prop_assert_eq!(report.completed() + report.rejected, requests);
        prop_assert_eq!(report.admitted, report.completed());
        // Batch limit respected.
        prop_assert!(report.peak_batch <= max_batch);
        // 4. Physical sanity per record.
        for r in &report.records {
            prop_assert!(r.first_token_s > r.arrival_s);
            prop_assert!(r.completion_s >= r.first_token_s);
        }
        // 3. Determinism: an identical replica replays identically.
        let mut again = ServingSimulator::new(LinearCostModel::default_70b(), config);
        prop_assert_eq!(again.run(&trace), report);
    }

    /// The same invariants hold for the static-batching baseline.
    #[test]
    fn static_batching_invariants(
        seed in 0u64..10_000,
        rate_x10 in 2u32..400,
        requests in 4usize..120,
        max_batch in 1usize..32,
        budget in 600usize..60_000,
    ) {
        let trace = workload(seed, rate_x10, requests, false).generate();
        let config = ServingConfig::static_batching(max_batch, budget);
        let mut sim = ServingSimulator::new(LinearCostModel::default_70b(), config);
        let report = sim.run(&trace);

        prop_assert!(report.peak_kv_reserved_tokens <= budget);
        prop_assert_eq!(report.completed() + report.rejected, requests);
        prop_assert_eq!(report.admitted, report.completed());
        prop_assert!(report.peak_batch <= max_batch);

        let mut again = ServingSimulator::new(LinearCostModel::default_70b(), config);
        prop_assert_eq!(again.run(&trace), report);
    }

    /// Regression companion to the `exponential_gap` clamp: generated
    /// traces are physically sane for extreme seeds and rates — every
    /// timestamp is finite and non-negative, timestamps are monotone, and
    /// every inter-arrival gap is finite and non-negative.
    #[test]
    fn traces_have_finite_monotone_timestamps(
        seed in 0u64..u64::MAX,
        rate_exp in 0u32..10,
        bursty in proptest::prop::bool::ANY,
    ) {
        // Rates from 1e-3 to 1e6 requests/sec: trickle to absurd overload.
        let rate = 10f64.powi(i32::try_from(rate_exp).unwrap() - 3);
        let arrivals = if bursty {
            ArrivalProcess::Bursty {
                base_rate: 0.0,
                burst_rate: rate * 5.0,
                burst_secs: 0.125,
                period_secs: 60.0,
            }
        } else {
            ArrivalProcess::Poisson { rate_per_sec: rate }
        };
        let trace = WorkloadSpec {
            arrivals,
            prompt_lengths: LengthDistribution::Fixed(32),
            output_lengths: LengthDistribution::Fixed(8),
            requests: 64,
            seed,
        }
        .generate();
        prop_assert_eq!(trace.len(), 64);
        let mut previous = 0.0f64;
        for request in trace.requests() {
            let t = request.arrival_s;
            prop_assert!(t.is_finite() && t >= 0.0, "timestamp {t}");
            let gap = t - previous;
            prop_assert!(gap.is_finite() && gap >= 0.0, "gap {gap}");
            previous = t;
        }
    }

    /// Round-robin fleet runs conserve the trace: with a budget that
    /// rejects nothing, every request completes on exactly one replica
    /// (`records().len() == trace.len()`), for any replica count.
    #[test]
    fn fleet_runs_conserve_requests(
        seed in 0u64..10_000,
        replicas in 1usize..9,
        requests in 1usize..100,
    ) {
        let trace = workload(seed, 25, requests, false).generate();
        let config = ServingConfig::continuous(8, 1_000_000);
        let fleet = simulate_fleet_with(
            LinearCostModel::default_70b,
            &config,
            replicas,
            &trace,
        );
        prop_assert_eq!(fleet.rejected(), 0);
        let records = fleet.records();
        prop_assert_eq!(records.len(), trace.len());
        // The union of replica records is exactly the trace's id set.
        let mut ids: Vec<usize> = records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..requests).collect::<Vec<_>>());
    }

    /// Rejection happens exactly when a request's whole KV footprint
    /// exceeds the budget — never for requests that could run alone.
    #[test]
    fn rejections_are_exactly_the_oversized_requests(
        seed in 0u64..10_000,
        budget in 100usize..900,
    ) {
        let trace = workload(seed, 30, 40, false).generate();
        let config = ServingConfig::continuous(8, budget);
        let mut sim = ServingSimulator::new(LinearCostModel::default_70b(), config);
        let report = sim.run(&trace);
        let oversized = trace
            .requests()
            .iter()
            .filter(|r| r.kv_tokens_at_completion() > budget)
            .count();
        prop_assert_eq!(report.rejected, oversized);
        // Completed ids and oversized ids partition the trace.
        for r in &report.records {
            let request = trace.requests()[r.id];
            prop_assert!(request.kv_tokens_at_completion() <= budget);
        }
    }

    /// Invariant 5 at the allocator level, against a shadow reference-count
    /// model driven by a random op stream: alloc/fork/free always agree
    /// with the model, a block is never handed out twice concurrently, and
    /// releasing every outstanding reference drains the pool to zero.
    #[test]
    fn allocator_matches_a_shadow_refcount_model(
        ops in proptest::collection::vec(0u8..3, 1..120),
        total_blocks in 1usize..24,
    ) {
        let mut pool = BlockAllocator::new(4, total_blocks);
        // Outstanding references the "application" holds, as a multiset.
        let mut held: Vec<usize> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    if let Some(block) = pool.alloc() {
                        prop_assert_eq!(pool.ref_count(block), 1);
                        held.push(block);
                    } else {
                        prop_assert_eq!(pool.free_blocks(), 0, "alloc only fails when full");
                    }
                }
                1 if !held.is_empty() => {
                    let block = held[step % held.len()];
                    pool.fork(block);
                    held.push(block);
                }
                2 if !held.is_empty() => {
                    let block = held.swap_remove(step % held.len());
                    pool.free(block);
                }
                _ => {}
            }
            // The allocator's counts always agree with the shadow multiset.
            let distinct: HashSet<usize> = held.iter().copied().collect();
            prop_assert_eq!(pool.allocated_blocks(), distinct.len());
            prop_assert_eq!(pool.free_blocks(), total_blocks - distinct.len());
            for &block in &distinct {
                let expected = held.iter().filter(|&&b| b == block).count() as u32;
                prop_assert_eq!(pool.ref_count(block), expected);
            }
        }
        // Releasing every outstanding reference drains the pool.
        for block in held {
            pool.free(block);
        }
        prop_assert_eq!(pool.allocated_blocks(), 0);
        prop_assert_eq!(pool.free_blocks(), total_blocks);
    }

    /// Invariants 5 and 6 at the prefix-cache level: sequences sharing
    /// session prefixes insert and look up against one allocator; after the
    /// sequences release their references and the cache is flushed, every
    /// ref-count is zero and the pool has fully drained.
    #[test]
    fn shared_prefix_refcounts_return_to_zero_after_drain(
        sessions in 1usize..5,
        turns in 1usize..4,
        block_size in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let mut pool = BlockAllocator::new(block_size, 512);
        let mut cache = PrefixCache::new(block_size);
        let mut held: Vec<Vec<usize>> = Vec::new();
        for session in 0..sessions {
            let stream = TokenStream::session(seed ^ session as u64, 8);
            for turn in 0..turns {
                let prompt = 8 + (turn + 1) * (5 + session);
                let ids = stream.token_ids(prompt);
                // Look up the cached prefix, allocate the remainder.
                let mut blocks = cache.lookup(&ids, &mut pool);
                while blocks.len() < pool.blocks_for_tokens(prompt) {
                    blocks.push(pool.alloc().expect("512-block pool is plenty"));
                }
                cache.insert(&ids, &blocks, &mut pool);
                // Every shared block is referenced by cache + this holder.
                for &block in &blocks {
                    prop_assert!(pool.ref_count(block) >= 1);
                }
                held.push(blocks);
            }
        }
        // Sequences retire... (releases route through the cache so its
        // shared-block bookkeeping resyncs — the `PrefixCache::release`
        // contract; non-resident private blocks degrade to a plain free.)
        for blocks in held {
            for block in blocks {
                cache.release(block, &mut pool);
            }
        }
        // ...the cache still owns its resident blocks...
        prop_assert_eq!(pool.allocated_blocks(), cache.resident_blocks());
        // ...and evicting until nothing is evictable drains the pool to zero.
        while cache.evict_lru(&mut pool) {}
        prop_assert_eq!(cache.resident_blocks(), 0);
        prop_assert_eq!(pool.allocated_blocks(), 0);
        prop_assert_eq!(pool.free_blocks(), 512);
    }

    /// Invariant 7: with one-token blocks and no prefix sharing, the paged
    /// scheduler's admission gate degenerates to token-exact allocation, so
    /// it completes and rejects exactly the same request sets as the
    /// reserve-up-front scheduler (timings differ: paged admits earlier).
    #[test]
    fn paged_block_size_one_reproduces_the_reserve_up_front_completion_set(
        seed in 0u64..10_000,
        rate_x10 in 2u32..300,
        requests in 4usize..80,
        max_batch in 1usize..16,
        budget in 600usize..20_000,
    ) {
        let trace = workload(seed, rate_x10, requests, false).generate();
        let mut reserve = ServingSimulator::new(
            LinearCostModel::default_70b(),
            ServingConfig::continuous(max_batch, budget),
        );
        let reserve_report = reserve.run(&trace);
        let mut paged = ServingSimulator::new(
            LinearCostModel::default_70b(),
            ServingConfig::paged(max_batch, budget, 1),
        );
        let paged_report = paged.run(&trace);

        let ids = |records: &[RequestRecord]| -> Vec<usize> {
            records.iter().map(|r| r.id).collect()
        };
        prop_assert_eq!(ids(&reserve_report.records), ids(&paged_report.records));
        prop_assert_eq!(reserve_report.rejected, paged_report.rejected);
        prop_assert_eq!(paged_report.completed() + paged_report.rejected, requests);
    }

    /// Invariant 8: paged runs (with sharing, odd block sizes, pools small
    /// enough to force preemption) conserve requests, never over-allocate
    /// the pool, stay deterministic, and keep records physically sane.
    #[test]
    fn paged_scheduler_invariants_under_preemption(
        seed in 0u64..10_000,
        sessions in 1usize..12,
        max_batch in 1usize..16,
        blocks in 40usize..400,
        block_size in 1usize..33,
        sharing in proptest::prop::bool::ANY,
    ) {
        let spec = SharedPrefixChatSpec {
            turns_per_session: 3,
            system_prompt_tokens: 48,
            user_tokens: LengthDistribution::Uniform { min: 4, max: 40 },
            output_tokens: LengthDistribution::Uniform { min: 1, max: 48 },
            think_time_s: 4.0,
            ..SharedPrefixChatSpec::fleet(2.0, sessions, seed)
        };
        let trace = spec.generate();
        let config = ServingConfig::paged(max_batch, blocks * block_size, block_size)
            .with_prefix_sharing(sharing);
        let mut sim = ServingSimulator::new(LinearCostModel::default_70b(), config);
        let report = sim.run(&trace);

        prop_assert_eq!(report.completed() + report.rejected, trace.len());
        prop_assert_eq!(report.admitted, report.completed());
        let paged = report.paged.expect("paged run");
        prop_assert_eq!(paged.total_blocks, blocks);
        prop_assert!(paged.peak_allocated_blocks <= paged.total_blocks);
        prop_assert!(report.peak_batch <= max_batch);
        prop_assert!(!sharing || paged.cache_peak_resident_blocks <= paged.total_blocks);
        prop_assert!(paged.prefix_hit_tokens == 0 || sharing);
        for r in &report.records {
            prop_assert!(r.first_token_s > r.arrival_s);
            prop_assert!(r.completion_s >= r.first_token_s);
        }
        let mut again = ServingSimulator::new(LinearCostModel::default_70b(), config);
        prop_assert_eq!(again.run(&trace), report);
    }

    /// Invariant 9: tiered paged runs under swap-preemption pressure
    /// conserve requests, never hold more blocks in a tier than its
    /// capacity, match every swap-out with a swap-in by the time the run
    /// drains, stay deterministic, and keep records physically sane.
    #[test]
    fn tiered_swap_preemption_conserves_and_respects_tier_capacity(
        seed in 0u64..10_000,
        sessions in 2usize..10,
        max_batch in 2usize..12,
        blocks in 24usize..96,
        ddr_blocks in 0usize..192,
        disk_blocks in 0usize..192,
    ) {
        let spec = SharedPrefixChatSpec {
            turns_per_session: 2,
            system_prompt_tokens: 48,
            user_tokens: LengthDistribution::Uniform { min: 16, max: 64 },
            output_tokens: LengthDistribution::Uniform { min: 8, max: 96 },
            think_time_s: 2.0,
            ..SharedPrefixChatSpec::fleet(4.0, sessions, seed)
        };
        let trace = spec.generate();
        let block_size = 16;
        let tiers = KvTierModel {
            block_kv_bytes: 256.0 * 1024.0,
            ddr: KvTierSpec::ddr(ddr_blocks),
            disk: KvTierSpec::nvme(disk_blocks),
        };
        let config = ServingConfig::paged(max_batch, blocks * block_size, block_size)
            .with_prefix_sharing(true)
            .with_tiers(tiers);
        let mut sim = ServingSimulator::new(LinearCostModel::default_70b(), config);
        let report = sim.run(&trace);

        prop_assert_eq!(report.completed() + report.rejected, trace.len());
        prop_assert_eq!(report.admitted, report.completed());
        let paged = report.paged.expect("paged run");
        prop_assert!(paged.peak_allocated_blocks <= paged.total_blocks);
        // No tier ever exceeds its capacity — demotions and swap
        // reservations included.
        prop_assert!(paged.peak_ddr_blocks <= ddr_blocks);
        prop_assert!(paged.peak_disk_blocks <= disk_blocks);
        // Every swapped-out sequence swapped back in and retired.
        prop_assert_eq!(paged.swap_ins, paged.swap_outs);
        prop_assert!(paged.swap_outs <= paged.preemptions);
        for r in &report.records {
            prop_assert!(r.first_token_s > r.arrival_s);
            prop_assert!(r.completion_s >= r.first_token_s);
        }
        let mut again = ServingSimulator::new(LinearCostModel::default_70b(), config);
        prop_assert_eq!(again.run(&trace), report);
    }

    /// Invariant 10, the degenerate-config guarantee the subsystem's
    /// equivalence story rests on: a zero-capacity DDR tier reproduces
    /// the plain recompute-only paged run *bit for bit*, and a zero-cost
    /// (infinite-bandwidth, zero-latency) KV ship leaves every record
    /// untouched under every policy — on the paged policy only the
    /// transfer counter moves, and the reserve-up-front policies, which
    /// report no such counter, reproduce the whole report.
    #[test]
    fn degenerate_tiers_and_free_shipping_reproduce_the_plain_paged_run(
        seed in 0u64..10_000,
        sessions in 1usize..10,
        max_batch in 1usize..12,
        blocks in 24usize..160,
        sharing in proptest::prop::bool::ANY,
        policy in 0usize..3,
    ) {
        let spec = SharedPrefixChatSpec {
            turns_per_session: 2,
            ..SharedPrefixChatSpec::fleet(3.0, sessions, seed)
        };
        let trace = spec.generate();
        let block_size = 16;
        let base = ServingConfig::paged(max_batch, blocks * block_size, block_size)
            .with_prefix_sharing(sharing);
        let mut plain = ServingSimulator::new(LinearCostModel::default_70b(), base);
        let plain_report = plain.run(&trace);

        let tiered = base.with_tiers(KvTierModel::ddr_only(256.0 * 1024.0, 0));
        let mut sim = ServingSimulator::new(LinearCostModel::default_70b(), tiered);
        prop_assert_eq!(sim.run(&trace), plain_report.clone());

        let ship_base = match policy {
            0 => base,
            1 => base.with_scheduler(SchedulerKind::ContinuousBatching),
            _ => base.with_scheduler(SchedulerKind::StaticBatching),
        };
        let plain_report = if policy == 0 {
            plain_report
        } else {
            ServingSimulator::new(LinearCostModel::default_70b(), ship_base).run(&trace)
        };
        let shipped = ship_base.with_kv_ship(KvShipSpec {
            bytes_per_token: 300.0 * 1024.0,
            bandwidth_gbps: f64::INFINITY,
            latency_us: 0.0,
        });
        let mut sim = ServingSimulator::new(LinearCostModel::default_70b(), shipped);
        let ship_report = sim.run(&trace);
        prop_assert_eq!(&ship_report.records, &plain_report.records);
        prop_assert_eq!(ship_report.rejected, plain_report.rejected);
        if let Some(paged) = ship_report.paged {
            prop_assert_eq!(paged.kv_transfers, trace.len() as u64);
        } else {
            prop_assert_eq!(ship_report, plain_report);
        }
    }

    /// Invariant 12: speculation changes *when* tokens retire, never *what*
    /// is served. For any acceptance rate the completed id set, every
    /// record's token counts, and the rejection count match the plain run;
    /// at acceptance rate 1.0 every burst retires at least one token, so
    /// the burst count never exceeds the plain run's decode-step count.
    #[test]
    fn speculation_never_changes_what_is_served(
        seed in 0u64..10_000,
        rate_x10 in 2u32..300,
        requests in 4usize..60,
        max_batch in 1usize..16,
        draft_tokens in 1usize..8,
        acceptance_x100 in 0u32..=100,
        spec_seed in 0u64..1_000,
        paged in proptest::prop::bool::ANY,
    ) {
        let trace = workload(seed, rate_x10, requests, false).generate();
        let base = if paged {
            ServingConfig::paged(max_batch, 60_000, 16)
        } else {
            ServingConfig::continuous(max_batch, 60_000)
        };
        let run = |config: ServingConfig| {
            ServingSimulator::new(LinearCostModel::default_70b(), config).run(&trace)
        };
        let plain = run(base);
        let speculation =
            SpeculationSpec::new(draft_tokens, f64::from(acceptance_x100) / 100.0, spec_seed);
        let spec = run(base.with_speculation(speculation));

        prop_assert_eq!(spec.rejected, plain.rejected);
        let served = |records: &[RequestRecord]| -> Vec<(usize, usize)> {
            records.iter().map(|r| (r.id, r.output_tokens)).collect()
        };
        let mut plain_served = served(&plain.records);
        let mut spec_served = served(&spec.records);
        plain_served.sort_unstable();
        spec_served.sort_unstable();
        prop_assert_eq!(plain_served, spec_served);

        // Rate 1.0: every burst retires draft_tokens + 1, so bursts can
        // only be fewer than the plain run's one-token decode steps.
        let full = run(base.with_speculation(SpeculationSpec::new(draft_tokens, 1.0, spec_seed)));
        prop_assert!(
            full.decode_steps <= plain.decode_steps,
            "rate-1.0 bursts {} exceed plain decode steps {}",
            full.decode_steps,
            plain.decode_steps
        );
    }

    /// Invariant 13: chunk boundaries conserve prompt tokens. Every
    /// admitted prompt token passes through at least one chunk —
    /// `chunked_prefill_tokens` equals the admitted prompt total when
    /// nothing recomputes, and can only grow beyond it when
    /// preemption-by-recompute or swap-tier pressure forces a sequence's
    /// chunked prefill to restart.
    #[test]
    fn chunk_boundaries_conserve_prompt_tokens_under_preemption(
        seed in 0u64..10_000,
        rate_x10 in 5u32..300,
        requests in 4usize..48,
        max_batch in 2usize..12,
        blocks in 48usize..400,
        chunk_budget in 8usize..512,
        tiered in proptest::prop::bool::ANY,
    ) {
        let trace = workload(seed, rate_x10, requests, false).generate();
        let block_size = 16;
        let mut config = ServingConfig::paged(max_batch, blocks * block_size, block_size)
            .with_chunked_prefill(Some(chunk_budget));
        if tiered {
            config = config.with_tiers(KvTierModel {
                block_kv_bytes: 256.0 * 1024.0,
                ddr: KvTierSpec::ddr(blocks),
                disk: KvTierSpec::nvme(blocks),
            });
        }
        let report =
            ServingSimulator::new(LinearCostModel::default_70b(), config).run(&trace);
        prop_assert_eq!(report.completed() + report.rejected, requests);
        let admitted_prompt_total: u64 = report
            .records
            .iter()
            .map(|r| trace.requests()[r.id].prompt_tokens as u64)
            .sum();
        prop_assert!(
            report.chunked_prefill_tokens >= admitted_prompt_total,
            "chunked {} tokens < admitted prompt total {}",
            report.chunked_prefill_tokens,
            admitted_prompt_total
        );
        let paged = report.paged.expect("paged run");
        if paged.preemptions == 0 {
            prop_assert_eq!(report.chunked_prefill_tokens, admitted_prompt_total);
        }
        // The reserve-up-front policies never preempt: conservation is
        // exact there unconditionally.
        let reserve = ServingConfig::continuous(max_batch, blocks * block_size)
            .with_chunked_prefill(Some(chunk_budget));
        let reserve_report =
            ServingSimulator::new(LinearCostModel::default_70b(), reserve).run(&trace);
        let reserve_admitted: u64 = reserve_report
            .records
            .iter()
            .map(|r| trace.requests()[r.id].prompt_tokens as u64)
            .sum();
        prop_assert_eq!(reserve_report.chunked_prefill_tokens, reserve_admitted);
    }
}

/// Regression: on a bursty trace, the static-batching baseline's p99 tail
/// (TTFT and end-to-end) is at least as bad as continuous batching's, and
/// its SLO goodput no better. This is the motivating result of the
/// subsystem — admission at token boundaries absorbs bursts that
/// run-to-completion batching serializes.
#[test]
fn static_batching_tail_is_no_better_than_continuous_on_a_bursty_trace() {
    let trace = WorkloadSpec::bursty_chat(3.0, 240, 77).generate();
    let budget = 60_000;
    let run = |kind: SchedulerKind| {
        let config = ServingConfig::continuous(16, budget).with_scheduler(kind);
        ServingSimulator::new(LinearCostModel::default_70b(), config).run(&trace)
    };
    let continuous = run(SchedulerKind::ContinuousBatching);
    let static_ = run(SchedulerKind::StaticBatching);

    let cm = continuous.metrics();
    let sm = static_.metrics();
    assert!(
        sm.ttft.p99_s >= cm.ttft.p99_s,
        "static p99 TTFT {:.2}s vs continuous {:.2}s",
        sm.ttft.p99_s,
        cm.ttft.p99_s
    );
    assert!(
        sm.e2e.p99_s >= cm.e2e.p99_s,
        "static p99 E2E {:.2}s vs continuous {:.2}s",
        sm.e2e.p99_s,
        cm.e2e.p99_s
    );

    let slo = SloTarget {
        ttft_s: 2.0,
        tpot_s: 0.08,
    };
    let continuous_goodput = continuous.goodput_rps(&slo);
    let static_goodput = static_.goodput_rps(&slo);
    assert!(
        continuous_goodput >= static_goodput,
        "continuous goodput {continuous_goodput:.2} rps vs static {static_goodput:.2} rps"
    );
    // And the win is strict on this trace: bursts pile requests behind
    // run-to-completion batches.
    assert!(
        sm.ttft.p99_s > 1.5 * cm.ttft.p99_s,
        "expected a clear tail gap, got static {:.2}s vs continuous {:.2}s",
        sm.ttft.p99_s,
        cm.ttft.p99_s
    );
}

/// TPOT under static batching is never worse per request than under
/// continuous batching *for the same completed request population shape*:
/// static batches never take prefill interruptions mid-decode. (Sanity
/// check of the modeled trade-off rather than a universal theorem, so it
/// runs on one representative trace.)
#[test]
fn continuous_batching_trades_tpot_for_ttft_on_bursts() {
    let trace = WorkloadSpec::bursty_chat(3.0, 240, 78).generate();
    let run = |kind: SchedulerKind| {
        let config = ServingConfig::continuous(16, 60_000).with_scheduler(kind);
        ServingSimulator::new(LinearCostModel::default_70b(), config).run(&trace)
    };
    let continuous = run(SchedulerKind::ContinuousBatching);
    let static_ = run(SchedulerKind::StaticBatching);
    let mean = |records: &[RequestRecord]| {
        let sum: f64 = records.iter().map(RequestRecord::tpot_s).sum();
        sum / records.len() as f64
    };
    // Continuous decode streams are interrupted by incoming prefills, so
    // their mean TPOT is at least static's...
    assert!(mean(&continuous.records) >= mean(&static_.records));
    // ...but the TTFT win dwarfs it at the tail (checked above), which is
    // exactly the continuous-batching bet.
    assert!(continuous.metrics().ttft.p99_s <= static_.metrics().ttft.p99_s);
}
