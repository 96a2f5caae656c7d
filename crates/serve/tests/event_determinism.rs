//! Determinism of the discrete-event core, through the public API only.
//!
//! The event queue orders co-timed events by `(time, event rank,
//! scheduling sequence number)` — a total, run-independent order — so two
//! simulations of the same trace must pop the identical event sequence
//! and produce byte-identical reports (`ServingReport: PartialEq`), on
//! every policy, even when the trace is engineered so that many events
//! collide at the same instant.

use deca_serve::{
    AdapterId, Event, EventQueue, LinearCostModel, QosClass, Request, RequestTrace, ServingConfig,
    ServingSimulator, SharedPrefixChatSpec, TokenStream,
};

/// Heap tie-breaking is stable: co-timed events pop by rank (arrivals,
/// then preemption re-queues, then step completions), and equal-rank
/// events pop in scheduling order — on every run, regardless of push
/// interleaving.
#[test]
fn heap_tie_breaking_is_stable_across_runs() {
    let pop_order = |preemption_first: bool| -> Vec<(f64, u64)> {
        let mut q = EventQueue::new();
        // Two co-timed batches at t = 1.0 and t = 2.0, pushed in varying
        // interleavings; `seq` records true scheduling order.
        if preemption_first {
            q.push(1.0, Event::Preemption { request: 9 });
            q.push(2.0, Event::StepDone);
            q.push(1.0, Event::Arrival { request: 0 });
            q.push(1.0, Event::Arrival { request: 1 });
            q.push(2.0, Event::Arrival { request: 2 });
            q.push(1.0, Event::StepDone);
        } else {
            q.push(1.0, Event::Arrival { request: 0 });
            q.push(1.0, Event::StepDone);
            q.push(2.0, Event::Arrival { request: 2 });
            q.push(1.0, Event::Preemption { request: 9 });
            q.push(1.0, Event::Arrival { request: 1 });
            q.push(2.0, Event::StepDone);
        }
        std::iter::from_fn(|| q.pop())
            .map(|s| (s.at_s, u64::from(s.event.rank())))
            .collect()
    };
    // Both interleavings drain in the same (time, rank) order...
    let a = pop_order(true);
    let b = pop_order(false);
    assert_eq!(a, b);
    // ...which is: t=1 arrivals, t=1 preemption, t=1 step end, then t=2.
    assert_eq!(
        a,
        vec![(1.0, 0), (1.0, 0), (1.0, 1), (1.0, 2), (2.0, 0), (2.0, 2)]
    );
}

/// Equal-rank, equal-time events preserve scheduling order even at scale
/// (a heap sift could silently reorder them if `seq` were not in the
/// comparison key).
#[test]
fn co_timed_arrivals_pop_in_scheduling_order() {
    let mut q = EventQueue::new();
    for request in 0..1_000 {
        q.push(0.25, Event::Arrival { request });
    }
    let order: Vec<usize> = std::iter::from_fn(|| q.pop())
        .map(|s| match s.event {
            Event::Arrival { request } => request,
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(order, (0..1_000).collect::<Vec<_>>());
}

/// A trace where every request arrives at the same instant — the maximal
/// event collision — simulates identically on repeated runs, for all
/// three policies (the paged one with a pool small enough to preempt).
#[test]
fn co_timed_arrival_traces_are_deterministic_on_every_policy() {
    let requests: Vec<Request> = (0..40)
        .map(|id| Request {
            id,
            arrival_s: 3.0, // all at once
            prompt_tokens: 48 + (id % 7) * 16,
            output_tokens: 8 + (id % 5) * 24,
            stream: TokenStream::unique(id),
            qos: if id % 3 == 0 {
                QosClass::Batch
            } else {
                QosClass::Interactive
            },
            adapter: AdapterId::BASE,
        })
        .collect();
    let trace = RequestTrace::new(requests);
    for config in [
        ServingConfig::continuous(16, 30_000),
        ServingConfig::static_batching(16, 30_000),
        ServingConfig::paged(16, 2_048, 16),
        ServingConfig::paged(16, 2_048, 16).with_prefix_sharing(true),
    ] {
        let run = || ServingSimulator::new(LinearCostModel::default_70b(), config).run(&trace);
        let first = run();
        assert_eq!(first, run(), "{} rerun diverged", config.scheduler);
        assert_eq!(first.completed() + first.rejected, trace.len());
        if config.scheduler == deca_serve::SchedulerKind::PagedContinuous {
            assert!(
                first.paged.expect("paged stats").preemptions > 0,
                "pool sized to exercise the preemption event path"
            );
        }
    }
}

/// The shared-prefix conversation workload — arrivals, cache hits,
/// evictions, preemptions all interleaving — stays deterministic
/// end to end.
#[test]
fn shared_prefix_serving_is_deterministic() {
    let trace = SharedPrefixChatSpec::fleet(4.0, 30, 23).generate();
    let config = ServingConfig::paged(12, 12_000, 16).with_prefix_sharing(true);
    let run = || ServingSimulator::new(LinearCostModel::default_70b(), config).run(&trace);
    let first = run();
    assert_eq!(first, run());
    assert_eq!(first, run(), "third run too");
    assert!(first.paged.expect("paged stats").prefix_hit_tokens > 0);
}
