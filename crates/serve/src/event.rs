//! The discrete-event queue driving the serving schedulers.
//!
//! The scheduler's run loop ([`crate::scheduler`]) used to advance time by
//! stepping: every iteration probed the trace for due arrivals, walked the
//! running batch, and re-derived occupancy by scanning every sequence's
//! blocks. This module replaces the *time advance* half of that loop with
//! an explicit event queue: a binary min-heap of [`Scheduled`] entries
//! ordered by firing time, with deterministic tie-breaking, over the typed
//! [`Event`]s of a serving simulation:
//!
//! * [`Event::Arrival`] — a request enters the admission queue. Arrivals
//!   are scheduled lazily (one outstanding event cursors through the
//!   sorted trace), so the heap stays O(batch) deep regardless of trace
//!   length and the old per-iteration `next_arrival` probe disappears.
//! * [`Event::StepDone`] — the engine finishes a step: a prefill wave, a
//!   decode step (a draft-and-verify burst under speculation) or a chunked
//!   batch step. These are the *batch boundaries* of iteration-level
//!   scheduling: retirement, admission, and the next step launch all
//!   happen when one fires. (A boundary that would only launch another
//!   decode step is not queued: the scheduler runs such quiet steps
//!   inline, and one completion ends the stretch.)
//! * [`Event::Preemption`] — a preempt-by-recompute victim re-enters the
//!   admission queue at the step boundary that evicted it. (Prefix-cache
//!   *eviction* itself stays synchronous inside the allocation that needs
//!   the block — it must free a block mid-step — so it needs no event.)
//!
//! # Ordering and determinism
//!
//! The heap pops strictly by `(time, event rank, sequence number)`:
//! co-timed events fire arrivals first, then preemption re-queues, then
//! step completions, and events of the same kind fire in the order they
//! were scheduled (`seq` is a monotone counter). `f64::total_cmp` makes
//! the order total even for pathological times, so two runs of the same
//! trace pop the exact same event sequence — the determinism the
//! `event_determinism` integration suite pins.

use std::collections::BinaryHeap;

/// One typed simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A request (index into the trace) reaches the server.
    Arrival {
        /// Index of the arriving request in the trace's request slice.
        request: usize,
    },
    /// A request's shipped KV finishes crossing the interconnect (the
    /// disaggregated mode's prefill → decode transfer,
    /// [`crate::KvShipSpec`]); the request becomes admissible.
    KvTransferDone {
        /// Index of the request in the trace's request slice.
        request: usize,
    },
    /// A preempted request re-enters the admission queue (at the front:
    /// preempted work outranks new arrivals).
    Preemption {
        /// Index of the preempted request in the trace's request slice.
        request: usize,
    },
    /// A swap-preempted victim's KV finishes writing out to a lower tier
    /// ([`crate::KvTierModel`]); the victim re-enters the admission queue
    /// (at the front, like a recompute preemption).
    SwapOutDone {
        /// Index of the swapped-out request in the trace's request slice.
        request: usize,
    },
    /// A re-admitted victim's KV finishes reading back into HBM; its
    /// decode resumes from the context it was preempted at.
    SwapInDone {
        /// Index of the swapped-in request in the trace's request slice.
        request: usize,
    },
    /// The engine finished a step (a batch boundary): a prefill wave, one
    /// decode step (a draft-and-verify burst under speculative decoding),
    /// or a chunked batch step — the prefill chunks of a
    /// [`crate::cost::StepMix`] plus the decode batch that ran with them.
    StepDone,
}

impl Event {
    /// Tie-break rank among co-timed events: arrivals (and arrival-like
    /// KV-transfer landings) fire before preemption-class re-queues
    /// (recompute victims, swap I/O completions), which fire before step
    /// completions — so by the time a boundary is processed, the
    /// admission queue already holds everything that reached the server
    /// at that instant.
    #[must_use]
    pub fn rank(&self) -> u8 {
        match self {
            Event::Arrival { .. } | Event::KvTransferDone { .. } => 0,
            Event::Preemption { .. } | Event::SwapOutDone { .. } | Event::SwapInDone { .. } => 1,
            Event::StepDone => 2,
        }
    }
}

/// An [`Event`] scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    /// Absolute firing time, seconds from trace start.
    pub at_s: f64,
    /// Monotone scheduling counter — the deterministic tie-break among
    /// co-timed events of equal rank.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl Scheduled {
    /// The heap key: earliest time first, then lowest rank, then lowest
    /// sequence number. Total even for NaN times via `f64::total_cmp`.
    fn key_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at_s
            .total_cmp(&other.at_s)
            .then_with(|| self.event.rank().cmp(&other.event.rank()))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    // Reversed: `BinaryHeap` is a max-heap, and we want the earliest
    // (time, rank, seq) key on top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key_cmp(self)
    }
}

/// A deterministic discrete-event queue: a binary min-heap over
/// [`Scheduled`] events with push/pop in O(log n).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at absolute time `at_s`, assigning the next
    /// sequence number (so equal-time, equal-rank events fire in
    /// scheduling order).
    pub fn push(&mut self, at_s: f64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at_s, seq, event });
    }

    /// Pops the earliest event, or `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop()
    }

    /// Pops the earliest event only if it fires at or before `at_s` —
    /// the co-timed drain a step boundary performs before admitting.
    pub fn pop_due(&mut self, at_s: f64) -> Option<Scheduled> {
        if self.heap.peek()?.at_s <= at_s {
            self.heap.pop()
        } else {
            None
        }
    }

    /// The earliest scheduled event, without popping it.
    #[must_use]
    pub fn peek(&self) -> Option<&Scheduled> {
        self.heap.peek()
    }

    /// Scheduled events currently in the queue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, Event::StepDone);
        q.push(1.0, Event::Arrival { request: 0 });
        q.push(2.0, Event::StepDone);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|s| s.at_s).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn co_timed_events_fire_arrivals_then_preemptions_then_step_ends() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::StepDone);
        q.push(1.0, Event::Preemption { request: 7 });
        q.push(1.0, Event::Arrival { request: 3 });
        assert_eq!(q.pop().unwrap().event, Event::Arrival { request: 3 });
        assert_eq!(q.pop().unwrap().event, Event::Preemption { request: 7 });
        assert_eq!(q.pop().unwrap().event, Event::StepDone);
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_time_equal_rank_ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        for request in 0..100 {
            q.push(5.0, Event::Arrival { request });
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                Event::Arrival { request } => request,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn swap_and_transfer_events_rank_with_their_class() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::StepDone);
        q.push(1.0, Event::SwapInDone { request: 4 });
        q.push(1.0, Event::SwapOutDone { request: 2 });
        q.push(1.0, Event::KvTransferDone { request: 9 });
        q.push(1.0, Event::Arrival { request: 1 });
        // Arrival-class first (scheduling order within the class), then
        // the preemption class, then the step end.
        assert_eq!(q.pop().unwrap().event, Event::KvTransferDone { request: 9 });
        assert_eq!(q.pop().unwrap().event, Event::Arrival { request: 1 });
        assert_eq!(q.pop().unwrap().event, Event::SwapInDone { request: 4 });
        assert_eq!(q.pop().unwrap().event, Event::SwapOutDone { request: 2 });
        assert_eq!(q.pop().unwrap().event, Event::StepDone);
    }

    #[test]
    fn pop_due_drains_only_up_to_the_given_instant() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::Arrival { request: 0 });
        q.push(1.0, Event::Arrival { request: 1 });
        q.push(2.0, Event::Arrival { request: 2 });
        assert!(q.pop_due(0.5).is_none());
        assert_eq!(q.pop_due(1.0).unwrap().event, Event::Arrival { request: 0 });
        assert_eq!(q.pop_due(1.0).unwrap().event, Event::Arrival { request: 1 });
        assert!(q.pop_due(1.0).is_none());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek().unwrap().at_s, 2.0);
    }
}
