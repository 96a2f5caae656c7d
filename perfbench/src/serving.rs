//! Instrumentation of the `deca-serve` layers from outside: a cost-model
//! wrapper, a request-iterator wrapper, and drives of the public
//! `PrefixCache`, `BlockAllocator` and `EventQueue` APIs fed with a
//! workload's own token streams and arrival times.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use deca_serve::{
    BlockAllocator, ChunkWork, EstimatorCostModel, Event, EventQueue, LinearCostModel, PrefixCache,
    Request, ServingConfig, ServingCostModel, ServingReport, ServingSimulator, StepMix,
};

use crate::trace::{nanos, quantile_ns, Busy, SpanKind, Tracer};
use crate::{metric, Metric};

/// Cost models whose memo misses the wrapper can observe.
pub trait MemoMisses {
    /// Queries that ran the estimator so far.
    fn memo_misses(&self) -> u64;
}

impl MemoMisses for LinearCostModel {
    fn memo_misses(&self) -> u64 {
        0
    }
}

impl MemoMisses for EstimatorCostModel {
    fn memo_misses(&self) -> u64 {
        self.memo_stats().misses
    }
}

/// Host time of cost-model calls, shared by a [`TimedCost`] and its clones.
#[derive(Debug, Default)]
pub struct CostLog {
    /// Every call.
    pub calls: Busy,
    /// Calls during which the memo missed (the estimator ran).
    pub misses: Busy,
    /// Host nanoseconds from the end of one call to the start of the next:
    /// the scheduler's own work between two pricing calls.
    pub gaps_ns: Vec<u64>,
    /// End of the latest call.
    pub last_exit: Option<Instant>,
}

/// A [`ServingCostModel`] that forwards every query unchanged to `inner`
/// and logs its host time, so answers (and hence every report) are
/// bit-identical to the unwrapped model's.
#[derive(Debug, Clone)]
pub struct TimedCost<C> {
    inner: C,
    log: Rc<RefCell<CostLog>>,
}

impl<C: MemoMisses> TimedCost<C> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: C, log: Rc<RefCell<CostLog>>) -> Self {
        TimedCost { inner, log }
    }

    /// The wrapped model.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn time(&mut self, query: impl FnOnce(&mut C) -> f64) -> f64 {
        let enter = Instant::now();
        let misses = self.inner.memo_misses();
        let seconds = query(&mut self.inner);
        let missed = self.inner.memo_misses() > misses;
        let exit = Instant::now();
        let mut log = self.log.borrow_mut();
        if let Some(last) = log.last_exit {
            log.gaps_ns.push(nanos(last, enter));
        }
        log.calls.add(enter, exit);
        if missed {
            log.misses.add(enter, exit);
        }
        log.last_exit = Some(exit);
        seconds
    }
}

impl<C: ServingCostModel + MemoMisses> ServingCostModel for TimedCost<C> {
    fn prefill_seconds(&mut self, prompt_tokens: usize) -> f64 {
        self.time(|c| c.prefill_seconds(prompt_tokens))
    }

    fn decode_step_seconds(&mut self, batch: usize, max_context_tokens: usize) -> f64 {
        self.time(|c| c.decode_step_seconds(batch, max_context_tokens))
    }

    fn prefill_seconds_cached(&mut self, prompt_tokens: usize, cached_prefix_tokens: usize) -> f64 {
        self.time(|c| c.prefill_seconds_cached(prompt_tokens, cached_prefix_tokens))
    }

    fn chunk_seconds(&mut self, chunk: ChunkWork) -> f64 {
        self.time(|c| c.chunk_seconds(chunk))
    }

    fn step_seconds(&mut self, mix: &StepMix) -> f64 {
        self.time(|c| c.step_seconds(mix))
    }

    fn speculative_burst_seconds(
        &mut self,
        draft_tokens: usize,
        batch: usize,
        max_context_tokens: usize,
    ) -> f64 {
        self.time(|c| c.speculative_burst_seconds(draft_tokens, batch, max_context_tokens))
    }

    fn adapter_load_seconds(&mut self, weight_tokens: usize) -> f64 {
        self.time(|c| c.adapter_load_seconds(weight_tokens))
    }
}

/// What a [`TimedIter`] saw.
#[derive(Debug, Default)]
pub struct IterLog {
    /// Host time inside `next`.
    pub next: Busy,
    /// Prompt tokens of every request handed out.
    pub prompt_tokens: u64,
}

/// Times every `next` of a request source.
#[derive(Debug)]
pub struct TimedIter<I> {
    inner: I,
    log: Rc<RefCell<IterLog>>,
}

impl<I: Iterator<Item = Request>> Iterator for TimedIter<I> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let start = Instant::now();
        let request = self.inner.next();
        let end = Instant::now();
        let mut log = self.log.borrow_mut();
        log.next.add(start, end);
        if let Some(r) = &request {
            log.prompt_tokens += r.prompt_tokens as u64;
        }
        request
    }
}

/// One serving run: its report and, when traced, the call logs.
pub struct Run {
    /// The run's report (identical with and without tracing).
    pub report: ServingReport,
    /// Host seconds of the whole run.
    pub run_s: f64,
    /// Cost-model calls (empty when untraced).
    pub cost: CostLog,
    /// Request-source calls (empty when untraced).
    pub source: IterLog,
}

/// Runs `requests` through one replica inside a `serve.scheduler` span.
/// When `tracer` is enabled, both wrappers are in place and the span gets
/// the aggregate children `serve.workload`, `serve.cost` and (for memo
/// misses) `llm.estimator`.
pub fn simulate<C, I>(tracer: &mut Tracer, cost: C, config: ServingConfig, requests: I) -> Run
where
    C: ServingCostModel + MemoMisses,
    I: Iterator<Item = Request>,
{
    if !tracer.is_enabled() {
        let (report, run_s) = tracer.timed("serve.scheduler", SpanKind::Call, |_| {
            ServingSimulator::new(cost, config).run_streamed(requests)
        });
        return Run {
            report,
            run_s,
            cost: CostLog::default(),
            source: IterLog::default(),
        };
    }
    let cost_log = Rc::new(RefCell::new(CostLog::default()));
    let source_log = Rc::new(RefCell::new(IterLog::default()));
    let timed_cost = TimedCost::new(cost, Rc::clone(&cost_log));
    let source = TimedIter {
        inner: requests,
        log: Rc::clone(&source_log),
    };
    tracer.open("serve.scheduler", SpanKind::Call);
    let report = ServingSimulator::new(timed_cost, config).run_streamed(source);
    let source = source_log.take();
    let cost = cost_log.take();
    tracer.aggregate("serve.workload", &source.next, None);
    let cost_span = tracer.aggregate("serve.cost", &cost.calls, None);
    tracer.aggregate("llm.estimator", &cost.misses, cost_span);
    let run_s = tracer.close();
    Run {
        report,
        run_s,
        cost,
        source,
    }
}

/// Per-layer metrics of one traced serving run (chat or RAG).
pub fn run_layers(run: &mut Run, summary_s: f64, block_size: usize) -> Vec<Metric> {
    let report = &run.report;
    let paged = report
        .paged
        .as_ref()
        .expect("a paged replica reports paged stats");
    let promoted_tokens = paged.tier_promotions * block_size as u64;
    let reuse_frac = if run.source.prompt_tokens == 0 {
        0.0
    } else {
        (paged.prefix_hit_tokens + promoted_tokens) as f64 / run.source.prompt_tokens as f64
    };
    let gap_p50 = quantile_ns(&mut run.cost.gaps_ns, 0.50) * 1e-3;
    let gap_p99 = quantile_ns(&mut run.cost.gaps_ns, 0.99) * 1e-3;
    vec![
        metric("serve.workload.busy_s", run.source.next.seconds(), "s"),
        metric("serve.workload.next_ns", run.source.next.mean_ns(), "ns"),
        metric(
            "serve.scheduler.self_s",
            run.run_s - run.source.next.seconds() - run.cost.calls.seconds(),
            "s",
        ),
        metric("serve.scheduler.step_gap_us_p50", gap_p50, "us"),
        metric("serve.scheduler.step_gap_us_p99", gap_p99, "us"),
        metric(
            "serve.scheduler.decode_steps",
            report.decode_steps as f64,
            "count",
        ),
        metric(
            "serve.scheduler.prefill_steps",
            report.prefill_steps as f64,
            "count",
        ),
        metric(
            "serve.scheduler.chunk_steps",
            report.chunk_steps as f64,
            "count",
        ),
        metric(
            "serve.scheduler.peak_queue_depth",
            report.peak_queue_depth as f64,
            "count",
        ),
        metric(
            "serve.prefix.hit_tokens",
            paged.prefix_hit_tokens as f64,
            "count",
        ),
        metric(
            "serve.prefix.uncached_tokens",
            paged.prefix_uncached_tokens as f64,
            "count",
        ),
        metric(
            "serve.prefix.evictions",
            paged.cache_evictions as f64,
            "count",
        ),
        metric("serve.prefix.hit_rate", paged.prefix_hit_rate(), "frac"),
        metric("serve.prefix.reuse_frac", reuse_frac, "frac"),
        metric("serve.metrics.summary_s", summary_s, "s"),
    ]
}

/// A workload's own requests with the token ids of their full transcripts
/// (prompt and output) materialized: the input of [`drive_layers`].
pub struct DriveInputs {
    requests: Vec<Request>,
    /// Transcript token ids of every request, back to back.
    tokens: Vec<u64>,
}

impl DriveInputs {
    /// Materializes the transcripts of `requests`.
    pub fn new(requests: impl Iterator<Item = Request>) -> Self {
        let requests: Vec<Request> = requests.collect();
        let total = requests.iter().map(Request::kv_tokens_at_completion).sum();
        let mut tokens = Vec::with_capacity(total);
        for request in &requests {
            tokens
                .extend((0..request.kv_tokens_at_completion()).map(|p| request.stream.token_id(p)));
        }
        DriveInputs { requests, tokens }
    }
}

/// Drives the public `PrefixCache`, `BlockAllocator` and `EventQueue` APIs
/// with `requests` (a workload's own arrivals and token streams) on a pool
/// of `config`'s geometry, and reports nanoseconds per operation: per call
/// for a lookup or an insert (one request's prompt or transcript), per
/// block for an eviction, a release, an allocation or a free, and per
/// request for an event push and pop.
///
/// Each request looks up its prompt, allocates blocks for the rest of its
/// transcript (evicting LRU leaves when the pool runs dry), inserts the
/// transcript and releases its own references; separately, each request's
/// blocks are allocated and freed in arrival order with at most
/// `config.max_batch` sequences live, and its arrival is pushed through an
/// event queue held at that depth.
pub fn drive_layers(
    tracer: &mut Tracer,
    config: &ServingConfig,
    inputs: &DriveInputs,
) -> Vec<Metric> {
    let requests = &inputs.requests;
    let block_size = config.block_size;
    let total_blocks = config.kv_budget_tokens / block_size;
    let (mut lookup, mut insert, mut evict, mut release) = (
        Busy::default(),
        Busy::default(),
        Busy::default(),
        Busy::default(),
    );
    tracer.open("serve.prefix", SpanKind::Drive);
    let mut cache = PrefixCache::new(block_size);
    let mut pool = BlockAllocator::new(block_size, total_blocks);
    let mut blocks = Vec::new();
    let mut released = 0u64;
    let mut offset = 0;
    for request in requests {
        let transcript = request.kv_tokens_at_completion();
        let tokens = &inputs.tokens[offset..offset + transcript];
        offset += transcript;
        let start = Instant::now();
        blocks = cache.lookup(&tokens[..request.prompt_tokens], &mut pool);
        lookup.add(start, Instant::now());
        let needed = pool.blocks_for_tokens(transcript);
        if needed > total_blocks {
            for &block in &blocks {
                cache.release(block, &mut pool);
            }
            continue;
        }
        while blocks.len() < needed {
            if let Some(block) = pool.alloc() {
                blocks.push(block);
                continue;
            }
            let start = Instant::now();
            let evicted = cache.evict_lru(&mut pool);
            evict.add(start, Instant::now());
            assert!(evicted, "a pool holding no live sequence can always evict");
        }
        let start = Instant::now();
        cache.insert(tokens, &blocks, &mut pool);
        insert.add(start, Instant::now());
        let start = Instant::now();
        for &block in &blocks {
            cache.release(block, &mut pool);
        }
        release.add(start, Instant::now());
        released += blocks.len() as u64;
    }
    drop(blocks);
    tracer.close();

    let (mut alloc, mut free) = (Busy::default(), Busy::default());
    let (mut alloc_ops, mut free_ops) = (0u64, 0u64);
    tracer.open("serve.kv", SpanKind::Drive);
    let mut pool = BlockAllocator::new(block_size, total_blocks);
    let mut live: std::collections::VecDeque<Vec<usize>> = std::collections::VecDeque::new();
    for request in requests {
        let needed = pool.blocks_for_tokens(request.kv_tokens_at_completion());
        if needed > total_blocks {
            continue;
        }
        while live.len() >= config.max_batch || pool.free_blocks() < needed {
            let sequence = live.pop_front().expect("a full pool holds a live sequence");
            let start = Instant::now();
            for &block in &sequence {
                pool.free(block);
            }
            free.add(start, Instant::now());
            free_ops += sequence.len() as u64;
        }
        let mut sequence = Vec::with_capacity(needed);
        let start = Instant::now();
        for _ in 0..needed {
            sequence.push(pool.alloc().expect("room was made above"));
        }
        alloc.add(start, Instant::now());
        alloc_ops += needed as u64;
        live.push_back(sequence);
    }
    tracer.close();

    tracer.open("serve.event", SpanKind::Drive);
    let mut queue = EventQueue::new();
    let start = Instant::now();
    for (index, request) in requests.iter().enumerate() {
        queue.push(request.arrival_s, Event::Arrival { request: index });
        if queue.len() > config.max_batch {
            std::hint::black_box(queue.pop());
        }
    }
    while let Some(event) = queue.pop() {
        std::hint::black_box(event);
    }
    let event_ns = nanos(start, Instant::now());
    tracer.close();

    let per_op = |busy: &Busy, ops: u64| {
        if ops == 0 {
            0.0
        } else {
            busy.ns as f64 / ops as f64
        }
    };
    vec![
        metric("serve.prefix.lookup_ns", lookup.mean_ns(), "ns"),
        metric("serve.prefix.insert_ns", insert.mean_ns(), "ns"),
        metric("serve.prefix.evict_ns", evict.mean_ns(), "ns"),
        metric("serve.prefix.release_ns", per_op(&release, released), "ns"),
        metric("serve.kv.alloc_ns", per_op(&alloc, alloc_ops), "ns"),
        metric("serve.kv.free_ns", per_op(&free, free_ops), "ns"),
        metric(
            "serve.event.push_pop_ns",
            event_ns as f64 / requests.len().max(1) as f64,
            "ns",
        ),
    ]
}

/// Deterministic outputs shared by every serving run a workload checks.
pub fn run_outputs(pass: &mut crate::Pass, prefix: &str, report: &ServingReport) {
    pass.output(format!("{prefix}.completed"), report.completed());
    pass.output(format!("{prefix}.makespan_s"), report.makespan_s);
    pass.output(format!("{prefix}.decode_steps"), report.decode_steps);
    pass.output(format!("{prefix}.prefill_steps"), report.prefill_steps);
    pass.output(
        format!("{prefix}.prefix_hit_tokens"),
        report.paged.as_ref().map_or(0, |p| p.prefix_hit_tokens),
    );
}
