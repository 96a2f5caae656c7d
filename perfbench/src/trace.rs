//! In-memory spans, per-layer self time, and the small statistics the
//! benchmark reports.
//!
//! Every pass runs under a [`Tracer`]. Disabled, it only times the few
//! phase-level spans a pass needs for its end-to-end figures and stores
//! nothing. Enabled, it keeps every span (name, parent, start, duration,
//! call count, and the run id shared by all spans of one process) until the
//! run ends, when [`Tracer::write_jsonl`] writes them out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One call into a layer, timed around the call.
    Call,
    /// The summed host time of many calls into one layer made inside the
    /// parent span (`count` calls; the start is the first call's).
    Aggregate,
    /// A direct drive of a layer's public API with this workload's inputs,
    /// outside the workload's own timed phases.
    Drive,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Call => "call",
            SpanKind::Aggregate => "aggregate",
            SpanKind::Drive => "drive",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Parent span (the innermost span open when this one started).
    pub parent: Option<usize>,
    /// Layer name, e.g. `compress.engine`.
    pub name: &'static str,
    /// What the span covers.
    pub kind: SpanKind,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Calls the span stands for (1 unless aggregate).
    pub count: u64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans: (span index when enabled, start instant).
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    /// A tracer that only times phases and stores no spans.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            run_id: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; every span carries `run_id`.
    pub fn enabled(run_id: u64) -> Self {
        Tracer {
            enabled: true,
            run_id,
            ..Tracer::disabled()
        }
    }

    /// Whether spans are recorded (and fine-grained timing should run).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, kind: SpanKind) {
        let start = Instant::now();
        let index = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                parent: self.open.last().map(|&(parent, _)| parent),
                name,
                kind,
                start_ns: self.since_origin(start),
                dur_ns: 0,
                count: 1,
            });
        }
        self.open.push((index, start));
    }

    /// Closes the innermost open span and returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (a bug in the benchmark).
    pub fn close(&mut self) -> f64 {
        let (index, start) = self.open.pop().expect("a span is open");
        let elapsed = start.elapsed();
        if self.enabled {
            self.spans[index].dur_ns = elapsed.as_nanos() as u64;
        }
        elapsed.as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        kind: SpanKind,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        self.open(name, kind);
        let result = f(self);
        (result, self.close())
    }

    /// Records `busy` (many calls into `name`) as one aggregate span, a
    /// child of `parent` or, if `None`, of the innermost open span. Returns
    /// the new span's index (`None` when disabled or no call ran).
    pub fn aggregate(
        &mut self,
        name: &'static str,
        busy: &Busy,
        parent: Option<usize>,
    ) -> Option<usize> {
        let first = busy.first?;
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            parent: parent.or_else(|| self.open.last().map(|&(index, _)| index)),
            name,
            kind: SpanKind::Aggregate,
            start_ns: self.since_origin(first),
            dur_ns: busy.ns,
            count: busy.calls,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time per layer name in seconds: each non-drive span's duration
    /// minus the part its children cover, summed by name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if span.kind != SpanKind::Drive {
                *by_name.entry(span.name).or_insert(0.0) +=
                    span.dur_ns.saturating_sub(children) as f64 * 1e-9;
            }
        }
        by_name
    }

    /// Writes `header` (one JSON object) and then one JSON object per span
    /// to `path`, one per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut text = String::with_capacity(128 * (self.spans.len() + 1));
        text.push_str(header);
        text.push('\n');
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"kind\":\"{}\",\
                 \"start_ns\":{},\"dur_ns\":{},\"count\":{}}}",
                self.run_id,
                span.name,
                span.kind.label(),
                span.start_ns,
                span.dur_ns,
                span.count,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Accumulates the host time of many calls for one aggregate span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    /// Start of the first call.
    pub first: Option<Instant>,
    /// Summed nanoseconds.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
}

impl Busy {
    /// Adds one call that ran from `start` to `end`.
    pub fn add(&mut self, start: Instant, end: Instant) {
        self.first.get_or_insert(start);
        self.ns += end.saturating_duration_since(start).as_nanos() as u64;
        self.calls += 1;
    }

    /// Summed seconds.
    pub fn seconds(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` in `[0, 1]` of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank quantile of integer nanosecond samples, reordering them.
pub fn quantile_ns(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(rank - 1).1 as f64
}

/// Nanoseconds between two instants.
pub fn nanos(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}
