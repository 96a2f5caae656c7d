//! Host-time benchmark of the DECA reproduction: how long the Rust code
//! takes to compute the paper's modeled numbers. Modeled outputs are checked
//! for exactness, never timed. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <weights|chat_stream|tenant_capacity> --seed <n> \
//!     --seconds <s> --trace <0|1> [--record]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! without tracing, the per-layer metrics with `--trace 1`.

mod chat;
mod check;
mod serving;
mod tenant;
mod trace;
mod weights;

use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use check::Checks;
use trace::{median, Tracer};

/// The fastest pass's wall time. Contention on a shared host only ever
/// adds time, so the best pass is the steadiest estimate of the code's own
/// cost; the per-pass times are printed alongside.
fn best_wall(passes: &[Pass]) -> f64 {
    passes
        .iter()
        .map(|p| p.wall_s)
        .fold(f64::INFINITY, f64::min)
}

/// Fewest independent setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Setups repeat until together they have taken this many seconds, so a
/// set-up of a few milliseconds gets its median from hundreds of samples.
const SETUP_MIN_S: f64 = 1.0;

/// One named figure with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of the timed phases (checks and drives excluded).
    pub wall_s: f64,
    /// The workload's own throughput figures for this pass.
    pub figures: Vec<Metric>,
    /// Deterministic outputs checked against `expected.tsv`.
    pub outputs: Vec<(String, String)>,
    /// Seed-independent properties every pass must satisfy.
    pub invariants: Vec<(&'static str, bool)>,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<Metric>,
}

impl Pass {
    /// Records a deterministic output by name.
    pub fn output(&mut self, name: impl Into<String>, value: impl std::fmt::Debug) {
        self.outputs.push((name.into(), format!("{value:?}")));
    }
}

/// A benchmark workload: inputs built once by `setup`, then timed passes.
pub trait Workload {
    /// Runs one pass; fine-grained timing only when `tracer` is enabled.
    fn pass(&mut self, tracer: &mut Tracer) -> Pass;
}

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["weights", "chat_stream", "tenant_capacity"];

/// Per-layer metric names: a traced run reports every one of them (zero
/// where the workload does not exercise the layer).
const LAYER_METRICS: &[(&str, &str)] = &[
    ("compress_mb_per_s", "MB/s"),
    ("decompress_gb_per_s", "GB/s"),
    ("gemm_sim_mtiles_per_s", "Mtiles/s"),
    ("sim_sessions_per_s", "1/s"),
    ("sim_requests_per_s", "1/s"),
    ("capacity_search_s", "s"),
    ("failed_frac", "frac"),
    ("trace.overhead_s", "s"),
    ("numerics.minifloat_encode_ns", "ns"),
    ("compress.compressor.tile_us_p50", "us"),
    ("compress.compressor.tile_us_p99", "us"),
    ("compress.engine.tile_ns_p50", "ns"),
    ("compress.engine.tile_ns_p99", "ns"),
    ("compress.engine.busy_s", "s"),
    ("compress.engine.bit_exact_frac", "frac"),
    ("core.pipeline.tile_ns_p50", "ns"),
    ("core.pipeline.tile_ns_p99", "ns"),
    ("core.pipeline.vops", "count"),
    ("sim.trace.busy_s", "s"),
    ("sim.gemm.busy_s", "s"),
    ("sim.gemm.tiles", "count"),
    ("roofsurface.dse.busy_us", "us"),
    ("serve.workload.busy_s", "s"),
    ("serve.workload.next_ns", "ns"),
    ("serve.scheduler.self_s", "s"),
    ("serve.scheduler.step_gap_us_p50", "us"),
    ("serve.scheduler.step_gap_us_p99", "us"),
    ("serve.scheduler.decode_steps", "count"),
    ("serve.scheduler.prefill_steps", "count"),
    ("serve.scheduler.chunk_steps", "count"),
    ("serve.scheduler.peak_queue_depth", "count"),
    ("serve.prefix.hit_tokens", "count"),
    ("serve.prefix.uncached_tokens", "count"),
    ("serve.prefix.evictions", "count"),
    ("serve.prefix.hit_rate", "frac"),
    ("serve.prefix.reuse_frac", "frac"),
    ("serve.prefix.lookup_ns", "ns"),
    ("serve.prefix.insert_ns", "ns"),
    ("serve.prefix.evict_ns", "ns"),
    ("serve.prefix.release_ns", "ns"),
    ("serve.kv.alloc_ns", "ns"),
    ("serve.kv.free_ns", "ns"),
    ("serve.event.push_pop_ns", "ns"),
    ("serve.metrics.summary_s", "s"),
    ("serve.sweep.probes", "count"),
    ("serve.sweep.self_s", "s"),
    ("serve.cost.calls", "count"),
    ("serve.cost.busy_s", "s"),
    ("serve.cost.memo_hits", "count"),
    ("serve.cost.memo_misses", "count"),
    ("serve.cost.memo_hit_rate", "frac"),
    ("llm.estimator.next_token_us", "us"),
    ("llm.estimator.prefill_us", "us"),
    ("kernels.executor.run_us", "us"),
    ("serve.tier.demotions", "count"),
    ("serve.tier.promotions", "count"),
    ("serve.tier.swap_outs", "count"),
    ("serve.tier.swap_ins", "count"),
    ("serve.tier.peak_ddr_blocks", "count"),
    ("serve.lora.loads", "count"),
    ("serve.lora.hits", "count"),
    ("serve.lora.hit_rate", "frac"),
    ("serve.tenant.aging_promotions", "count"),
    ("serve.tenant.interactive_bypasses", "count"),
    ("serve.tenant.peak_interactive_run", "count"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut record = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        record,
    })
}

fn build(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "weights" => Box::new(weights::Weights::setup(seed)),
        "chat_stream" => Box::new(chat::ChatStream::setup(seed)),
        _ => Box::new(tenant::TenantCapacity::setup(seed)),
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-line machine and build record.
fn machine_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let avx2 = deca_compress::SimdEngine::new().uses_avx2();
    format!("{{\"nproc\":{nproc},\"avx2\":{avx2},\"profile\":\"release\"}}")
}

/// Runs passes until `seconds` have elapsed (at least one), checking each.
fn run_passes(
    workload: &mut dyn Workload,
    tracer: &mut Tracer,
    seconds: f64,
    checks: &mut Checks,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let pass = workload.pass(tracer);
        checks.check(&pass.outputs, &pass.invariants);
        passes.push(pass);
    }
    passes
}

/// Median of one named figure (or layer metric) across passes.
fn median_of(passes: &[Pass], pick: impl Fn(&Pass) -> Option<f64>) -> f64 {
    let values: Vec<f64> = passes.iter().filter_map(pick).collect();
    median(&values)
}

fn figure(passes: &[Pass], name: &str) -> Option<f64> {
    passes
        .first()?
        .figures
        .iter()
        .any(|m| m.name == name)
        .then(|| {
            median_of(passes, |p| {
                p.figures.iter().find(|m| m.name == name).map(|m| m.value)
            })
        })
}

fn print_metric(m: &Metric) {
    println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
}

/// Runs the traced passes and returns every per-layer metric: the
/// workload figures and `failed_frac` from the whole run, the layer metrics
/// as medians over the traced passes, and the tracing overhead.
fn traced_layers(
    args: &Args,
    machine: &str,
    workload: &mut dyn Workload,
    budget: f64,
    untraced: &[Pass],
    checks: &mut Checks,
) -> Vec<Metric> {
    let wall_s = best_wall(untraced);
    let run_id = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
        ^ u64::from(std::process::id()).rotate_left(32);
    let mut tracer = Tracer::enabled(run_id);
    let traced = run_passes(workload, &mut tracer, budget, checks);
    let traced_wall = best_wall(&traced);
    let mut layers: Vec<Metric> = Vec::with_capacity(LAYER_METRICS.len());
    for &(name, unit) in LAYER_METRICS {
        let value = match name {
            "failed_frac" => checks.failed_frac(),
            "trace.overhead_s" => traced_wall - wall_s,
            _ => figure(untraced, name).unwrap_or_else(|| {
                median_of(&traced, |p| {
                    p.layers.iter().find(|m| m.name == name).map(|m| m.value)
                })
            }),
        };
        layers.push(metric(name, value, unit));
    }
    println!(
        "traced passes {}: wall_s {traced_wall:.6} s traced vs {wall_s:.6} s untraced",
        traced.len()
    );
    println!("self time per layer, all traced passes:");
    for (name, seconds) in tracer.self_seconds() {
        println!("  {name:<40} {seconds:>16.6} s");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let header = format!(
        "{{\"run\":{run_id},\"workload\":\"{}\",\"seed\":{},\"machine\":{machine}}}",
        args.workload, args.seed
    );
    match tracer.write_jsonl(&path, &header) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(error) => println!("spans not written to {}: {error}", path.display()),
    }
    layers
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing a debug build (several workloads shrink under debug_assertions); build with --release");
        std::process::exit(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let machine = machine_record();
    println!("machine {machine}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );

    let mut setups = Vec::new();
    let mut workload = None;
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_MIN_S {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(build(args.workload, args.seed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one setup");
    println!("setups {}, median {:.6} s", setups.len(), median(&setups));
    let mut checks = Checks::new(args.workload, args.seed);

    if args.record {
        let pass = workload.pass(&mut Tracer::disabled());
        for (name, value) in &pass.outputs {
            println!("{}\t{}\t{name}\t{value}", args.workload, args.seed);
        }
        return;
    }

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_passes(
        workload.as_mut(),
        &mut Tracer::disabled(),
        budget,
        &mut checks,
    );
    println!(
        "passes {} untraced, seed {} in expected.tsv: {}",
        untraced.len(),
        args.seed,
        checks.pinned()
    );
    let walls: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.4}", p.wall_s))
        .collect();
    println!("pass wall_s: {}", walls.join(" "));
    println!("workload figures (untraced medians):");
    for m in &untraced[0].figures {
        let value = figure(&untraced, m.name).unwrap_or(0.0);
        print_metric(&metric(m.name, value, m.unit));
    }

    let metrics = if args.trace {
        traced_layers(
            &args,
            &machine,
            workload.as_mut(),
            budget,
            &untraced,
            &mut checks,
        )
    } else {
        vec![
            metric("setup_s", median(&setups), "s"),
            metric("wall_s", best_wall(&untraced), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    println!(
        "failed_frac {} ({} of {} checks failed)",
        checks.failed_frac(),
        checks.failed,
        checks.attempted
    );
    println!("metrics:");
    for m in &metrics {
        print_metric(m);
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
