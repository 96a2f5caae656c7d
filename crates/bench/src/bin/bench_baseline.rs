//! Regenerates the committed benchmark baseline.
//!
//! ```text
//! cargo run -p deca-bench --release --bin bench_baseline [output-path]
//! ```
//!
//! Runs every experiment of `deca_bench::baseline::experiments` and writes
//! `BENCH_baseline.json` (or the given path): per-experiment wall times and
//! the modeled numbers.

use std::process::ExitCode;

use deca_bench::{baseline, drift};

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let document = baseline::collect();
    if let Err(e) = baseline::write_artifact(std::path::Path::new(&path), &document) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wrote {path} ({} experiments)",
        drift::experiment_names(&document).len()
    );
    ExitCode::SUCCESS
}
