//! Compares two benchmark baseline artifacts for drift — the CI drift
//! gate.
//!
//! ```text
//! cargo run -p deca-bench --bin bench_drift -- BASELINE CURRENT
//! ```
//!
//! Parses both documents and diffs them exactly as JSON trees: the
//! baseline reads no clock, so any difference is drift. Exits 1 with one
//! line per drifted path, and 2 with one line on a usage error or an
//! unreadable or malformed artifact.

use std::process::ExitCode;

use deca_bench::drift;
use deca_bench::json::Json;

const USAGE: &str = "usage: bench_drift BASELINE CURRENT";

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    drift::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The drift check: `Ok(true)` when the two artifacts agree on every
/// field.
fn check(baseline_path: &str, current_path: &str) -> Result<bool, String> {
    let lines = drift::diff(&load(baseline_path)?, &load(current_path)?);
    if lines.is_empty() {
        println!("no drift");
        return Ok(true);
    }
    eprintln!(
        "baseline drift detected ({} path{}):",
        lines.len(),
        if lines.len() == 1 { "" } else { "s" }
    );
    for line in &lines {
        eprintln!("  {line}");
    }
    eprintln!(
        "(if intentional, regenerate with: {})",
        deca_bench::baseline::REGENERATE_COMMAND
    );
    Ok(false)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [baseline, current] => check(baseline, current),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
