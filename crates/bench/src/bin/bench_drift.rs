//! Compares two benchmark baseline artifacts for drift, ignoring
//! wall-clock fields — the CI drift gate.
//!
//! ```text
//! cargo run -p deca-bench --bin bench_drift -- [--experiment NAME] BASELINE CURRENT
//! cargo run -p deca-bench --bin bench_drift -- --write --experiment NAME BASELINE
//! cargo run -p deca-bench --bin bench_drift -- --list ARTIFACT...
//! ```
//!
//! Parses both documents, recursively strips every volatile field (any
//! key containing `wall`, ending in `_secs`, or in the legacy
//! machine-dependent set — see `deca_bench::drift`), and diffs the rest
//! exactly. With `--experiment NAME`, only that experiment's records are
//! compared (so a partial artifact can be checked against the full
//! committed baseline); a name neither document carries fails with the
//! available names. `--list` prints each artifact's experiment names and
//! exits. `--write --experiment NAME` re-runs only that experiment and
//! replaces its records in the baseline in place (everything else is
//! preserved byte-for-byte; `bench_baseline` rebuilds the whole
//! document). Exits 1 with one line per drifted path, and 2 with one
//! line on a usage error or an unreadable or malformed artifact.

use std::process::ExitCode;

use deca_bench::drift;
use deca_bench::json::Json;

const USAGE: &str = "usage: bench_drift [--experiment NAME] BASELINE CURRENT \
                     | --write --experiment NAME BASELINE | --list ARTIFACT...";

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    drift::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// `--list`: one line per artifact naming its experiments.
fn list(paths: &[String]) -> Result<(), String> {
    for path in paths {
        let names = drift::experiment_names(&load(path)?);
        if names.is_empty() {
            println!("{path}: no experiments");
        } else {
            println!("{path}: {}", names.join(", "));
        }
    }
    Ok(())
}

/// The records of experiment `name` in the document at `path`, or a usage
/// error naming what the document does carry.
fn select(doc: &Json, path: &str, name: &str) -> Result<Vec<Json>, String> {
    let records = drift::select_experiment(doc, name);
    if records.is_empty() {
        let available = drift::experiment_names(doc);
        return Err(if available.is_empty() {
            format!("{path} has no experiment {name:?} (document has no experiments)")
        } else {
            format!(
                "{path} has no experiment {name:?} (available: {})",
                available.join(", ")
            )
        });
    }
    Ok(records)
}

/// `--write`: re-run experiment `name` and replace its records in the
/// baseline artifact at `path`.
fn write(path: &str, name: &str) -> Result<(), String> {
    let document = deca_bench::baseline::refresh_experiment(load(path)?, name)?;
    deca_bench::baseline::write_artifact(std::path::Path::new(path), &document)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("rewrote {name} in {path}");
    Ok(())
}

/// The drift check: `Ok(true)` when the two artifacts (or one experiment's
/// records in each) agree on every modeled field.
fn check(
    baseline_path: &str,
    current_path: &str,
    experiment: Option<&str>,
) -> Result<bool, String> {
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let (left, right) = match experiment {
        Some(name) => (
            Json::Arr(select(&baseline, baseline_path, name)?),
            Json::Arr(select(&current, current_path, name)?),
        ),
        None => (baseline, current),
    };

    let lines = drift::diff(&drift::strip_volatile(left), &drift::strip_volatile(right));
    if lines.is_empty() {
        match experiment {
            Some(name) => println!("no drift in {name} (wall fields ignored)"),
            None => println!("no drift (wall fields ignored)"),
        }
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

fn run() -> Result<bool, String> {
    let mut experiment: Option<String> = None;
    let mut listing = false;
    let mut writing = false;
    let mut paths = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--experiment" {
            experiment = Some(args.next().ok_or(USAGE)?);
        } else if arg == "--list" {
            listing = true;
        } else if arg == "--write" {
            writing = true;
        } else {
            paths.push(arg);
        }
    }
    match (listing, writing, experiment.as_deref(), paths.as_slice()) {
        (true, false, None, paths) if !paths.is_empty() => list(paths).map(|()| true),
        (false, true, Some(name), [path]) => write(path, name).map(|()| true),
        (false, false, experiment, [baseline, current]) => check(baseline, current, experiment),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
