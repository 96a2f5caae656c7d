//! Regenerates the committed benchmark baseline.
//!
//! ```text
//! cargo run -p deca-bench --release --bin bench_baseline [OUTPUT]
//! ```
//!
//! Runs every experiment of `deca_bench::baseline::experiments` and writes
//! their modeled numbers to `BENCH_baseline.json` (or OUTPUT), one record
//! per line. The output is a pure function of the tree, so two runs write
//! byte-identical files. Any argument other than one path that does not
//! start with `-` prints a usage line and exits 2 before any experiment
//! runs.

use std::process::ExitCode;

use deca_bench::baseline;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [] => "BENCH_baseline.json",
        [path] if !path.starts_with('-') => path.as_str(),
        _ => {
            eprintln!("usage: bench_baseline [OUTPUT]");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = baseline::write_artifact(std::path::Path::new(path), &baseline::collect()) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wrote {path} ({} experiments)",
        baseline::experiments().len()
    );
    ExitCode::SUCCESS
}
