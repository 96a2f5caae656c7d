//! Regenerates the paper's tables and figures on the simulated machine.
//!
//! ```text
//! cargo run -p deca-bench --release --bin paper -- <name>|all
//! ```
//!
//! Prints one artifact of `deca_bench::experiments::ARTIFACTS` by name, or
//! every one of them with `all`. Any other argument lists the names and
//! exits 2.

use std::process::ExitCode;

use deca_bench::experiments::{all, ARTIFACTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let text = match args.as_slice() {
        [name] if name == "all" => Some(all()),
        [name] => ARTIFACTS
            .iter()
            .find(|(artifact, _)| artifact == name)
            .map(|(_, render)| render()),
        _ => None,
    };
    let Some(text) = text else {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: paper <name>|all (names: {})", names.join(", "));
        return ExitCode::from(2);
    };
    print!("{text}");
    ExitCode::SUCCESS
}
