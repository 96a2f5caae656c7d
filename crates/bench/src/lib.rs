//! Experiment harness for the DECA reproduction.
//!
//! Each table and figure of the paper's evaluation has a function in
//! [`experiments`] (and a matching binary under `src/bin/`) that regenerates
//! the same rows/series on the simulated machine. The README's
//! "Regenerating paper artifacts" section maps paper artifacts to these
//! binaries; [`baseline`] pins the modeled numbers in
//! `BENCH_baseline.json`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p deca-bench --release --bin all_experiments
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod drift;
pub mod experiments;
pub mod json;
pub mod report;

pub use report::TextTable;
