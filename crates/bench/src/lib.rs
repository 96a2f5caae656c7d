//! Experiment harness for the DECA reproduction.
//!
//! Each table and figure of the paper's evaluation has a function in
//! [`experiments`], named in [`experiments::ARTIFACTS`], that regenerates
//! the same rows/series on the simulated machine; the `paper` binary prints
//! one by name. The README's "Regenerating paper artifacts" section maps
//! paper artifacts to these names; [`baseline`] pins the modeled numbers
//! and the printed artifacts in `BENCH_baseline.json`, a pure function of
//! the tree (no clock is read), and [`drift`] diffs two such files
//! exactly.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p deca-bench --release --bin paper -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod drift;
pub mod experiments;
pub mod json;
pub mod report;

pub use report::TextTable;
