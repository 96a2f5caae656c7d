//! Output checks: every pass's deterministic outputs against the values the
//! benchmark keeps in `expected.tsv`, plus seed-independent invariants.
//!
//! `expected.tsv` pins the outputs of a fixed set of seeds (one
//! `workload<TAB>seed<TAB>name<TAB>value` line each; regenerate a seed's
//! lines with `--record`). On a seed it does not pin, the first pass's
//! outputs become the expectation and every later pass must repeat them
//! exactly. A change meant only for speed leaves every output identical.

use std::collections::BTreeMap;

const EXPECTED: &str = include_str!("../expected.tsv");

/// Check state of one run.
#[derive(Debug)]
pub struct Checks {
    workload: String,
    seed: u64,
    /// Expected outputs; `None` until the first pass of an unpinned seed.
    expected: Option<BTreeMap<String, String>>,
    pinned: bool,
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Loads the pinned outputs of `workload` at `seed`, if any.
    pub fn new(workload: &str, seed: u64) -> Self {
        let pinned: BTreeMap<String, String> = EXPECTED
            .lines()
            .filter_map(|line| {
                let mut fields = line.split('\t');
                let (w, s, name, value) = (
                    fields.next()?,
                    fields.next()?,
                    fields.next()?,
                    fields.next()?,
                );
                (w == workload && s.parse::<u64>().ok()? == seed)
                    .then(|| (name.to_string(), value.to_string()))
            })
            .collect();
        let is_pinned = !pinned.is_empty();
        Checks {
            workload: workload.to_string(),
            seed,
            expected: is_pinned.then_some(pinned),
            pinned: is_pinned,
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether `expected.tsv` pins this seed.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    fn fail(&mut self, message: &str) {
        self.failed += 1;
        println!(
            "check failed: {} seed {}: {message}",
            self.workload, self.seed
        );
    }

    /// Checks one pass's outputs and invariants, printing every mismatch.
    pub fn check(&mut self, outputs: &[(String, String)], invariants: &[(&'static str, bool)]) {
        for &(name, holds) in invariants {
            self.attempted += 1;
            if !holds {
                self.fail(&format!("invariant {name} does not hold"));
            }
        }
        let Some(expected) = self.expected.take() else {
            // First pass of an unpinned seed: it defines the expectation
            // that every later pass is checked against.
            self.expected = Some(outputs.iter().cloned().collect());
            return;
        };
        for (name, value) in outputs {
            self.attempted += 1;
            match expected.get(name) {
                Some(want) if want == value => {}
                Some(want) => self.fail(&format!("{name} = {value}, expected {want}")),
                None => self.fail(&format!("{name} = {value} has no expected value")),
            }
        }
        for name in expected.keys() {
            if !outputs.iter().any(|(n, _)| n == name) {
                self.attempted += 1;
                self.fail(&format!("{name} was not produced"));
            }
        }
        self.expected = Some(expected);
    }

    /// Failed checks over checks attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
