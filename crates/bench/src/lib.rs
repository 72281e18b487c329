//! # snn-bench
//!
//! Experiment harnesses that regenerate every table of the paper's
//! evaluation section, plus Criterion micro-benchmarks for the simulator
//! itself.
//!
//! Each table has a binary that prints the regenerated rows:
//!
//! * `cargo run -p snn-bench --release --bin table1` — accuracy and latency
//!   versus spike-train length (Table I).
//! * `cargo run -p snn-bench --release --bin table2` — latency, power and
//!   resources versus the number of convolution units (Table II).
//! * `cargo run -p snn-bench --release --bin table3` — the cross-accelerator
//!   comparison including LeNet-5, the CNN of Fang et al. and VGG-11
//!   (Table III).
//!
//! The building blocks live in [`experiments`] so integration tests can
//! assert the trends without shelling out to the binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod openloop;
pub mod phases;
pub mod serve_sweep;
pub mod trend;
pub mod workloads;

use std::path::{Path, PathBuf};

/// Where the criterion harnesses write their `BENCH_*.json` summary
/// `file`: the workspace root when `CARGO_MANIFEST_DIR` is set at run time
/// (`cargo bench` sets it to this package's directory), the current
/// directory otherwise.  Resolved at run time, so a bench binary run from
/// a copied target directory never writes into the tree it was built from.
pub fn bench_output_path(file: &str) -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => Path::new(&dir).join("../..").join(file),
        None => PathBuf::from(file),
    }
}
