//! The repository's benchmark: five named workloads, end-to-end and
//! per-layer metrics with bounds, and a traced run. See `README.md` in this
//! directory for what is measured and why, and `BENCHMARK.json` at the
//! repository root for the contract the driver checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod params;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

/// `benchmark/out/`: the only place the benchmark writes (result files, the
/// trace, the store probe's scratch directory). Created on first use.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}
