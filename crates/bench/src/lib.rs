//! The experiment library behind every table and figure of the paper's
//! evaluation (§4.2) on the simulated machines: the parallel, cached
//! measurement [`engine`], the table protocol and rendering in
//! [`experiment`], and the oracle [`gap`] report. The `eel` CLI drives
//! it: `eel results NAME` regenerates `results/NAME.txt`, and
//! `eel experiment` runs the table protocol with every knob exposed.
//!
//! Nothing is written under `results/` except the published
//! `NAME.txt` files; runs write telemetry run reports and traces only
//! where `eel experiment --report FILE` or `--trace FILE` asks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

pub mod engine;
pub mod experiment;
pub mod gap;

/// The workspace root (two levels up from this crate's manifest).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
}
