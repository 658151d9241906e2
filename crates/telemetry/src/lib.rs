//! First-class telemetry for the reproduction harness: every run a
//! structured, diffable, regression-gated artifact.
//!
//! The paper's argument is quantitative — hidden instrumentation
//! cycles, stall counts, schedule quality — so the harness measures
//! itself with the same discipline it applies to the workloads. This
//! crate is the dependency-free substrate the rest of the workspace
//! threads through its stages:
//!
//! * [`Counter`] — a relaxed atomic count of deterministic work;
//! * [`Registry`] — a named home for counters, shared freely across
//!   threads, snapshotted into deterministic `BTreeMap`-ordered
//!   [`Snapshot`]s, optionally carrying a [`Tracer`];
//! * [`report::RunReport`] — the versioned machine-readable run
//!   report (JSON, schema `eel-run-report` version 1): metadata,
//!   per-stage wall time and counters, with rendering, parsing, and
//!   [`report::RunReport::diff`];
//! * [`json`] — the minimal hand-rolled JSON reader/writer behind the
//!   report (the workspace has no serde);
//! * [`trace`] — the flight recorder: bounded rings of timestamped
//!   structured events, serialized traces (`eel-trace` JSONL), and the
//!   shared Chrome trace-event writer.
//!
//! The registry counts and the flight recorder times: a counter
//! totals work, which is equal across runs and `--jobs` values, and
//! durations are trace spans. The one wall-time total a run report
//! carries, per engine stage, is summed by the engine itself.
//!
//! # A handle, not a type parameter
//!
//! Instrumented code takes `Option<&Registry>`: `None` records
//! nothing; `Some` records counters, and trace events as well when
//! the registry carries a [`Tracer`] ([`Registry::with_tracer`]). Each
//! instrumented path is compiled once. A runtime check is enough
//! because no site records per instruction or per stall query: every
//! site records once per block, run, stage or cell, and per-event
//! totals are summed in locals and recorded once. (Stall attribution
//! in `eel-pipeline` is a separate call, not a telemetry setting.)
//!
//! ```
//! use eel_telemetry::Registry;
//!
//! fn work(telemetry: Option<&Registry>) -> u64 {
//!     let result = 6 * 7;
//!     if let Some(reg) = telemetry {
//!         reg.add("work.calls", 1);
//!     }
//!     result
//! }
//!
//! assert_eq!(work(None), 42); // off: no site lookup
//! let reg = Registry::new();
//! assert_eq!(work(Some(&reg)), 42); // on: one counted call
//! assert_eq!(reg.snapshot().counters["work.calls"], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{Counter, Registry, Snapshot};
pub use report::{ReportError, RunReport};
pub use trace::{Event, OwnedEvent, TraceError, TraceFile, TraceGuard, Tracer};

/// FNV-1a, the workspace's stable content hash (the engine's cell keys
/// and cell checksums, the machine models' content hashes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a`] fed in pieces: after bytes or text written in any split,
/// [`Fnv1a::finish`] is `fnv1a` of all of them in order, so a caller
/// can hash what it formats without building the text.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The hash of no bytes.
    fn default() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    /// Hashes `bytes` after what was written before.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of everything written.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// A duration in nanoseconds at a readable scale, three decimals past
/// a microsecond (`999ns`, `1.500µs`, `2.000ms`, `3.250s`): the one
/// format of `eel report` and `eel trace` tables.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}
