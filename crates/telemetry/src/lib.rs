//! First-class telemetry for the reproduction harness: every run a
//! structured, diffable, regression-gated artifact.
//!
//! The paper's argument is quantitative — hidden instrumentation
//! cycles, stall counts, schedule quality — so the harness measures
//! itself with the same discipline it applies to the workloads. This
//! crate is the dependency-free substrate the rest of the workspace
//! threads through its stages:
//!
//! * [`Counter`] — a relaxed atomic event counter;
//! * [`Histogram`] — a log2-bucketed value distribution (65 buckets
//!   cover the full `u64` range) with lock-free recording and
//!   quantile estimation from the bucketed [`HistogramSnapshot`];
//! * [`Span`] — an RAII wall-time guard that records its elapsed
//!   nanoseconds into a histogram on drop;
//! * [`Registry`] — a named home for counters and histograms, shared
//!   freely across threads, snapshotted into deterministic
//!   `BTreeMap`-ordered [`Snapshot`]s, optionally carrying a
//!   [`Tracer`];
//! * [`report::RunReport`] — the versioned machine-readable run
//!   report (JSON, schema `eel-run-report` version 1) with rendering,
//!   parsing, and [`report::RunReport::diff`];
//! * [`json`] — the minimal hand-rolled JSON reader/writer behind the
//!   report (the workspace has no serde);
//! * [`trace`] — the flight recorder: bounded rings of timestamped
//!   structured events, serialized traces (`eel-trace` JSONL), and the
//!   shared Chrome trace-event writer.
//!
//! # A handle, not a type parameter
//!
//! Instrumented code takes `Option<&Registry>`: `None` records
//! nothing; `Some` records counters and histograms, and trace events
//! as well when the registry carries a [`Tracer`]
//! ([`Registry::with_tracer`]). Each instrumented path is compiled
//! once. A runtime check is enough because no site records per
//! instruction or per stall query: every site records once per block,
//! run, stage or cell, and per-event totals are summed in locals and
//! recorded once. (Stall attribution in `eel-pipeline` is a separate
//! call, not a telemetry setting.)
//!
//! ```
//! use eel_telemetry::Registry;
//!
//! fn work(telemetry: Option<&Registry>) -> u64 {
//!     let span = telemetry.map(|reg| reg.span("work.ns"));
//!     let result = 6 * 7;
//!     drop(span);
//!     result
//! }
//!
//! assert_eq!(work(None), 42); // off: no clock read, no site lookup
//! let reg = Registry::new();
//! assert_eq!(work(Some(&reg)), 42); // on: one recorded span
//! assert_eq!(reg.snapshot().histograms["work.ns"].count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{Counter, Histogram, HistogramSnapshot, Registry, Snapshot, Span};
pub use report::{ReportError, RunReport};
pub use trace::{Event, OwnedEvent, TraceError, TraceFile, TraceGuard, Tracer};

/// FNV-1a, the workspace's stable content hash (used here to name run
/// report artifacts by content).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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
