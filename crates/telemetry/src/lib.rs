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
//!   `BTreeMap`-ordered [`Snapshot`]s;
//! * [`report::RunReport`] — the versioned machine-readable run
//!   report (JSON, schema `eel-run-report` version 1) with rendering,
//!   parsing, and [`report::RunReport::diff`];
//! * [`json`] — the minimal hand-rolled JSON reader/writer behind the
//!   report (the workspace has no serde);
//! * [`trace`] — the flight recorder: bounded rings of timestamped
//!   structured events, serialized traces (`eel-trace` JSONL), and the
//!   shared Chrome trace-event writer.
//!
//! # The zero-cost-when-off contract
//!
//! Instrumented hot paths are generic over [`Sink`], whose associated
//! `ENABLED` constant statically gates every telemetry operation; it
//! is the workspace's one static on/off gate (stall attribution in
//! `eel-pipeline` is a separate call, not a disabled sink).
//! Instantiated with `()` (the disabled sink, `ENABLED = false`),
//! every timing read, site lookup, and record call is dead code: the
//! monomorphized function is the uninstrumented hot path, byte for
//! byte. Live recording is paid only by callers that pass a
//! [`Registry`].
//!
//! ```
//! use eel_telemetry::{Registry, Sink};
//!
//! fn work<S: Sink>(sink: &S) -> u64 {
//!     let span = if S::ENABLED {
//!         sink.histogram("work.ns").map(eel_telemetry::Span::new)
//!     } else {
//!         None // with S = (), the whole arm is statically dead
//!     };
//!     let result = 6 * 7;
//!     drop(span);
//!     result
//! }
//!
//! assert_eq!(work(&()), 42); // off: free
//! let reg = Registry::new();
//! assert_eq!(work(&reg), 42); // on: one recorded span
//! assert_eq!(reg.snapshot().histograms["work.ns"].count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{Counter, Histogram, HistogramSnapshot, Registry, Sink, Snapshot, Span};
pub use report::{ReportError, RunReport};
pub use trace::{Event, OwnedEvent, TraceError, TraceFile, TraceGuard, Traced, Tracer};

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
