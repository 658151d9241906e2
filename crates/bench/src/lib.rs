//! The experiment library behind every table and figure of the paper's
//! evaluation (§4.2) on the simulated machines: the parallel, cached
//! measurement [`engine`], the table protocol and rendering in
//! [`experiment`], the oracle [`gap`] report, and the regression gate.
//! The `eel` CLI drives it: `eel results NAME` regenerates
//! `results/NAME.txt`, `eel experiment` runs the table protocol with
//! every knob exposed, and `eel perf-gate` runs the gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod gap;
pub mod report;
