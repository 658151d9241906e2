//! A SPARC V8 functional and timing simulator — the stand-in for the
//! paper's real SuperSPARC and UltraSPARC hardware.
//!
//! [`Cpu`] holds the architectural state — the current window's 32
//! integer registers in one working file, the other windows in a
//! backing store that only `save`/`restore` touch — and
//! [`Cpu::step_decoded`] interprets the `eel-sparc` subset with
//! faithful delay-slot and annul semantics, condition codes,
//! demand-grown register windows, and an exit trap (`ta 0`). The
//! timing engine ([`run`]) retires each instruction through the same
//! SADL-derived pipeline state the scheduler consults
//! (`eel-pipeline`), optionally adding taken-branch and cache
//! penalties the scheduler's model deliberately omits —
//! reproducing the paper's model-vs-machine gap. Every run executes on
//! a block-memoized replay engine that lowers each basic block once
//! into ops with their register-file slots resolved (one op per hot
//! opcode, so replay is one match per instruction) and caches the
//! `prepare`/timing walk per (basic block, entry pipeline context).
//! `step_decoded` is the oracle for those ops, and [`ReferenceCpu`]
//! the per-instruction oracle for whole runs.
//!
//! [`record`] also keeps a run's control [`Path`], and [`walk`] times
//! an edit of the recorded executable along it without executing it:
//! QPT2's counters and EEL's scheduling keep the program's control
//! flow, so the path the original took is the path every such edit
//! takes.
//!
//! Per-word execution counts ([`RunResult::pc_counts`]) let tests
//! validate QPT2 profiles against ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod cpu;
mod error;
mod icache;
mod memory;
mod path;
mod reference;
mod run;

pub use cpu::{Cpu, Fcc, Icc, Step, STACK_TOP};
pub use error::SimError;
pub use icache::{DCacheConfig, ICache, ICacheConfig};
pub use memory::Memory;
pub use path::Path;
pub use reference::ReferenceCpu;
pub use run::{record, run, run_with, walk, RunConfig, RunResult, TimingConfig};
