//! Instruction scheduling for executable editing — the core
//! contribution of Schnarr & Larus (MICRO 1996), reproduced.
//!
//! Modern in-order superscalars leave many issue slots and stall
//! cycles unused. This crate adds a local (per-basic-block) list
//! scheduler to the EEL editing pipeline so that instrumentation
//! inserted by tools like QPT2 profiling is *scheduled together with*
//! the original instructions, hiding part of its cost in those unused
//! cycles.
//!
//! * [`DepGraph`] — register and memory dependences over a block body,
//!   with the paper's instrumentation-memory independence rule.
//! * [`Scheduler`] — the two-pass list scheduler driven by
//!   `pipeline_stalls` (see `eel-pipeline`), usable directly or as an
//!   [`eel_edit::EditSession::emit`] transform.
//! * [`Priority`] — the ready-list rule: the paper's
//!   fewest-stalls-first default plus critical-path, load-delay-aware,
//!   and lookahead variants, each comparing two [`Candidate`]s.
//! * [`exact`] — the branch-and-bound oracle behind
//!   [`Priority::Exact`]: proven minimum-latency schedules for blocks
//!   up to [`EXACT_MAX_BLOCK`] instructions, used to measure each list
//!   policy's optimality gap.
//!
//! # Scheduling an instrumented executable
//!
//! ```
//! use eel_core::Scheduler;
//! use eel_edit::EditSession;
//! use eel_pipeline::MachineModel;
//! use eel_sparc::{Assembler, Instruction, IntReg, Operand};
//!
//! // A toy program…
//! let mut a = Assembler::new();
//! a.mov(Operand::imm(1), IntReg::O0);
//! a.retl();
//! a.nop();
//! let exe = eel_edit::Executable::from_words(
//!     0x10000,
//!     a.finish().unwrap().iter().map(|i| i.encode()).collect(),
//! );
//!
//! // …instrumented and scheduled while being laid out (paper Fig. 3).
//! let mut session = EditSession::new(&exe)?;
//! for (r, b) in session.all_blocks() {
//!     session.insert_at_block_head(r, b, vec![Instruction::nop()]);
//! }
//! let sched = Scheduler::new(MachineModel::ultrasparc());
//! let edited = session.emit(sched.transform())?;
//! assert_eq!(edited.text_len(), exe.text_len() + 1);
//! # Ok::<(), eel_edit::EditError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dep;
pub mod exact;
mod policy;
mod sched;

pub use dep::{DepEdge, DepGraph, DepKind};
pub use exact::{exact_schedule, ExactOutcome, DEFAULT_EXACT_BUDGET, EXACT_MAX_BLOCK};
pub use policy::{Candidate, Priority};
pub use sched::{SchedOptions, ScheduleExplain, Scheduler};
