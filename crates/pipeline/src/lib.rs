//! Superscalar pipeline modeling for the EEL reproduction:
//! the machine model compiled from SADL and the `pipeline_stalls`
//! hazard computation of the paper's Appendix A.
//!
//! The scheduler in `eel-core` asks one question of this crate — *how
//! many cycles must the next instruction wait before entering the
//! execution pipeline?* ([`PipelineState::stalls`]) — and the timing
//! simulator in `eel-sim` replays whole executions through the same
//! state machine ([`PipelineState::issue`]).
//!
//! Like the paper's Spawn models, this describes only the execution
//! pipelines: no instruction prefetch, write buffers, or cache
//! behaviour (the simulator adds an optional cache model on top).
//! Out-of-order execution is not modeled; all three SPARCs of the
//! paper are in-order.
//!
//! ```
//! use eel_pipeline::{MachineModel, PipelineState};
//! use eel_sparc::{Instruction, IntReg, Operand};
//!
//! let model = MachineModel::hypersparc();
//! let mut pipe = PipelineState::new(&model);
//! let a = Instruction::mov(Operand::imm(1), IntReg::O0);
//! assert_eq!(pipe.stalls(&model, &a), 0);
//! pipe.issue(&model, &a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attr;
mod model;
mod reference;
mod state;
mod trace;

pub use attr::{attribute_block, CollectSink, StallCause, StallProfile, StallRecorder, StallSink};
pub use model::{class_of, GroupTiming, MachineModel, ModelError, PreparedInsn};
pub use reference::ReferencePipeline;
pub use state::{evaluate_block, BlockTiming, IssueInfo, PipelineState};
pub use trace::{chrome_trace, issue_trace, render_issue_trace, IssueSlot};
