//! SPARC V8 instruction-set substrate for the EEL reproduction.
//!
//! This crate is the machine-dependent foundation that the executable
//! editor (`eel-edit`), scheduler (`eel-core`), simulator (`eel-sim`),
//! and workload generator (`eel-workloads`) build on. It provides:
//!
//! * [`IntReg`], [`FpReg`], [`Resource`] — architectural registers and
//!   the dependence-analysis resource space;
//! * [`Instruction`] — a structured model of the V8 subset, with
//!   def/use sets, control-transfer classification, delay-slot
//!   metadata, and the *timing name* used to bind SADL pipeline
//!   descriptions;
//! * exact binary [`encode`](Instruction::encode) /
//!   [`decode`](Instruction::decode) and textual disassembly;
//! * [`Assembler`] — a label-resolving builder for generating code.
//!
//! # Quick example
//!
//! ```
//! use eel_sparc::{Assembler, Cond, Instruction, IntReg, Operand};
//!
//! // Build a counting loop, encode it, and decode it back.
//! let mut a = Assembler::new();
//! let top = a.new_label();
//! a.mov(Operand::imm(3), IntReg::O0);
//! a.bind(top);
//! a.subcc(IntReg::O0, Operand::imm(1), IntReg::O0);
//! a.b(Cond::Ne, top);
//! a.nop();
//! let code = a.finish()?;
//!
//! let words: Vec<u32> = code.iter().map(|i| i.encode()).collect();
//! let back: Vec<_> = words.iter().map(|&w| Instruction::decode(w)).collect();
//! assert_eq!(code, back);
//! # Ok::<(), eel_sparc::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod decode;
mod disasm;
mod encode;
mod insn;
mod regs;

pub use builder::{AsmError, Assembler, Label};
pub use insn::{Address, AluOp, Cond, ControlKind, FCond, FpOp, Instruction, MemWidth, Operand};
pub use regs::{FpReg, IntReg, Resource, ResourceList};
