//! Simulator error type.

use std::error::Error;
use std::fmt;

/// A fault raised by the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Control reached an address outside the text segment (or an
    /// unaligned one).
    BadPc {
        /// The bad program counter.
        pc: u32,
    },
    /// A data access was not aligned to its size.
    Unaligned {
        /// The address accessed.
        addr: u32,
        /// The access size in bytes.
        size: u32,
    },
    /// A store targeted the read-only text segment.
    TextWrite {
        /// The address written.
        addr: u32,
    },
    /// An undecodable instruction word was executed.
    IllegalInstruction {
        /// Program counter of the instruction.
        pc: u32,
        /// The raw word.
        word: u32,
    },
    /// Integer division by zero.
    DivisionByZero {
        /// Program counter of the divide.
        pc: u32,
    },
    /// `restore` with no register window to return to.
    WindowUnderflow {
        /// Program counter of the restore.
        pc: u32,
    },
    /// A `Ticc` trap number the simulator does not implement.
    UnhandledTrap {
        /// Program counter of the trap.
        pc: u32,
        /// The software trap number.
        number: u32,
    },
    /// The instruction budget was exhausted (runaway program guard).
    InstructionLimit {
        /// The limit that was hit.
        limit: u64,
        /// Instructions retired before the budget ran out.
        retired: u64,
    },
    /// A doubleword register operation named an odd register.
    OddRegisterPair {
        /// Program counter of the instruction.
        pc: u32,
    },
    /// A walk ([`crate::walk`]) could not follow its recorded path:
    /// the walked executable is not an edit of the recorded one that
    /// keeps its control flow.
    OffPath {
        /// Program counter of the control transfer that left the path.
        pc: u32,
        /// How it left the path.
        what: &'static str,
    },
    /// A walk was asked to model a data cache, whose timing needs the
    /// data addresses only execution computes.
    WalkWithDCache,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadPc { pc } => write!(f, "control transferred to bad pc {pc:#x}"),
            SimError::Unaligned { addr, size } => {
                write!(f, "unaligned {size}-byte access at {addr:#x}")
            }
            SimError::TextWrite { addr } => write!(f, "store into text at {addr:#x}"),
            SimError::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at {pc:#x}")
            }
            SimError::DivisionByZero { pc } => write!(f, "division by zero at {pc:#x}"),
            SimError::WindowUnderflow { pc } => {
                write!(f, "register window underflow at {pc:#x}")
            }
            SimError::UnhandledTrap { pc, number } => {
                write!(f, "unhandled trap {number} at {pc:#x}")
            }
            SimError::InstructionLimit { limit, retired } => {
                write!(
                    f,
                    "instruction limit of {limit} exhausted after retiring {retired} instructions"
                )
            }
            SimError::OddRegisterPair { pc } => {
                write!(f, "doubleword operation names an odd register at {pc:#x}")
            }
            SimError::OffPath { pc, what } => write!(f, "walk left its path at {pc:#x}: {what}"),
            SimError::WalkWithDCache => {
                write!(
                    f,
                    "a walk cannot time a data cache: its addresses need execution"
                )
            }
        }
    }
}

impl Error for SimError {}
