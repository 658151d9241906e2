//! Error type for executable editing.

use std::error::Error;
use std::fmt;

/// An error from analyzing or editing an executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// A control-transfer instruction at the very end of a routine has
    /// no delay-slot instruction.
    TruncatedDelaySlot {
        /// Address of the CTI.
        addr: u32,
    },
    /// A branch targets the delay slot of another CTI; EEL does not
    /// schedule such code.
    DelaySlotTarget {
        /// Address of the targeted delay slot.
        addr: u32,
    },
    /// A CTI sits in the delay slot of another CTI (a "DCTI couple").
    CtiInDelaySlot {
        /// Address of the second CTI.
        addr: u32,
    },
    /// A direct branch targets an address that is not a basic-block
    /// leader after editing.
    BadBranchTarget {
        /// Address of the branch.
        from: u32,
        /// The target address.
        to: u32,
    },
    /// An address does not fall inside the text segment.
    OutOfText {
        /// The offending address.
        addr: u32,
    },
    /// The rewritten text would overlap the data segment.
    TextOverflow {
        /// Size the text would need, in bytes.
        needed: u32,
        /// Space available before the data segment, in bytes.
        available: u32,
    },
    /// A block transform broke an invariant (e.g. dropped or duplicated
    /// an instruction's control-transfer tail).
    BadTransform {
        /// Address of the block whose transform misbehaved.
        block_addr: u32,
        /// What went wrong.
        what: &'static str,
    },
    /// A bss reservation would have run the data segment past the end
    /// of the address space or the image limit.
    BssOverflow {
        /// Size of the reservation, in bytes.
        bytes: u32,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::TruncatedDelaySlot { addr } => {
                write!(f, "CTI at {addr:#x} has no delay-slot instruction")
            }
            EditError::DelaySlotTarget { addr } => {
                write!(f, "branch targets the delay slot at {addr:#x}")
            }
            EditError::CtiInDelaySlot { addr } => {
                write!(f, "CTI in the delay slot at {addr:#x} (DCTI couple)")
            }
            EditError::BadBranchTarget { from, to } => {
                write!(
                    f,
                    "branch at {from:#x} targets {to:#x}, which is not a block leader"
                )
            }
            EditError::OutOfText { addr } => {
                write!(f, "address {addr:#x} is outside the text segment")
            }
            EditError::TextOverflow { needed, available } => {
                write!(
                    f,
                    "rewritten text needs {needed} bytes but only {available} fit before data"
                )
            }
            EditError::BadTransform { block_addr, what } => {
                write!(f, "transform of block at {block_addr:#x} {what}")
            }
            EditError::BssOverflow { bytes } => write!(
                f,
                "reserving {bytes} bytes of bss runs the data segment past the \
                 end of the address space or the image limit"
            ),
        }
    }
}

impl Error for EditError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            EditError::TruncatedDelaySlot { addr: 0x1000 }.to_string(),
            "CTI at 0x1000 has no delay-slot instruction"
        );
        assert!(EditError::BadBranchTarget { from: 4, to: 8 }
            .to_string()
            .contains("not a block leader"));
    }
}
