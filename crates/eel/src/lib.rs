//! EEL — the executable editing library — reproduced for the MICRO
//! 1996 instruction-scheduling study.
//!
//! The editing pipeline follows the paper's Figure 3:
//!
//! 1. **Analyse** — [`Cfg::build`] partitions an [`Executable`] into
//!    routines and basic blocks (delay slots attached to their CTIs).
//! 2. **Insert instrumentation** — a tool registers straight-line
//!    snippets at block heads via
//!    [`EditSession::insert_at_block_head`]; counter storage comes
//!    from [`EditSession::reserve_bss`].
//! 3. **Schedule** — [`EditSession::emit`] runs a per-block transform
//!    (the list scheduler in `eel-core`) over [`BlockCode`] in which
//!    original and instrumentation instructions are tagged with their
//!    [`Origin`].
//! 4. **Emit** — blocks are laid out in order, direct branches and
//!    calls are retargeted, the entry point and symbols are remapped.
//!
//! The container format is this crate's own [`Executable`] (text +
//! data + bss + symbols) rather than SPARC ELF; EEL's analyses need
//! nothing more, and the original used `libbfd` only to read the same
//! fields.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfg;
mod edit;
mod error;
mod format;
mod image;

pub use cfg::{BasicBlock, Cfg, Edge, Routine};
pub use edit::{BlockCode, BlockInfo, EditSession, LeaderMap, Origin, Tagged};
pub use error::EditError;
pub use format::{FormatError, MAGIC, VERSION};
pub use image::{Executable, Symbol};
