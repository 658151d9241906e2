//! SADL — the Spawn Architecture Description Language — and the Spawn
//! compiler, reproduced from Schnarr & Larus (MICRO 1996), §3.
//!
//! A SADL description captures a machine's instruction semantics
//! *together with* its microarchitectural resource usage: `unit`
//! declarations name pipeline resources and their copy counts;
//! `register`/`alias` declarations attach port usage to register
//! access; `val`/`sem` declarations bind semantic expressions — with
//! the timing commands `A` (acquire), `R` (release), `AR`
//! (acquire/auto-release), and `D` (advance the pipeline) — to
//! instruction mnemonics.
//!
//! [`ArchDescription::compile`] plays the role of Spawn: it abstractly
//! interprets every `sem` expression, cycle by cycle, and produces
//! deduplicated [`TimingGroup`] tables recording, per group, the total
//! pipeline occupancy, the units acquired and released in each cycle,
//! the cycle each register class is read, and the cycle each result is
//! computed (forwarding makes it visible one cycle later). These
//! tables drive the `pipeline_stalls` hazard computation in
//! `eel-pipeline`.
//!
//! Three complete microarchitecture descriptions ship with the crate
//! (see [`descriptions`]): the ROSS hyperSPARC (the paper's running
//! example), the TI SuperSPARC, and the Sun UltraSPARC-I.
//!
//! ```
//! use eel_sadl::{ArchDescription, RegClass};
//!
//! let ultra = ArchDescription::compile(eel_sadl::descriptions::ULTRASPARC)?;
//! assert_eq!(ultra.issue_width, 4);
//! let add = ultra.group_for("add").expect("add is bound");
//! assert_eq!(add.read_cycle(RegClass::Int), Some(1));
//! # Ok::<(), eel_sadl::SadlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod desc;
mod error;
mod lexer;
mod parser;
mod spawn;

pub use desc::{ArchDescription, GroupId, RegClass, TimingGroup, Unit, UnitId, MAX_GROUP_CYCLES};
pub use error::{Pos, SadlError};
pub use parser::parse;

/// The deepest a description may nest: expressions inside one
/// declaration's body (each bracket, conditional, lambda body and
/// applied argument is a level), and Spawn's evaluations of them (each
/// expansion of a `val`, alias or closure is a level too). Deeper input
/// is an error, not a stack overflow, and a `sem` that would recurse
/// without end, such as `(\x. x x) (\x. x x)`, stops here. The
/// shipped descriptions nest 5 levels deep and evaluate 7. A level
/// costs up to about 11 KiB of stack in a debug build, so a description
/// at this bound still compiles on a 256 KiB thread.
pub const MAX_NESTING: u32 = 16;

/// The most evaluations Spawn spends on one `sem` (each counted where
/// a level of [`MAX_NESTING`] is). A `val` is expanded anew at every
/// use, so `val`s that each repeat the one before k times cost about
/// 2k^n evaluations while nesting only about 2n levels; past this bound
/// such a `sem` is an error, not hours of work. The shipped `sem`s
/// take at most 48; a `sem` that makes 200,000 local bindings takes
/// about as many.
pub const MAX_EVALUATIONS: u32 = 1_000_000;

/// The microarchitecture descriptions shipped with this crate.
pub mod descriptions {
    /// ROSS hyperSPARC: 2-way superscalar, the paper's Figure 2 machine.
    pub const HYPERSPARC: &str = include_str!("descriptions/hypersparc.sadl");
    /// TI SuperSPARC: 3-way superscalar (50 MHz SPARCstation 20 of §4.2).
    pub const SUPERSPARC: &str = include_str!("descriptions/supersparc.sadl");
    /// Sun UltraSPARC-I: 4-way superscalar, at most 2 integer ops per
    /// cycle (167 MHz Ultra Enterprise of §4.2).
    pub const ULTRASPARC: &str = include_str!("descriptions/ultrasparc.sadl");
    /// A scalar (1-wide) control machine — not in the paper; used to
    /// show that without superscalar width there is nowhere to hide
    /// instrumentation.
    pub const MICROSPARC: &str = include_str!("descriptions/microsparc.sadl");
    /// A 6-wide VLIW / exposed-datapath machine (Dahlem-style) — not
    /// in the paper; maximal issue width with long visible latencies.
    pub const VLIW: &str = include_str!("descriptions/vliw.sadl");
    /// A deeply pipelined dual-issue machine — not in the paper; long
    /// load/FP shadows with little width, where policy choice matters
    /// most.
    pub const DEEPSPARC: &str = include_str!("descriptions/deepsparc.sadl");

    /// All shipped descriptions as `(name, source)` pairs.
    pub const ALL: &[(&str, &str)] = &[
        ("hyperSPARC", HYPERSPARC),
        ("SuperSPARC", SUPERSPARC),
        ("UltraSPARC", ULTRASPARC),
        ("microSPARC", MICROSPARC),
        ("VLIW", VLIW),
        ("DeepSPARC", DEEPSPARC),
    ];
}
