//! QPT2-style "slow" profiling instrumentation (Ball & Larus; paper
//! §4.2): a four-instruction counter update — set immediate, load,
//! add, store — inserted into almost every basic block.
//!
//! *Blocks with a single instrumented single-exit predecessor or a
//! single instrumented single-entry successor are not instrumented*:
//! their execution count equals the neighbour's, so [`Profiler`]
//! records the equality and recovers the full per-block profile from
//! the counter table after a run.
//!
//! ```
//! use eel_edit::EditSession;
//! use eel_qpt::{ProfileOptions, Profiler};
//! use eel_sparc::{Assembler, IntReg, Operand};
//!
//! let mut a = Assembler::new();
//! a.mov(Operand::imm(1), IntReg::O0);
//! a.retl();
//! a.nop();
//! let exe = eel_edit::Executable::from_words(
//!     0x10000,
//!     a.finish().unwrap().iter().map(|i| i.encode()).collect(),
//! );
//! let mut session = EditSession::new(&exe)?;
//! let prof = Profiler::instrument(&mut session, ProfileOptions::default());
//! assert_eq!(prof.instrumented_blocks(), 1);
//! let edited = session.emit_unscheduled()?;
//! assert_eq!(edited.text_len(), exe.text_len() + 4);
//! # Ok::<(), eel_edit::EditError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod trace;

pub use trace::{trace_snippet, TraceOptions, Tracer};

use std::collections::HashMap;

use eel_edit::{Cfg, Edge, EditSession};
use eel_sparc::{Address, Instruction, IntReg, Operand};

/// The scratch registers of every profiling counter sequence: QPT2's
/// reserved globals.
const SCRATCH: (IntReg, IntReg) = (IntReg::G1, IntReg::G2);

/// Options for profiling instrumentation. Counter sequences use the
/// reserved globals `%g1` and `%g2`, so programs edited here must not
/// carry live values in them across block entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileOptions {
    /// Apply the paper's block-skipping rule (on by default). With it
    /// off, every block is counted directly.
    pub apply_skip_rule: bool,
}

impl Default for ProfileOptions {
    fn default() -> ProfileOptions {
        ProfileOptions {
            apply_skip_rule: true,
        }
    }
}

/// How a block's execution count is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CountSource {
    /// Counted directly in counter-table slot `i`.
    Slot(usize),
    /// Equal to the count of the block with this flat id (the skip
    /// rule).
    SameAs(usize),
}

/// The result of instrumenting an executable for block profiling.
#[derive(Debug, Clone)]
pub struct Profiler {
    counter_base: u32,
    slots: usize,
    /// Per routine, the flat id of its first block, then the block
    /// count: block `b` of routine `r` has id `first_block[r] + b`.
    first_block: Vec<usize>,
    /// Per block, by flat id.
    sources: Vec<CountSource>,
}

impl Profiler {
    /// Inserts slow-profiling instrumentation into every basic block
    /// (minus skipped ones) of `session`, reserving a counter table in
    /// the executable's bss.
    pub fn instrument(session: &mut EditSession, options: ProfileOptions) -> Profiler {
        let first_block = first_blocks(session.cfg());
        let decisions = plan(session.cfg(), &first_block, options.apply_skip_rule);

        let n_counted = decisions
            .iter()
            .filter(|d| matches!(d, CountSource::Slot(_)))
            .count();
        let counter_base = session.reserve_bss(4 * n_counted as u32);

        for (r, b, d) in blocks(&first_block, &decisions) {
            if let CountSource::Slot(i) = d {
                let addr = counter_base + 4 * i as u32;
                session.insert_at_block_head(r, b, counter_snippet(addr, SCRATCH));
            }
        }
        Profiler {
            counter_base,
            slots: n_counted,
            first_block,
            sources: decisions,
        }
    }

    /// The address of the counter table in the edited executable.
    pub fn counter_base(&self) -> u32 {
        self.counter_base
    }

    /// Number of directly counted blocks (counter-table slots).
    pub fn instrumented_blocks(&self) -> usize {
        self.slots
    }

    /// Number of blocks covered via the skip rule.
    pub fn skipped_blocks(&self) -> usize {
        self.sources.len() - self.slots
    }

    /// Whether a block carries its own counter.
    pub fn is_counted(&self, routine: usize, block: usize) -> bool {
        match self.first_block.get(routine..) {
            Some(&[first, end, ..]) if block < end - first => {
                matches!(self.sources[first + block], CountSource::Slot(_))
            }
            _ => false,
        }
    }

    /// Recovers the full per-block profile from memory after a run.
    /// `read_word` reads a 32-bit word from the simulated data space.
    ///
    /// # Panics
    ///
    /// Panics if the skip-rule equalities are cyclic, which
    /// [`Profiler::instrument`] never produces.
    pub fn profile<F>(&self, mut read_word: F) -> HashMap<(usize, usize), u32>
    where
        F: FnMut(u32) -> u32,
    {
        let mut out = HashMap::with_capacity(self.sources.len());
        for (r, b, mut source) in blocks(&self.first_block, &self.sources) {
            let mut hops = 0;
            let count = loop {
                match source {
                    CountSource::Slot(i) => break read_word(self.counter_base + 4 * i as u32),
                    CountSource::SameAs(id) => {
                        source = self.sources[id];
                        hops += 1;
                        assert!(hops <= self.sources.len(), "cyclic skip chain");
                    }
                }
            };
            out.insert((r, b), count);
        }
        out
    }
}

/// Per routine of `cfg`, the flat id of its first block, then the
/// total block count.
fn first_blocks(cfg: &Cfg) -> Vec<usize> {
    let mut first = Vec::with_capacity(cfg.routines.len() + 1);
    first.push(0);
    for r in &cfg.routines {
        first.push(first[first.len() - 1] + r.blocks.len());
    }
    first
}

/// Every block's `(routine, block)` with its source, in block order.
fn blocks<'a>(
    first_block: &'a [usize],
    sources: &'a [CountSource],
) -> impl Iterator<Item = (usize, usize, CountSource)> + 'a {
    first_block.windows(2).enumerate().flat_map(move |(r, w)| {
        sources[w[0]..w[1]]
            .iter()
            .enumerate()
            .map(move |(b, &source)| (r, b, source))
    })
}

/// The four-instruction slow-profiling sequence of §4.2:
/// set immediate, load, add, store.
pub fn counter_snippet(counter_addr: u32, scratch: (IntReg, IntReg)) -> Vec<Instruction> {
    let (hi, lo) = (counter_addr >> 10, (counter_addr & 0x3FF) as i32);
    let (a, v) = scratch;
    vec![
        Instruction::Sethi { imm22: hi, rd: a },
        Instruction::Load {
            width: eel_sparc::MemWidth::Word,
            addr: Address::base_imm(a, lo),
            rd: v,
        },
        Instruction::Alu {
            op: eel_sparc::AluOp::Add,
            rs1: v,
            src2: Operand::imm(1),
            rd: v,
        },
        Instruction::Store {
            width: eel_sparc::MemWidth::Word,
            src: v,
            addr: Address::base_imm(a, lo),
        },
    ]
}

/// Decides, for every block by flat id, whether it gets a counter or
/// inherits a neighbour's count.
fn plan(cfg: &Cfg, first_block: &[usize], apply_skip_rule: bool) -> Vec<CountSource> {
    let mut sources: Vec<Option<CountSource>> = vec![None; first_block[cfg.routines.len()]];
    let mut next_slot = 0usize;
    // Blocks a skip decision depends on: they must take a counter.
    let mut pinned = vec![false; sources.len()];

    for (ri, r) in cfg.routines.iter().enumerate() {
        let first = first_block[ri];
        for (bi, b) in r.blocks.iter().enumerate() {
            let id = first + bi;
            let mut slot = || {
                let s = CountSource::Slot(next_slot);
                next_slot += 1;
                s
            };
            if !apply_skip_rule || pinned[id] {
                sources[id] = Some(slot());
                continue;
            }

            // Rule 1: a single predecessor that always falls into us.
            if b.preds.len() == 1 {
                let p = b.preds[0];
                let pred = &r.blocks[p];
                let pred_counted = matches!(sources[first + p], Some(CountSource::Slot(_)));
                if p != bi && pred.single_exit() && pred_counted {
                    sources[id] = Some(CountSource::SameAs(first + p));
                    continue;
                }
            }
            // Rule 2: a single successor that is only entered from us.
            if b.succs.len() == 1 {
                if let Edge::Fall(s) | Edge::Taken(s) = b.succs[0] {
                    let succ = &r.blocks[s];
                    let succ_ok = match sources[first + s] {
                        Some(CountSource::Slot(_)) => true,
                        Some(CountSource::SameAs(_)) => false,
                        None => {
                            pinned[first + s] = true;
                            true
                        }
                    };
                    if s != bi && succ.single_entry() && succ_ok {
                        sources[id] = Some(CountSource::SameAs(first + s));
                        continue;
                    }
                }
            }
            sources[id] = Some(slot());
        }
    }
    sources
        .into_iter()
        .map(|s| s.expect("every block is decided"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_edit::{Executable, Origin};
    use eel_sparc::{Assembler, Cond};

    fn exe_from(a: Assembler) -> Executable {
        Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        )
    }

    /// init block -> loop block -> exit block.
    fn loop_exe() -> Executable {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.mov(Operand::imm(10), IntReg::O0);
        a.bind(top);
        a.subcc(IntReg::O0, Operand::imm(1), IntReg::O0);
        a.b(Cond::Ne, top);
        a.nop();
        a.retl();
        a.nop();
        exe_from(a)
    }

    #[test]
    fn snippet_is_four_instructions() {
        let s = counter_snippet(0x80_0000, (IntReg::G1, IntReg::G2));
        assert_eq!(s.len(), 4);
        assert!(matches!(s[0], Instruction::Sethi { .. }));
        assert!(s[1].is_load());
        assert!(matches!(s[2], Instruction::Alu { .. }));
        assert!(s[3].is_store());
    }

    #[test]
    fn snippet_addresses_are_consistent() {
        let addr = 0x80_0404;
        let s = counter_snippet(addr, (IntReg::G1, IntReg::G2));
        match (s[1], s[3]) {
            (Instruction::Load { addr: la, .. }, Instruction::Store { addr: sa, .. }) => {
                assert_eq!(la, sa);
                assert_eq!(la.offset, Operand::Imm((addr & 0x3FF) as i16));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loop_cfg_counts_all_blocks() {
        // Loop head has two preds, loop has two exits, exit block's
        // pred has two exits: no skip opportunities here.
        let exe = loop_exe();
        let mut session = EditSession::new(&exe).unwrap();
        let prof = Profiler::instrument(&mut session, ProfileOptions::default());
        assert_eq!(prof.instrumented_blocks(), 3);
        assert_eq!(prof.skipped_blocks(), 0);
    }

    #[test]
    fn skip_rule_applies_on_straightline_chain() {
        // b0 ends in a call (single exit, falls through) into b1,
        // whose only entry is b0: one of the pair is skipped.
        let mut a = Assembler::new();
        let next = a.new_label();
        a.mov(Operand::imm(1), IntReg::O0); // b0
        a.call(next);
        a.nop();
        a.bind(next);
        a.mov(Operand::imm(2), IntReg::O1); // b1
        a.retl();
        a.nop();
        let exe = exe_from(a);
        let mut session = EditSession::new(&exe).unwrap();
        let prof = Profiler::instrument(&mut session, ProfileOptions::default());
        assert_eq!(prof.instrumented_blocks() + prof.skipped_blocks(), 2);
        assert_eq!(
            prof.skipped_blocks(),
            1,
            "one of the pair inherits the other's count"
        );
    }

    #[test]
    fn skip_rule_can_be_disabled() {
        let mut a = Assembler::new();
        let next = a.new_label();
        a.call(next);
        a.nop();
        a.bind(next);
        a.retl();
        a.nop();
        let exe = exe_from(a);
        let mut session = EditSession::new(&exe).unwrap();
        let prof = Profiler::instrument(
            &mut session,
            ProfileOptions {
                apply_skip_rule: false,
            },
        );
        assert_eq!(prof.skipped_blocks(), 0);
        assert_eq!(prof.instrumented_blocks(), 2);
    }

    #[test]
    fn instrumentation_is_tagged_and_prepended() {
        let exe = loop_exe();
        let mut session = EditSession::new(&exe).unwrap();
        let prof = Profiler::instrument(&mut session, ProfileOptions::default());
        assert!(prof.is_counted(0, 1));
        let code = session.block_code(0, 1);
        let inst_count = code
            .body
            .iter()
            .filter(|t| t.origin == Origin::Instrumentation)
            .count();
        assert_eq!(inst_count, 4);
    }

    #[test]
    fn counters_get_distinct_slots() {
        let exe = loop_exe();
        let mut session = EditSession::new(&exe).unwrap();
        let prof = Profiler::instrument(&mut session, ProfileOptions::default());
        let mut addrs = std::collections::HashSet::new();
        for (r, b) in session.all_blocks() {
            let code = session.block_code(r, b);
            let snippet: Vec<_> = code
                .body
                .iter()
                .filter(|t| t.origin == Origin::Instrumentation)
                .collect();
            if snippet.is_empty() {
                continue;
            }
            if let (Instruction::Sethi { imm22, .. }, Instruction::Load { addr, .. }) =
                (snippet[0].insn, snippet[1].insn)
            {
                let lo = match addr.offset {
                    Operand::Imm(v) => v as i32 as u32,
                    _ => panic!("register offset"),
                };
                assert!(addrs.insert((imm22 << 10) | lo), "duplicate counter");
            } else {
                panic!("unexpected snippet shape");
            }
        }
        assert_eq!(addrs.len(), prof.instrumented_blocks());
    }

    #[test]
    fn profile_resolves_skip_chains() {
        let prof = Profiler {
            counter_base: 0x100,
            slots: 1,
            first_block: vec![0, 3],
            sources: vec![
                CountSource::Slot(0),
                CountSource::SameAs(0),
                CountSource::SameAs(1),
            ],
        };
        let counts = prof.profile(|addr| {
            assert_eq!(addr, 0x100);
            42
        });
        assert_eq!(counts[&(0, 0)], 42);
        assert_eq!(counts[&(0, 1)], 42);
        assert_eq!(counts[&(0, 2)], 42);
    }

    #[test]
    fn counter_base_in_bss() {
        let exe = loop_exe();
        let mut session = EditSession::new(&exe).unwrap();
        let prof = Profiler::instrument(&mut session, ProfileOptions::default());
        assert!(prof.counter_base() >= session.exe().data_base());
        assert!(
            prof.counter_base() + 4 * prof.instrumented_blocks() as u32 <= session.exe().data_end()
        );
    }

    #[test]
    fn custom_scratch_registers() {
        let s = counter_snippet(0x80_0000, (IntReg::L6, IntReg::L7));
        match s[0] {
            Instruction::Sethi { rd, .. } => assert_eq!(rd, IntReg::L6),
            other => panic!("{other:?}"),
        }
    }
}
