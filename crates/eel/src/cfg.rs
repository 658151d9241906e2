//! Control-flow graph construction: routines, basic blocks, and edges.
//!
//! EEL analyzes an executable before editing it (paper Figure 3:
//! *analyse → insert instrumentation → schedule → emit*). This module
//! is the *analyse* step: it partitions the text segment into routines
//! (from the symbol table) and each routine into basic blocks, with
//! delay slots attached to their control-transfer instructions, and
//! computes predecessor/successor edges — what QPT2's placement rule
//! and the per-block scheduler consume.

use eel_sparc::{ControlKind, Instruction};

use crate::error::EditError;
use crate::image::Executable;

/// A control-flow edge out of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Falls through (or returns from a call) to a block in the same
    /// routine, by block index.
    Fall(usize),
    /// Branches to a block in the same routine, by block index.
    Taken(usize),
    /// Control leaves the routine (return, tail jump, or a branch
    /// whose target is outside).
    Exit,
}

/// A basic block: a maximal straight-line run of instructions. If the
/// block ends in a CTI, the CTI *and its delay slot* are the block's
/// last two instructions (its *tail*); everything before is the
/// schedulable *body*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Index of the first instruction, within the text segment.
    pub start: usize,
    /// Number of instructions, including any CTI and delay slot.
    pub len: usize,
    /// Index *within the block* of the CTI, if the block ends in one
    /// (always `len - 2`: the delay slot follows).
    pub cti: Option<usize>,
    /// Outgoing edges.
    pub succs: Vec<Edge>,
    /// Incoming edges, as indices of predecessor blocks in the same
    /// routine.
    pub preds: Vec<usize>,
}

impl BasicBlock {
    /// The number of trailing instructions pinned by control flow
    /// (CTI + delay slot), 0 or 2.
    pub fn tail_len(&self) -> usize {
        if self.cti.is_some() {
            2
        } else {
            0
        }
    }

    /// The number of schedulable body instructions.
    pub fn body_len(&self) -> usize {
        self.len - self.tail_len()
    }

    /// Whether exactly one edge leaves this block.
    pub fn single_exit(&self) -> bool {
        self.succs.len() == 1
    }

    /// Whether exactly one edge enters this block.
    pub fn single_entry(&self) -> bool {
        self.preds.len() == 1
    }
}

/// A routine: a symbol-delimited range of text and its basic blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routine {
    /// The routine's symbol name.
    pub name: String,
    /// Index of its first instruction in the text segment.
    pub start: usize,
    /// Index one past its last instruction.
    pub end: usize,
    /// Its basic blocks, ordered by address.
    pub blocks: Vec<BasicBlock>,
}

impl Routine {
    /// The block whose range contains text index `idx`, if any.
    pub fn block_containing(&self, idx: usize) -> Option<usize> {
        self.blocks
            .iter()
            .position(|b| (b.start..b.start + b.len).contains(&idx))
    }

    /// The block starting exactly at text index `idx`, if any.
    pub fn block_starting_at(&self, idx: usize) -> Option<usize> {
        self.blocks.iter().position(|b| b.start == idx)
    }
}

/// The control-flow graph of a whole executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// All routines, ordered by address.
    pub routines: Vec<Routine>,
}

impl Cfg {
    /// Analyzes an executable into routines and basic blocks.
    ///
    /// # Errors
    ///
    /// Returns an error on code EEL declines to edit: a CTI without a
    /// delay slot at the end of a routine ([`EditError::TruncatedDelaySlot`]),
    /// a CTI in another CTI's delay slot ([`EditError::CtiInDelaySlot`]),
    /// or a branch into a delay slot ([`EditError::DelaySlotTarget`]).
    pub fn build(exe: &Executable) -> Result<Cfg, EditError> {
        Cfg::from_decoded(exe, &exe.decode_text())
    }

    /// [`Cfg::build`] over `exe`'s text already decoded, one
    /// instruction per word, for a caller that keeps the words.
    pub(crate) fn from_decoded(exe: &Executable, insns: &[Instruction]) -> Result<Cfg, EditError> {
        let routines = routine_bounds(exe)
            .into_iter()
            .map(|(name, start, end)| build_routine(exe, insns, name, start, end))
            .collect::<Result<_, _>>()?;
        Ok(Cfg { routines })
    }

    /// Total number of basic blocks across all routines.
    pub fn block_count(&self) -> usize {
        self.routines.iter().map(|r| r.blocks.len()).sum()
    }

    /// The average *static* block size in instructions.
    pub fn mean_block_len(&self) -> f64 {
        let blocks = self.block_count();
        if blocks == 0 {
            return 0.0;
        }
        let insns: usize = self
            .routines
            .iter()
            .flat_map(|r| r.blocks.iter().map(|b| b.len))
            .sum();
        insns as f64 / blocks as f64
    }
}

/// Splits the text segment into `(name, start, end)` routine ranges
/// from the symbol table (or one whole-text routine if symbols are
/// missing).
fn routine_bounds(exe: &Executable) -> Vec<(String, usize, usize)> {
    let total = exe.text_len();
    let mut starts: Vec<(String, usize)> = exe
        .symbols()
        .iter()
        .filter_map(|s| exe.text_index(s.addr).ok().map(|i| (s.name.clone(), i)))
        .collect();
    if starts.is_empty() || starts[0].1 != 0 {
        starts.insert(0, ("<anonymous>".to_string(), 0));
    }
    starts.sort_by_key(|&(_, i)| i);
    starts.dedup_by_key(|&mut (_, i)| i);
    let mut out = Vec::with_capacity(starts.len());
    for (k, (name, start)) in starts.iter().enumerate() {
        let end = starts.get(k + 1).map(|&(_, e)| e).unwrap_or(total);
        if *start < end {
            out.push((name.clone(), *start, end));
        }
    }
    out
}

fn build_routine(
    exe: &Executable,
    insns: &[Instruction],
    name: String,
    start: usize,
    end: usize,
) -> Result<Routine, EditError> {
    // Pass 1: find leaders and validate delay-slot structure.
    let mut leader = vec![false; end - start];
    leader[0] = true;
    for i in start..end {
        let insn = &insns[i];
        if !insn.is_cti() {
            continue;
        }
        if i + 1 >= end {
            return Err(EditError::TruncatedDelaySlot {
                addr: exe.text_addr(i),
            });
        }
        if insns[i + 1].is_cti() {
            return Err(EditError::CtiInDelaySlot {
                addr: exe.text_addr(i + 1),
            });
        }
        if let Some(disp) = insn.branch_disp() {
            // Calls target other routines; only split on intra-routine
            // targets.
            let target = i as i64 + disp as i64;
            if insn.control_kind() != ControlKind::Call
                && (start as i64..end as i64).contains(&target)
            {
                leader[target as usize - start] = true;
            }
        }
        if i + 2 < end {
            leader[i + 2 - start] = true;
        }
    }
    // A leader in a delay slot means someone branches into it.
    for i in start..end {
        if insns[i].is_cti() && leader[i + 1 - start] {
            return Err(EditError::DelaySlotTarget {
                addr: exe.text_addr(i + 1),
            });
        }
    }

    // Pass 2: cut blocks at leaders.
    let mut blocks = Vec::new();
    let mut block_start = start;
    for i in start + 1..=end {
        if i == end || leader[i - start] {
            blocks.push((block_start, i - block_start));
            block_start = i;
        }
    }

    // Pass 3: locate each block's CTI and compute successors.
    let starts: Vec<usize> = blocks.iter().map(|&(s, _)| s).collect();
    let find_block = |idx: usize| starts.binary_search(&idx).ok();
    let mut built: Vec<BasicBlock> = Vec::with_capacity(blocks.len());
    for (bi, &(bstart, blen)) in blocks.iter().enumerate() {
        // Leaders are inserted after every CTI+slot, so a CTI can only
        // be the second-to-last instruction of its block.
        let cti_idx = (blen >= 2 && insns[bstart + blen - 2].is_cti()).then(|| blen - 2);
        let mut succs = Vec::new();
        match cti_idx {
            None => {
                // Block ends by running into the next leader.
                if bi + 1 < blocks.len() {
                    succs.push(Edge::Fall(bi + 1));
                } else {
                    succs.push(Edge::Exit);
                }
            }
            Some(c) => {
                let w = bstart + c;
                let insn = &insns[w];
                let fall = || {
                    if bi + 1 < blocks.len() {
                        Edge::Fall(bi + 1)
                    } else {
                        Edge::Exit
                    }
                };
                let taken = |disp: i32| {
                    let t = w as i64 + disp as i64;
                    if (start as i64..end as i64).contains(&t) {
                        find_block(t as usize)
                            .map(Edge::Taken)
                            .unwrap_or(Edge::Exit)
                    } else {
                        Edge::Exit
                    }
                };
                match insn.control_kind() {
                    ControlKind::CondBranch => {
                        succs.push(taken(insn.branch_disp().expect("direct branch")));
                        succs.push(fall());
                    }
                    ControlKind::UncondBranch => {
                        // `ba` only goes to the target; `bn` only falls.
                        let is_never = matches!(
                            insn,
                            Instruction::Branch {
                                cond: eel_sparc::Cond::N,
                                ..
                            }
                        ) || matches!(
                            insn,
                            Instruction::FBranch {
                                cond: eel_sparc::FCond::N,
                                ..
                            }
                        );
                        if is_never {
                            succs.push(fall());
                        } else {
                            succs.push(taken(insn.branch_disp().expect("direct branch")));
                        }
                    }
                    ControlKind::Call => succs.push(fall()),
                    ControlKind::IndirectJump => succs.push(Edge::Exit),
                    ControlKind::None | ControlKind::Trap => unreachable!("cti checked"),
                }
            }
        }
        built.push(BasicBlock {
            start: bstart,
            len: blen,
            cti: cti_idx,
            succs,
            preds: Vec::new(),
        });
    }

    // Pass 4: invert edges for predecessors.
    for bi in 0..built.len() {
        for si in 0..built[bi].succs.len() {
            if let Edge::Fall(t) | Edge::Taken(t) = built[bi].succs[si] {
                if !built[t].preds.contains(&bi) {
                    built[t].preds.push(bi);
                }
            }
        }
    }

    Ok(Routine {
        name,
        start,
        end,
        blocks: built,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::{Assembler, Cond, IntReg, Operand};

    fn exe_from(a: Assembler) -> Executable {
        Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        )
    }

    /// A two-block loop: init, then a counting loop, then return.
    fn loop_exe() -> Executable {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.mov(Operand::imm(10), IntReg::O0); // 0: block 0
        a.bind(top);
        a.subcc(IntReg::O0, Operand::imm(1), IntReg::O0); // 1: block 1
        a.b(Cond::Ne, top); // 2
        a.nop(); // 3 (delay)
        a.retl(); // 4: block 2
        a.nop(); // 5 (delay)
        exe_from(a)
    }

    #[test]
    fn loop_blocks_and_edges() {
        let cfg = Cfg::build(&loop_exe()).unwrap();
        assert_eq!(cfg.routines.len(), 1);
        let r = &cfg.routines[0];
        assert_eq!(r.blocks.len(), 3);
        assert_eq!(r.blocks[0].len, 1);
        assert_eq!(r.blocks[0].cti, None);
        assert_eq!(r.blocks[0].succs, vec![Edge::Fall(1)]);

        assert_eq!(r.blocks[1].start, 1);
        assert_eq!(r.blocks[1].len, 3);
        assert_eq!(r.blocks[1].cti, Some(1));
        assert_eq!(r.blocks[1].succs, vec![Edge::Taken(1), Edge::Fall(2)]);
        assert_eq!(r.blocks[1].preds, vec![0, 1]);

        assert_eq!(r.blocks[2].cti, Some(0));
        assert_eq!(r.blocks[2].succs, vec![Edge::Exit]);
        assert_eq!(r.blocks[2].preds, vec![1]);
    }

    #[test]
    fn body_and_tail_lengths() {
        let cfg = Cfg::build(&loop_exe()).unwrap();
        let b = &cfg.routines[0].blocks[1];
        assert_eq!(b.tail_len(), 2);
        assert_eq!(b.body_len(), 1);
        let b0 = &cfg.routines[0].blocks[0];
        assert_eq!(b0.tail_len(), 0);
        assert_eq!(b0.body_len(), 1);
    }

    #[test]
    fn ba_has_only_taken_edge() {
        let mut a = Assembler::new();
        let skip = a.new_label();
        a.ba(skip); // 0
        a.nop(); // 1
        a.nop(); // 2: unreachable block
        a.bind(skip);
        a.retl(); // 3
        a.nop(); // 4
        let cfg = Cfg::build(&exe_from(a)).unwrap();
        let r = &cfg.routines[0];
        assert_eq!(r.blocks[0].succs, vec![Edge::Taken(2)]);
        assert!(
            r.blocks[1].preds.is_empty(),
            "unreachable block has no preds"
        );
    }

    #[test]
    fn call_falls_through() {
        let mut a = Assembler::new();
        let f = a.new_label();
        a.call(f); // 0: block 0
        a.nop(); // 1
        a.retl(); // 2: block 1
        a.nop(); // 3
        a.bind(f);
        a.retl(); // 4: block 2 (separate routine in spirit; same here)
        a.nop(); // 5
        let cfg = Cfg::build(&exe_from(a)).unwrap();
        let r = &cfg.routines[0];
        assert_eq!(r.blocks[0].succs, vec![Edge::Fall(1)]);
    }

    #[test]
    fn truncated_delay_slot_rejected() {
        let mut a = Assembler::new();
        a.retl(); // CTI at the very end
        let err = Cfg::build(&exe_from(a)).unwrap_err();
        assert!(matches!(err, EditError::TruncatedDelaySlot { .. }));
    }

    #[test]
    fn dcti_couple_rejected() {
        let mut a = Assembler::new();
        a.retl();
        a.retl(); // CTI in the delay slot
        a.nop();
        let err = Cfg::build(&exe_from(a)).unwrap_err();
        assert!(matches!(err, EditError::CtiInDelaySlot { .. }));
    }

    #[test]
    fn branch_into_delay_slot_rejected() {
        let mut a = Assembler::new();
        let slot = a.new_label();
        a.b(Cond::E, slot); // 0
        a.bind(slot); // oops: label binds at index 1, the delay slot
        a.nop(); // 1
        a.retl(); // 2
        a.nop(); // 3
        let err = Cfg::build(&exe_from(a)).unwrap_err();
        assert!(matches!(err, EditError::DelaySlotTarget { .. }));
    }

    #[test]
    fn multiple_routines_from_symbols() {
        let mut a = Assembler::new();
        a.retl(); // routine a: 0
        a.nop(); // 1
        a.retl(); // routine b: 2
        a.nop(); // 3
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        let exe = Executable::new(
            0x10000,
            words,
            Executable::DEFAULT_DATA_BASE,
            vec![],
            0,
            0x10000,
            vec![
                crate::image::Symbol {
                    name: "a".into(),
                    addr: 0x10000,
                },
                crate::image::Symbol {
                    name: "b".into(),
                    addr: 0x10008,
                },
            ],
        );
        let cfg = Cfg::build(&exe).unwrap();
        assert_eq!(cfg.routines.len(), 2);
        assert_eq!(cfg.routines[0].name, "a");
        assert_eq!(cfg.routines[1].name, "b");
        assert_eq!(cfg.block_count(), 2);
    }

    #[test]
    fn single_entry_and_exit_predicates() {
        let cfg = Cfg::build(&loop_exe()).unwrap();
        let r = &cfg.routines[0];
        assert!(r.blocks[0].single_exit());
        assert!(!r.blocks[1].single_exit(), "loop block has two exits");
        assert!(r.blocks[2].single_entry());
        assert!(!r.blocks[1].single_entry(), "loop head has two entries");
    }

    #[test]
    fn mean_block_len() {
        let cfg = Cfg::build(&loop_exe()).unwrap();
        assert!((cfg.mean_block_len() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn block_lookup_helpers() {
        let cfg = Cfg::build(&loop_exe()).unwrap();
        let r = &cfg.routines[0];
        assert_eq!(r.block_containing(3), Some(1));
        assert_eq!(r.block_starting_at(1), Some(1));
        assert_eq!(r.block_starting_at(2), None);
    }
}
