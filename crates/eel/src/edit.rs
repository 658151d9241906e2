//! The executable editing session: insert instrumentation, transform
//! blocks (e.g. schedule them), re-lay-out the text, and fix branches.
//!
//! This is the paper's Figure 3 loop: a tool (like QPT2 profiling)
//! analyzes the executable through [`EditSession::cfg`], registers
//! instrumentation with [`EditSession::insert_at_block_head`], and
//! calls [`EditSession::emit`] with a per-block transform. *Scheduling
//! is performed on each basic block as it is laid out in the new
//! executable, causing the original and new instructions to be
//! scheduled together.*

use std::collections::HashMap;

use eel_sparc::Instruction;

use crate::cfg::Cfg;
use crate::error::EditError;
use crate::image::{Executable, Symbol};

/// Where an instruction came from. The scheduler relaxes memory
/// dependences between instrumentation and original code (their data
/// live in disjoint areas), so the distinction must survive editing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Origin {
    /// Part of the program being edited.
    Original,
    /// Inserted by an instrumentation tool.
    Instrumentation,
}

/// An instruction tagged with its [`Origin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tagged {
    /// The instruction.
    pub insn: Instruction,
    /// Where it came from.
    pub origin: Origin,
}

impl Tagged {
    /// Tags an original-program instruction.
    pub fn original(insn: Instruction) -> Tagged {
        Tagged {
            insn,
            origin: Origin::Original,
        }
    }

    /// Tags an instrumentation instruction.
    pub fn instrumentation(insn: Instruction) -> Tagged {
        Tagged {
            insn,
            origin: Origin::Instrumentation,
        }
    }
}

/// The editable code of one basic block, as handed to a transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCode {
    /// The schedulable straight-line part (instrumentation has already
    /// been prepended). A transform may reorder or rewrite this.
    pub body: Vec<Tagged>,
    /// The control tail: empty, or exactly `[CTI, delay-slot]`. A
    /// transform must keep the CTI first but may exchange the
    /// delay-slot instruction with a body instruction (delay-slot
    /// filling).
    pub tail: Vec<Tagged>,
}

impl BlockCode {
    /// All instructions, body then tail, untagged.
    pub fn instructions(&self) -> impl Iterator<Item = Instruction> + '_ {
        self.body.iter().chain(&self.tail).map(|t| t.insn)
    }

    /// Total instruction count.
    pub fn len(&self) -> usize {
        self.body.len() + self.tail.len()
    }

    /// Whether the block is empty (never true for real blocks).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty() && self.tail.is_empty()
    }
}

/// Context about the block a transform is rewriting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo<'a> {
    /// The enclosing routine's name.
    pub routine: &'a str,
    /// Index of the routine within the CFG.
    pub routine_index: usize,
    /// Index of the block within the routine.
    pub block_index: usize,
    /// The block's original start address.
    pub addr: u32,
}

/// Per (routine, block): instrumentation keyed by the original body
/// index it precedes, in insertion order within one position.
type InsertionMap = HashMap<(usize, usize), Vec<(usize, Vec<Instruction>)>>;

/// An in-progress edit of one executable.
///
/// ```
/// use eel_edit::{EditSession, Tagged};
/// use eel_sparc::{Assembler, Instruction, IntReg, Operand};
///
/// let mut a = Assembler::new();
/// a.mov(Operand::imm(1), IntReg::O0);
/// a.retl();
/// a.nop();
/// let exe = eel_edit::Executable::from_words(
///     0x10000,
///     a.finish().unwrap().iter().map(|i| i.encode()).collect(),
/// );
///
/// let mut session = EditSession::new(&exe)?;
/// // Prepend a marker instruction to every block.
/// for (r, b) in session.all_blocks() {
///     session.insert_at_block_head(r, b, vec![Instruction::nop()]);
/// }
/// let edited = session.emit(|_, code| code)?;
/// assert_eq!(edited.text_len(), exe.text_len() + 1);
/// # Ok::<(), eel_edit::EditError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EditSession {
    exe: Executable,
    cfg: Cfg,
    /// Per block: instrumentation keyed by the *original body index*
    /// it precedes (`0` = block head, `body_len()` = just before the
    /// control tail). Within one position, insertion order is kept.
    insertions: InsertionMap,
    /// Per (routine, block, successor index): instrumentation that
    /// executes exactly when that edge is taken. Fall-through edges
    /// get inline code; taken edges get an out-of-line trampoline the
    /// branch is retargeted through.
    edge_insertions: HashMap<(usize, usize, usize), Vec<Instruction>>,
    /// The size of the first bss reservation that did not fit, which
    /// makes [`EditSession::emit`] fail.
    bss_overflow: Option<u32>,
}

impl EditSession {
    /// Analyzes `exe` and opens an editing session on it.
    ///
    /// # Errors
    ///
    /// Propagates CFG-construction errors (see [`Cfg::build`]).
    pub fn new(exe: &Executable) -> Result<EditSession, EditError> {
        let cfg = Cfg::build(exe)?;
        Ok(EditSession {
            exe: exe.clone(),
            cfg,
            insertions: HashMap::new(),
            edge_insertions: HashMap::new(),
            bss_overflow: None,
        })
    }

    /// The analyzed control-flow graph.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The executable being edited (with any bss reservations applied).
    pub fn exe(&self) -> &Executable {
        &self.exe
    }

    /// All `(routine_index, block_index)` pairs, in address order.
    pub fn all_blocks(&self) -> Vec<(usize, usize)> {
        self.cfg
            .routines
            .iter()
            .enumerate()
            .flat_map(|(r, routine)| (0..routine.blocks.len()).map(move |b| (r, b)))
            .collect()
    }

    /// Reserves zero-initialized data space (e.g. for counter tables)
    /// and returns its address. A reservation that would run the data
    /// segment past the end of the address space or the image limit
    /// returns 0, so address arithmetic on the result cannot overflow,
    /// and makes [`EditSession::emit`] fail with
    /// [`EditError::BssOverflow`].
    pub fn reserve_bss(&mut self, bytes: u32) -> u32 {
        self.exe.try_reserve_bss(bytes).unwrap_or_else(|| {
            self.bss_overflow.get_or_insert(bytes);
            0
        })
    }

    /// Registers instrumentation to prepend to a block. Repeated calls
    /// append after earlier insertions.
    ///
    /// # Panics
    ///
    /// Panics if the code contains a CTI (instrumentation with
    /// branches must be broken into straight-line pieces, as the paper
    /// notes the scheduler only processes straight-line regions), or
    /// if the block does not exist.
    pub fn insert_at_block_head(&mut self, routine: usize, block: usize, code: Vec<Instruction>) {
        self.insert_before(routine, block, 0, code);
    }

    /// Registers instrumentation immediately before the body
    /// instruction at original index `pos` of a block (`pos == 0` is
    /// the head; `pos == body_len()` lands just before the control
    /// tail). Per-instruction tools — address tracers, memory
    /// checkers — use this.
    ///
    /// # Panics
    ///
    /// Panics if the code contains a CTI, if the block does not exist,
    /// or if `pos` exceeds the block's body length (instrumentation
    /// cannot be placed inside the CTI/delay-slot tail).
    pub fn insert_before(
        &mut self,
        routine: usize,
        block: usize,
        pos: usize,
        code: Vec<Instruction>,
    ) {
        assert!(
            code.iter().all(|i| !i.is_cti()),
            "instrumentation inserted into a block must be straight-line"
        );
        let b = self
            .cfg
            .routines
            .get(routine)
            .and_then(|r| r.blocks.get(block))
            .unwrap_or_else(|| panic!("no block ({routine}, {block})"));
        assert!(
            pos <= b.body_len(),
            "insertion position {pos} past the schedulable body ({})",
            b.body_len()
        );
        let entries = self.insertions.entry((routine, block)).or_default();
        match entries.iter_mut().find(|(p, _)| *p == pos) {
            Some((_, v)) => v.extend(code),
            None => entries.push((pos, code)),
        }
    }

    /// Registers instrumentation on a control-flow edge: the code runs
    /// exactly when the edge `block --succs[succ]--> target` is taken.
    /// A fall-through edge's code is laid out inline between the two
    /// blocks; a taken edge's code becomes an out-of-line trampoline
    /// ending in `ba target`, and the branch is retargeted through it
    /// (edge profiling's standard mechanism).
    ///
    /// # Panics
    ///
    /// Panics if the code contains a CTI, the edge does not exist, or
    /// the edge is an [`Edge::Exit`](crate::Edge::Exit) (instrument the
    /// block body end instead — exits have no landing site to
    /// trampoline to).
    pub fn insert_on_edge(
        &mut self,
        routine: usize,
        block: usize,
        succ: usize,
        code: Vec<Instruction>,
    ) {
        assert!(
            code.iter().all(|i| !i.is_cti()),
            "edge instrumentation must be straight-line"
        );
        let b = self
            .cfg
            .routines
            .get(routine)
            .and_then(|r| r.blocks.get(block))
            .unwrap_or_else(|| panic!("no block ({routine}, {block})"));
        let edge = b
            .succs
            .get(succ)
            .unwrap_or_else(|| panic!("block ({routine}, {block}) has no successor {succ}"));
        match edge {
            crate::cfg::Edge::Exit => {
                panic!("exit edges cannot carry edge instrumentation")
            }
            crate::cfg::Edge::Fall(t) => {
                assert_eq!(
                    *t,
                    block + 1,
                    "fall edges go to the next block by construction"
                );
            }
            crate::cfg::Edge::Taken(_) => {
                assert!(b.cti.is_some(), "taken edges come from blocks with a CTI");
            }
        }
        self.edge_insertions
            .entry((routine, block, succ))
            .or_default()
            .extend(code);
    }

    /// The code of a block as a transform would see it: insertions
    /// prepended to the body, control tail split off.
    pub fn block_code(&self, routine: usize, block: usize) -> BlockCode {
        let r = &self.cfg.routines[routine];
        let b = &r.blocks[block];
        let insns = self.exe.text()[b.start..b.start + b.len]
            .iter()
            .map(|&w| Instruction::decode(w));
        let entries = self.insertions.get(&(routine, block));
        let at = |pos: usize| {
            entries
                .into_iter()
                .flatten()
                .filter(move |(p, _)| *p == pos)
                .flat_map(|(_, v)| v.iter())
                .copied()
                .map(Tagged::instrumentation)
        };
        let mut body: Vec<Tagged> = Vec::new();
        let mut tail = Vec::new();
        for (k, insn) in insns.enumerate() {
            if k < b.body_len() {
                body.extend(at(k));
                body.push(Tagged::original(insn));
            } else {
                if k == b.body_len() {
                    body.extend(at(k));
                }
                tail.push(Tagged::original(insn));
            }
        }
        if b.body_len() == b.len {
            // Fall-through block: trailing insertions go at the end.
            body.extend(at(b.body_len()));
        }
        BlockCode { body, tail }
    }

    /// Lays out the edited executable, running `transform` on every
    /// block (instrumentation included) and fixing up branches.
    ///
    /// # Errors
    ///
    /// Returns [`EditError::BadTransform`] if a transform breaks the
    /// control tail or introduces a CTI into a body,
    /// [`EditError::BadBranchTarget`] if a branch target is not a block
    /// leader, [`EditError::TextOverflow`] if the rewritten text
    /// would collide with the data segment, and
    /// [`EditError::BssOverflow`] if a bss reservation did not fit.
    pub fn emit<F>(&self, mut transform: F) -> Result<Executable, EditError>
    where
        F: FnMut(BlockInfo<'_>, BlockCode) -> BlockCode,
    {
        if let Some(bytes) = self.bss_overflow {
            return Err(EditError::BssOverflow { bytes });
        }
        let mut new_text: Vec<u32> = Vec::with_capacity(self.exe.text_len() * 2);
        // old leader word index -> new word index
        let mut leader_map: HashMap<usize, usize> = HashMap::new();
        // Pending displacement fixups: (new word index, how to find the
        // target, the instruction).
        enum Fix {
            /// A block's own CTI: target = old CTI index + displacement
            /// (unless retargeted through a trampoline).
            FromCti { old_idx: usize },
            /// A synthesized branch straight to an old leader index.
            ToLeader { old_target: usize },
        }
        let mut ctis: Vec<(usize, Fix, Instruction)> = Vec::new();
        // old CTI word index -> new word index of its edge trampoline
        let mut retarget: HashMap<usize, usize> = HashMap::new();

        for (ri, r) in self.cfg.routines.iter().enumerate() {
            // Taken-edge trampolines of this routine, emitted after its
            // last block: (instrumentation, old target leader, old CTI).
            let mut deferred: Vec<(Vec<Instruction>, usize, usize)> = Vec::new();
            for (bi, b) in r.blocks.iter().enumerate() {
                let block_addr = self.exe.text_addr(b.start);
                let info = BlockInfo {
                    routine: &r.name,
                    routine_index: ri,
                    block_index: bi,
                    addr: block_addr,
                };
                let code = transform(info, self.block_code(ri, bi));

                // Validate the control tail survived the transform.
                let orig_cti = b
                    .cti
                    .map(|c| Instruction::decode(self.exe.text()[b.start + c]));
                match orig_cti {
                    Some(cti) => {
                        if code.tail.len() != 2 {
                            return Err(EditError::BadTransform {
                                block_addr,
                                what: "must keep a [CTI, delay-slot] tail",
                            });
                        }
                        if code.tail[0].insn != cti {
                            return Err(EditError::BadTransform {
                                block_addr,
                                what: "changed the control-transfer instruction",
                            });
                        }
                        if code.tail[1].insn.is_cti() {
                            return Err(EditError::BadTransform {
                                block_addr,
                                what: "put a CTI in the delay slot",
                            });
                        }
                    }
                    None => {
                        if !code.tail.is_empty() {
                            return Err(EditError::BadTransform {
                                block_addr,
                                what: "added a control tail to a fall-through block",
                            });
                        }
                    }
                }
                if code.body.iter().any(|t| t.insn.is_cti()) {
                    return Err(EditError::BadTransform {
                        block_addr,
                        what: "moved a CTI into the block body",
                    });
                }

                leader_map.insert(b.start, new_text.len());
                let body_len = code.body.len();
                for t in code.body.iter().chain(&code.tail) {
                    new_text.push(t.insn.encode());
                }
                if let Some(c) = b.cti {
                    ctis.push((
                        leader_map[&b.start] + body_len,
                        Fix::FromCti {
                            old_idx: b.start + c,
                        },
                        code.tail[0].insn,
                    ));
                }

                // Edge instrumentation out of this block.
                for (si, edge) in b.succs.iter().enumerate() {
                    let Some(snippet) = self.edge_insertions.get(&(ri, bi, si)) else {
                        continue;
                    };
                    let snippet_code = BlockCode {
                        body: snippet
                            .iter()
                            .copied()
                            .map(Tagged::instrumentation)
                            .collect(),
                        tail: vec![],
                    };
                    let transformed = transform(info, snippet_code);
                    if !transformed.tail.is_empty()
                        || transformed.body.iter().any(|t| t.insn.is_cti())
                    {
                        return Err(EditError::BadTransform {
                            block_addr,
                            what: "turned edge instrumentation into control flow",
                        });
                    }
                    let words: Vec<Instruction> = transformed.body.iter().map(|t| t.insn).collect();
                    match edge {
                        crate::cfg::Edge::Fall(_) => {
                            // Inline: runs exactly on the fall path.
                            for i in &words {
                                new_text.push(i.encode());
                            }
                        }
                        crate::cfg::Edge::Taken(t) => {
                            let cti_old = b.start + b.cti.expect("taken edge implies CTI");
                            deferred.push((words, r.blocks[*t].start, cti_old));
                        }
                        crate::cfg::Edge::Exit => {
                            unreachable!("insert_on_edge rejects exit edges")
                        }
                    }
                }
            }

            // Emit this routine's taken-edge trampolines: snippet, then
            // `ba <original target>` with the delay slot unfilled.
            for (words, old_target, cti_old) in deferred {
                retarget.insert(cti_old, new_text.len());
                for i in &words {
                    new_text.push(i.encode());
                }
                let ba = Instruction::Branch {
                    cond: eel_sparc::Cond::A,
                    annul: false,
                    disp: 0,
                };
                ctis.push((new_text.len(), Fix::ToLeader { old_target }, ba));
                new_text.push(ba.encode());
                new_text.push(Instruction::nop().encode());
            }
        }

        // Fix up direct control-transfer displacements.
        for (new_idx, fix, mut insn) in ctis {
            let Some(old_disp) = insn.branch_disp() else {
                continue;
            };
            let new_target = match fix {
                Fix::FromCti { old_idx } => {
                    if let Some(&tramp) = retarget.get(&old_idx) {
                        tramp
                    } else {
                        let old_target = old_idx as i64 + old_disp as i64;
                        let from = self.exe.text_addr(old_idx);
                        if old_target < 0 || old_target > u32::MAX as i64 {
                            return Err(EditError::BadBranchTarget { from, to: 0 });
                        }
                        *leader_map.get(&(old_target as usize)).ok_or(
                            EditError::BadBranchTarget {
                                from,
                                to: self.exe.text_addr(old_target as usize),
                            },
                        )?
                    }
                }
                Fix::ToLeader { old_target } => *leader_map
                    .get(&old_target)
                    .expect("trampoline targets are block leaders"),
            };
            insn.set_branch_disp(new_target as i32 - new_idx as i32);
            new_text[new_idx] = insn.encode();
        }

        // Remap the entry point and symbols.
        let remap = |addr: u32| -> Result<u32, EditError> {
            let idx = self.exe.text_index(addr)?;
            let new = leader_map.get(&idx).ok_or(EditError::BadBranchTarget {
                from: addr,
                to: addr,
            })?;
            Ok(self.exe.text_base() + 4 * *new as u32)
        };
        let entry = remap(self.exe.entry())?;
        let symbols = self
            .exe
            .symbols()
            .iter()
            .map(|s| {
                Ok(Symbol {
                    name: s.name.clone(),
                    addr: remap(s.addr)?,
                })
            })
            .collect::<Result<Vec<_>, EditError>>()?;

        let needed = 4 * new_text.len() as u32;
        let available = self.exe.data_base() - self.exe.text_base();
        if needed > available {
            return Err(EditError::TextOverflow { needed, available });
        }

        Ok(Executable::new(
            self.exe.text_base(),
            new_text,
            self.exe.data_base(),
            self.exe.data().to_vec(),
            self.exe.bss_size(),
            entry,
            symbols,
        ))
    }

    /// Lays out the executable without transforming blocks — i.e. the
    /// paper's *instrumented but unscheduled* configuration.
    ///
    /// # Errors
    ///
    /// As for [`EditSession::emit`].
    pub fn emit_unscheduled(&self) -> Result<Executable, EditError> {
        self.emit(|_, code| code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::{Address, Assembler, Cond, IntReg, Operand};

    fn loop_exe() -> Executable {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.mov(Operand::imm(10), IntReg::O0); // block 0
        a.bind(top);
        a.subcc(IntReg::O0, Operand::imm(1), IntReg::O0); // block 1
        a.b(Cond::Ne, top);
        a.nop();
        a.retl(); // block 2
        a.nop();
        Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        )
    }

    #[test]
    fn identity_edit_preserves_everything() {
        let exe = loop_exe();
        let session = EditSession::new(&exe).unwrap();
        let out = session.emit_unscheduled().unwrap();
        assert_eq!(out.text(), exe.text());
        assert_eq!(out.entry(), exe.entry());
    }

    #[test]
    fn insertion_grows_blocks_and_retargets_branches() {
        let exe = loop_exe();
        let mut session = EditSession::new(&exe).unwrap();
        for (r, b) in session.all_blocks() {
            session.insert_at_block_head(r, b, vec![Instruction::nop()]);
        }
        let out = session.emit_unscheduled().unwrap();
        assert_eq!(out.text_len(), exe.text_len() + 3);
        // The loop branch must still target the start of (grown)
        // block 1: word index 2 (1 nop + 1 mov), branch at index 4.
        let branch = Instruction::decode(out.text()[4]);
        assert_eq!(branch.branch_disp(), Some(-2));
    }

    #[test]
    fn edited_blocks_see_tagged_instrumentation() {
        let exe = loop_exe();
        let mut session = EditSession::new(&exe).unwrap();
        session.insert_at_block_head(0, 1, vec![Instruction::nop()]);
        let code = session.block_code(0, 1);
        assert_eq!(code.body.len(), 2);
        assert_eq!(code.body[0].origin, Origin::Instrumentation);
        assert_eq!(code.body[1].origin, Origin::Original);
        assert_eq!(code.tail.len(), 2);
        assert_eq!(code.tail[0].origin, Origin::Original);
    }

    #[test]
    fn transform_may_reorder_body() {
        let mut a = Assembler::new();
        a.mov(Operand::imm(1), IntReg::O0);
        a.mov(Operand::imm(2), IntReg::O1);
        a.retl();
        a.nop();
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let session = EditSession::new(&exe).unwrap();
        let out = session
            .emit(|_, mut code| {
                code.body.reverse();
                code
            })
            .unwrap();
        assert_eq!(
            Instruction::decode(out.text()[0]),
            Instruction::mov(Operand::imm(2), IntReg::O1)
        );
    }

    #[test]
    fn transform_dropping_tail_is_rejected() {
        let exe = loop_exe();
        let session = EditSession::new(&exe).unwrap();
        let err = session
            .emit(|_, mut code| {
                code.tail.clear();
                code
            })
            .unwrap_err();
        assert!(matches!(err, EditError::BadTransform { .. }));
    }

    #[test]
    fn transform_changing_cti_is_rejected() {
        let exe = loop_exe();
        let session = EditSession::new(&exe).unwrap();
        let err = session
            .emit(|_, mut code| {
                if !code.tail.is_empty() {
                    code.tail[0] = Tagged::original(Instruction::retl());
                }
                code
            })
            .unwrap_err();
        assert!(matches!(
            err,
            EditError::BadTransform {
                what: "changed the control-transfer instruction",
                ..
            }
        ));
    }

    #[test]
    fn transform_moving_cti_to_body_is_rejected() {
        let exe = loop_exe();
        let session = EditSession::new(&exe).unwrap();
        let err = session
            .emit(|_, mut code| {
                code.body.push(Tagged::original(Instruction::Branch {
                    cond: Cond::A,
                    annul: false,
                    disp: 0,
                }));
                code
            })
            .unwrap_err();
        assert!(matches!(
            err,
            EditError::BadTransform {
                what: "moved a CTI into the block body",
                ..
            }
        ));
    }

    #[test]
    fn reserve_bss_allocates_past_data() {
        let exe = loop_exe();
        let mut session = EditSession::new(&exe).unwrap();
        let addr = session.reserve_bss(16);
        assert_eq!(addr, Executable::DEFAULT_DATA_BASE);
        assert_eq!(session.exe().data_end(), addr + 16);
    }

    #[test]
    fn bss_overflow_fails_the_emit() {
        let mut a = Assembler::new();
        a.retl();
        a.nop();
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        // The data segment ends 8 bytes below the top of the address
        // space: 8 bytes fit, 16 more do not.
        let exe = Executable::new(0x1000, words, 0xFFFF_FFF0, vec![0; 8], 0, 0x1000, vec![]);
        let mut session = EditSession::new(&exe).unwrap();
        assert_eq!(session.reserve_bss(4), 0xFFFF_FFF8);
        assert!(session.emit_unscheduled().is_ok());
        assert_eq!(session.reserve_bss(16), 0, "does not fit");
        assert_eq!(session.exe().data_end(), 0xFFFF_FFFC, "left as it was");
        let err = session.emit_unscheduled().unwrap_err();
        assert_eq!(err, EditError::BssOverflow { bytes: 16 });
        assert!(err
            .to_string()
            .contains("past the end of the address space"));
    }

    #[test]
    fn instrumentation_with_cti_panics() {
        let exe = loop_exe();
        let mut session = EditSession::new(&exe).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.insert_at_block_head(0, 0, vec![Instruction::retl()]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn text_overflow_detected() {
        let mut a = Assembler::new();
        a.retl();
        a.nop();
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        // Data base immediately after the text: no room to grow.
        let exe = Executable::new(0x1000, words, 0x1008, vec![], 0, 0x1000, vec![]);
        let mut session = EditSession::new(&exe).unwrap();
        session.insert_at_block_head(0, 0, vec![Instruction::nop(); 8]);
        let err = session.emit_unscheduled().unwrap_err();
        assert!(matches!(err, EditError::TextOverflow { .. }));
    }

    #[test]
    fn call_displacements_retarget_across_routines() {
        let mut a = Assembler::new();
        let f = a.new_label();
        a.call(f); // 0 (routine main)
        a.nop(); // 1
        a.retl(); // 2
        a.nop(); // 3
        a.bind(f);
        a.retl(); // 4 (routine f)
        a.nop(); // 5
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        let exe = Executable::new(
            0x10000,
            words,
            Executable::DEFAULT_DATA_BASE,
            vec![],
            0,
            0x10000,
            vec![
                Symbol {
                    name: "main".into(),
                    addr: 0x10000,
                },
                Symbol {
                    name: "f".into(),
                    addr: 0x10010,
                },
            ],
        );
        let mut session = EditSession::new(&exe).unwrap();
        // Grow only the first routine: the call displacement must grow.
        session.insert_at_block_head(0, 0, vec![Instruction::nop(); 3]);
        let out = session.emit_unscheduled().unwrap();
        // call is now at word 3, f at word 7.
        let call = Instruction::decode(out.text()[3]);
        assert_eq!(call.branch_disp(), Some(4));
        // And f's symbol moved.
        assert_eq!(
            out.symbols().iter().find(|s| s.name == "f").unwrap().addr,
            0x1001C
        );
    }

    #[test]
    fn fall_edge_insertion_is_inline() {
        // Diamond: block 0 branches or falls; instrument the fall edge.
        let mut a = Assembler::new();
        let t = a.new_label();
        a.cmp(IntReg::O0, Operand::imm(0));
        a.b(Cond::E, t); // block 0
        a.nop();
        a.mov(Operand::imm(1), IntReg::O1); // block 1 (fall path)
        a.bind(t);
        a.retl(); // block 2
        a.nop();
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let mut session = EditSession::new(&exe).unwrap();
        // block 0's succs: [Taken(2), Fall(1)].
        session.insert_on_edge(0, 0, 1, vec![Instruction::mov(Operand::imm(9), IntReg::O2)]);
        let out = session.emit_unscheduled().unwrap();
        // The marker sits between block 0 and block 1.
        assert_eq!(
            Instruction::decode(out.text()[3]),
            Instruction::mov(Operand::imm(9), IntReg::O2)
        );
        // And the taken branch must skip over it: be now jumps 4 words
        // further than before.
        let b = Instruction::decode(out.text()[1]);
        assert_eq!(b.branch_disp(), Some(4));
    }

    #[test]
    fn taken_edge_insertion_uses_a_trampoline() {
        let mut a = Assembler::new();
        let t = a.new_label();
        a.cmp(IntReg::O0, Operand::imm(0));
        a.b(Cond::E, t); // block 0: Taken(2), Fall(1)
        a.nop();
        a.mov(Operand::imm(1), IntReg::O1); // block 1
        a.bind(t);
        a.retl(); // block 2
        a.nop();
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let mut session = EditSession::new(&exe).unwrap();
        let marker = Instruction::mov(Operand::imm(7), IntReg::O3);
        session.insert_on_edge(0, 0, 0, vec![marker]);
        let out = session.emit_unscheduled().unwrap();
        // Original 6 words + trampoline (marker, ba, nop).
        assert_eq!(out.text_len(), 9);
        assert_eq!(Instruction::decode(out.text()[6]), marker);
        // The branch goes to the trampoline…
        let b = Instruction::decode(out.text()[1]);
        assert_eq!(
            b.branch_disp(),
            Some(5),
            "be targets the trampoline at word 6"
        );
        // …and the trampoline's ba returns to the original target.
        let ba = Instruction::decode(out.text()[7]);
        assert_eq!(ba.branch_disp(), Some(-3), "ba back to block 2 at word 4");
    }

    #[test]
    fn exit_edge_insertion_panics() {
        let mut a = Assembler::new();
        a.retl();
        a.nop();
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let mut session = EditSession::new(&exe).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.insert_on_edge(0, 0, 0, vec![Instruction::nop()]);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn loads_and_stores_pass_through_unchanged() {
        let mut a = Assembler::new();
        a.ld(Address::base_imm(IntReg::O0, 4), IntReg::O1);
        a.st(IntReg::O1, Address::base_imm(IntReg::O0, 8));
        a.retl();
        a.nop();
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let out = EditSession::new(&exe).unwrap().emit_unscheduled().unwrap();
        assert_eq!(out.text()[..2], exe.text()[..2]);
    }
}
