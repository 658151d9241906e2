//! A run's control path, and the three ways the block engine treats a
//! program's semantics: execute, execute and record, or walk.
//!
//! An edit that only inserts straight-line code and reorders code
//! within blocks — QPT2's counters, EEL's scheduling — leaves a
//! program's control flow as it was: the edited executable performs
//! the original's control transfers, in the original's order, with the
//! original's outcomes. So one recorded execution of the original is
//! enough to time every such edit. A *walk* ([`crate::walk`]) runs the
//! block engine over the edited executable — block cache, fetch
//! probes, timing memo, fused delay slots, every counter — without
//! executing a single op, reading each outcome the program's data
//! would decide from the recorded [`Path`] instead. This is Larus's
//! abstract execution (*Software—Practice & Experience*, 1990), the
//! path replay behind QPT's own trace regeneration, applied to timing.
//!
//! A path holds only what data decides: one bit per conditional branch
//! whose condition is not static (taken or not), one bit per trap
//! (whether it ended the run), every `jmpl` target, and the exit code.
//! The rest — block boundaries, static branches, calls, delay slots,
//! annulment — the walk reads from the walked executable's own text.
//! A recorded `jmpl` target is an address of the recorded executable;
//! the walk maps it through the edit's [`LeaderMap`].
//!
//! The path also keeps a checksum of every control transfer the run
//! performed, each word with its displacement cleared, and the walk
//! checks its own against it at the exit. A walk that cannot follow
//! its path fails with [`SimError::OffPath`]: the path runs out, still
//! holds outcomes at the exit, names a jump target no block of the
//! walked executable starts at, or the walked executable's control
//! transfers differ from the recorded ones (another program, a changed
//! branch condition).

use eel_edit::LeaderMap;
use eel_sparc::{Cond, FCond, Instruction};

use crate::block::FNV_PRIME;
use crate::cpu::{branch_flow, Cpu, Step};
use crate::error::SimError;
use crate::memory::Memory;

/// The control path of one completed run: what a walk needs to retrace
/// it on an edit of the executable ([`crate::record`] makes one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Path {
    /// Outcome bits in execution order, 64 to a word, least significant
    /// first: one per conditional branch whose condition is not static
    /// (taken), one per trap (ended the run).
    bits: Vec<u64>,
    /// How many bits of `bits` are outcomes.
    len: u64,
    /// Every `jmpl` target, in execution order.
    targets: Vec<u32>,
    /// fnv1a-style hash of every executed control transfer's
    /// [`signature`], in order.
    checksum: u64,
    /// The program's exit code.
    exit_code: u32,
}

impl Path {
    /// The recorded run's exit code, which every walk along the path
    /// reports.
    pub fn exit_code(&self) -> u32 {
        self.exit_code
    }
}

/// A control transfer's word with its displacement cleared: what an
/// executable and an edit of it share, wherever the edit moved the
/// target.
pub(crate) fn signature(insn: &Instruction) -> u32 {
    match insn {
        Instruction::Branch { .. } | Instruction::FBranch { .. } => insn.encode() & !0x3F_FFFF,
        Instruction::Call { .. } => insn.encode() & !0x3FFF_FFFF,
        _ => insn.encode(),
    }
}

/// One step of the control-transfer checksum.
#[inline(always)]
fn mix(h: u64, sig: u32) -> u64 {
    (h ^ u64::from(sig)).wrapping_mul(FNV_PRIME)
}

/// The outcome of a branch on `cond` when it does not depend on the
/// condition codes.
pub(crate) fn fixed_outcome(cond: Cond) -> Option<bool> {
    cond.is_unconditional().then_some(cond == Cond::A)
}

/// [`fixed_outcome`] for a floating-point branch.
pub(crate) fn fixed_foutcome(cond: FCond) -> Option<bool> {
    cond.is_unconditional().then_some(cond == FCond::A)
}

/// What a run does with the program's semantics: the one axis the
/// block engine's run loop is generic over, so each mode compiles its
/// own loop and a plain run pays nothing for the other two.
pub(crate) trait Mode {
    /// Whether straight-line ops execute. A walk's do not: it reads
    /// every outcome they would decide from its path.
    const EXECUTES: bool;

    /// The outcome of a conditional branch at `pc`: `fixed` when its
    /// condition is static, else what `eval` computes from the
    /// condition codes (executing) or what the path says (walking).
    /// `sig` is the branch's [`signature`].
    fn branch(
        &mut self,
        pc: u32,
        sig: u32,
        fixed: Option<bool>,
        eval: impl FnOnce() -> bool,
    ) -> Result<bool, SimError>;

    /// A `call`, whose outcome is static; `sig` is its [`signature`].
    fn call(&mut self, sig: u32);

    /// One instruction at `cpu.pc` through [`Cpu::step_decoded`] or
    /// its walking mirror: a `jmpl`, trap or undecodable block
    /// terminator, or any single step.
    fn step(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: &Instruction,
    ) -> Result<Step, SimError>;
}

/// A plain run: execute everything, keep nothing.
pub(crate) struct Execute;

impl Mode for Execute {
    const EXECUTES: bool = true;

    #[inline(always)]
    fn branch(
        &mut self,
        _: u32,
        _: u32,
        _: Option<bool>,
        eval: impl FnOnce() -> bool,
    ) -> Result<bool, SimError> {
        Ok(eval())
    }

    #[inline(always)]
    fn call(&mut self, _: u32) {}

    #[inline(always)]
    fn step(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: &Instruction,
    ) -> Result<Step, SimError> {
        cpu.step_decoded(mem, insn)
    }
}

/// An executing run that records its [`Path`].
#[derive(Default)]
pub(crate) struct Record {
    pub(crate) path: Path,
}

impl Record {
    fn bit(&mut self, b: bool) {
        let p = &mut self.path;
        if p.len.is_multiple_of(64) {
            p.bits.push(0);
        }
        if b {
            *p.bits.last_mut().expect("pushed above") |= 1 << (p.len % 64);
        }
        p.len += 1;
    }

    fn sum(&mut self, sig: u32) {
        self.path.checksum = mix(self.path.checksum, sig);
    }
}

impl Mode for Record {
    const EXECUTES: bool = true;

    #[inline(always)]
    fn branch(
        &mut self,
        _: u32,
        sig: u32,
        fixed: Option<bool>,
        eval: impl FnOnce() -> bool,
    ) -> Result<bool, SimError> {
        let taken = eval();
        if fixed.is_none() {
            self.bit(taken);
        }
        self.sum(sig);
        Ok(taken)
    }

    #[inline(always)]
    fn call(&mut self, sig: u32) {
        self.sum(sig);
    }

    fn step(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        insn: &Instruction,
    ) -> Result<Step, SimError> {
        let step = cpu.step_decoded(mem, insn)?;
        let taken = matches!(step, Step::Continue { taken_cti: true });
        match *insn {
            Instruction::Branch { cond, .. } => {
                if fixed_outcome(cond).is_none() {
                    self.bit(taken);
                }
            }
            Instruction::FBranch { cond, .. } => {
                if fixed_foutcome(cond).is_none() {
                    self.bit(taken);
                }
            }
            Instruction::Call { .. } => {}
            // The target `step_decoded` just left in `npc`.
            Instruction::Jmpl { .. } => self.path.targets.push(cpu.npc),
            Instruction::Trap { .. } => {
                self.bit(matches!(step, Step::Exit(_)));
                if let Step::Exit(code) = step {
                    self.path.exit_code = code;
                }
            }
            // Not a control transfer.
            _ => return Ok(step),
        }
        self.sum(signature(insn));
        Ok(step)
    }
}

/// A walk along a recorded [`Path`]: nothing executes, and every
/// outcome comes from the path.
pub(crate) struct Walk<'p> {
    path: &'p Path,
    leaders: &'p LeaderMap,
    /// The next outcome bit.
    bit: u64,
    /// The next jump target.
    target: usize,
    /// The walked control transfers' checksum so far.
    checksum: u64,
}

impl<'p> Walk<'p> {
    pub(crate) fn new(path: &'p Path, leaders: &'p LeaderMap) -> Walk<'p> {
        Walk {
            path,
            leaders,
            bit: 0,
            target: 0,
            checksum: 0,
        }
    }

    fn sum(&mut self, sig: u32) {
        self.checksum = mix(self.checksum, sig);
    }

    fn bit(&mut self, pc: u32) -> Result<bool, SimError> {
        if self.bit == self.path.len {
            return Err(SimError::OffPath {
                pc,
                what: "the path has no outcome left",
            });
        }
        let b = self.path.bits[(self.bit / 64) as usize] >> (self.bit % 64) & 1 != 0;
        self.bit += 1;
        Ok(b)
    }

    fn target(&mut self, pc: u32) -> Result<u32, SimError> {
        let Some(&old) = self.path.targets.get(self.target) else {
            return Err(SimError::OffPath {
                pc,
                what: "the path has no jump target left",
            });
        };
        self.target += 1;
        self.leaders.get(old).ok_or(SimError::OffPath {
            pc,
            what: "a recorded jump target starts no block of the walked executable",
        })
    }

    /// The exit at the trap at `pc`: the path must be used up, and the
    /// walked control transfers must be the recorded ones.
    fn exit(&self, pc: u32) -> Result<Step, SimError> {
        let what = if self.bit != self.path.len || self.target != self.path.targets.len() {
            "the walk ended with outcomes of the path left"
        } else if self.checksum != self.path.checksum {
            "the walked control transfers differ from the recorded ones"
        } else {
            return Ok(Step::Exit(self.path.exit_code));
        };
        Err(SimError::OffPath { pc, what })
    }
}

impl Mode for Walk<'_> {
    const EXECUTES: bool = false;

    #[inline(always)]
    fn branch(
        &mut self,
        pc: u32,
        sig: u32,
        fixed: Option<bool>,
        _: impl FnOnce() -> bool,
    ) -> Result<bool, SimError> {
        self.sum(sig);
        match fixed {
            Some(taken) => Ok(taken),
            None => self.bit(pc),
        }
    }

    #[inline(always)]
    fn call(&mut self, sig: u32) {
        self.sum(sig);
    }

    /// [`Cpu::step_decoded`]'s control flow with every outcome read
    /// from the path: only `pc` and `npc` change.
    fn step(
        &mut self,
        cpu: &mut Cpu,
        _: &mut Memory,
        insn: &Instruction,
    ) -> Result<Step, SimError> {
        let pc = cpu.pc;
        let mut next_pc = cpu.npc;
        let mut next_npc = cpu.npc.wrapping_add(4);
        let mut taken_cti = false;
        let target = |disp: i32| pc.wrapping_add((disp as i64 * 4) as u32);
        match *insn {
            Instruction::Branch { cond, annul, disp } => {
                taken_cti = self.branch(pc, signature(insn), fixed_outcome(cond), || false)?;
                (next_pc, next_npc) =
                    branch_flow(cpu.npc, taken_cti, annul, cond == Cond::A, target(disp));
            }
            Instruction::FBranch { cond, annul, disp } => {
                taken_cti = self.branch(pc, signature(insn), fixed_foutcome(cond), || false)?;
                (next_pc, next_npc) =
                    branch_flow(cpu.npc, taken_cti, annul, cond == FCond::A, target(disp));
            }
            Instruction::Call { disp } => {
                self.call(signature(insn));
                next_npc = target(disp);
                taken_cti = true;
            }
            Instruction::Jmpl { .. } => {
                self.sum(signature(insn));
                next_npc = self.target(pc)?;
                taken_cti = true;
            }
            Instruction::Trap { .. } => {
                self.sum(signature(insn));
                if self.bit(pc)? {
                    return self.exit(pc);
                }
            }
            Instruction::Unknown(word) => return Err(SimError::IllegalInstruction { pc, word }),
            _ => {}
        }
        cpu.pc = next_pc;
        cpu.npc = next_npc;
        Ok(Step::Continue { taken_cti })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icache::DCacheConfig;
    use crate::run::{record, run, walk, RunConfig, RunResult, TimingConfig};
    use eel_edit::{EditSession, Executable, Symbol};
    use eel_pipeline::MachineModel;
    use eel_sparc::{Assembler, IntReg, Operand};

    const BASE: u32 = 0x10000;

    /// A countdown loop calling a leaf routine `f` each time round, so
    /// its path holds branch outcomes, return targets and a trap.
    fn call_loop(n: i32) -> Executable {
        let mut a = Assembler::new();
        let (top, f) = (a.new_label(), a.new_label());
        a.mov(Operand::imm(n), IntReg::L0);
        a.mov(Operand::imm(0), IntReg::O0);
        a.bind(top);
        a.call(f);
        a.nop();
        a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
        a.b(Cond::Ne, top);
        a.nop();
        a.ta(0);
        let f_at = a.len();
        a.bind(f);
        a.add(IntReg::O0, Operand::imm(3), IntReg::O0);
        a.retl();
        a.nop();
        let words = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        let symbols = vec![
            Symbol {
                name: "main".into(),
                addr: BASE,
            },
            Symbol {
                name: "f".into(),
                addr: BASE + 4 * f_at as u32,
            },
        ];
        Executable::new(
            BASE,
            words,
            Executable::DEFAULT_DATA_BASE,
            vec![],
            0,
            BASE,
            symbols,
        )
    }

    /// `exe` with two nops at the head of every block, and the map.
    fn padded(exe: &Executable) -> (Executable, LeaderMap) {
        let mut session = EditSession::new(exe).unwrap();
        for (r, b) in session.all_blocks() {
            session.insert_at_block_head(r, b, vec![Instruction::nop(); 2]);
        }
        session.emit_mapped(|_, code| code).unwrap()
    }

    fn timed() -> RunConfig {
        RunConfig {
            timing: Some(TimingConfig {
                taken_branch_penalty: 1,
                icache: Some(Default::default()),
                dcache: None,
            }),
            ..RunConfig::default()
        }
    }

    fn recorded(exe: &Executable, model: &MachineModel) -> (RunResult, Path) {
        record(exe, Some(model), &timed(), None).unwrap()
    }

    fn walked(
        exe: &(Executable, LeaderMap),
        path: &Path,
        model: &MachineModel,
    ) -> Result<RunResult, SimError> {
        walk(&exe.0, path, &exe.1, Some(model), &timed(), None)
    }

    #[test]
    fn a_walk_reports_what_a_run_does() {
        let model = MachineModel::ultrasparc();
        let original = call_loop(9);
        let (executed, path) = recorded(&original, &model);
        let plain = run(&original, Some(&model), &timed()).unwrap();
        assert_eq!(executed.cycles, plain.cycles);
        assert_eq!(executed.pc_counts, plain.pc_counts);
        assert_eq!(path.exit_code(), 27);
        // Nine loop branches and the exit trap; nine returns.
        assert_eq!((path.len, path.targets.len()), (10, 9));

        let edit = padded(&original);
        let executed = run(&edit.0, Some(&model), &timed()).unwrap();
        let walked = walked(&edit, &path, &model).unwrap();
        assert_eq!(walked.cycles, executed.cycles);
        assert_eq!(walked.instructions, executed.instructions);
        assert_eq!(walked.pc_counts, executed.pc_counts);
        assert_eq!(walked.taken_branches, executed.taken_branches);
        assert_eq!(walked.mem_ops, executed.mem_ops);
        assert_eq!(walked.icache_misses, executed.icache_misses);
        assert_eq!(walked.exit_code, executed.exit_code);
    }

    /// Near the instruction budget both single-step, so every control
    /// transfer of the loop's last iterations goes through the walk's
    /// mirror of `step_decoded`.
    #[test]
    fn a_walk_single_steps_like_a_run() {
        let model = MachineModel::ultrasparc();
        let original = call_loop(4);
        let (_, path) = recorded(&original, &model);
        let (edited, leaders) = padded(&original);
        let total = run(&edited, Some(&model), &timed()).unwrap().instructions;
        for budget in total - 40..=total + 1 {
            let config = RunConfig {
                max_instructions: budget,
                ..timed()
            };
            let executed = run(&edited, Some(&model), &config);
            let walked = walk(&edited, &path, &leaders, Some(&model), &config, None);
            match (executed, walked) {
                (Ok(e), Ok(w)) => {
                    assert_eq!((w.cycles, w.instructions), (e.cycles, e.instructions));
                    assert_eq!(w.pc_counts, e.pc_counts, "budget {budget}");
                }
                (Err(e), Err(w)) => assert_eq!(w, e, "budget {budget}"),
                (e, w) => panic!("budget {budget}: ran {e:?}, walked {w:?}"),
            }
        }
    }

    fn off_path(r: Result<RunResult, SimError>) -> &'static str {
        match r {
            Err(SimError::OffPath { what, .. }) => what,
            other => panic!(
                "expected an off-path walk, got {:?}",
                other.map(|r| r.cycles)
            ),
        }
    }

    #[test]
    fn a_path_from_another_program_is_off_path() {
        let model = MachineModel::ultrasparc();
        let (_, path) = recorded(&call_loop(9), &model);
        let mut a = Assembler::new();
        let top = a.new_label();
        a.mov(Operand::imm(9), IntReg::L0);
        a.bind(top);
        a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
        a.b(Cond::Ne, top);
        a.nop();
        a.ta(0);
        let other = Executable::from_words(
            BASE,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        off_path(walked(&padded(&other), &path, &model));
        // And the other way round.
        let (_, other_path) = recorded(&other, &model);
        off_path(walked(&padded(&call_loop(9)), &other_path, &model));
    }

    #[test]
    fn a_changed_branch_condition_is_off_path() {
        let model = MachineModel::ultrasparc();
        let original = call_loop(9);
        let (_, path) = recorded(&original, &model);
        let (edited, leaders) = padded(&original);
        let mut text = edited.text().to_vec();
        let at = text
            .iter()
            .position(|&w| {
                matches!(
                    Instruction::decode(w),
                    Instruction::Branch { cond: Cond::Ne, .. }
                )
            })
            .expect("the loop branch");
        let Instruction::Branch { annul, disp, .. } = Instruction::decode(text[at]) else {
            unreachable!()
        };
        text[at] = Instruction::Branch {
            cond: Cond::E,
            annul,
            disp,
        }
        .encode();
        let changed = Executable::new(
            edited.text_base(),
            text,
            edited.data_base(),
            edited.data().to_vec(),
            edited.bss_size(),
            edited.entry(),
            edited.symbols().to_vec(),
        );
        assert_eq!(
            off_path(walked(&(changed, leaders), &path, &model)),
            "the walked control transfers differ from the recorded ones"
        );
    }

    #[test]
    fn a_truncated_path_is_off_path() {
        let model = MachineModel::ultrasparc();
        let original = call_loop(9);
        let (_, path) = recorded(&original, &model);
        let edit = padded(&original);
        let mut short = path.clone();
        short.len -= 1;
        assert_eq!(
            off_path(walked(&edit, &short, &model)),
            "the path has no outcome left"
        );
        let mut short = path.clone();
        short.targets.pop();
        assert_eq!(
            off_path(walked(&edit, &short, &model)),
            "the path has no jump target left"
        );
        let mut long = path;
        long.targets.push(BASE);
        assert_eq!(
            off_path(walked(&edit, &long, &model)),
            "the walk ended with outcomes of the path left"
        );
    }

    #[test]
    fn a_walk_cannot_time_a_data_cache() {
        let model = MachineModel::ultrasparc();
        let original = call_loop(3);
        let (_, path) = recorded(&original, &model);
        let (edited, leaders) = padded(&original);
        let mut config = timed();
        config.timing.as_mut().unwrap().dcache = Some(DCacheConfig {
            size: 4096,
            line: 32,
            miss_penalty: 8,
        });
        let r = walk(&edited, &path, &leaders, Some(&model), &config, None);
        assert_eq!(r.err(), Some(SimError::WalkWithDCache));
    }
}
