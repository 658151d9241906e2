//! The functional SPARC V8 interpreter: architectural state and the
//! `step` function, with proper delay-slot and annul semantics.

use eel_sparc::{Address, AluOp, Cond, FCond, FpOp, Instruction, IntReg, MemWidth, Operand};

use crate::error::SimError;
use crate::memory::Memory;

/// Integer condition codes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Icc {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Overflow.
    pub v: bool,
    /// Carry.
    pub c: bool,
}

/// Floating-point condition code (a 2-valued comparison outcome).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Fcc {
    /// Operands compared equal.
    #[default]
    Equal,
    /// First operand less.
    Less,
    /// First operand greater.
    Greater,
    /// Unordered (a NaN was involved).
    Unordered,
}

/// What a single step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Execution continues; `taken_cti` reports whether this
    /// instruction was a taken control transfer (for branch-penalty
    /// accounting in the timing engine).
    Continue {
        /// Whether a control transfer was taken.
        taken_cti: bool,
    },
    /// The program exited via `ta 0`; the value is `%o0`.
    Exit(u32),
}

/// The architectural state of the simulated processor.
///
/// Register windows grow on demand (no overflow traps — the window
/// file is as deep as the call stack needs), which is equivalent to a
/// machine whose window spills are free. `restore` past the first
/// window is an error.
///
/// The 32 registers the current window sees live in one fixed working
/// file, so every register access is one index (the block engine
/// resolves those indices when it lowers a block). The other windows
/// live in a backing store that only `save` and `restore` touch: they
/// spill the window they leave and fill the one they enter.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct Cpu {
    /// Current program counter.
    pub pc: u32,
    /// Next program counter (delay-slot machinery).
    pub npc: u32,
    /// The working register file: `r[n]` is `%r{n}` of the current
    /// window, and `r[DISCARD]` absorbs writes to `%g0`, so `r[0]`
    /// always reads 0.
    r: [u32; 33],
    /// The backing store: `windows[w]` holds window `w`'s locals in
    /// `[0..8]` and ins in `[8..16]`; the outs of window `w` are the
    /// ins of window `w + 1`. The parts the working file holds —
    /// `windows[cwp]` and the ins of `windows[cwp + 1]` — are stale
    /// here. Always `windows.len() >= cwp + 2`.
    windows: Vec<[u32; 16]>,
    cwp: usize,
    f: [u32; 32],
    /// Integer condition codes.
    pub icc: Icc,
    /// Floating-point condition code.
    pub fcc: Fcc,
    /// The Y register.
    pub y: u32,
}

/// The working-file slot that writes to `%g0` target.
pub(crate) const DISCARD: usize = 32;

/// The working-file slot an instruction writing `rd` targets.
pub(crate) fn dest_slot(rd: IntReg) -> usize {
    match rd.number() {
        0 => DISCARD,
        n => usize::from(n),
    }
}

/// Initial stack pointer for simulated programs.
pub const STACK_TOP: u32 = 0x7FFF_FF00;

impl Cpu {
    /// A CPU about to execute its first instruction at `entry`.
    pub fn new(entry: u32) -> Cpu {
        let mut cpu = Cpu {
            pc: entry,
            npc: entry.wrapping_add(4),
            r: [0; 33],
            windows: vec![[0; 16]; 2],
            cwp: 0,
            f: [0; 32],
            icc: Icc::default(),
            fcc: Fcc::default(),
            y: 0,
        };
        cpu.set_reg(IntReg::SP, STACK_TOP);
        cpu.set_reg(IntReg::FP, STACK_TOP);
        cpu
    }

    /// Reads an integer register in the current window.
    pub fn reg(&self, r: IntReg) -> u32 {
        self.r[usize::from(r.number())]
    }

    /// Writes an integer register in the current window (writes to
    /// `%g0` are discarded).
    pub fn set_reg(&mut self, r: IntReg, value: u32) {
        self.r[dest_slot(r)] = value;
    }

    /// Reads working-file slot `s` (a register number).
    #[inline(always)]
    pub(crate) fn slot(&self, s: u8) -> u32 {
        self.r[usize::from(s)]
    }

    /// Writes working-file slot `s` (a register number, or
    /// [`DISCARD`]).
    #[inline(always)]
    pub(crate) fn set_slot(&mut self, s: u8, v: u32) {
        self.r[usize::from(s)] = v;
    }

    /// The raw bits of the double in FP register pair `e`, `e + 1`
    /// (`e` even).
    #[inline(always)]
    pub(crate) fn fpair(&self, e: u8) -> u64 {
        let e = usize::from(e);
        u64::from(self.f[e]) << 32 | u64::from(self.f[e + 1])
    }

    /// Writes the double bits `v` to FP register pair `e`, `e + 1`.
    #[inline(always)]
    pub(crate) fn set_fpair(&mut self, e: u8, v: u64) {
        let e = usize::from(e);
        self.f[e] = (v >> 32) as u32;
        self.f[e + 1] = v as u32;
    }

    /// Reads a raw single-precision FP register.
    pub fn freg(&self, r: eel_sparc::FpReg) -> u32 {
        self.f[r.number() as usize]
    }

    /// Writes a raw single-precision FP register.
    pub fn set_freg(&mut self, r: eel_sparc::FpReg, bits: u32) {
        self.f[r.number() as usize] = bits;
    }

    fn fdouble(&self, r: eel_sparc::FpReg) -> f64 {
        f64::from_bits(self.fpair(r.pair().0.number()))
    }

    fn set_fdouble(&mut self, r: eel_sparc::FpReg, v: f64) {
        self.set_fpair(r.pair().0.number(), v.to_bits());
    }

    fn fsingle(&self, r: eel_sparc::FpReg) -> f32 {
        f32::from_bits(self.f[r.number() as usize])
    }

    fn set_fsingle(&mut self, r: eel_sparc::FpReg, v: f32) {
        self.f[r.number() as usize] = v.to_bits();
    }

    pub(crate) fn operand(&self, o: Operand) -> u32 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v as i32 as u32,
        }
    }

    pub(crate) fn ea(&self, a: Address) -> u32 {
        self.reg(a.base).wrapping_add(self.operand(a.offset))
    }

    /// Evaluates an integer branch condition against the current ICC.
    pub fn cond(&self, c: Cond) -> bool {
        let Icc { n, z, v, c: carry } = self.icc;
        match c {
            Cond::A => true,
            Cond::N => false,
            Cond::E => z,
            Cond::Ne => !z,
            Cond::G => !(z | (n ^ v)),
            Cond::Le => z | (n ^ v),
            Cond::Ge => !(n ^ v),
            Cond::L => n ^ v,
            Cond::Gu => !(carry | z),
            Cond::Leu => carry | z,
            Cond::Cc => !carry,
            Cond::Cs => carry,
            Cond::Pos => !n,
            Cond::Neg => n,
            Cond::Vc => !v,
            Cond::Vs => v,
        }
    }

    /// Evaluates a floating-point branch condition against the FCC.
    pub fn fcond(&self, c: FCond) -> bool {
        let (e, l, g, u) = (
            self.fcc == Fcc::Equal,
            self.fcc == Fcc::Less,
            self.fcc == Fcc::Greater,
            self.fcc == Fcc::Unordered,
        );
        match c {
            FCond::A => true,
            FCond::N => false,
            FCond::U => u,
            FCond::G => g,
            FCond::Ug => u | g,
            FCond::L => l,
            FCond::Ul => u | l,
            FCond::Lg => l | g,
            FCond::Ne => l | g | u,
            FCond::E => e,
            FCond::Ue => u | e,
            FCond::Ge => g | e,
            FCond::Uge => u | g | e,
            FCond::Le => l | e,
            FCond::Ule => u | l | e,
            FCond::O => e | l | g,
        }
    }

    pub(crate) fn alu(&mut self, op: AluOp, a: u32, b: u32, pc: u32) -> Result<u32, SimError> {
        use AluOp::*;
        let carry_in = u32::from(self.icc.c);
        let (result, new_cc): (u32, Option<Icc>) = match op {
            Add | AddCc => {
                let (r, c1) = a.overflowing_add(b);
                let v = (!(a ^ b) & (a ^ r)) >> 31 != 0;
                (
                    r,
                    Some(Icc {
                        n: (r as i32) < 0,
                        z: r == 0,
                        v,
                        c: c1,
                    }),
                )
            }
            AddX | AddXCc => {
                let (r1, c1) = a.overflowing_add(b);
                let (r, c2) = r1.overflowing_add(carry_in);
                let v = (!(a ^ b) & (a ^ r)) >> 31 != 0;
                (
                    r,
                    Some(Icc {
                        n: (r as i32) < 0,
                        z: r == 0,
                        v,
                        c: c1 || c2,
                    }),
                )
            }
            Sub | SubCc => {
                let (r, borrow) = a.overflowing_sub(b);
                let v = ((a ^ b) & (a ^ r)) >> 31 != 0;
                (
                    r,
                    Some(Icc {
                        n: (r as i32) < 0,
                        z: r == 0,
                        v,
                        c: borrow,
                    }),
                )
            }
            SubX | SubXCc => {
                let (r1, b1) = a.overflowing_sub(b);
                let (r, b2) = r1.overflowing_sub(carry_in);
                let v = ((a ^ b) & (a ^ r)) >> 31 != 0;
                (
                    r,
                    Some(Icc {
                        n: (r as i32) < 0,
                        z: r == 0,
                        v,
                        c: b1 || b2,
                    }),
                )
            }
            And | AndCc => logic(a & b),
            AndN | AndNCc => logic(a & !b),
            Or | OrCc => logic(a | b),
            OrN | OrNCc => logic(a | !b),
            Xor | XorCc => logic(a ^ b),
            XNor | XNorCc => logic(!(a ^ b)),
            Sll => (a << (b & 31), None),
            Srl => (a >> (b & 31), None),
            Sra => (((a as i32) >> (b & 31)) as u32, None),
            UMul | UMulCc => {
                let p = u64::from(a) * u64::from(b);
                self.y = (p >> 32) as u32;
                let r = p as u32;
                (
                    r,
                    Some(Icc {
                        n: (r as i32) < 0,
                        z: r == 0,
                        v: false,
                        c: false,
                    }),
                )
            }
            SMul | SMulCc => {
                let p = i64::from(a as i32) * i64::from(b as i32);
                self.y = ((p as u64) >> 32) as u32;
                let r = p as u32;
                (
                    r,
                    Some(Icc {
                        n: (r as i32) < 0,
                        z: r == 0,
                        v: false,
                        c: false,
                    }),
                )
            }
            UDiv | UDivCc => {
                if b == 0 {
                    return Err(SimError::DivisionByZero { pc });
                }
                let dividend = u64::from(self.y) << 32 | u64::from(a);
                let q = dividend / u64::from(b);
                let r = u32::try_from(q).unwrap_or(u32::MAX); // overflow clamps
                (
                    r,
                    Some(Icc {
                        n: (r as i32) < 0,
                        z: r == 0,
                        v: q > u64::from(u32::MAX),
                        c: false,
                    }),
                )
            }
            SDiv | SDivCc => {
                if b == 0 {
                    return Err(SimError::DivisionByZero { pc });
                }
                let dividend = ((u64::from(self.y) << 32 | u64::from(a)) as i64) as i128;
                let q = dividend / i128::from(b as i32);
                let clamped = q.clamp(i128::from(i32::MIN), i128::from(i32::MAX));
                let r = clamped as i32 as u32;
                (
                    r,
                    Some(Icc {
                        n: (r as i32) < 0,
                        z: r == 0,
                        v: q != clamped,
                        c: false,
                    }),
                )
            }
        };
        if op.sets_cc() {
            if let Some(cc) = new_cc {
                self.icc = cc;
            }
        }
        Ok(result)
    }

    /// Steps until the program exits via `ta 0`, returning its exit
    /// code, or until `fuel` instructions have retired.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] fault from [`Cpu::step`]. A program
    /// still running after `fuel` retired instructions faults with
    /// [`SimError::InstructionLimit`] carrying the retired count, so
    /// callers can tell a runaway loop from a program that was merely
    /// close to its budget.
    pub fn run_to_exit(&mut self, mem: &mut Memory, fuel: u64) -> Result<u32, SimError> {
        let mut retired = 0u64;
        while retired < fuel {
            match self.step(mem)? {
                Step::Continue { .. } => retired += 1,
                Step::Exit(code) => return Ok(code),
            }
        }
        Err(SimError::InstructionLimit {
            limit: fuel,
            retired,
        })
    }

    /// Executes one instruction. Returns whether to continue and
    /// whether a control transfer was taken.
    ///
    /// # Errors
    ///
    /// Faults with a [`SimError`] on illegal instructions, bad memory
    /// accesses, division by zero, window underflow, or unhandled
    /// traps.
    pub fn step(&mut self, mem: &mut Memory) -> Result<Step, SimError> {
        let word = mem.fetch(self.pc)?;
        let insn = Instruction::decode(word);
        self.step_decoded(mem, &insn)
    }

    /// [`Cpu::step`] for an already-decoded instruction: the caller
    /// guarantees `insn` is the decoding of the word at `self.pc`.
    /// The block replay loop in [`crate::run`] uses this to execute
    /// cached blocks without re-fetching and re-decoding every
    /// dynamic instruction.
    ///
    /// # Errors
    ///
    /// As [`Cpu::step`].
    pub fn step_decoded(&mut self, mem: &mut Memory, insn: &Instruction) -> Result<Step, SimError> {
        let pc = self.pc;
        let insn = *insn;

        // Default sequential flow.
        let mut next_pc = self.npc;
        let mut next_npc = self.npc.wrapping_add(4);
        let mut taken_cti = false;

        match insn {
            Instruction::Sethi { imm22, rd } => self.set_reg(rd, imm22 << 10),
            Instruction::Alu { op, rs1, src2, rd } => {
                let a = self.reg(rs1);
                let b = self.operand(src2);
                let r = self.alu(op, a, b, pc)?;
                self.set_reg(rd, r);
            }
            Instruction::Load { width, addr, rd } => {
                let ea = self.ea(addr);
                self.do_load(mem, width, ea, rd, pc)?;
            }
            Instruction::Store { width, src, addr } => {
                let ea = self.ea(addr);
                self.do_store(mem, width, src, ea, pc)?;
            }
            Instruction::LoadFp { double, addr, rd } => {
                let ea = self.ea(addr);
                self.do_load_fp(mem, double, ea, rd, pc)?;
            }
            Instruction::StoreFp { double, src, addr } => {
                let ea = self.ea(addr);
                self.do_store_fp(mem, double, src, ea, pc)?;
            }
            Instruction::Branch { cond, annul, disp } => {
                let taken = self.cond(cond);
                taken_cti = taken;
                let target = pc.wrapping_add((disp as i64 * 4) as u32);
                (next_pc, next_npc) = branch_flow(self.npc, taken, annul, cond == Cond::A, target);
            }
            Instruction::FBranch { cond, annul, disp } => {
                let taken = self.fcond(cond);
                taken_cti = taken;
                let target = pc.wrapping_add((disp as i64 * 4) as u32);
                (next_pc, next_npc) = branch_flow(self.npc, taken, annul, cond == FCond::A, target);
            }
            Instruction::Call { disp } => {
                self.set_reg(IntReg::O7, pc);
                next_npc = pc.wrapping_add((disp as i64 * 4) as u32);
                taken_cti = true;
            }
            Instruction::Jmpl { rs1, src2, rd } => {
                let target = self.reg(rs1).wrapping_add(self.operand(src2));
                if !target.is_multiple_of(4) {
                    return Err(SimError::BadPc { pc: target });
                }
                self.set_reg(rd, pc);
                next_npc = target;
                taken_cti = true;
            }
            Instruction::Save { rs1, src2, rd } => {
                let v = self.reg(rs1).wrapping_add(self.operand(src2));
                self.do_save(v, rd);
            }
            Instruction::Restore { rs1, src2, rd } => {
                let v = self.reg(rs1).wrapping_add(self.operand(src2));
                self.do_restore(v, rd, pc)?;
            }
            Instruction::Fp { op, rs1, rs2, rd } => self.fp_op(op, rs1, rs2, rd),
            Instruction::FCmp { double, rs1, rs2 } => self.do_fcmp(double, rs1, rs2),
            Instruction::RdY { rd } => self.set_reg(rd, self.y),
            Instruction::WrY { rs1, src2 } => {
                self.y = self.reg(rs1) ^ self.operand(src2);
            }
            Instruction::Trap { cond, rs1, src2 } => {
                if self.cond(cond) {
                    let number = self.reg(rs1).wrapping_add(self.operand(src2)) & 0x7F;
                    match number {
                        0 => return Ok(Step::Exit(self.reg(IntReg::O0))),
                        // Trap 1 is a no-op "output" hook.
                        1 => {}
                        n => return Err(SimError::UnhandledTrap { pc, number: n }),
                    }
                }
            }
            Instruction::Unknown(w) => return Err(SimError::IllegalInstruction { pc, word: w }),
        }

        self.pc = next_pc;
        self.npc = next_npc;
        Ok(Step::Continue { taken_cti })
    }

    /// Integer load at a resolved effective address. Shared between
    /// [`Cpu::step_decoded`] and the block replay loop's flat ops so
    /// width and fault semantics live in one place; `pc` is only for
    /// fault payloads.
    pub(crate) fn do_load(
        &mut self,
        mem: &mut Memory,
        width: MemWidth,
        ea: u32,
        rd: IntReg,
        pc: u32,
    ) -> Result<(), SimError> {
        match width {
            MemWidth::UByte => {
                let v = mem.read_u8(ea)?;
                self.set_reg(rd, u32::from(v));
            }
            MemWidth::SByte => {
                let v = mem.read_u8(ea)? as i8;
                self.set_reg(rd, v as i32 as u32);
            }
            MemWidth::UHalf => {
                let v = mem.read_u16(ea)?;
                self.set_reg(rd, u32::from(v));
            }
            MemWidth::SHalf => {
                let v = mem.read_u16(ea)? as i16;
                self.set_reg(rd, v as i32 as u32);
            }
            MemWidth::Word => {
                let v = mem.read_u32(ea)?;
                self.set_reg(rd, v);
            }
            MemWidth::Double => {
                if !rd.number().is_multiple_of(2) {
                    return Err(SimError::OddRegisterPair { pc });
                }
                let v = mem.read_u64(ea)?;
                self.set_reg(rd, (v >> 32) as u32);
                self.set_reg(IntReg::new(rd.number() + 1), v as u32);
            }
        }
        Ok(())
    }

    /// Integer store at a resolved effective address (see
    /// [`Cpu::do_load`]).
    pub(crate) fn do_store(
        &mut self,
        mem: &mut Memory,
        width: MemWidth,
        src: IntReg,
        ea: u32,
        pc: u32,
    ) -> Result<(), SimError> {
        let v = self.reg(src);
        match width {
            MemWidth::UByte | MemWidth::SByte => mem.write_u8(ea, v as u8)?,
            MemWidth::UHalf | MemWidth::SHalf => mem.write_u16(ea, v as u16)?,
            MemWidth::Word => mem.write_u32(ea, v)?,
            MemWidth::Double => {
                if !src.number().is_multiple_of(2) {
                    return Err(SimError::OddRegisterPair { pc });
                }
                let lo = self.reg(IntReg::new(src.number() + 1));
                mem.write_u64(ea, u64::from(v) << 32 | u64::from(lo))?;
            }
        }
        Ok(())
    }

    /// FP load at a resolved effective address (see [`Cpu::do_load`]).
    pub(crate) fn do_load_fp(
        &mut self,
        mem: &mut Memory,
        double: bool,
        ea: u32,
        rd: eel_sparc::FpReg,
        pc: u32,
    ) -> Result<(), SimError> {
        if double {
            if !rd.number().is_multiple_of(2) {
                return Err(SimError::OddRegisterPair { pc });
            }
            let v = mem.read_u64(ea)?;
            self.set_fpair(rd.number(), v);
        } else {
            let v = mem.read_u32(ea)?;
            self.set_freg(rd, v);
        }
        Ok(())
    }

    /// FP store at a resolved effective address (see [`Cpu::do_load`]).
    pub(crate) fn do_store_fp(
        &mut self,
        mem: &mut Memory,
        double: bool,
        src: eel_sparc::FpReg,
        ea: u32,
        pc: u32,
    ) -> Result<(), SimError> {
        if double {
            if !src.number().is_multiple_of(2) {
                return Err(SimError::OddRegisterPair { pc });
            }
            mem.write_u64(ea, self.fpair(src.number()))?;
        } else {
            mem.write_u32(ea, self.freg(src))?;
        }
        Ok(())
    }

    /// `save` with the add result `v` already computed against the
    /// *old* window: spills the old window's locals and ins, turns its
    /// outs into the new window's ins, and fills the new window's
    /// locals and outs from the backing store.
    pub(crate) fn do_save(&mut self, v: u32, rd: IntReg) {
        let w = self.cwp;
        self.windows[w].copy_from_slice(&self.r[16..32]);
        self.r.copy_within(8..16, 24);
        self.cwp = w + 1;
        if self.windows.len() < w + 3 {
            self.windows.push([0; 16]);
        }
        self.r[16..24].copy_from_slice(&self.windows[w + 1][..8]);
        self.r[8..16].copy_from_slice(&self.windows[w + 2][8..]);
        self.set_reg(rd, v);
    }

    /// `restore` with the add result `v` already computed against the
    /// *old* window: spills the old window's outs and locals, turns its
    /// ins into the new window's outs, and fills the new window's
    /// locals and ins from the backing store.
    pub(crate) fn do_restore(&mut self, v: u32, rd: IntReg, pc: u32) -> Result<(), SimError> {
        let w = self.cwp;
        if w == 0 {
            return Err(SimError::WindowUnderflow { pc });
        }
        self.windows[w + 1][8..].copy_from_slice(&self.r[8..16]);
        self.windows[w][..8].copy_from_slice(&self.r[16..24]);
        self.r.copy_within(24..32, 8);
        self.cwp = w - 1;
        self.r[16..32].copy_from_slice(&self.windows[w - 1]);
        self.set_reg(rd, v);
        Ok(())
    }

    /// `fcmps`/`fcmpd`.
    pub(crate) fn do_fcmp(&mut self, double: bool, rs1: eel_sparc::FpReg, rs2: eel_sparc::FpReg) {
        self.fcc = if double {
            compare(self.fdouble(rs1), self.fdouble(rs2))
        } else {
            compare(f64::from(self.fsingle(rs1)), f64::from(self.fsingle(rs2)))
        };
    }

    pub(crate) fn fp_op(
        &mut self,
        op: FpOp,
        rs1: eel_sparc::FpReg,
        rs2: eel_sparc::FpReg,
        rd: eel_sparc::FpReg,
    ) {
        use FpOp::*;
        match op {
            FMovS => self.set_freg(rd, self.freg(rs2)),
            FNegS => self.set_freg(rd, self.freg(rs2) ^ 0x8000_0000),
            FAbsS => self.set_freg(rd, self.freg(rs2) & 0x7FFF_FFFF),
            FAddS => self.set_fsingle(rd, self.fsingle(rs1) + self.fsingle(rs2)),
            FSubS => self.set_fsingle(rd, self.fsingle(rs1) - self.fsingle(rs2)),
            FMulS => self.set_fsingle(rd, self.fsingle(rs1) * self.fsingle(rs2)),
            FDivS => self.set_fsingle(rd, self.fsingle(rs1) / self.fsingle(rs2)),
            FSqrtS => self.set_fsingle(rd, self.fsingle(rs2).sqrt()),
            FAddD => self.set_fdouble(rd, self.fdouble(rs1) + self.fdouble(rs2)),
            FSubD => self.set_fdouble(rd, self.fdouble(rs1) - self.fdouble(rs2)),
            FMulD => self.set_fdouble(rd, self.fdouble(rs1) * self.fdouble(rs2)),
            FDivD => self.set_fdouble(rd, self.fdouble(rs1) / self.fdouble(rs2)),
            FSqrtD => self.set_fdouble(rd, self.fdouble(rs2).sqrt()),
            FiToS => self.set_fsingle(rd, self.freg(rs2) as i32 as f32),
            FiToD => self.set_fdouble(rd, f64::from(self.freg(rs2) as i32)),
            FsToI => {
                let v = self.fsingle(rs2);
                self.set_freg(rd, clamp_to_i32(f64::from(v)) as u32);
            }
            FdToI => {
                let v = self.fdouble(rs2);
                self.set_freg(rd, clamp_to_i32(v) as u32);
            }
            FsToD => self.set_fdouble(rd, f64::from(self.fsingle(rs2))),
            FdToS => self.set_fsingle(rd, self.fdouble(rs2) as f32),
        }
    }
}

/// Delay-slot flow for a (possibly annulling) branch at the
/// instruction whose delayed pc is `npc`: returns `(next_pc,
/// next_npc)`. `uncond` marks the always-taken condition (`ba`/`fba`),
/// whose annulled form skips the delay slot even when taken. Shared by
/// [`Cpu::step_decoded`] and the block replay loop's specialized
/// branch terminators.
pub(crate) fn branch_flow(
    npc: u32,
    taken: bool,
    annul: bool,
    uncond: bool,
    target: u32,
) -> (u32, u32) {
    if taken {
        if annul && uncond {
            // ba,a: the delay slot is always annulled.
            (target, target.wrapping_add(4))
        } else {
            (npc, target)
        }
    } else if annul {
        // Untaken with annul: skip the delay slot.
        (npc.wrapping_add(4), npc.wrapping_add(8))
    } else {
        (npc, npc.wrapping_add(4))
    }
}

fn logic(r: u32) -> (u32, Option<Icc>) {
    (
        r,
        Some(Icc {
            n: (r as i32) < 0,
            z: r == 0,
            v: false,
            c: false,
        }),
    )
}

fn compare(a: f64, b: f64) -> Fcc {
    if a.is_nan() || b.is_nan() {
        Fcc::Unordered
    } else if a < b {
        Fcc::Less
    } else if a > b {
        Fcc::Greater
    } else {
        Fcc::Equal
    }
}

fn clamp_to_i32(v: f64) -> i32 {
    if v.is_nan() {
        0
    } else if v >= f64::from(i32::MAX) {
        i32::MAX
    } else if v <= f64::from(i32::MIN) {
        i32::MIN
    } else {
        v as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_edit::Executable;
    use eel_sparc::Assembler;

    /// Runs an assembled program functionally until `ta 0` and returns
    /// the CPU and memory.
    fn run(a: Assembler) -> (Cpu, Memory, u32) {
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let mut mem = Memory::load(&exe);
        let mut cpu = Cpu::new(exe.entry());
        let code = cpu
            .run_to_exit(&mut mem, 100_000)
            .expect("program faulted or exhausted its fuel");
        (cpu, mem, code)
    }

    #[test]
    fn fuel_exhaustion_is_a_typed_error() {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        a.ba(top);
        a.nop();
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let mut mem = Memory::load(&exe);
        let mut cpu = Cpu::new(exe.entry());
        let err = cpu.run_to_exit(&mut mem, 50).unwrap_err();
        assert_eq!(
            err,
            SimError::InstructionLimit {
                limit: 50,
                retired: 50
            }
        );
        assert!(err.to_string().contains("after retiring 50"), "{err}");
    }

    #[test]
    fn arithmetic_and_exit_code() {
        let mut a = Assembler::new();
        a.mov(Operand::imm(20), IntReg::O0);
        a.add(IntReg::O0, Operand::imm(22), IntReg::O0);
        a.ta(0);
        let (_, _, code) = run(a);
        assert_eq!(code, 42);
    }

    #[test]
    fn counting_loop_with_delay_slot() {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.mov(Operand::imm(0), IntReg::O0); // sum
        a.mov(Operand::imm(5), IntReg::O1); // i
        a.bind(top);
        a.add(IntReg::O0, Operand::Reg(IntReg::O1), IntReg::O0);
        a.subcc(IntReg::O1, Operand::imm(1), IntReg::O1);
        a.b(Cond::Ne, top);
        a.nop();
        a.ta(0);
        let (_, _, code) = run(a);
        assert_eq!(code, 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn delay_slot_executes_before_target() {
        let mut a = Assembler::new();
        let out = a.new_label();
        a.ba(out);
        a.mov(Operand::imm(7), IntReg::O0); // delay slot still runs
        a.mov(Operand::imm(9), IntReg::O0); // skipped
        a.bind(out);
        a.ta(0);
        let (_, _, code) = run(a);
        assert_eq!(code, 7);
    }

    #[test]
    fn annulled_untaken_branch_skips_delay() {
        let mut a = Assembler::new();
        let out = a.new_label();
        a.mov(Operand::imm(1), IntReg::O0);
        a.cmp(IntReg::O0, Operand::imm(1));
        a.b_annul(Cond::Ne, out); // not taken, annul
        a.mov(Operand::imm(99), IntReg::O0); // must be annulled
        a.bind(out);
        a.ta(0);
        let (_, _, code) = run(a);
        assert_eq!(code, 1);
    }

    #[test]
    fn annulled_taken_branch_executes_delay() {
        let mut a = Assembler::new();
        let out = a.new_label();
        a.mov(Operand::imm(1), IntReg::O0);
        a.cmp(IntReg::O0, Operand::imm(1));
        a.b_annul(Cond::E, out); // taken, annul → delay executes
        a.mov(Operand::imm(5), IntReg::O0);
        a.bind(out);
        a.ta(0);
        let (_, _, code) = run(a);
        assert_eq!(code, 5);
    }

    #[test]
    fn ba_annul_skips_delay() {
        let mut a = Assembler::new();
        let out = a.new_label();
        a.mov(Operand::imm(3), IntReg::O0);
        a.push(Instruction::Branch {
            cond: Cond::A,
            annul: true,
            disp: 2,
        }); // ba,a out
        a.mov(Operand::imm(99), IntReg::O0); // annulled always
        a.ta(0);
        let _ = out;
        let (_, _, code) = run(a);
        assert_eq!(code, 3);
    }

    #[test]
    fn call_and_retl() {
        let mut a = Assembler::new();
        let f = a.new_label();
        a.call(f);
        a.mov(Operand::imm(10), IntReg::O0); // delay slot sets the argument
        a.ta(0);
        a.nop();
        a.bind(f);
        a.retl();
        a.add(IntReg::O0, Operand::imm(1), IntReg::O0); // delay: increment
        let (_, _, code) = run(a);
        assert_eq!(code, 11);
    }

    #[test]
    fn save_restore_windows() {
        let mut a = Assembler::new();
        let f = a.new_label();
        a.mov(Operand::imm(5), IntReg::O0);
        a.call(f);
        a.nop();
        a.ta(0); // %o0 holds f's return value
        a.nop();
        a.bind(f);
        a.push(Instruction::Save {
            rs1: IntReg::SP,
            src2: Operand::imm(-96),
            rd: IntReg::SP,
        });
        // Callee sees the argument in %i0.
        a.add(IntReg::I0, Operand::imm(2), IntReg::I0);
        a.push(Instruction::ret());
        a.push(Instruction::Restore {
            rs1: IntReg::G0,
            src2: Operand::Reg(IntReg::G0),
            rd: IntReg::G0,
        });
        let (_, _, code) = run(a);
        assert_eq!(code, 7);
    }

    #[test]
    fn memory_roundtrip_through_data_segment() {
        let mut a = Assembler::new();
        a.set(0x0080_0000, IntReg::O1);
        a.mov(Operand::imm(123), IntReg::O0);
        a.st(IntReg::O0, Address::base_imm(IntReg::O1, 0));
        a.mov(Operand::imm(0), IntReg::O0);
        a.ld(Address::base_imm(IntReg::O1, 0), IntReg::O0);
        a.ta(0);
        let exe_asm = a;
        // Data segment must exist: give the image 4 bytes of bss.
        let words: Vec<u32> = exe_asm
            .finish()
            .unwrap()
            .iter()
            .map(|i| i.encode())
            .collect();
        let mut exe = Executable::from_words(0x10000, words);
        exe.reserve_bss(4);
        let mut mem = Memory::load(&exe);
        let mut cpu = Cpu::new(exe.entry());
        loop {
            match cpu.step(&mut mem).unwrap() {
                Step::Continue { .. } => {}
                Step::Exit(code) => {
                    assert_eq!(code, 123);
                    break;
                }
            }
        }
    }

    #[test]
    fn mul_sets_y() {
        let mut a = Assembler::new();
        a.set(0x10000, IntReg::O0);
        a.set(0x10000, IntReg::O1);
        a.smul(IntReg::O0, Operand::Reg(IntReg::O1), IntReg::O2);
        a.push(Instruction::RdY { rd: IntReg::O0 });
        a.ta(0);
        let (_, _, code) = run(a);
        // 0x10000 * 0x10000 = 2^32: high word 1.
        assert_eq!(code, 1);
    }

    #[test]
    fn fp_pipeline_functionality() {
        // Compute (1.5 + 2.5) * 2.0 in double precision via memory.
        let mut a = Assembler::new();
        a.set(0x0080_0000, IntReg::O1);
        // Store 1.5 and 2.5 as doubles using integer stores.
        let bits15 = 1.5f64.to_bits();
        let bits25 = 2.5f64.to_bits();
        a.set((bits15 >> 32) as u32, IntReg::O2);
        a.st(IntReg::O2, Address::base_imm(IntReg::O1, 0));
        a.set(bits15 as u32, IntReg::O2);
        a.st(IntReg::O2, Address::base_imm(IntReg::O1, 4));
        a.set((bits25 >> 32) as u32, IntReg::O2);
        a.st(IntReg::O2, Address::base_imm(IntReg::O1, 8));
        a.set(bits25 as u32, IntReg::O2);
        a.st(IntReg::O2, Address::base_imm(IntReg::O1, 12));
        a.lddf(Address::base_imm(IntReg::O1, 0), eel_sparc::FpReg::new(0));
        a.lddf(Address::base_imm(IntReg::O1, 8), eel_sparc::FpReg::new(2));
        a.faddd(
            eel_sparc::FpReg::new(0),
            eel_sparc::FpReg::new(2),
            eel_sparc::FpReg::new(4),
        );
        a.faddd(
            eel_sparc::FpReg::new(4),
            eel_sparc::FpReg::new(4),
            eel_sparc::FpReg::new(6),
        );
        // Convert to int and move through memory into %o0.
        a.push(Instruction::Fp {
            op: FpOp::FdToI,
            rs1: eel_sparc::FpReg::new(0),
            rs2: eel_sparc::FpReg::new(6),
            rd: eel_sparc::FpReg::new(8),
        });
        a.stf(eel_sparc::FpReg::new(8), Address::base_imm(IntReg::O1, 16));
        a.ld(Address::base_imm(IntReg::O1, 16), IntReg::O0);
        a.ta(0);
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        let mut exe = Executable::from_words(0x10000, words);
        exe.reserve_bss(32);
        let mut mem = Memory::load(&exe);
        let mut cpu = Cpu::new(exe.entry());
        loop {
            match cpu.step(&mut mem).unwrap() {
                Step::Continue { .. } => {}
                Step::Exit(code) => {
                    assert_eq!(code, 8, "(1.5+2.5)*2 = 8");
                    break;
                }
            }
        }
    }

    #[test]
    fn fcmp_and_fbranch() {
        let mut a = Assembler::new();
        let less = a.new_label();
        // 1.0f < 2.0f
        a.set(1.0f32.to_bits(), IntReg::O2);
        a.set(0x0080_0000, IntReg::O1);
        a.st(IntReg::O2, Address::base_imm(IntReg::O1, 0));
        a.set(2.0f32.to_bits(), IntReg::O2);
        a.st(IntReg::O2, Address::base_imm(IntReg::O1, 4));
        a.ldf(Address::base_imm(IntReg::O1, 0), eel_sparc::FpReg::new(0));
        a.ldf(Address::base_imm(IntReg::O1, 4), eel_sparc::FpReg::new(1));
        a.fcmps(eel_sparc::FpReg::new(0), eel_sparc::FpReg::new(1));
        a.nop(); // SPARC requires a gap between fcmp and fbfcc
        a.fb(FCond::L, less);
        a.nop();
        a.mov(Operand::imm(0), IntReg::O0);
        a.ta(0);
        a.nop();
        a.bind(less);
        a.mov(Operand::imm(1), IntReg::O0);
        a.ta(0);
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        let mut exe = Executable::from_words(0x10000, words);
        exe.reserve_bss(8);
        let mut mem = Memory::load(&exe);
        let mut cpu = Cpu::new(exe.entry());
        loop {
            match cpu.step(&mut mem).unwrap() {
                Step::Continue { .. } => {}
                Step::Exit(code) => {
                    assert_eq!(code, 1);
                    break;
                }
            }
        }
    }

    #[test]
    fn window_underflow_faults() {
        let mut a = Assembler::new();
        a.push(Instruction::Restore {
            rs1: IntReg::G0,
            src2: Operand::Reg(IntReg::G0),
            rd: IntReg::G0,
        });
        a.ta(0);
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let mut mem = Memory::load(&exe);
        let mut cpu = Cpu::new(exe.entry());
        assert!(matches!(
            cpu.step(&mut mem),
            Err(SimError::WindowUnderflow { .. })
        ));
    }

    #[test]
    fn illegal_instruction_faults() {
        let exe = Executable::from_words(0x10000, vec![0xFFFF_FFFF]);
        let mut mem = Memory::load(&exe);
        let mut cpu = Cpu::new(exe.entry());
        assert!(matches!(
            cpu.step(&mut mem),
            Err(SimError::IllegalInstruction { .. })
        ));
    }

    #[test]
    fn division_by_zero_faults() {
        let mut a = Assembler::new();
        a.push(Instruction::WrY {
            rs1: IntReg::G0,
            src2: Operand::imm(0),
        });
        a.alu(AluOp::UDiv, IntReg::O0, Operand::imm(0), IntReg::O1);
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let mut mem = Memory::load(&exe);
        let mut cpu = Cpu::new(exe.entry());
        cpu.step(&mut mem).unwrap();
        assert!(matches!(
            cpu.step(&mut mem),
            Err(SimError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn subcc_condition_codes() {
        let mut a = Assembler::new();
        a.mov(Operand::imm(5), IntReg::O0);
        a.cmp(IntReg::O0, Operand::imm(5));
        a.ta(0);
        let (cpu, _, _) = run(a);
        assert!(cpu.icc.z);
        assert!(!cpu.icc.n);
        assert!(!cpu.icc.c);

        let mut a = Assembler::new();
        a.mov(Operand::imm(3), IntReg::O0);
        a.cmp(IntReg::O0, Operand::imm(5));
        a.ta(0);
        let (cpu, _, _) = run(a);
        assert!(!cpu.icc.z);
        assert!(cpu.icc.n, "3 - 5 is negative");
        assert!(cpu.icc.c, "borrow set for unsigned less");
    }

    #[test]
    fn unsigned_conditions() {
        let mut a = Assembler::new();
        a.set(0xFFFF_F000, IntReg::O0);
        a.cmp(IntReg::O0, Operand::imm(1));
        a.ta(0);
        let (cpu, _, _) = run(a);
        assert!(cpu.cond(Cond::Gu), "0xfffff000 > 1 unsigned");
        assert!(!cpu.cond(Cond::G), "but negative signed");
    }

    /// The register-window semantics every representation must keep:
    /// globals, one `[locals, ins]` array per window (a window's outs
    /// are the next window's ins), windows grown on demand, and a
    /// window pointer that `restore` may not take below 0. A deeper
    /// window revisited later keeps the values it had.
    struct WindowModel {
        globals: [u32; 8],
        windows: Vec<[u32; 16]>,
        cwp: usize,
    }

    impl WindowModel {
        fn new() -> WindowModel {
            let mut m = WindowModel {
                globals: [0; 8],
                windows: vec![[0; 16]; 2],
                cwp: 0,
            };
            m.set_reg(IntReg::SP.number(), STACK_TOP);
            m.set_reg(IntReg::FP.number(), STACK_TOP);
            m
        }

        fn reg(&self, n: u8) -> u32 {
            let n = usize::from(n);
            match n {
                0 => 0,
                1..=7 => self.globals[n],
                8..=15 => self.windows.get(self.cwp + 1).map_or(0, |w| w[n]),
                _ => self.windows[self.cwp][n - 16],
            }
        }

        fn set_reg(&mut self, n: u8, v: u32) {
            let n = usize::from(n);
            match n {
                0 => {}
                1..=7 => self.globals[n] = v,
                8..=15 => {
                    while self.windows.len() <= self.cwp + 1 {
                        self.windows.push([0; 16]);
                    }
                    self.windows[self.cwp + 1][n] = v;
                }
                _ => self.windows[self.cwp][n - 16] = v,
            }
        }

        fn save(&mut self, v: u32, rd: u8) {
            self.cwp += 1;
            while self.windows.len() <= self.cwp + 1 {
                self.windows.push([0; 16]);
            }
            self.set_reg(rd, v);
        }

        /// `false` on window underflow, leaving the state untouched.
        fn restore(&mut self, v: u32, rd: u8) -> bool {
            if self.cwp == 0 {
                return false;
            }
            self.cwp -= 1;
            self.set_reg(rd, v);
            true
        }
    }

    /// One step of a register-window program: `save rs1, imm, rd`,
    /// `restore rs1, rs2, rd`, a register write, or a register read.
    #[derive(Debug, Clone, Copy)]
    enum WinStep {
        Save { rs1: u8, imm: i16, rd: u8 },
        Restore { rs1: u8, rs2: u8, rd: u8 },
        Set { r: u8, v: u32 },
        Read { r: u8 },
    }

    fn win_step() -> impl proptest::strategy::Strategy<Value = WinStep> {
        use proptest::prelude::*;
        (0u8..8, 0u8..32, 0u8..32, any::<u32>()).prop_map(|(kind, a, b, v)| match kind {
            // Saves and restores equally likely: a random walk over
            // window depth that revisits deeper windows and underflows
            // at depth 0.
            0 | 1 => WinStep::Save {
                rs1: a,
                imm: (v % 8192) as i16 - 4096,
                rd: b,
            },
            2 | 3 => WinStep::Restore {
                rs1: a,
                rs2: (v % 32) as u8,
                rd: b,
            },
            4..=6 => WinStep::Set { r: a, v },
            _ => WinStep::Read { r: a },
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// `Cpu`'s register file agrees with [`WindowModel`] on all 32
        /// visible registers after every step of a random program of
        /// saves, restores, writes, and reads — `%g0` included, and
        /// `WindowUnderflow` on the same steps.
        #[test]
        fn register_windows_match_the_model(steps in proptest::prop::collection::vec(win_step(), 1..300)) {
            let exe = Executable::from_words(0x10000, vec![Instruction::nop().encode()]);
            let mut mem = Memory::load(&exe);
            let mut cpu = Cpu::new(exe.entry());
            let mut model = WindowModel::new();
            for (k, &step) in steps.iter().enumerate() {
                match step {
                    WinStep::Save { rs1, imm, rd } => {
                        let v = model.reg(rs1).wrapping_add(imm as i32 as u32);
                        model.save(v, rd);
                        let insn = Instruction::Save {
                            rs1: IntReg::new(rs1),
                            src2: Operand::Imm(imm),
                            rd: IntReg::new(rd),
                        };
                        cpu.step_decoded(&mut mem, &insn).expect("save never faults");
                    }
                    WinStep::Restore { rs1, rs2, rd } => {
                        let v = model.reg(rs1).wrapping_add(model.reg(rs2));
                        let ok = model.restore(v, rd);
                        let insn = Instruction::Restore {
                            rs1: IntReg::new(rs1),
                            src2: Operand::Reg(IntReg::new(rs2)),
                            rd: IntReg::new(rd),
                        };
                        match cpu.step_decoded(&mut mem, &insn) {
                            Ok(_) => assert!(ok, "step {k}: restore at depth 0 must underflow"),
                            Err(e) => {
                                assert!(!ok, "step {k}: restore faulted with {e}");
                                assert!(matches!(e, SimError::WindowUnderflow { .. }), "{e}");
                            }
                        }
                    }
                    WinStep::Set { r, v } => {
                        model.set_reg(r, v);
                        cpu.set_reg(IntReg::new(r), v);
                    }
                    WinStep::Read { r } => {
                        assert_eq!(cpu.reg(IntReg::new(r)), model.reg(r), "step {k}: read %r{r}");
                    }
                }
                for n in 0..32 {
                    assert_eq!(
                        cpu.reg(IntReg::new(n)),
                        model.reg(n),
                        "step {k} ({step:?}): %r{n} at depth {}",
                        model.cwp
                    );
                }
            }
        }
    }
}
