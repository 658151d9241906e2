//! The SPARC V8 instruction model.
//!
//! [`Instruction`] is a fully decoded, structured representation of the
//! V8 subset used by this reproduction: integer ALU and shift
//! operations, multiply/divide, loads and stores (integer and
//! floating-point), `sethi`, control transfers (`Bicc`, `FBfcc`,
//! `call`, `jmpl`), register-window `save`/`restore`, floating-point
//! arithmetic and compares, the `Y` register moves, and `Ticc` traps.
//!
//! Every instruction knows its def/use sets over architectural
//! [`Resource`]s, its memory behaviour, its control-transfer class, and
//! its *timing name* — the key under which a SADL description binds the
//! instruction's pipeline semantics.

use crate::regs::{FpReg, IntReg, Resource, ResourceList};

/// An integer ALU, shift, multiply, or divide opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants mirror SPARC mnemonics
pub enum AluOp {
    Add,
    AddCc,
    /// Add with carry (reads the integer condition codes).
    AddX,
    AddXCc,
    Sub,
    SubCc,
    /// Subtract with carry (reads the integer condition codes).
    SubX,
    SubXCc,
    And,
    AndCc,
    AndN,
    AndNCc,
    Or,
    OrCc,
    OrN,
    OrNCc,
    Xor,
    XorCc,
    XNor,
    XNorCc,
    Sll,
    Srl,
    Sra,
    /// Unsigned 32×32→64 multiply; high word goes to `%y`.
    UMul,
    SMul,
    UMulCc,
    SMulCc,
    /// Unsigned divide of `%y:rs1` by the second operand.
    UDiv,
    SDiv,
    UDivCc,
    SDivCc,
}

impl AluOp {
    /// Whether this opcode writes the integer condition codes.
    pub fn sets_cc(self) -> bool {
        use AluOp::*;
        matches!(
            self,
            AddCc
                | AddXCc
                | SubCc
                | SubXCc
                | AndCc
                | AndNCc
                | OrCc
                | OrNCc
                | XorCc
                | XNorCc
                | UMulCc
                | SMulCc
                | UDivCc
                | SDivCc
        )
    }

    /// Whether this opcode reads the integer condition codes (carry).
    pub fn reads_cc(self) -> bool {
        use AluOp::*;
        matches!(self, AddX | AddXCc | SubX | SubXCc)
    }

    /// Whether this is a shift (`sll`/`srl`/`sra`).
    pub fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }

    /// Whether this is a multiply (which writes `%y`).
    pub fn is_mul(self) -> bool {
        use AluOp::*;
        matches!(self, UMul | SMul | UMulCc | SMulCc)
    }

    /// Whether this is a divide (which reads `%y`).
    pub fn is_div(self) -> bool {
        use AluOp::*;
        matches!(self, UDiv | SDiv | UDivCc | SDivCc)
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use AluOp::*;
        match self {
            Add => "add",
            AddCc => "addcc",
            AddX => "addx",
            AddXCc => "addxcc",
            Sub => "sub",
            SubCc => "subcc",
            SubX => "subx",
            SubXCc => "subxcc",
            And => "and",
            AndCc => "andcc",
            AndN => "andn",
            AndNCc => "andncc",
            Or => "or",
            OrCc => "orcc",
            OrN => "orn",
            OrNCc => "orncc",
            Xor => "xor",
            XorCc => "xorcc",
            XNor => "xnor",
            XNorCc => "xnorcc",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            UMul => "umul",
            SMul => "smul",
            UMulCc => "umulcc",
            SMulCc => "smulcc",
            UDiv => "udiv",
            SDiv => "sdiv",
            UDivCc => "udivcc",
            SDivCc => "sdivcc",
        }
    }

    /// All ALU opcodes, in a fixed order (useful for exhaustive tests).
    pub fn all() -> &'static [AluOp] {
        use AluOp::*;
        &[
            Add, AddCc, AddX, AddXCc, Sub, SubCc, SubX, SubXCc, And, AndCc, AndN, AndNCc, Or, OrCc,
            OrN, OrNCc, Xor, XorCc, XNor, XNorCc, Sll, Srl, Sra, UMul, SMul, UMulCc, SMulCc, UDiv,
            SDiv, UDivCc, SDivCc,
        ]
    }
}

/// A floating-point arithmetic or conversion opcode (`FPop1` group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants mirror SPARC mnemonics
pub enum FpOp {
    /// Move single (unary).
    FMovS,
    /// Negate single (unary).
    FNegS,
    /// Absolute value single (unary).
    FAbsS,
    FAddS,
    FAddD,
    FSubS,
    FSubD,
    FMulS,
    FMulD,
    FDivS,
    FDivD,
    /// Convert integer (in an FP register) to single (unary).
    FiToS,
    /// Convert integer to double (unary).
    FiToD,
    /// Convert single to integer (unary).
    FsToI,
    /// Convert double to integer (unary).
    FdToI,
    /// Convert single to double (unary).
    FsToD,
    /// Convert double to single (unary).
    FdToS,
    /// Square root single (unary).
    FSqrtS,
    /// Square root double (unary).
    FSqrtD,
}

impl FpOp {
    /// Whether the opcode takes a single source operand (`rs2` only).
    pub fn is_unary(self) -> bool {
        use FpOp::*;
        matches!(
            self,
            FMovS | FNegS | FAbsS | FiToS | FiToD | FsToI | FdToI | FsToD | FdToS | FSqrtS | FSqrtD
        )
    }

    /// Whether the *source* operands are double-precision pairs.
    pub fn src_double(self) -> bool {
        use FpOp::*;
        matches!(self, FAddD | FSubD | FMulD | FDivD | FdToI | FdToS | FSqrtD)
    }

    /// Whether the *destination* operand is a double-precision pair.
    pub fn dst_double(self) -> bool {
        use FpOp::*;
        matches!(self, FAddD | FSubD | FMulD | FDivD | FiToD | FsToD | FSqrtD)
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use FpOp::*;
        match self {
            FMovS => "fmovs",
            FNegS => "fnegs",
            FAbsS => "fabss",
            FAddS => "fadds",
            FAddD => "faddd",
            FSubS => "fsubs",
            FSubD => "fsubd",
            FMulS => "fmuls",
            FMulD => "fmuld",
            FDivS => "fdivs",
            FDivD => "fdivd",
            FiToS => "fitos",
            FiToD => "fitod",
            FsToI => "fstoi",
            FdToI => "fdtoi",
            FsToD => "fstod",
            FdToS => "fdtos",
            FSqrtS => "fsqrts",
            FSqrtD => "fsqrtd",
        }
    }

    /// All FP opcodes, in a fixed order.
    pub fn all() -> &'static [FpOp] {
        use FpOp::*;
        &[
            FMovS, FNegS, FAbsS, FAddS, FAddD, FSubS, FSubD, FMulS, FMulD, FDivS, FDivD, FiToS,
            FiToD, FsToI, FdToI, FsToD, FdToS, FSqrtS, FSqrtD,
        ]
    }
}

/// An integer branch condition (the `cond` field of `Bicc`/`Ticc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Never.
    N,
    /// Equal.
    E,
    /// Less or equal.
    Le,
    /// Less.
    L,
    /// Less or equal, unsigned.
    Leu,
    /// Carry set (unsigned less).
    Cs,
    /// Negative.
    Neg,
    /// Overflow set.
    Vs,
    /// Always.
    A,
    /// Not equal.
    Ne,
    /// Greater.
    G,
    /// Greater or equal.
    Ge,
    /// Greater, unsigned.
    Gu,
    /// Carry clear (unsigned greater or equal).
    Cc,
    /// Positive.
    Pos,
    /// Overflow clear.
    Vc,
}

impl Cond {
    /// The 4-bit encoding in the `cond` field.
    pub fn code(self) -> u8 {
        use Cond::*;
        match self {
            N => 0,
            E => 1,
            Le => 2,
            L => 3,
            Leu => 4,
            Cs => 5,
            Neg => 6,
            Vs => 7,
            A => 8,
            Ne => 9,
            G => 10,
            Ge => 11,
            Gu => 12,
            Cc => 13,
            Pos => 14,
            Vc => 15,
        }
    }

    /// Decodes the 4-bit `cond` field.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 16`.
    pub fn from_code(code: u8) -> Cond {
        use Cond::*;
        match code {
            0 => N,
            1 => E,
            2 => Le,
            3 => L,
            4 => Leu,
            5 => Cs,
            6 => Neg,
            7 => Vs,
            8 => A,
            9 => Ne,
            10 => G,
            11 => Ge,
            12 => Gu,
            13 => Cc,
            14 => Pos,
            15 => Vc,
            _ => panic!("branch condition code {code} out of range"),
        }
    }

    /// Whether the condition is statically taken (`ba`) or untaken (`bn`).
    pub fn is_unconditional(self) -> bool {
        matches!(self, Cond::A | Cond::N)
    }

    /// The branch mnemonic suffix (e.g. `"ne"` for `bne`).
    pub fn suffix(self) -> &'static str {
        use Cond::*;
        match self {
            N => "n",
            E => "e",
            Le => "le",
            L => "l",
            Leu => "leu",
            Cs => "cs",
            Neg => "neg",
            Vs => "vs",
            A => "a",
            Ne => "ne",
            G => "g",
            Ge => "ge",
            Gu => "gu",
            Cc => "cc",
            Pos => "pos",
            Vc => "vc",
        }
    }

    /// All sixteen conditions, in encoding order.
    pub fn all() -> &'static [Cond] {
        use Cond::*;
        &[N, E, Le, L, Leu, Cs, Neg, Vs, A, Ne, G, Ge, Gu, Cc, Pos, Vc]
    }
}

/// A floating-point branch condition (the `cond` field of `FBfcc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCond {
    /// Never.
    N,
    /// Not equal.
    Ne,
    /// Less or greater.
    Lg,
    /// Unordered or less.
    Ul,
    /// Less.
    L,
    /// Unordered or greater.
    Ug,
    /// Greater.
    G,
    /// Unordered.
    U,
    /// Always.
    A,
    /// Equal.
    E,
    /// Unordered or equal.
    Ue,
    /// Greater or equal.
    Ge,
    /// Unordered, greater, or equal.
    Uge,
    /// Less or equal.
    Le,
    /// Unordered, less, or equal.
    Ule,
    /// Ordered.
    O,
}

impl FCond {
    /// The 4-bit encoding in the `cond` field.
    pub fn code(self) -> u8 {
        use FCond::*;
        match self {
            N => 0,
            Ne => 1,
            Lg => 2,
            Ul => 3,
            L => 4,
            Ug => 5,
            G => 6,
            U => 7,
            A => 8,
            E => 9,
            Ue => 10,
            Ge => 11,
            Uge => 12,
            Le => 13,
            Ule => 14,
            O => 15,
        }
    }

    /// Decodes the 4-bit `cond` field.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 16`.
    pub fn from_code(code: u8) -> FCond {
        use FCond::*;
        match code {
            0 => N,
            1 => Ne,
            2 => Lg,
            3 => Ul,
            4 => L,
            5 => Ug,
            6 => G,
            7 => U,
            8 => A,
            9 => E,
            10 => Ue,
            11 => Ge,
            12 => Uge,
            13 => Le,
            14 => Ule,
            15 => O,
            _ => panic!("FP branch condition code {code} out of range"),
        }
    }

    /// Whether the condition is statically taken (`fba`) or untaken (`fbn`).
    pub fn is_unconditional(self) -> bool {
        matches!(self, FCond::A | FCond::N)
    }

    /// The branch mnemonic suffix (e.g. `"ge"` for `fbge`).
    pub fn suffix(self) -> &'static str {
        use FCond::*;
        match self {
            N => "n",
            Ne => "ne",
            Lg => "lg",
            Ul => "ul",
            L => "l",
            Ug => "ug",
            G => "g",
            U => "u",
            A => "a",
            E => "e",
            Ue => "ue",
            Ge => "ge",
            Uge => "uge",
            Le => "le",
            Ule => "ule",
            O => "o",
        }
    }

    /// All sixteen conditions, in encoding order.
    pub fn all() -> &'static [FCond] {
        use FCond::*;
        &[N, Ne, Lg, Ul, L, Ug, G, U, A, E, Ue, Ge, Uge, Le, Ule, O]
    }
}

/// The width/signedness of an integer memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// Signed byte.
    SByte,
    /// Unsigned byte.
    UByte,
    /// Signed halfword.
    SHalf,
    /// Unsigned halfword.
    UHalf,
    /// 32-bit word.
    Word,
    /// 64-bit doubleword (even/odd register pair).
    Double,
}

impl MemWidth {
    /// The access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::SByte | MemWidth::UByte => 1,
            MemWidth::SHalf | MemWidth::UHalf => 2,
            MemWidth::Word => 4,
            MemWidth::Double => 8,
        }
    }
}

/// The second source operand of a format-3 instruction: a register or
/// a 13-bit sign-extended immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Operand {
    Reg(IntReg),
    Imm(i16),
}

impl Operand {
    /// The largest representable immediate, `2^12 - 1`.
    pub const IMM_MAX: i16 = 4095;
    /// The smallest representable immediate, `-2^12`.
    pub const IMM_MIN: i16 = -4096;

    /// Creates an immediate operand.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not fit in 13 signed bits.
    pub fn imm(v: i32) -> Operand {
        assert!(
            (Operand::IMM_MIN as i32..=Operand::IMM_MAX as i32).contains(&v),
            "immediate {v} does not fit in simm13"
        );
        Operand::Imm(v as i16)
    }

    /// Whether an `i32` fits in the 13-bit immediate field.
    pub fn fits_imm(v: i32) -> bool {
        (Operand::IMM_MIN as i32..=Operand::IMM_MAX as i32).contains(&v)
    }

    /// The register, if this operand is a register.
    pub fn reg(self) -> Option<IntReg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<IntReg> for Operand {
    fn from(r: IntReg) -> Operand {
        Operand::Reg(r)
    }
}

/// A memory address: base register plus register-or-immediate offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub struct Address {
    pub base: IntReg,
    pub offset: Operand,
}

impl Address {
    /// `base + imm` addressing.
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit in 13 signed bits.
    pub fn base_imm(base: IntReg, offset: i32) -> Address {
        Address {
            base,
            offset: Operand::imm(offset),
        }
    }

    /// `base + index` register addressing.
    pub fn base_reg(base: IntReg, index: IntReg) -> Address {
        Address {
            base,
            offset: Operand::Reg(index),
        }
    }

    /// The registers this address reads (excluding `%g0`).
    pub fn uses(self) -> impl Iterator<Item = IntReg> {
        let idx = match self.offset {
            Operand::Reg(r) if !r.is_zero() => Some(r),
            _ => None,
        };
        let base = (!self.base.is_zero()).then_some(self.base);
        base.into_iter().chain(idx)
    }
}

/// How an instruction transfers control, if it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlKind {
    /// Falls through to the next instruction.
    None,
    /// PC-relative conditional branch (`Bicc`/`FBfcc` with a real condition).
    CondBranch,
    /// PC-relative unconditional branch (`ba`, `fba`; `bn` is a no-op branch
    /// but still classified here because it occupies a CTI slot).
    UncondBranch,
    /// `call`: PC-relative, writes `%o7`.
    Call,
    /// `jmpl`: register-indirect jump (returns, indirect calls).
    IndirectJump,
    /// `Ticc`: a (conditional) trap.
    Trap,
}

/// A fully decoded SPARC V8 instruction.
///
/// Construct values directly, through the convenience constructors
/// (e.g. [`Instruction::nop`]), or with the
/// [`Assembler`](crate::builder::Assembler). Instructions round-trip
/// through [`encode`](Instruction::encode) and
/// [`decode`](Instruction::decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand fields use the manual's names (rs1, rd, …)
pub enum Instruction {
    /// `sethi %hi(imm), rd` — sets the high 22 bits of `rd`.
    Sethi { imm22: u32, rd: IntReg },
    /// Integer ALU/shift/multiply/divide.
    Alu {
        op: AluOp,
        rs1: IntReg,
        src2: Operand,
        rd: IntReg,
    },
    /// Integer load.
    Load {
        width: MemWidth,
        addr: Address,
        rd: IntReg,
    },
    /// Integer store.
    Store {
        width: MemWidth,
        src: IntReg,
        addr: Address,
    },
    /// Floating-point load (`ldf`/`lddf`).
    LoadFp {
        double: bool,
        addr: Address,
        rd: FpReg,
    },
    /// Floating-point store (`stf`/`stdf`).
    StoreFp {
        double: bool,
        src: FpReg,
        addr: Address,
    },
    /// Integer conditional branch; `disp` is in words from this instruction.
    Branch { cond: Cond, annul: bool, disp: i32 },
    /// Floating-point conditional branch.
    FBranch { cond: FCond, annul: bool, disp: i32 },
    /// `call`: `disp` is in words from this instruction; writes `%o7`.
    Call { disp: i32 },
    /// `jmpl rs1 + src2, rd` — indirect jump; `ret` is `jmpl %i7+8, %g0`,
    /// `retl` is `jmpl %o7+8, %g0`.
    Jmpl {
        rs1: IntReg,
        src2: Operand,
        rd: IntReg,
    },
    /// `save rs1 + src2, rd` — new register window plus an add.
    Save {
        rs1: IntReg,
        src2: Operand,
        rd: IntReg,
    },
    /// `restore rs1 + src2, rd` — previous register window plus an add.
    Restore {
        rs1: IntReg,
        src2: Operand,
        rd: IntReg,
    },
    /// Floating-point arithmetic/conversion. For unary ops `rs1` is
    /// ignored (conventionally `%f0`).
    Fp {
        op: FpOp,
        rs1: FpReg,
        rs2: FpReg,
        rd: FpReg,
    },
    /// `fcmps`/`fcmpd` — writes the FP condition codes.
    FCmp {
        double: bool,
        rs1: FpReg,
        rs2: FpReg,
    },
    /// `rd %y, rd`.
    RdY { rd: IntReg },
    /// `wr rs1, src2, %y` (xor semantics on real hardware; used as a move).
    WrY { rs1: IntReg, src2: Operand },
    /// `Ticc` — trap on condition; used by the simulator for service calls.
    Trap {
        cond: Cond,
        rs1: IntReg,
        src2: Operand,
    },
    /// A word that does not decode to a supported instruction.
    Unknown(u32),
}

impl Instruction {
    /// The canonical `nop` (`sethi 0, %g0`).
    ///
    /// ```
    /// use eel_sparc::Instruction;
    /// assert_eq!(Instruction::nop().encode(), 0x0100_0000);
    /// ```
    pub fn nop() -> Instruction {
        Instruction::Sethi {
            imm22: 0,
            rd: IntReg::G0,
        }
    }

    /// Whether this is the canonical `nop`.
    pub fn is_nop(&self) -> bool {
        matches!(self, Instruction::Sethi { imm22: 0, rd } if rd.is_zero())
    }

    /// `mov src, rd` pseudo-instruction (`or %g0, src, rd`).
    pub fn mov(src: Operand, rd: IntReg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Or,
            rs1: IntReg::G0,
            src2: src,
            rd,
        }
    }

    /// `cmp rs1, src2` pseudo-instruction (`subcc rs1, src2, %g0`).
    pub fn cmp(rs1: IntReg, src2: Operand) -> Instruction {
        Instruction::Alu {
            op: AluOp::SubCc,
            rs1,
            src2,
            rd: IntReg::G0,
        }
    }

    /// `ret` pseudo-instruction (`jmpl %i7 + 8, %g0`).
    pub fn ret() -> Instruction {
        Instruction::Jmpl {
            rs1: IntReg::I7,
            src2: Operand::Imm(8),
            rd: IntReg::G0,
        }
    }

    /// `retl` pseudo-instruction (`jmpl %o7 + 8, %g0`).
    pub fn retl() -> Instruction {
        Instruction::Jmpl {
            rs1: IntReg::O7,
            src2: Operand::Imm(8),
            rd: IntReg::G0,
        }
    }

    /// How this instruction transfers control.
    pub fn control_kind(&self) -> ControlKind {
        match self {
            Instruction::Branch { cond, .. } => {
                if cond.is_unconditional() {
                    ControlKind::UncondBranch
                } else {
                    ControlKind::CondBranch
                }
            }
            Instruction::FBranch { cond, .. } => {
                if cond.is_unconditional() {
                    ControlKind::UncondBranch
                } else {
                    ControlKind::CondBranch
                }
            }
            Instruction::Call { .. } => ControlKind::Call,
            Instruction::Jmpl { .. } => ControlKind::IndirectJump,
            Instruction::Trap { .. } => ControlKind::Trap,
            _ => ControlKind::None,
        }
    }

    /// Whether this is a control-transfer instruction (CTI).
    pub fn is_cti(&self) -> bool {
        !matches!(self.control_kind(), ControlKind::None | ControlKind::Trap)
    }

    /// Whether this CTI has an architectural delay slot. On SPARC V8
    /// every branch, call, and `jmpl` does; `Ticc` does not.
    pub fn has_delay_slot(&self) -> bool {
        self.is_cti()
    }

    /// The annul bit, if this is a branch.
    pub fn annul(&self) -> Option<bool> {
        match self {
            Instruction::Branch { annul, .. } | Instruction::FBranch { annul, .. } => Some(*annul),
            _ => None,
        }
    }

    /// The PC-relative displacement in *words*, if this is a direct CTI
    /// (`Bicc`, `FBfcc`, or `call`).
    pub fn branch_disp(&self) -> Option<i32> {
        match self {
            Instruction::Branch { disp, .. }
            | Instruction::FBranch { disp, .. }
            | Instruction::Call { disp } => Some(*disp),
            _ => None,
        }
    }

    /// Rewrites the PC-relative displacement of a direct CTI; used
    /// during code layout when the distance to the target changes.
    ///
    /// # Panics
    ///
    /// Panics if this is not a direct CTI, or if the displacement does
    /// not fit the instruction's field (±2²¹ words for branches,
    /// ±2²⁹ for `call`).
    pub fn set_branch_disp(&mut self, new_disp: i32) {
        match self {
            Instruction::Branch { disp, .. } | Instruction::FBranch { disp, .. } => {
                assert!(
                    (-(1 << 21)..(1 << 21)).contains(&new_disp),
                    "branch displacement {new_disp} does not fit in disp22"
                );
                *disp = new_disp;
            }
            Instruction::Call { disp } => {
                assert!(
                    (-(1 << 29)..(1 << 29)).contains(&new_disp),
                    "call displacement {new_disp} does not fit in disp30"
                );
                *disp = new_disp;
            }
            other => panic!("set_branch_disp on non-branch {other:?}"),
        }
    }

    /// Whether the instruction reads memory.
    pub fn is_load(&self) -> bool {
        matches!(self, Instruction::Load { .. } | Instruction::LoadFp { .. })
    }

    /// Whether the instruction writes memory.
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Instruction::Store { .. } | Instruction::StoreFp { .. }
        )
    }

    /// Whether the instruction touches memory at all.
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// The memory address operand, if any.
    pub fn mem_address(&self) -> Option<Address> {
        match self {
            Instruction::Load { addr, .. }
            | Instruction::Store { addr, .. }
            | Instruction::LoadFp { addr, .. }
            | Instruction::StoreFp { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// Whether the local scheduler must keep this instruction in place:
    /// register-window manipulation, `%y` moves, traps, and undecodable
    /// words have side effects our dependence model does not capture.
    pub fn is_scheduling_barrier(&self) -> bool {
        matches!(
            self,
            Instruction::Save { .. }
                | Instruction::Restore { .. }
                | Instruction::Trap { .. }
                | Instruction::Unknown(_)
        )
    }

    /// Whether this instruction uses the floating-point unit (arithmetic,
    /// compare, or FP memory traffic).
    pub fn is_fp(&self) -> bool {
        matches!(
            self,
            Instruction::Fp { .. }
                | Instruction::FCmp { .. }
                | Instruction::LoadFp { .. }
                | Instruction::StoreFp { .. }
        )
    }

    /// The key under which a SADL description binds this instruction's
    /// pipeline timing. Conditional variants of a branch share one
    /// timing name, and all conditions of `Ticc` are `"ticc"`.
    pub fn timing_name(&self) -> &'static str {
        Instruction::ALL_TIMING_NAMES[self.timing_index()]
    }

    /// This instruction's position in [`Instruction::ALL_TIMING_NAMES`]
    /// — the one mapping from instructions to timing names. Machine
    /// models resolve it to a timing group by array index, so no hot
    /// path hashes a mnemonic.
    pub fn timing_index(&self) -> usize {
        // The ALU and FP families sit in ALL_TIMING_NAMES in their
        // enums' declaration order.
        match self {
            Instruction::Alu { op, .. } => *op as usize,
            Instruction::Sethi { .. } => 31,
            Instruction::Load { width, .. } => match width {
                MemWidth::Word => 32,
                MemWidth::UByte => 33,
                MemWidth::SByte => 34,
                MemWidth::UHalf => 35,
                MemWidth::SHalf => 36,
                MemWidth::Double => 37,
            },
            Instruction::Store { width, .. } => match width {
                MemWidth::Word => 38,
                MemWidth::SByte | MemWidth::UByte => 39,
                MemWidth::SHalf | MemWidth::UHalf => 40,
                MemWidth::Double => 41,
            },
            Instruction::LoadFp { double, .. } => 42 + usize::from(*double),
            Instruction::StoreFp { double, .. } => 44 + usize::from(*double),
            Instruction::Branch { .. } => 46,
            Instruction::FBranch { .. } => 47,
            Instruction::Call { .. } => 48,
            Instruction::Jmpl { .. } => 49,
            Instruction::Save { .. } => 50,
            Instruction::Restore { .. } => 51,
            Instruction::Fp { op, .. } => 52 + *op as usize,
            Instruction::FCmp { double, .. } => 71 + usize::from(*double),
            Instruction::RdY { .. } => 73,
            Instruction::WrY { .. } => 74,
            Instruction::Trap { .. } => 75,
            Instruction::Unknown(_) => 76,
        }
    }

    /// Every timing name [`Instruction::timing_name`] can return, in a
    /// fixed order. Machine descriptions must bind a `sem` for each.
    pub const ALL_TIMING_NAMES: &'static [&'static str] = &[
        "add", "addcc", "addx", "addxcc", "sub", "subcc", "subx", "subxcc", "and", "andcc", "andn",
        "andncc", "or", "orcc", "orn", "orncc", "xor", "xorcc", "xnor", "xnorcc", "sll", "srl",
        "sra", "umul", "smul", "umulcc", "smulcc", "udiv", "sdiv", "udivcc", "sdivcc", "sethi",
        "ld", "ldub", "ldsb", "lduh", "ldsh", "ldd", "st", "stb", "sth", "std", "ldf", "lddf",
        "stf", "stdf", "bicc", "fbfcc", "call", "jmpl", "save", "restore", "fmovs", "fnegs",
        "fabss", "fadds", "faddd", "fsubs", "fsubd", "fmuls", "fmuld", "fdivs", "fdivd", "fitos",
        "fitod", "fstoi", "fdtoi", "fstod", "fdtos", "fsqrts", "fsqrtd", "fcmps", "fcmpd", "rdy",
        "wry", "ticc", "unknown",
    ];

    /// The architectural resources this instruction reads, as a heap
    /// list. Convenience wrapper over [`Instruction::uses_fixed`].
    pub fn uses(&self) -> Vec<Resource> {
        self.uses_fixed().to_vec()
    }

    /// The architectural resources this instruction reads.
    ///
    /// `%g0` never appears (reading it yields a constant). Double-
    /// precision FP operands contribute both halves of their pair.
    /// Returned inline — no allocation — so hot pipeline queries can
    /// call it freely.
    pub fn uses_fixed(&self) -> ResourceList {
        let mut out = ResourceList::new();
        let int_use = |r: IntReg, out: &mut ResourceList| {
            if !r.is_zero() {
                out.push(Resource::Int(r));
            }
        };
        let operand_use = |o: Operand, out: &mut ResourceList| {
            if let Operand::Reg(r) = o {
                if !r.is_zero() {
                    out.push(Resource::Int(r));
                }
            }
        };
        let fp_use = |r: FpReg, double: bool, out: &mut ResourceList| {
            if double {
                let (e, o) = r.pair();
                out.push(Resource::Fp(e));
                out.push(Resource::Fp(o));
            } else {
                out.push(Resource::Fp(r));
            }
        };
        match self {
            Instruction::Sethi { .. } | Instruction::Call { .. } | Instruction::Unknown(_) => {}
            Instruction::Alu { op, rs1, src2, .. } => {
                int_use(*rs1, &mut out);
                operand_use(*src2, &mut out);
                if op.reads_cc() {
                    out.push(Resource::Icc);
                }
                if op.is_div() {
                    out.push(Resource::Y);
                }
            }
            Instruction::Load { addr, .. } | Instruction::LoadFp { addr, .. } => {
                for r in addr.uses() {
                    out.push(Resource::Int(r));
                }
            }
            Instruction::Store { src, addr, .. } => {
                int_use(*src, &mut out);
                for r in addr.uses() {
                    out.push(Resource::Int(r));
                }
            }
            Instruction::StoreFp { double, src, addr } => {
                fp_use(*src, *double, &mut out);
                for r in addr.uses() {
                    out.push(Resource::Int(r));
                }
            }
            Instruction::Branch { cond, .. } => {
                if !cond.is_unconditional() {
                    out.push(Resource::Icc);
                }
            }
            Instruction::FBranch { cond, .. } => {
                if !cond.is_unconditional() {
                    out.push(Resource::Fcc);
                }
            }
            Instruction::Jmpl { rs1, src2, .. }
            | Instruction::Save { rs1, src2, .. }
            | Instruction::Restore { rs1, src2, .. } => {
                int_use(*rs1, &mut out);
                operand_use(*src2, &mut out);
            }
            Instruction::Fp { op, rs1, rs2, .. } => {
                if !op.is_unary() {
                    fp_use(*rs1, op.src_double(), &mut out);
                }
                fp_use(*rs2, op.src_double(), &mut out);
            }
            Instruction::FCmp { double, rs1, rs2 } => {
                fp_use(*rs1, *double, &mut out);
                fp_use(*rs2, *double, &mut out);
            }
            Instruction::RdY { .. } => out.push(Resource::Y),
            Instruction::WrY { rs1, src2 } => {
                int_use(*rs1, &mut out);
                operand_use(*src2, &mut out);
            }
            Instruction::Trap { cond, rs1, src2 } => {
                if !cond.is_unconditional() {
                    out.push(Resource::Icc);
                }
                int_use(*rs1, &mut out);
                operand_use(*src2, &mut out);
            }
        }
        out
    }

    /// The architectural resources this instruction writes, as a heap
    /// list. Convenience wrapper over [`Instruction::defs_fixed`].
    pub fn defs(&self) -> Vec<Resource> {
        self.defs_fixed().to_vec()
    }

    /// The architectural resources this instruction writes.
    ///
    /// Writes to `%g0` are discarded and never appear. Double-precision
    /// FP results contribute both halves of their pair. Returned
    /// inline — no allocation.
    pub fn defs_fixed(&self) -> ResourceList {
        let mut out = ResourceList::new();
        let int_def = |r: IntReg, out: &mut ResourceList| {
            if !r.is_zero() {
                out.push(Resource::Int(r));
            }
        };
        match self {
            Instruction::Sethi { rd, .. } => int_def(*rd, &mut out),
            Instruction::Alu { op, rd, .. } => {
                int_def(*rd, &mut out);
                if op.sets_cc() {
                    out.push(Resource::Icc);
                }
                if op.is_mul() {
                    out.push(Resource::Y);
                }
            }
            Instruction::Load { width, rd, .. } => {
                int_def(*rd, &mut out);
                if *width == MemWidth::Double {
                    // `ldd` writes the even/odd pair.
                    let odd = IntReg::new(rd.number() | 1);
                    if odd != *rd {
                        int_def(odd, &mut out);
                    }
                }
            }
            Instruction::LoadFp { double, rd, .. } => {
                if *double {
                    let (e, o) = rd.pair();
                    out.push(Resource::Fp(e));
                    out.push(Resource::Fp(o));
                } else {
                    out.push(Resource::Fp(*rd));
                }
            }
            Instruction::Store { .. } | Instruction::StoreFp { .. } => {}
            Instruction::Branch { .. } | Instruction::FBranch { .. } => {}
            Instruction::Call { .. } => int_def(IntReg::O7, &mut out),
            Instruction::Jmpl { rd, .. }
            | Instruction::Save { rd, .. }
            | Instruction::Restore { rd, .. } => int_def(*rd, &mut out),
            Instruction::Fp { op, rd, .. } => {
                if op.dst_double() {
                    let (e, o) = rd.pair();
                    out.push(Resource::Fp(e));
                    out.push(Resource::Fp(o));
                } else {
                    out.push(Resource::Fp(*rd));
                }
            }
            Instruction::FCmp { .. } => out.push(Resource::Fcc),
            Instruction::RdY { rd } => int_def(*rd, &mut out),
            Instruction::WrY { .. } => out.push(Resource::Y),
            Instruction::Trap { .. } | Instruction::Unknown(_) => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_is_sethi_zero_g0() {
        let n = Instruction::nop();
        assert!(n.is_nop());
        assert!(!n.is_cti());
        assert!(n.uses().is_empty());
        assert!(n.defs().is_empty());
    }

    #[test]
    fn mov_and_cmp_pseudos() {
        let m = Instruction::mov(Operand::imm(5), IntReg::O0);
        assert_eq!(m.defs(), vec![Resource::Int(IntReg::O0)]);
        assert!(m.uses().is_empty());
        let c = Instruction::cmp(IntReg::O0, Operand::Reg(IntReg::O1));
        assert_eq!(c.defs(), vec![Resource::Icc]);
        assert_eq!(
            c.uses(),
            vec![Resource::Int(IntReg::O0), Resource::Int(IntReg::O1)]
        );
    }

    #[test]
    fn g0_never_in_def_use() {
        let i = Instruction::Alu {
            op: AluOp::Add,
            rs1: IntReg::G0,
            src2: Operand::Reg(IntReg::G0),
            rd: IntReg::G0,
        };
        assert!(i.uses().is_empty());
        assert!(i.defs().is_empty());
    }

    #[test]
    fn addcc_defs_icc_addx_uses_icc() {
        let i = Instruction::Alu {
            op: AluOp::AddCc,
            rs1: IntReg::O0,
            src2: Operand::imm(1),
            rd: IntReg::O0,
        };
        assert!(i.defs().contains(&Resource::Icc));
        let j = Instruction::Alu {
            op: AluOp::AddX,
            rs1: IntReg::O0,
            src2: Operand::imm(0),
            rd: IntReg::O1,
        };
        assert!(j.uses().contains(&Resource::Icc));
        assert!(!j.defs().contains(&Resource::Icc));
    }

    #[test]
    fn mul_div_touch_y() {
        let m = Instruction::Alu {
            op: AluOp::SMul,
            rs1: IntReg::O0,
            src2: Operand::Reg(IntReg::O1),
            rd: IntReg::O2,
        };
        assert!(m.defs().contains(&Resource::Y));
        let d = Instruction::Alu {
            op: AluOp::UDiv,
            rs1: IntReg::O0,
            src2: Operand::Reg(IntReg::O1),
            rd: IntReg::O2,
        };
        assert!(d.uses().contains(&Resource::Y));
    }

    #[test]
    fn double_fp_ops_use_pairs() {
        let i = Instruction::Fp {
            op: FpOp::FAddD,
            rs1: FpReg::new(2),
            rs2: FpReg::new(4),
            rd: FpReg::new(6),
        };
        let uses = i.uses();
        for n in [2u8, 3, 4, 5] {
            assert!(uses.contains(&Resource::Fp(FpReg::new(n))), "missing f{n}");
        }
        let defs = i.defs();
        assert!(defs.contains(&Resource::Fp(FpReg::new(6))));
        assert!(defs.contains(&Resource::Fp(FpReg::new(7))));
    }

    #[test]
    fn unary_fp_ignores_rs1() {
        let i = Instruction::Fp {
            op: FpOp::FMovS,
            rs1: FpReg::new(10),
            rs2: FpReg::new(3),
            rd: FpReg::new(5),
        };
        assert_eq!(i.uses(), vec![Resource::Fp(FpReg::new(3))]);
    }

    #[test]
    fn ldd_writes_pair() {
        let i = Instruction::Load {
            width: MemWidth::Double,
            addr: Address::base_imm(IntReg::O0, 0),
            rd: IntReg::O2,
        };
        assert!(i.defs().contains(&Resource::Int(IntReg::O2)));
        assert!(i.defs().contains(&Resource::Int(IntReg::O3)));
    }

    #[test]
    fn branches_and_conditions() {
        let b = Instruction::Branch {
            cond: Cond::Ne,
            annul: false,
            disp: 4,
        };
        assert_eq!(b.control_kind(), ControlKind::CondBranch);
        assert!(b.has_delay_slot());
        assert_eq!(b.uses(), vec![Resource::Icc]);
        let ba = Instruction::Branch {
            cond: Cond::A,
            annul: true,
            disp: -2,
        };
        assert_eq!(ba.control_kind(), ControlKind::UncondBranch);
        assert!(ba.uses().is_empty());
        let fb = Instruction::FBranch {
            cond: FCond::L,
            annul: false,
            disp: 1,
        };
        assert_eq!(fb.uses(), vec![Resource::Fcc]);
    }

    #[test]
    fn call_defines_o7() {
        let c = Instruction::Call { disp: 100 };
        assert_eq!(c.defs(), vec![Resource::Int(IntReg::O7)]);
        assert_eq!(c.control_kind(), ControlKind::Call);
    }

    #[test]
    fn ret_is_indirect() {
        let r = Instruction::ret();
        assert_eq!(r.control_kind(), ControlKind::IndirectJump);
        assert_eq!(r.uses(), vec![Resource::Int(IntReg::I7)]);
        assert!(r.defs().is_empty());
    }

    #[test]
    fn retarget_branch() {
        let mut b = Instruction::Branch {
            cond: Cond::E,
            annul: false,
            disp: 2,
        };
        b.set_branch_disp(-7);
        assert_eq!(b.branch_disp(), Some(-7));
        let mut c = Instruction::Call { disp: 0 };
        c.set_branch_disp(1 << 25);
        assert_eq!(c.branch_disp(), Some(1 << 25));
    }

    #[test]
    #[should_panic(expected = "does not fit in disp22")]
    fn retarget_overflow_panics() {
        let mut b = Instruction::Branch {
            cond: Cond::E,
            annul: false,
            disp: 0,
        };
        b.set_branch_disp(1 << 21);
    }

    #[test]
    fn barriers() {
        assert!(Instruction::Save {
            rs1: IntReg::SP,
            src2: Operand::imm(-96),
            rd: IntReg::SP
        }
        .is_scheduling_barrier());
        assert!(Instruction::Trap {
            cond: Cond::A,
            rs1: IntReg::G0,
            src2: Operand::imm(0)
        }
        .is_scheduling_barrier());
        assert!(!Instruction::nop().is_scheduling_barrier());
    }

    #[test]
    fn cond_codes_roundtrip() {
        for &c in Cond::all() {
            assert_eq!(Cond::from_code(c.code()), c);
        }
        for &c in FCond::all() {
            assert_eq!(FCond::from_code(c.code()), c);
        }
    }

    #[test]
    fn all_timing_names_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for n in Instruction::ALL_TIMING_NAMES {
            assert!(!n.is_empty());
            assert!(seen.insert(n), "{n} duplicated");
        }
        assert!(seen.len() > 70);
    }

    #[test]
    fn timing_names_cover_branch_conditions() {
        for &c in Cond::all() {
            let b = Instruction::Branch {
                cond: c,
                annul: false,
                disp: 0,
            };
            assert_eq!(b.timing_name(), "bicc");
        }
    }

    /// `timing_index` against an explicit mnemonic table: every ALU and
    /// FP opcode, every memory width and FP precision, each control
    /// transfer shape, traps, the `%y` moves and undecodable words. The
    /// table also reaches every entry of `ALL_TIMING_NAMES`.
    #[test]
    fn timing_index_names_every_instruction_shape() {
        use AluOp::*;
        use FpOp::*;
        let (r, f) = (IntReg::O1, FpReg::new(2));
        let addr = Address::base_imm(IntReg::O0, 8);
        let alu = |op| Instruction::Alu {
            op,
            rs1: r,
            src2: Operand::Reg(IntReg::G0),
            rd: IntReg::G0,
        };
        let fp = |op| Instruction::Fp {
            op,
            rs1: f,
            rs2: f,
            rd: f,
        };
        let load = |width| Instruction::Load { width, addr, rd: r };
        let store = |width| Instruction::Store {
            width,
            src: r,
            addr,
        };
        let mut table: Vec<(Instruction, &str)> = [
            (Add, "add"),
            (AddCc, "addcc"),
            (AddX, "addx"),
            (AddXCc, "addxcc"),
            (Sub, "sub"),
            (SubCc, "subcc"),
            (SubX, "subx"),
            (SubXCc, "subxcc"),
            (And, "and"),
            (AndCc, "andcc"),
            (AndN, "andn"),
            (AndNCc, "andncc"),
            (Or, "or"),
            (OrCc, "orcc"),
            (OrN, "orn"),
            (OrNCc, "orncc"),
            (Xor, "xor"),
            (XorCc, "xorcc"),
            (XNor, "xnor"),
            (XNorCc, "xnorcc"),
            (Sll, "sll"),
            (Srl, "srl"),
            (Sra, "sra"),
            (UMul, "umul"),
            (SMul, "smul"),
            (UMulCc, "umulcc"),
            (SMulCc, "smulcc"),
            (UDiv, "udiv"),
            (SDiv, "sdiv"),
            (UDivCc, "udivcc"),
            (SDivCc, "sdivcc"),
        ]
        .into_iter()
        .map(|(op, name)| (alu(op), name))
        .collect();
        assert_eq!(table.len(), AluOp::all().len());
        let fps = [
            (FMovS, "fmovs"),
            (FNegS, "fnegs"),
            (FAbsS, "fabss"),
            (FAddS, "fadds"),
            (FAddD, "faddd"),
            (FSubS, "fsubs"),
            (FSubD, "fsubd"),
            (FMulS, "fmuls"),
            (FMulD, "fmuld"),
            (FDivS, "fdivs"),
            (FDivD, "fdivd"),
            (FiToS, "fitos"),
            (FiToD, "fitod"),
            (FsToI, "fstoi"),
            (FdToI, "fdtoi"),
            (FsToD, "fstod"),
            (FdToS, "fdtos"),
            (FSqrtS, "fsqrts"),
            (FSqrtD, "fsqrtd"),
        ];
        assert_eq!(fps.len(), FpOp::all().len());
        table.extend(fps.into_iter().map(|(op, name)| (fp(op), name)));
        table.extend([
            (Instruction::nop(), "sethi"),
            (load(MemWidth::Word), "ld"),
            (load(MemWidth::UByte), "ldub"),
            (load(MemWidth::SByte), "ldsb"),
            (load(MemWidth::UHalf), "lduh"),
            (load(MemWidth::SHalf), "ldsh"),
            (load(MemWidth::Double), "ldd"),
            (store(MemWidth::Word), "st"),
            (store(MemWidth::UByte), "stb"),
            (store(MemWidth::SByte), "stb"),
            (store(MemWidth::UHalf), "sth"),
            (store(MemWidth::SHalf), "sth"),
            (store(MemWidth::Double), "std"),
            (
                Instruction::LoadFp {
                    double: false,
                    addr,
                    rd: f,
                },
                "ldf",
            ),
            (
                Instruction::LoadFp {
                    double: true,
                    addr,
                    rd: f,
                },
                "lddf",
            ),
            (
                Instruction::StoreFp {
                    double: false,
                    src: f,
                    addr,
                },
                "stf",
            ),
            (
                Instruction::StoreFp {
                    double: true,
                    src: f,
                    addr,
                },
                "stdf",
            ),
            (
                Instruction::Branch {
                    cond: Cond::A,
                    annul: true,
                    disp: 4,
                },
                "bicc",
            ),
            (
                Instruction::FBranch {
                    cond: FCond::Ne,
                    annul: false,
                    disp: -2,
                },
                "fbfcc",
            ),
            (Instruction::Call { disp: 64 }, "call"),
            (Instruction::ret(), "jmpl"),
            (
                Instruction::Save {
                    rs1: IntReg::SP,
                    src2: Operand::imm(-96),
                    rd: IntReg::SP,
                },
                "save",
            ),
            (
                Instruction::Restore {
                    rs1: IntReg::G0,
                    src2: Operand::imm(0),
                    rd: IntReg::G0,
                },
                "restore",
            ),
            (
                Instruction::FCmp {
                    double: false,
                    rs1: f,
                    rs2: f,
                },
                "fcmps",
            ),
            (
                Instruction::FCmp {
                    double: true,
                    rs1: f,
                    rs2: f,
                },
                "fcmpd",
            ),
            (Instruction::RdY { rd: r }, "rdy"),
            (
                Instruction::WrY {
                    rs1: r,
                    src2: Operand::imm(0),
                },
                "wry",
            ),
            (
                Instruction::Trap {
                    cond: Cond::A,
                    rs1: IntReg::G0,
                    src2: Operand::imm(5),
                },
                "ticc",
            ),
            (Instruction::Unknown(0), "unknown"),
            (Instruction::decode(0xFFFF_FFFF), "unknown"),
        ]);
        let mut reached = vec![false; Instruction::ALL_TIMING_NAMES.len()];
        for (insn, name) in table {
            let index = insn.timing_index();
            assert_eq!(Instruction::ALL_TIMING_NAMES[index], name, "{insn:?}");
            assert_eq!(insn.timing_name(), name, "{insn:?}");
            reached[index] = true;
        }
        let missed: Vec<&str> = Instruction::ALL_TIMING_NAMES
            .iter()
            .zip(&reached)
            .filter(|(_, &hit)| !hit)
            .map(|(name, _)| *name)
            .collect();
        assert!(missed.is_empty(), "unreached timing names: {missed:?}");
    }

    #[test]
    fn operand_imm_bounds() {
        assert!(Operand::fits_imm(4095));
        assert!(Operand::fits_imm(-4096));
        assert!(!Operand::fits_imm(4096));
        assert!(!Operand::fits_imm(-4097));
    }

    #[test]
    #[should_panic(expected = "simm13")]
    fn operand_imm_overflow_panics() {
        Operand::imm(5000);
    }

    #[test]
    fn mem_classification() {
        let ld = Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(IntReg::O0, 4),
            rd: IntReg::O1,
        };
        assert!(ld.is_load() && !ld.is_store() && ld.is_mem());
        let st = Instruction::Store {
            width: MemWidth::Word,
            src: IntReg::O1,
            addr: Address::base_imm(IntReg::O0, 4),
        };
        assert!(st.is_store() && !st.is_load() && st.is_mem());
        assert!(!Instruction::nop().is_mem());
    }

    #[test]
    fn address_uses_skips_g0() {
        let a = Address::base_imm(IntReg::G0, 0);
        assert_eq!(a.uses().count(), 0);
        let b = Address::base_reg(IntReg::O0, IntReg::G0);
        assert_eq!(b.uses().collect::<Vec<_>>(), vec![IntReg::O0]);
    }
}
