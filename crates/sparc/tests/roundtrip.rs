//! Property tests for encode/decode and def/use invariants.

use eel_sparc::{
    Address, AluOp, Cond, FCond, FpOp, FpReg, Instruction, IntReg, MemWidth, Operand, Resource,
};
use proptest::prelude::*;

fn arb_int_reg() -> impl Strategy<Value = IntReg> {
    (0u8..32).prop_map(IntReg::new)
}

fn arb_fp_reg() -> impl Strategy<Value = FpReg> {
    (0u8..32).prop_map(FpReg::new)
}

fn arb_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        arb_int_reg().prop_map(Operand::Reg),
        (-4096i32..=4095).prop_map(Operand::imm),
    ]
}

fn arb_address() -> impl Strategy<Value = Address> {
    (arb_int_reg(), arb_operand()).prop_map(|(base, offset)| Address { base, offset })
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop::sample::select(AluOp::all().to_vec())
}

fn arb_fp_op() -> impl Strategy<Value = FpOp> {
    prop::sample::select(FpOp::all().to_vec())
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop::sample::select(Cond::all().to_vec())
}

fn arb_fcond() -> impl Strategy<Value = FCond> {
    prop::sample::select(FCond::all().to_vec())
}

/// Store widths are canonically unsigned (stb/sth have no signedness).
fn arb_store_width() -> impl Strategy<Value = MemWidth> {
    prop::sample::select(vec![
        MemWidth::UByte,
        MemWidth::UHalf,
        MemWidth::Word,
        MemWidth::Double,
    ])
}

fn arb_load_width() -> impl Strategy<Value = MemWidth> {
    prop::sample::select(vec![
        MemWidth::SByte,
        MemWidth::UByte,
        MemWidth::SHalf,
        MemWidth::UHalf,
        MemWidth::Word,
        MemWidth::Double,
    ])
}

/// Any canonically constructed instruction of the supported subset.
fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (0u32..(1 << 22), arb_int_reg()).prop_map(|(imm22, rd)| Instruction::Sethi { imm22, rd }),
        (arb_alu_op(), arb_int_reg(), arb_operand(), arb_int_reg())
            .prop_map(|(op, rs1, src2, rd)| Instruction::Alu { op, rs1, src2, rd }),
        (arb_load_width(), arb_address(), arb_int_reg())
            .prop_map(|(width, addr, rd)| Instruction::Load { width, addr, rd }),
        (arb_store_width(), arb_int_reg(), arb_address())
            .prop_map(|(width, src, addr)| Instruction::Store { width, src, addr }),
        (any::<bool>(), arb_address(), arb_fp_reg())
            .prop_map(|(double, addr, rd)| Instruction::LoadFp { double, addr, rd }),
        (any::<bool>(), arb_fp_reg(), arb_address())
            .prop_map(|(double, src, addr)| Instruction::StoreFp { double, src, addr }),
        (arb_cond(), any::<bool>(), -(1i32 << 21)..(1 << 21))
            .prop_map(|(cond, annul, disp)| Instruction::Branch { cond, annul, disp }),
        (arb_fcond(), any::<bool>(), -(1i32 << 21)..(1 << 21))
            .prop_map(|(cond, annul, disp)| Instruction::FBranch { cond, annul, disp }),
        (-(1i32 << 29)..(1 << 29)).prop_map(|disp| Instruction::Call { disp }),
        (arb_int_reg(), arb_operand(), arb_int_reg())
            .prop_map(|(rs1, src2, rd)| Instruction::Jmpl { rs1, src2, rd }),
        (arb_int_reg(), arb_operand(), arb_int_reg())
            .prop_map(|(rs1, src2, rd)| Instruction::Save { rs1, src2, rd }),
        (arb_int_reg(), arb_operand(), arb_int_reg())
            .prop_map(|(rs1, src2, rd)| Instruction::Restore { rs1, src2, rd }),
        (arb_fp_op(), arb_fp_reg(), arb_fp_reg(), arb_fp_reg())
            .prop_map(|(op, rs1, rs2, rd)| Instruction::Fp { op, rs1, rs2, rd }),
        (any::<bool>(), arb_fp_reg(), arb_fp_reg())
            .prop_map(|(double, rs1, rs2)| Instruction::FCmp { double, rs1, rs2 }),
        arb_int_reg().prop_map(|rd| Instruction::RdY { rd }),
        (arb_int_reg(), arb_operand()).prop_map(|(rs1, src2)| Instruction::WrY { rs1, src2 }),
        (arb_cond(), arb_int_reg(), arb_operand())
            .prop_map(|(cond, rs1, src2)| Instruction::Trap { cond, rs1, src2 }),
    ]
}

proptest! {
    /// decode is a left inverse of encode on the supported subset.
    #[test]
    fn decode_inverts_encode(insn in arb_instruction()) {
        prop_assert_eq!(Instruction::decode(insn.encode()), insn);
    }

    /// encode is a left inverse of decode on *all* 32-bit words:
    /// whatever decode makes of a word, re-encoding reproduces the word.
    #[test]
    fn encode_inverts_decode(word in any::<u32>()) {
        prop_assert_eq!(Instruction::decode(word).encode(), word);
    }

    /// %g0 never appears in a def or use set.
    #[test]
    fn g0_never_in_def_use(insn in arb_instruction()) {
        let g0 = Resource::Int(IntReg::G0);
        prop_assert!(!insn.defs().contains(&g0));
        prop_assert!(!insn.uses().contains(&g0));
    }

    /// Resource indices stay within the dense range.
    #[test]
    fn def_use_indices_in_range(insn in arb_instruction()) {
        for r in insn.defs().into_iter().chain(insn.uses()) {
            prop_assert!(r.index() < Resource::COUNT);
        }
    }

    /// Disassembly never panics and is never empty.
    #[test]
    fn disasm_total(insn in arb_instruction()) {
        prop_assert!(!insn.to_string().is_empty());
    }

    /// Disassembly of an arbitrary word (through decode) never panics.
    #[test]
    fn disasm_total_on_raw_words(word in any::<u32>()) {
        prop_assert!(!Instruction::decode(word).to_string().is_empty());
    }

    /// Every CTI has a delay slot, and only CTIs do.
    #[test]
    fn delay_slots_match_cti(insn in arb_instruction()) {
        prop_assert_eq!(insn.is_cti(), insn.has_delay_slot());
    }

    /// Retargeting a direct CTI changes only the displacement.
    #[test]
    fn retarget_preserves_identity(
        cond in arb_cond(),
        annul in any::<bool>(),
        d1 in -(1i32 << 21)..(1 << 21),
        d2 in -(1i32 << 21)..(1 << 21),
    ) {
        let mut b = Instruction::Branch { cond, annul, disp: d1 };
        b.set_branch_disp(d2);
        prop_assert_eq!(b, Instruction::Branch { cond, annul, disp: d2 });
    }
}
