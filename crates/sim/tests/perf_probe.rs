//! Ad-hoc perf localization probes, ignored by default. Run with
//! `cargo test -p eel-sim --release --test perf_probe -- --ignored --nocapture`.

use eel_edit::Executable;
use eel_pipeline::MachineModel;
use eel_sim::{run, RunConfig, TimingConfig};
use eel_sparc::{Address, Assembler, Cond, IntReg, Operand};
use std::time::Instant;

fn time_one(label: &str, exe: &Executable) {
    let model = MachineModel::ultrasparc();
    let cfg = RunConfig {
        timing: Some(TimingConfig {
            taken_branch_penalty: 1,
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    // Warm.
    let r = run(exe, Some(&model), &cfg).unwrap();
    let t = Instant::now();
    let mut insns = 0;
    for _ in 0..5 {
        insns += run(exe, Some(&model), &cfg).unwrap().instructions;
    }
    let ns = t.elapsed().as_nanos() as f64 / insns as f64;
    println!(
        "{label:28} {ns:6.1} ns/insn  ({} insns/run)",
        r.instructions
    );
}

fn finish(a: Assembler) -> Executable {
    let mut exe = Executable::from_words(
        0x10000,
        a.finish().unwrap().iter().map(|i| i.encode()).collect(),
    );
    exe.reserve_bss(4096);
    exe
}

#[test]
#[ignore]
fn probe() {
    // Pure covered ALU ops in a long block.
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(200_000, IntReg::O1);
    a.bind(top);
    for _ in 0..12 {
        a.add(IntReg::O0, Operand::imm(1), IntReg::O0);
        a.xor(IntReg::O2, Operand::imm(5), IntReg::O2);
    }
    a.subcc(IntReg::O1, Operand::imm(1), IntReg::O1);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    time_one("alu-covered", &finish(a));

    // Word loads/stores, imm offset (covered).
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(200_000, IntReg::O1);
    a.set(Executable::DEFAULT_DATA_BASE, IntReg::O5);
    a.bind(top);
    for _ in 0..6 {
        a.ld(Address::base_imm(IntReg::O5, 0), IntReg::O3);
        a.st(IntReg::O3, Address::base_imm(IntReg::O5, 8));
    }
    a.subcc(IntReg::O1, Operand::imm(1), IntReg::O1);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    time_one("mem-word-covered", &finish(a));

    // Byte loads (uncovered -> generic step_decoded).
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(200_000, IntReg::O1);
    a.set(Executable::DEFAULT_DATA_BASE, IntReg::O5);
    a.bind(top);
    for _ in 0..12 {
        a.ldub(Address::base_imm(IntReg::O5, 1), IntReg::O3);
    }
    a.subcc(IntReg::O1, Operand::imm(1), IntReg::O1);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    time_one("mem-byte-uncovered", &finish(a));

    // Short blocks: dense branches (block len ~3 + delay slot).
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(200_000, IntReg::O1);
    a.bind(top);
    let mut skips = Vec::new();
    for _ in 0..6 {
        let s = a.new_label();
        a.add(IntReg::O0, Operand::imm(1), IntReg::O0);
        a.b(Cond::N, s); // never taken
        a.nop();
        a.bind(s);
        skips.push(s);
    }
    a.subcc(IntReg::O1, Operand::imm(1), IntReg::O1);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    time_one("branchy-short-blocks", &finish(a));
}
