//! Differential property test: the block-replay engine behind
//! [`eel_sim::run`] must agree **exactly** with the per-instruction
//! [`ReferenceCpu`] oracle — same retired-instruction count, same
//! cycle count, same exit code or fault, same execution and
//! taken-edge profiles, same cache totals, same stall attribution,
//! and same final memory — on randomized programs, on every shipped
//! machine model, functional-only and under every timing shape the
//! engine specializes (bare pipeline, I-cache, D-cache, with and
//! without stall attribution).
//!
//! Programs come from three generators: raw word soup (decode is
//! total, so arbitrary `u32`s explore the whole instruction space,
//! including wild control flow and faulting memory traffic — faults
//! must match too), bounded countdown loops whose bodies are random
//! words (steady-state re-execution is what the timing memo actually
//! caches, so loops are the interesting case), and countdown loops of
//! random loads and stores over a data array (dense D-cache traffic,
//! including a load in the fused delay slot). Runaway control flow is
//! bounded by a small instruction budget; hitting it is itself a
//! compared outcome.

use eel_edit::Executable;
use eel_pipeline::MachineModel;
use eel_sim::{run, DCacheConfig, ICacheConfig, ReferenceCpu, RunConfig, SimError, TimingConfig};
use eel_sparc::{Address, Assembler, Cond, IntReg, Operand};
use proptest::prelude::*;

/// A raw program: the words as given, with a trap exit appended so at
/// least one halting path exists.
fn soup_exe(words: &[u32]) -> Executable {
    let mut text = words.to_vec();
    text.push(0x91d0_2000); // ta 0
    let mut exe = Executable::from_words(0x10000, text);
    exe.reserve_bss(4096);
    exe
}

/// A countdown loop around the body words: guaranteed forward
/// progress toward the trap exit, while the body reruns enough times
/// for the block memo to reach steady state.
fn loop_exe(body: &[u32], iters: u32) -> Executable {
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(iters, IntReg::L0);
    a.bind(top);
    for &w in body {
        // `decode` is total, so any word becomes *some* instruction
        // (including CTIs that may leave the loop — the budget bounds
        // those runs).
        a.push(eel_sparc::Instruction::decode(w));
    }
    a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    finish(a)
}

/// A countdown loop of word loads, stores, and load-use adds at the
/// given offsets into the data array, whose base register strides one
/// line per iteration; the back edge's delay slot is a load too, so
/// the fused-slot D-cache probe is exercised.
fn data_loop_exe(body: &[(u8, u16)], slot_off: u16, iters: u32) -> Executable {
    let word = |off: u16| Address::base_imm(IntReg::L1, i32::from(off % 768) * 4);
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(iters, IntReg::L0);
    a.set(Executable::DEFAULT_DATA_BASE, IntReg::L1);
    a.bind(top);
    for &(kind, off) in body {
        match kind % 4 {
            0 | 1 => a.ld(word(off), IntReg::O1),
            2 => a.st(IntReg::O1, word(off)),
            _ => a.add(IntReg::O1, Operand::imm(1), IntReg::O2),
        };
    }
    a.add(IntReg::L1, Operand::imm(16), IntReg::L1);
    a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
    a.b(Cond::Ne, top);
    a.ld(word(slot_off), IntReg::O3);
    a.ta(0);
    finish(a)
}

fn finish(a: Assembler) -> Executable {
    let text: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
    let mut exe = Executable::from_words(0x10000, text);
    exe.reserve_bss(4096);
    exe
}

/// Run both engines and require identical observable outcomes.
fn assert_engines_agree(exe: &Executable, model: Option<&MachineModel>, cfg: &RunConfig) {
    let name = model.map_or("no model", MachineModel::name);
    let fast = run(exe, model, cfg);
    let refr = ReferenceCpu::run(exe, model, cfg);
    match (fast, refr) {
        (Err(a), Err(b)) => assert_eq!(a, b, "fault mismatch on {name}"),
        (Ok(a), Ok(b)) => {
            assert_eq!(a.instructions, b.instructions, "insns on {name}");
            assert_eq!(a.cycles, b.cycles, "cycles on {name}");
            assert_eq!(a.exit_code, b.exit_code, "exit on {name}");
            assert_eq!(a.pc_counts, b.pc_counts, "pc profile on {name}");
            assert_eq!(a.taken_counts, b.taken_counts, "taken profile on {name}");
            assert_eq!(a.icache_misses, b.icache_misses, "icache misses on {name}");
            assert_eq!(a.dcache_misses, b.dcache_misses, "dcache misses on {name}");
            assert_eq!(a.taken_branches, b.taken_branches, "taken branches");
            assert_eq!(a.mem_ops, b.mem_ops, "mem ops");
            assert_eq!(a.stall_profile, b.stall_profile, "attribution on {name}");
            // Final data memory: stores must have replayed identically.
            let (mut am, mut bm) = (a.memory, b.memory);
            for off in (0..4096).step_by(4) {
                let addr = exe.data_base() + off;
                assert_eq!(
                    am.read_u32(addr),
                    bm.read_u32(addr),
                    "memory at {addr:#x} on {name}"
                );
            }
        }
        (a, b) => panic!(
            "outcome kind mismatch on {name}: fast {:?} vs reference {:?}",
            a.map(|r| r.exit_code),
            b.map(|r| r.exit_code)
        ),
    }
}

/// Every timing shape the engine specializes: bare pipeline timing;
/// the full measured machine with a deliberately tiny I-cache so
/// conflict misses are dense; the same with a tiny D-cache; and
/// attributed variants of the bare and D-cache shapes.
fn configs() -> Vec<RunConfig> {
    let bare = RunConfig {
        max_instructions: 20_000,
        timing: Some(TimingConfig {
            taken_branch_penalty: 1,
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    let mut full = bare.clone();
    full.timing = Some(TimingConfig {
        taken_branch_penalty: 2,
        icache: Some(ICacheConfig {
            size: 256,
            line: 32,
            miss_penalty: 7,
        }),
        ..TimingConfig::default()
    });
    let mut dcache = full.clone();
    dcache.timing.as_mut().unwrap().dcache = Some(DCacheConfig {
        size: 128,
        line: 16,
        miss_penalty: 5,
    });
    let attributed = |cfg: &RunConfig| RunConfig {
        attribute_stalls: true,
        ..cfg.clone()
    };
    vec![attributed(&bare), attributed(&dcache), bare, full, dcache]
}

fn all_configs_agree(exe: &Executable) {
    for model in MachineModel::shipped() {
        for cfg in configs() {
            assert_engines_agree(exe, Some(&model), &cfg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn word_soup_agrees(words in prop::collection::vec(any::<u32>(), 1..40)) {
        all_configs_agree(&soup_exe(&words));
    }

    #[test]
    fn random_loops_agree(
        body in prop::collection::vec(any::<u32>(), 1..24),
        iters in 2u32..60,
    ) {
        all_configs_agree(&loop_exe(&body, iters));
    }

    #[test]
    fn data_loops_agree(
        body in prop::collection::vec((any::<u8>(), any::<u16>()), 1..16),
        slot_off in any::<u16>(),
        iters in 2u32..60,
    ) {
        all_configs_agree(&data_loop_exe(&body, slot_off, iters));
    }

    #[test]
    fn functional_only_runs_agree(words in prop::collection::vec(any::<u32>(), 1..40)) {
        // No model at all: the pure functional path must match too.
        let cfg = RunConfig {
            max_instructions: 20_000,
            ..RunConfig::default()
        };
        assert_engines_agree(&soup_exe(&words), None, &cfg);
    }
}

/// A load on each of the engine's three timing paths — a block
/// interior, a fused delay slot, and a single-stepped instruction
/// after a control transfer in a delay slot — all conflicting in one
/// D-cache set, so every execution misses. Miss counts, cycles, and
/// stall attribution (RAW stalls charged to the missing loads) must
/// match the reference.
#[test]
fn crafted_dcache_misses_agree_on_every_timing_path() {
    let mut a = Assembler::new();
    let (top, top2, stepped, done) = (a.new_label(), a.new_label(), a.new_label(), a.new_label());
    a.set(Executable::DEFAULT_DATA_BASE, IntReg::L1);
    a.set(30, IntReg::L0);
    a.bind(top);
    a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
    a.b(Cond::E, done);
    a.nop();
    a.ba(stepped);
    a.ba(top2); // a CTI in the delay slot: `stepped` runs single-stepped
    a.bind(top2);
    a.ld(Address::base_imm(IntReg::L1, 128), IntReg::O2);
    a.add(IntReg::O1, Operand::Reg(IntReg::O2), IntReg::O3);
    a.ba(top);
    a.ld(Address::base_imm(IntReg::L1, 256), IntReg::O4); // fused slot
    a.bind(stepped);
    a.ld(Address::base_imm(IntReg::L1, 0), IntReg::O1);
    a.nop();
    a.bind(done);
    a.ta(0);
    let exe = finish(a);
    let plain = RunConfig {
        timing: Some(TimingConfig {
            dcache: Some(DCacheConfig {
                size: 128,
                line: 16,
                miss_penalty: 5,
            }),
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    let attributed = RunConfig {
        attribute_stalls: true,
        ..plain.clone()
    };
    for model in MachineModel::shipped() {
        for cfg in [&plain, &attributed] {
            assert_engines_agree(&exe, Some(&model), cfg);
        }
        let r = run(&exe, Some(&model), &attributed).unwrap();
        assert_eq!(r.dcache_misses, 29 * 3, "three conflicting loads per pass");
        let profile = r.stall_profile.expect("attribution was requested");
        assert!(
            profile.raw_total() > 0,
            "load-use must stall on {}",
            model.name()
        );
        let plain_cycles = run(&exe, Some(&model), &plain).unwrap().cycles;
        assert_eq!(r.cycles, plain_cycles, "attribution must not change timing");
    }
}

/// A block capped at the builder's length limit ends in a
/// straight-line op rather than a control transfer; when that op is a
/// load, its D-cache probe and miss latency must still land.
#[test]
fn length_capped_blocks_probe_their_last_load() {
    let body: Vec<(u8, u16)> = (0..70u16)
        .map(|k| (if k % 3 == 2 { 2 } else { 0 }, k * 37))
        .collect();
    all_configs_agree(&data_loop_exe(&body, 7, 20));
}

/// `SimError` equality is what the proptests rely on for fault
/// comparison; pin one concrete interesting case — an instruction
/// budget fault must report the same retired count from both engines.
#[test]
fn budget_fault_reports_identical_retired_counts() {
    // An infinite loop: `b always` back to itself with a nop slot.
    let mut a = Assembler::new();
    let top = a.new_label();
    a.bind(top);
    a.b(Cond::A, top);
    a.nop();
    let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
    let mut exe = Executable::from_words(0x10000, words);
    exe.reserve_bss(64);
    let model = MachineModel::ultrasparc();
    for budget in [1u64, 2, 3, 100, 101] {
        let cfg = RunConfig {
            max_instructions: budget,
            timing: Some(TimingConfig::default()),
            ..RunConfig::default()
        };
        let fast = run(&exe, Some(&model), &cfg).expect_err("loop never exits");
        let refr = ReferenceCpu::run(&exe, Some(&model), &cfg).expect_err("loop never exits");
        assert_eq!(fast, refr, "budget {budget}");
        assert!(matches!(
            fast,
            SimError::InstructionLimit { limit, .. } if limit == budget
        ));
    }
}

/// Crafted I-cache conflict: a loop whose body spans two lines that
/// collide in a 2-line direct-mapped cache with a third straddling
/// block, so every iteration misses. The block engine's batched
/// per-line probes must report the same miss total as the reference's
/// per-instruction probes — and the expected count is known.
#[test]
fn crafted_icache_conflicts_count_identically() {
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(50, IntReg::L0);
    a.bind(top);
    // 24 straight-line words ≈ 96 bytes: spans 4 lines of 32 bytes,
    // overflowing a 64-byte cache every iteration.
    for _ in 0..24 {
        a.add(IntReg::O0, Operand::imm(1), IntReg::O0);
    }
    a.subcc(IntReg::L0, Operand::imm(1), IntReg::L0);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
    let mut exe = Executable::from_words(0x10000, words);
    exe.reserve_bss(64);
    let model = MachineModel::ultrasparc();
    let cfg = RunConfig {
        timing: Some(TimingConfig {
            icache: Some(ICacheConfig {
                size: 64,
                line: 32,
                miss_penalty: 8,
            }),
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    let fast = run(&exe, Some(&model), &cfg).unwrap();
    let refr = ReferenceCpu::run(&exe, Some(&model), &cfg).unwrap();
    assert_eq!(fast.icache_misses, refr.icache_misses);
    assert_eq!(fast.cycles, refr.cycles);
    assert!(
        fast.icache_misses > 100,
        "thrashing loop must miss every iteration, got {}",
        fast.icache_misses
    );
}
