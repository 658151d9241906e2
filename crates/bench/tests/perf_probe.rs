//! Ad-hoc perf localization on real generated workloads, and the
//! nightly SPEC95 differential: every workload runs on the block
//! engine and on the [`ReferenceCpu`] oracle — plain, with a data
//! cache, and with stall attribution — and both must agree exactly.
//! Ignored by default; run with
//! `cargo test -p eel-bench --release --test perf_probe -- --ignored --nocapture`.

use eel_pipeline::MachineModel;
use eel_sim::{run, run_with, DCacheConfig, ReferenceCpu, RunConfig, RunResult, TimingConfig};
use eel_sparc::{Instruction, MemWidth, Operand};
use eel_workloads::{spec95, BuildOptions};
use std::time::Instant;

fn covered(insn: &Instruction) -> bool {
    match *insn {
        Instruction::Alu { .. } | Instruction::Sethi { .. } => true,
        Instruction::Load {
            width: MemWidth::Word,
            addr,
            ..
        }
        | Instruction::Store {
            width: MemWidth::Word,
            addr,
            ..
        } => matches!(addr.offset, Operand::Imm(_)),
        _ => false,
    }
}

/// Requires the engine's and the oracle's runs to agree on every
/// timing observable.
fn assert_exact(what: &str, fast: &RunResult, slow: &RunResult) {
    assert_eq!(fast.instructions, slow.instructions, "{what}: instructions");
    assert_eq!(fast.cycles, slow.cycles, "{what}: cycles");
    assert_eq!(fast.pc_counts, slow.pc_counts, "{what}: pc profile");
    assert_eq!(
        fast.icache_misses, slow.icache_misses,
        "{what}: icache misses"
    );
    assert_eq!(
        fast.dcache_misses, slow.dcache_misses,
        "{what}: dcache misses"
    );
    assert_eq!(fast.mispredicts, slow.mispredicts, "{what}: mispredicts");
    assert_eq!(
        fast.stall_profile, slow.stall_profile,
        "{what}: attribution"
    );
}

#[test]
#[ignore]
fn real_workloads() {
    let model = MachineModel::ultrasparc().with_load_latency_bias(2);
    let cfg = RunConfig {
        timing: Some(TimingConfig {
            taken_branch_penalty: 1,
            icache: Some(Default::default()),
            predictor: Some(Default::default()),
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    let mut dcache = cfg.clone();
    dcache.timing.as_mut().unwrap().dcache = Some(DCacheConfig {
        size: 4096,
        line: 32,
        miss_penalty: 8,
    });
    let attributed = RunConfig {
        attribute_stalls: true,
        ..cfg.clone()
    };
    for b in spec95() {
        let exe = b.build(&BuildOptions {
            optimize: Some(MachineModel::ultrasparc()),
            ..BuildOptions::default()
        });
        let r = run(&exe, Some(&model), &cfg).unwrap();
        let reg = eel_telemetry::Registry::new();
        let t = Instant::now();
        let r2 = run_with(&exe, Some(&model), &cfg, &reg).unwrap();
        let fast_ns = t.elapsed().as_nanos() as f64 / r2.instructions as f64;
        let snap = reg.snapshot();
        let t = Instant::now();
        let rr = ReferenceCpu::run(&exe, Some(&model), &cfg).unwrap();
        let ref_ns = t.elapsed().as_nanos() as f64 / rr.instructions as f64;
        assert_exact(&format!("{} plain", b.name), &r, &rr);
        for (what, c) in [("dcache", &dcache), ("attributed", &attributed)] {
            let fast = run(&exe, Some(&model), c).unwrap();
            let slow = ReferenceCpu::run(&exe, Some(&model), c).unwrap();
            assert_exact(&format!("{} {what}", b.name), &fast, &slow);
        }
        // Dynamic coverage of the flat replay ops, weighted by pc_counts.
        let text = exe.text();
        let mut dyn_total = 0u64;
        let mut dyn_other = 0u64;
        for (i, &w) in text.iter().enumerate() {
            let n = r.pc_counts[i];
            if n == 0 {
                continue;
            }
            dyn_total += n;
            let insn = Instruction::decode(w);
            let is_cti = insn.control_kind() != eel_sparc::ControlKind::None;
            if is_cti || !covered(&insn) {
                dyn_other += n;
            }
        }
        println!(
            "{:<12} {:>8} insns  fast {:>5.1} ref {:>5.1} ns/insn  ({:.2}x)  other {:>4.1}%  \
             hits {:>6} misses {:>5} taken {:>6} fused {:>6} builds {:>5}",
            b.name,
            r.instructions,
            fast_ns,
            ref_ns,
            ref_ns / fast_ns,
            100.0 * dyn_other as f64 / dyn_total as f64,
            snap.counters["sim.block_ctx_hits"],
            snap.counters["sim.block_ctx_misses"],
            snap.counters["sim.taken_branches"],
            snap.counters["sim.block_slot_fused"],
            snap.counters["sim.block_builds"],
        );
    }
}
