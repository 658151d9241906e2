//! Ad-hoc perf localization on real generated workloads, and the
//! nightly SPEC95 differential: every workload — as built, QPT-
//! instrumented and scheduled, the three executables the tables time —
//! runs on the block engine and on the [`ReferenceCpu`] oracle under
//! the tables' own timing, with an I-cache, with a data cache, and
//! with stall attribution, and both must agree exactly.
//! Ignored by default; run with
//! `cargo test -p eel-bench --release --test perf_probe -- --ignored --nocapture`.

use eel_bench::experiment::ExperimentConfig;
use eel_core::Scheduler;
use eel_edit::{EditSession, Executable};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
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

/// Requires the engine's and the oracle's runs of `exe` to agree on
/// every observable: counts, profiles, timing, attribution and final
/// data memory.
fn assert_exact(what: &str, exe: &Executable, fast: &RunResult, slow: &RunResult) {
    assert_eq!(fast.instructions, slow.instructions, "{what}: instructions");
    assert_eq!(fast.cycles, slow.cycles, "{what}: cycles");
    assert_eq!(fast.exit_code, slow.exit_code, "{what}: exit code");
    assert_eq!(fast.pc_counts, slow.pc_counts, "{what}: pc profile");
    assert_eq!(
        fast.taken_counts, slow.taken_counts,
        "{what}: taken profile"
    );
    assert_eq!(
        fast.taken_branches, slow.taken_branches,
        "{what}: taken branches"
    );
    assert_eq!(fast.mem_ops, slow.mem_ops, "{what}: mem ops");
    assert_eq!(
        fast.icache_misses, slow.icache_misses,
        "{what}: icache misses"
    );
    assert_eq!(
        fast.dcache_misses, slow.dcache_misses,
        "{what}: dcache misses"
    );
    assert_eq!(
        fast.stall_profile, slow.stall_profile,
        "{what}: attribution"
    );
    let (mut fm, mut sm) = (fast.memory.clone(), slow.memory.clone());
    let data_len = exe.data().len() as u32 + exe.bss_size();
    for addr in (exe.data_base()..exe.data_base() + data_len).step_by(4) {
        assert_eq!(
            fm.read_u32(addr),
            sm.read_u32(addr),
            "{what}: memory at {addr:#x}"
        );
    }
}

#[test]
#[ignore]
fn real_workloads() {
    let tables = ExperimentConfig::default();
    let model = MachineModel::ultrasparc().with_load_latency_bias(tables.mem_bias);
    let cfg = RunConfig {
        timing: Some(TimingConfig {
            taken_branch_penalty: 1,
            icache: Some(Default::default()),
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
    let configs = [
        (
            "tables",
            RunConfig {
                timing: Some(tables.timing),
                ..RunConfig::default()
            },
        ),
        ("icache", cfg.clone()),
        ("dcache", dcache),
        (
            "attributed",
            RunConfig {
                attribute_stalls: true,
                ..cfg.clone()
            },
        ),
    ];
    for b in spec95() {
        // Built, instrumented and scheduled as the engine does: the
        // workload optimized for the measured machine, EEL scheduling
        // with the nominal description.
        let exe = b.build(&BuildOptions {
            optimize: Some(model.clone()),
            ..BuildOptions::default()
        });
        let mut session = EditSession::new(&exe).expect("analyzable");
        let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
        let instrumented = session.emit_unscheduled().expect("instrumentable");
        let scheduled = session
            .emit(Scheduler::new(MachineModel::ultrasparc()).transform())
            .expect("schedulable");
        for (kind, e) in [
            ("original", &exe),
            ("instrumented", &instrumented),
            ("scheduled", &scheduled),
        ] {
            for (what, c) in &configs {
                let fast = run(e, Some(&model), c).unwrap();
                let slow = ReferenceCpu::run(e, Some(&model), c).unwrap();
                assert_exact(&format!("{} {kind} {what}", b.name), e, &fast, &slow);
            }
        }
        let r = run(&exe, Some(&model), &cfg).unwrap();
        let reg = eel_telemetry::Registry::new();
        let t = Instant::now();
        let r2 = run_with(&exe, Some(&model), &cfg, &reg).unwrap();
        let fast_ns = t.elapsed().as_nanos() as f64 / r2.instructions as f64;
        let snap = reg.snapshot();
        let t = Instant::now();
        let rr = ReferenceCpu::run(&exe, Some(&model), &cfg).unwrap();
        let ref_ns = t.elapsed().as_nanos() as f64 / rr.instructions as f64;
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
