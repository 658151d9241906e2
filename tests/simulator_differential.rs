//! The block-memoized simulator against the per-instruction reference
//! on real workloads: one CINT body (130.li, blocks of about two
//! instructions) and one CFP body (102.swim, blocks of about fifty),
//! each as built, QPT-instrumented and scheduled — the three
//! executables every table row times — under the tables' timing and
//! under the data-cache study's. Every observable must agree exactly.
//! In a debug build each timing-memo hit is also checked against the
//! canonical pipeline context, so this covers the memo's replay on
//! real code, not only on the random programs of `eel-sim`'s own
//! differential.

use eel_repro::core::Scheduler;
use eel_repro::edit::{EditSession, Executable};
use eel_repro::pipeline::MachineModel;
use eel_repro::qpt::{ProfileOptions, Profiler};
use eel_repro::sim::{run, DCacheConfig, ReferenceCpu, RunConfig, RunResult, TimingConfig};
use eel_repro::workloads::{spec95, BuildOptions};

/// Enough iterations for every loop to reach its steady state, which
/// is what the memo replays.
const ITERATIONS: u32 = 30;

/// The two measured machines, as `(name, measured model, timing)`:
/// the tables' (eel-bench's `ExperimentConfig::default()`: two extra
/// cycles of load latency and a one-cycle taken-branch penalty) and
/// the `dcache_effect` study's (no bias, the same penalty, and a
/// 4 KiB, 32-byte-line data cache with an 8-cycle miss).
fn measured_machines() -> [(&'static str, MachineModel, TimingConfig); 2] {
    let tables = TimingConfig {
        taken_branch_penalty: 1,
        ..TimingConfig::default()
    };
    let dcache = TimingConfig {
        dcache: Some(DCacheConfig {
            size: 4096,
            line: 32,
            miss_penalty: 8,
        }),
        ..tables.clone()
    };
    [
        (
            "tables",
            MachineModel::ultrasparc().with_load_latency_bias(2),
            tables,
        ),
        ("dcache", MachineModel::ultrasparc(), dcache),
    ]
}

/// Requires the two runs of `exe` to agree on every observable:
/// counts, profiles, timing, attribution and final data memory.
fn assert_exact(what: &str, exe: &Executable, fast: &RunResult, slow: &RunResult) {
    assert_eq!(fast.instructions, slow.instructions, "{what}: instructions");
    assert_eq!(fast.cycles, slow.cycles, "{what}: cycles");
    assert_eq!(fast.exit_code, slow.exit_code, "{what}: exit code");
    assert_eq!(fast.pc_counts, slow.pc_counts, "{what}: pc profile");
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
fn block_engine_matches_reference_on_spec95_bodies() {
    for name in ["130.li", "102.swim"] {
        let bench = spec95()
            .into_iter()
            .find(|b| b.name == name)
            .expect("in the suite");
        for (machine, model, timing) in measured_machines() {
            // Built, instrumented and scheduled as the experiment
            // engine does: the workload optimized for the measured
            // machine, EEL scheduling with the nominal description.
            let original = bench.build(&BuildOptions {
                iterations: Some(ITERATIONS),
                optimize: Some(model.clone()),
            });
            let mut session = EditSession::new(&original).expect("analyzable");
            let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
            let instrumented = session.emit_unscheduled().expect("instrumentable");
            let scheduled = session
                .emit(Scheduler::new(MachineModel::ultrasparc()).transform())
                .expect("schedulable");
            let cfg = RunConfig {
                timing: Some(timing),
                ..RunConfig::default()
            };
            for (kind, exe) in [
                ("original", &original),
                ("instrumented", &instrumented),
                ("scheduled", &scheduled),
            ] {
                let fast = run(exe, Some(&model), &cfg).expect("runs");
                let slow = ReferenceCpu::run(exe, Some(&model), &cfg).expect("runs");
                assert_exact(&format!("{name} {kind} {machine}"), exe, &fast, &slow);
            }
        }
    }
}
