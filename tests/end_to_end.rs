//! End-to-end integration: the full Figure-3 pipeline — analyse,
//! instrument, schedule, emit, execute — preserves program semantics
//! and produces valid executables, across benchmarks and machines.

use eel_repro::core::Scheduler;
use eel_repro::edit::{Cfg, EditSession};
use eel_repro::pipeline::MachineModel;
use eel_repro::qpt::{ProfileOptions, Profiler};
use eel_repro::sim::{run, RunConfig, TimingConfig};
use eel_repro::sparc::Instruction;
use eel_repro::workloads::{spec95, BuildOptions};

fn models() -> Vec<MachineModel> {
    vec![
        MachineModel::hypersparc(),
        MachineModel::supersparc(),
        MachineModel::ultrasparc(),
    ]
}

#[test]
fn editing_preserves_semantics_across_machines() {
    let cfg = RunConfig::default();
    for model in models() {
        for bench in spec95().iter().step_by(4) {
            let exe = bench.build(&BuildOptions {
                iterations: Some(5),
                optimize: Some(model.clone()),
            });
            let base = run(&exe, None, &cfg).expect("original runs");

            let mut session = EditSession::new(&exe).expect("analyzable");
            let _p = Profiler::instrument(&mut session, ProfileOptions::default());
            let inst = session.emit_unscheduled().expect("layout");
            let inst_run = run(&inst, None, &cfg).expect("instrumented runs");
            assert_eq!(
                inst_run.exit_code,
                base.exit_code,
                "{} on {}: instrumentation changed the result",
                bench.name,
                model.name()
            );

            let sched = session
                .emit(Scheduler::new(model.clone()).transform())
                .expect("schedulable");
            let sched_run = run(&sched, None, &cfg).expect("scheduled runs");
            assert_eq!(
                sched_run.exit_code,
                base.exit_code,
                "{} on {}: scheduling changed the result",
                bench.name,
                model.name()
            );
        }
    }
}

#[test]
fn edited_executables_are_reanalyzable() {
    // The output of an edit is itself a valid input: every branch
    // still targets a block leader, every CTI still has a delay slot.
    let model = MachineModel::ultrasparc();
    let bench = &spec95()[0];
    let exe = bench.build(&BuildOptions {
        iterations: Some(2),
        optimize: None,
    });
    let mut session = EditSession::new(&exe).expect("analyzable");
    let _p = Profiler::instrument(&mut session, ProfileOptions::default());
    let sched = session
        .emit(Scheduler::new(model).transform())
        .expect("schedulable");
    let cfg = Cfg::build(&sched).expect("edited executable is well-formed");
    assert!(cfg.block_count() >= session.cfg().block_count());
    // And it contains no undecodable words.
    for &w in sched.text() {
        assert!(
            !matches!(Instruction::decode(w), Instruction::Unknown(_)),
            "undecodable word {w:#010x} in edited text"
        );
    }
}

#[test]
fn scheduling_helps_or_is_harmless_on_every_benchmark() {
    // With EEL's own model as the machine (no model mismatch), the
    // scheduled instrumented binary should essentially never run
    // slower than the unscheduled one.
    let model = MachineModel::ultrasparc();
    let timing = RunConfig {
        timing: Some(TimingConfig::default()),
        ..RunConfig::default()
    };
    for bench in spec95().iter().step_by(3) {
        let exe = bench.build(&BuildOptions {
            iterations: Some(20),
            optimize: Some(model.clone()),
        });
        let mut session = EditSession::new(&exe).expect("analyzable");
        let _p = Profiler::instrument(&mut session, ProfileOptions::default());
        let inst = run(
            &session.emit_unscheduled().expect("layout"),
            Some(&model),
            &timing,
        )
        .expect("runs");
        let sched = run(
            &session
                .emit(Scheduler::new(model.clone()).transform())
                .expect("schedulable"),
            Some(&model),
            &timing,
        )
        .expect("runs");
        assert!(
            sched.cycles <= inst.cycles + inst.cycles / 50,
            "{}: scheduled {} vs unscheduled {}",
            bench.name,
            sched.cycles,
            inst.cycles
        );
    }
}

#[test]
fn instruction_counts_grow_by_instrumentation_only() {
    let bench = &spec95()[3]; // compress
    let exe = bench.build(&BuildOptions {
        iterations: Some(10),
        optimize: None,
    });
    let cfg = RunConfig::default();
    let base = run(&exe, None, &cfg).expect("runs");

    let mut session = EditSession::new(&exe).expect("analyzable");
    let profiler = Profiler::instrument(&mut session, ProfileOptions::default());
    let inst = session.emit_unscheduled().expect("layout");
    let inst_run = run(&inst, None, &cfg).expect("runs");

    // Each counted block adds exactly 4 dynamic instructions per entry.
    let mut mem = inst_run.memory.clone();
    let counts = profiler.profile(|a| mem.read_u32(a).expect("readable"));
    let counted_entries: u64 = session
        .all_blocks()
        .iter()
        .filter(|&&(r, b)| profiler.is_counted(r, b))
        .map(|&k| u64::from(counts[&k]))
        .sum();
    assert_eq!(
        inst_run.instructions,
        base.instructions + 4 * counted_entries,
        "instrumentation cost is exactly 4 instructions per counted block entry"
    );
}
