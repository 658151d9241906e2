//! The edits the tables time keep the program's semantics. The engine
//! walks its instrumented and scheduled cells along the original's
//! path (`eel_sim::walk`), which reports the original's exit code and
//! computes no memory, so its exit-code check no longer covers them;
//! this test carries that check on the tables' own builds.
//!
//! Every SPEC95 program, at reduced iterations, is built as Tables 1
//! (UltraSPARC) and 3 (SuperSPARC) build it, and four edits of it are
//! executed: instrumented, unscheduled; instrumented and scheduled by
//! the engine's scheduler; rescheduled; and instrumented after
//! rescheduling. Each must exit as the original does and leave the
//! original's data and bss as the original's run leaves them, and an
//! instrumented edit's QPT2 counters must equal the original's block
//! executions.

use eel_bench::experiment::{ExperimentConfig, Measurement};
use eel_edit::{Cfg, EditSession, Executable};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{run, Memory, RunConfig};
use eel_workloads::spec95;

/// The data and bss words of `exe`'s image, read from `mem`.
fn data(exe: &Executable, mem: &Memory) -> Vec<u32> {
    let mut mem = mem.clone();
    let end = exe.data_base() + exe.data().len() as u32 + exe.bss_size();
    (exe.data_base()..end)
        .step_by(4)
        .map(|addr| mem.read_u32(addr).expect("data readable"))
        .collect()
}

fn check_machine(machine: &MachineModel) {
    let m = Measurement::new(
        machine,
        &ExperimentConfig {
            iterations: Some(2),
            ..ExperimentConfig::default()
        },
    );
    let functional = RunConfig::default();
    for bench in spec95() {
        let original = bench.build(&m.build);
        let truth = run(&original, None, &functional).expect("the original runs");
        let original_data = data(&original, &truth.memory);
        // Each block of the original, `(routine, block)`, and its
        // executions.
        let counts = &truth.pc_counts;
        let executions: Vec<((usize, usize), u64)> = Cfg::build(&original)
            .expect("analyzable")
            .routines
            .iter()
            .enumerate()
            .flat_map(|(ri, r)| {
                let blocks = r.blocks.iter().enumerate();
                blocks.map(move |(bi, b)| ((ri, bi), counts[b.start]))
            })
            .collect();

        let check = |how: &str, edited: &Executable, profiler: Option<&Profiler>| {
            let what = format!("{} on {} {how}", bench.name, machine.name());
            let r = run(edited, None, &functional).expect("the edit runs");
            assert_eq!(r.exit_code, truth.exit_code, "{what}: exit code");
            let edited_data = data(&original, &r.memory);
            if let Some(i) = original_data
                .iter()
                .zip(&edited_data)
                .position(|(a, b)| a != b)
            {
                panic!(
                    "{what}: memory at {:#x}",
                    original.data_base() + 4 * i as u32
                );
            }
            if let Some(profiler) = profiler {
                let mut mem = r.memory.clone();
                let counts = profiler.profile(|a| mem.read_u32(a).expect("counter readable"));
                assert_eq!(counts.len(), executions.len(), "{what}: every block");
                for (block, executed) in &executions {
                    let counted = u64::from(counts[block]);
                    assert_eq!(
                        counted, *executed,
                        "{what}: block {block:?} counted {counted}, executed {executed}"
                    );
                }
            }
        };
        let instrument = |base: &Executable| {
            let mut session = EditSession::new(base).expect("analyzable");
            let profiler = Profiler::instrument(&mut session, ProfileOptions::default());
            (session, profiler)
        };

        let (session, profiler) = instrument(&original);
        let unscheduled = session.emit_unscheduled().expect("emits");
        check("instrumented", &unscheduled, Some(&profiler));
        let scheduled = session.emit(m.scheduler.transform()).expect("emits");
        check("scheduled", &scheduled, Some(&profiler));

        let rescheduled = EditSession::new(&original)
            .expect("analyzable")
            .emit(m.scheduler.transform())
            .expect("emits");
        check("rescheduled", &rescheduled, None);
        let (session, profiler) = instrument(&rescheduled);
        let after = session.emit_unscheduled().expect("emits");
        check("instrumented after rescheduling", &after, Some(&profiler));
    }
}

#[test]
fn table1_edits_keep_semantics() {
    check_machine(&MachineModel::ultrasparc());
}

#[test]
fn table3_edits_keep_semantics() {
    check_machine(&MachineModel::supersparc());
}
