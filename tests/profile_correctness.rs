//! QPT2 profile validation and semantic preservation: the edited
//! executable must exit as the original does and leave the original's
//! data and bss as the original run leaves them, and the counter
//! values recovered from its memory must equal the simulator's
//! ground-truth block execution counts — for every benchmark,
//! scheduled or not, on every machine and under every policy, with
//! and without the skip rule.

use std::collections::HashMap;

use eel_repro::core::{Priority, SchedOptions, Scheduler};
use eel_repro::edit::{Cfg, EditSession, Executable};
use eel_repro::pipeline::MachineModel;
use eel_repro::qpt::{ProfileOptions, Profiler};
use eel_repro::sim::{run, Memory, RunConfig, RunResult};
use eel_repro::workloads::{full_corpus, spec95, Benchmark, BuildOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground truth: executions of each original block, from the
/// *uninstrumented* run's per-word counts.
fn ground_truth(exe: &Executable, result: &RunResult) -> HashMap<(usize, usize), u64> {
    let cfg = Cfg::build(exe).expect("analyzable");
    let mut out = HashMap::new();
    for (ri, r) in cfg.routines.iter().enumerate() {
        for (bi, b) in r.blocks.iter().enumerate() {
            out.insert((ri, bi), result.pc_counts[b.start]);
        }
    }
    out
}

/// Every policy: the four list policies and the exact oracle.
fn policies() -> Vec<Priority> {
    Priority::ALL.into_iter().chain([Priority::Exact]).collect()
}

/// Instruments `bench` with QPT2 slow profiling and checks its
/// unscheduled emit, then its emit scheduled for each of `machines`
/// under each of `policies`, against the original's functional run:
/// the exit code, data + bss over the original's range (the counters
/// lie past it), and the recovered counts.
fn check_profile(
    bench: &Benchmark,
    machines: &[MachineModel],
    policies: &[Priority],
    skip_rule: bool,
) {
    let exe = bench.build(&BuildOptions {
        iterations: Some(7),
        optimize: None,
    });
    let truth_run = run(&exe, None, &RunConfig::default()).expect("baseline runs");
    let truth = ground_truth(&exe, &truth_run);
    let data_end = exe.data_base() + exe.data().len() as u32 + exe.bss_size();
    let data = |mem: &mut Memory| -> Vec<u32> {
        (exe.data_base()..data_end)
            .step_by(4)
            .map(|addr| mem.read_u32(addr).expect("data readable"))
            .collect()
    };
    let original_data = data(&mut truth_run.memory.clone());

    let mut session = EditSession::new(&exe).expect("analyzable");
    let profiler = Profiler::instrument(
        &mut session,
        ProfileOptions {
            apply_skip_rule: skip_rule,
            ..ProfileOptions::default()
        },
    );
    assert!(profiler.counter_base() >= data_end, "{}", bench.name);
    let check = |how: &str, edited: &Executable| {
        let what = format!("{} {how} (skip={skip_rule})", bench.name);
        let run_result = run(edited, None, &RunConfig::default()).expect("edited runs");
        assert_eq!(
            run_result.exit_code, truth_run.exit_code,
            "{what}: exit code"
        );
        let mut mem = run_result.memory.clone();
        let edited_data = data(&mut mem);
        if let Some(i) = original_data
            .iter()
            .zip(&edited_data)
            .position(|(a, b)| a != b)
        {
            panic!("{what}: memory at {:#x}", exe.data_base() + 4 * i as u32);
        }
        let counts = profiler.profile(|a| mem.read_u32(a).expect("counter readable"));
        assert_eq!(
            counts.len(),
            truth.len(),
            "{what}: profile covers every block"
        );
        for (key, &expected) in &truth {
            let got = u64::from(counts[key]);
            assert_eq!(
                got, expected,
                "{what}: block {key:?} counted {got} but executed {expected}"
            );
        }
    };
    check("unscheduled", &session.emit_unscheduled().expect("layout"));
    for machine in machines {
        for &priority in policies {
            let sched = Scheduler::with_options(
                machine.clone(),
                SchedOptions {
                    priority,
                    ..SchedOptions::default()
                },
            );
            let edited = session.emit(sched.transform()).expect("schedulable");
            check(&format!("on {} ({priority})", machine.name()), &edited);
        }
    }
}

#[test]
fn profiles_match_ground_truth_unscheduled() {
    for bench in spec95().iter().step_by(5) {
        check_profile(bench, &[], &[], true);
    }
}

#[test]
fn profiles_match_ground_truth_scheduled() {
    let ultrasparc = [MachineModel::ultrasparc()];
    for bench in spec95().iter().step_by(5) {
        check_profile(bench, &ultrasparc, &[Priority::default()], true);
    }
}

/// A seeded slice of the full corpus, edited for every machine under
/// every policy; `editing_preserves_the_whole_corpus` runs all of it.
#[test]
fn editing_preserves_a_corpus_slice_on_every_machine_and_policy() {
    let corpus = full_corpus();
    let mut rng = StdRng::seed_from_u64(29);
    let (machines, policies) = (MachineModel::shipped(), policies());
    // Five draws keep the slice to a few seconds in debug: the exact
    // oracle's search takes most of it.
    for _ in 0..5 {
        let bench = &corpus[rng.gen_range(0..corpus.len())];
        check_profile(bench, &machines, &policies, true);
    }
}

/// Every entry of the full corpus on every machine under every policy.
/// Nightly runs it in release with `--ignored`.
#[test]
#[ignore]
fn editing_preserves_the_whole_corpus() {
    let (machines, policies) = (MachineModel::shipped(), policies());
    for bench in full_corpus() {
        check_profile(&bench, &machines, &policies, true);
    }
}

#[test]
fn profiles_match_without_skip_rule() {
    check_profile(&spec95()[1], &[], &[], false);
}

#[test]
fn profiles_match_on_fp_workloads() {
    let benches = spec95();
    let swim = benches
        .iter()
        .find(|b| b.name == "102.swim")
        .expect("exists");
    check_profile(
        swim,
        &[MachineModel::ultrasparc()],
        &[Priority::default()],
        true,
    );
    let fpppp = benches
        .iter()
        .find(|b| b.name == "145.fpppp")
        .expect("exists");
    check_profile(fpppp, &[], &[], true);
}

#[test]
fn skip_rule_reduces_counters_without_losing_information() {
    let bench = &spec95()[0];
    let exe = bench.build(&BuildOptions {
        iterations: Some(3),
        optimize: None,
    });

    let mut with_rule = EditSession::new(&exe).expect("analyzable");
    let p1 = Profiler::instrument(&mut with_rule, ProfileOptions::default());
    let mut without_rule = EditSession::new(&exe).expect("analyzable");
    let p2 = Profiler::instrument(
        &mut without_rule,
        ProfileOptions {
            apply_skip_rule: false,
            ..ProfileOptions::default()
        },
    );
    assert!(
        p1.instrumented_blocks() <= p2.instrumented_blocks(),
        "the rule can only drop counters"
    );
    // Both recover identical profiles.
    let r1 = run(
        &with_rule.emit_unscheduled().expect("layout"),
        None,
        &RunConfig::default(),
    )
    .expect("runs");
    let r2 = run(
        &without_rule.emit_unscheduled().expect("layout"),
        None,
        &RunConfig::default(),
    )
    .expect("runs");
    let mut m1 = r1.memory.clone();
    let mut m2 = r2.memory.clone();
    let c1 = p1.profile(|a| m1.read_u32(a).expect("readable"));
    let c2 = p2.profile(|a| m2.read_u32(a).expect("readable"));
    assert_eq!(c1, c2);
}
