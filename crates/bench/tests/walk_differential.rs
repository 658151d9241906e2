//! Walk equals execute: timing an edit by walking the original's
//! recorded path (`eel_sim::walk`) must report exactly what executing
//! the edit (`eel_sim::run`) reports on every observable but the final
//! memory, which a walk never computes.
//!
//! Every SPEC95 program, at reduced iterations, is built for each of
//! `MachineModel::shipped()` as the tables build it, and four edits of
//! it are walked: instrumented, scheduled, rescheduled, and
//! instrumented after rescheduling — the last along the rescheduled
//! executable's own path, as the engine walks Table 2's cell. Each is
//! timed the tables' way, with an I-cache, and with stall attribution.
//! A seeded slice of the corpus, one entry per generator kind, takes
//! the same checks on the tables' machine.

use std::collections::BTreeMap;

use eel_bench::experiment::{ExperimentConfig, Measurement};
use eel_edit::{EditSession, Executable, LeaderMap};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{record, run, walk, Path, RunConfig, RunResult};
use eel_workloads::{full_corpus, spec95, Benchmark};

/// The tables' timing, with an I-cache, and with attribution.
fn configs(m: &Measurement) -> [(&'static str, RunConfig); 3] {
    let mut icache = m.run.clone();
    icache.timing.as_mut().expect("timed").icache = Some(Default::default());
    let attributed = RunConfig {
        attribute_stalls: true,
        ..icache.clone()
    };
    [
        ("tables", m.run.clone()),
        ("icache", icache),
        ("attributed", attributed),
    ]
}

fn assert_same(what: &str, walked: &RunResult, executed: &RunResult) {
    assert_eq!(walked.cycles, executed.cycles, "{what}: cycles");
    assert_eq!(
        walked.instructions, executed.instructions,
        "{what}: instructions"
    );
    assert_eq!(walked.pc_counts, executed.pc_counts, "{what}: pc profile");
    assert_eq!(
        walked.taken_branches, executed.taken_branches,
        "{what}: taken branches"
    );
    assert_eq!(walked.mem_ops, executed.mem_ops, "{what}: mem ops");
    assert_eq!(
        walked.icache_misses, executed.icache_misses,
        "{what}: icache misses"
    );
    assert_eq!(
        walked.stall_profile, executed.stall_profile,
        "{what}: attribution"
    );
    assert_eq!(walked.exit_code, executed.exit_code, "{what}: exit code");
}

/// Walks and executes `bench`'s four edits, built and edited as the
/// engine does on `machine`, under every config.
fn check(bench: &Benchmark, machine: &MachineModel, iterations: u32) {
    let m = Measurement::new(
        machine,
        &ExperimentConfig {
            iterations: Some(iterations),
            ..ExperimentConfig::default()
        },
    );
    let original = bench.build(&m.build);
    // The golden tables pin a recording run's values to a plain run's:
    // every baseline cell comes from one.
    let recorded = |exe: &Executable| {
        record(exe, Some(&m.measured), &m.run, None)
            .expect("runs")
            .1
    };
    let instrumented = |base: &Executable| -> EditSession {
        let mut session = EditSession::new(base).expect("analyzable");
        let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
        session
    };
    let session = instrumented(&original);
    let unscheduled = |s: &EditSession| s.emit_mapped(|_, code| code).expect("emits");
    let scheduled = |s: &EditSession| s.emit_mapped(m.scheduler.transform()).expect("emits");
    let (rescheduled, to_rescheduled) =
        scheduled(&EditSession::new(&original).expect("analyzable"));

    let original_path = recorded(&original);
    let rescheduled_path = recorded(&rescheduled);
    let edits: [(&str, (Executable, LeaderMap), &Path); 4] = [
        ("instrumented", unscheduled(&session), &original_path),
        ("scheduled", scheduled(&session), &original_path),
        (
            "rescheduled",
            (rescheduled.clone(), to_rescheduled),
            &original_path,
        ),
        (
            "instrumented after rescheduling",
            unscheduled(&instrumented(&rescheduled)),
            &rescheduled_path,
        ),
    ];
    for (kind, (exe, leaders), path) in &edits {
        for (timing, config) in configs(&m) {
            let what = format!("{} on {} {kind} {timing}", bench.name, machine.name());
            let executed = run(exe, Some(&m.measured), &config).expect("runs");
            let walked = walk(exe, path, leaders, Some(&m.measured), &config, None).expect("walks");
            assert_same(&what, &walked, &executed);
        }
    }
}

/// Every SPEC95 program on the shipped machine named `machine`.
fn spec95_on(machine: &str) {
    let machine = MachineModel::named(machine).expect("shipped");
    for bench in spec95() {
        check(&bench, &machine, 1);
    }
}

#[test]
fn walks_equal_runs_on_ultrasparc() {
    spec95_on("ultrasparc");
}

#[test]
fn walks_equal_runs_on_supersparc() {
    spec95_on("supersparc");
}

#[test]
fn walks_equal_runs_on_microsparc() {
    spec95_on("microsparc");
}

#[test]
fn walks_equal_runs_on_hypersparc() {
    spec95_on("hypersparc");
}

#[test]
fn walks_equal_runs_on_deepsparc() {
    spec95_on("deepsparc");
}

#[test]
fn walks_equal_runs_on_vliw() {
    spec95_on("vliw");
}

/// The tests above name every shipped machine.
#[test]
fn every_shipped_machine_is_walked() {
    let walked = [
        "ultrasparc",
        "supersparc",
        "microsparc",
        "hypersparc",
        "deepsparc",
        "vliw",
    ];
    for machine in MachineModel::shipped() {
        assert!(
            walked
                .iter()
                .any(|n| machine.name().eq_ignore_ascii_case(n)),
            "{} has no walk test",
            machine.name()
        );
    }
}

/// One entry of each generator kind, drawn from the full corpus by a
/// fixed seed.
#[test]
fn walks_equal_runs_on_a_corpus_slice_of_every_kind() {
    let mut by_kind: BTreeMap<String, Vec<Benchmark>> = BTreeMap::new();
    for bench in full_corpus() {
        if let Some(kind) = bench.name.strip_prefix("gen.") {
            let kind = kind.rsplit_once('.').expect("gen.KIND.NNN").0;
            by_kind.entry(kind.to_string()).or_default().push(bench);
        }
    }
    assert!(
        by_kind.len() >= 7,
        "every generator kind: {:?}",
        by_kind.keys()
    );
    let machine = MachineModel::ultrasparc();
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for entries in by_kind.values() {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        check(&entries[(seed >> 33) as usize % entries.len()], &machine, 1);
    }
}
