//! End-to-end validation of fast (edge) profiling: the counts
//! recovered from spanning-tree counters must equal the simulator's
//! ground truth — per block *and* per edge — on real workloads,
//! scheduled or not.

use std::collections::HashMap;

use eel_repro::core::Scheduler;
use eel_repro::edit::EditSession;
use eel_repro::edit::{Cfg, Edge, Executable};
use eel_repro::pipeline::MachineModel;
use eel_repro::qpt::{EdgeProfileOptions, EdgeProfiler};
use eel_repro::sim::{run, RunConfig, RunResult};
use eel_repro::sparc::{ControlKind, Instruction};
use eel_repro::workloads::{spec95, BuildOptions};

/// Ground-truth edge counts from an uninstrumented run: per block,
/// split its entries between the taken edge (the CTI's taken count)
/// and the rest.
type EdgeCounts = HashMap<(usize, usize, usize), u64>;
type BlockCounts = HashMap<(usize, usize), u64>;

fn ground_truth_edges(exe: &Executable, result: &RunResult) -> (EdgeCounts, BlockCounts) {
    let cfg = Cfg::build(exe).expect("analyzable");
    let mut edges = HashMap::new();
    let mut blocks = HashMap::new();
    for (ri, r) in cfg.routines.iter().enumerate() {
        for (bi, b) in r.blocks.iter().enumerate() {
            let entries = result.pc_counts[b.start];
            blocks.insert((ri, bi), entries);
            let taken = b.cti.map(|c| result.taken_counts[b.start + c]).unwrap_or(0);
            let kind = b
                .cti
                .map(|c| Instruction::decode(exe.text()[b.start + c]).control_kind());
            for (si, e) in b.succs.iter().enumerate() {
                let count = match (e, kind) {
                    // Conditional branch: Taken edge gets the taken
                    // count; Fall gets the rest.
                    (Edge::Taken(_), Some(ControlKind::CondBranch)) => taken,
                    (Edge::Fall(_) | Edge::Exit, Some(ControlKind::CondBranch)) => entries - taken,
                    // ba / bn: the single edge carries everything.
                    (_, Some(ControlKind::UncondBranch)) => entries,
                    // Calls return; jmpl exits; fall-through blocks fall.
                    (_, Some(ControlKind::Call)) => entries,
                    (_, Some(ControlKind::IndirectJump)) => entries,
                    (_, None) => entries,
                    other => panic!("unexpected edge shape {other:?}"),
                };
                edges.insert((ri, bi, si), count);
            }
        }
    }
    (edges, blocks)
}

fn check(bench: &eel_repro::workloads::Benchmark, schedule: bool) {
    let exe = bench.build(&BuildOptions {
        iterations: Some(6),
        optimize: None,
    });
    let truth_run = run(&exe, None, &RunConfig::default()).expect("baseline runs");
    let (truth_edges, truth_blocks) = ground_truth_edges(&exe, &truth_run);

    let mut session = EditSession::new(&exe).expect("analyzable");
    let profiler = EdgeProfiler::instrument(&mut session, EdgeProfileOptions::default());
    let edited = if schedule {
        session
            .emit(Scheduler::new(MachineModel::ultrasparc()).transform())
            .expect("schedulable")
    } else {
        session.emit_unscheduled().expect("layout")
    };
    let result = run(&edited, None, &RunConfig::default()).expect("instrumented runs");
    assert_eq!(result.exit_code, truth_run.exit_code, "{}", bench.name);

    let mut mem = result.memory.clone();
    let profile = profiler.profile(|a| mem.read_u32(a).expect("counter readable"));

    assert_eq!(
        profile.block_counts.len(),
        truth_blocks.len(),
        "{}: block coverage",
        bench.name
    );
    for (key, &expected) in &truth_blocks {
        assert_eq!(
            profile.block_counts[key], expected,
            "{}: block {key:?} (sched={schedule})",
            bench.name
        );
    }
    for (key, &expected) in &truth_edges {
        assert_eq!(
            profile.edge_counts[key], expected,
            "{}: edge {key:?} (sched={schedule})",
            bench.name
        );
    }
}

#[test]
fn edge_profiles_match_ground_truth_unscheduled() {
    for bench in spec95().iter().step_by(5) {
        check(bench, false);
    }
}

#[test]
fn edge_profiles_match_ground_truth_scheduled() {
    for bench in spec95().iter().step_by(5) {
        check(bench, true);
    }
}

#[test]
fn edge_profiling_is_cheaper_than_block_profiling() {
    use eel_repro::qpt::{ProfileOptions, Profiler};
    let bench = &spec95()[0];
    let exe = bench.build(&BuildOptions {
        iterations: Some(6),
        optimize: None,
    });

    let mut s_edge = EditSession::new(&exe).expect("analyzable");
    let ep = EdgeProfiler::instrument(&mut s_edge, EdgeProfileOptions::default());
    let edge_run = run(
        &s_edge.emit_unscheduled().expect("layout"),
        None,
        &RunConfig::default(),
    )
    .expect("runs");

    let mut s_block = EditSession::new(&exe).expect("analyzable");
    let bp = Profiler::instrument(&mut s_block, ProfileOptions::default());
    let block_run = run(
        &s_block.emit_unscheduled().expect("layout"),
        None,
        &RunConfig::default(),
    )
    .expect("runs");

    assert!(
        ep.instrumented_edges() < bp.instrumented_blocks(),
        "fewer counters: {} vs {}",
        ep.instrumented_edges(),
        bp.instrumented_blocks()
    );
    assert!(
        edge_run.instructions < block_run.instructions,
        "fewer dynamic instructions: {} vs {}",
        edge_run.instructions,
        block_run.instructions
    );
}

#[test]
fn edge_profile_with_measured_weights_is_cheaper_still() {
    // Two-phase profiling: use a first run's edge counts as spanning
    // tree weights, then re-instrument. The second placement must
    // execute no more counter updates than the static-heuristic one.
    let bench = &spec95()[2];
    let exe = bench.build(&BuildOptions {
        iterations: Some(6),
        optimize: None,
    });

    let mut first = EditSession::new(&exe).expect("analyzable");
    let p1 = EdgeProfiler::instrument(&mut first, EdgeProfileOptions::default());
    let r1 = run(
        &first.emit_unscheduled().expect("layout"),
        None,
        &RunConfig::default(),
    )
    .expect("runs");
    let mut mem = r1.memory.clone();
    let profile = p1.profile(|a| mem.read_u32(a).expect("readable"));

    let mut second = EditSession::new(&exe).expect("analyzable");
    let p2 = EdgeProfiler::instrument(
        &mut second,
        EdgeProfileOptions {
            weights: profile.edge_counts.clone(),
        },
    );
    let r2 = run(
        &second.emit_unscheduled().expect("layout"),
        None,
        &RunConfig::default(),
    )
    .expect("runs");
    // Profile-guided placement cannot be worse than the heuristic.
    assert!(r2.instructions <= r1.instructions);
    // And it still recovers the same profile.
    let mut mem2 = r2.memory.clone();
    let profile2 = p2.profile(|a| mem2.read_u32(a).expect("readable"));
    assert_eq!(profile2.block_counts, profile.block_counts);
    assert_eq!(profile2.edge_counts, profile.edge_counts);
}
