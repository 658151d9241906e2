//! Stall attribution's printed output on real code, pinned as FNV-1a
//! digests: what `eel explain` shows for a block and what
//! `stall_breakdown` aggregates over a run.
//!
//! * Per block: for 130.li (CINT) and 102.swim (CFP), QPT-instrumented,
//!   on UltraSPARC, SuperSPARC and hyperSPARC, every block's
//!   [`Scheduler::explain_block`] timings, summaries and `render`
//!   tables, its [`render_issue_trace`] before and after scheduling
//!   and its [`chrome_trace`] on both sides.
//! * Per run: the same two programs as built, instrumented and
//!   scheduled, run with stall attribution on the tables' measured
//!   machine (UltraSPARC with two cycles of load bias and a one-cycle
//!   taken-branch penalty); the digest covers each profile's `render`,
//!   and the attributed run must time exactly like the plain one.
//!
//! The digests were recorded before stall attribution was reduced to
//! one `stall_causes` query per pipeline, so any change to a printed
//! cause, count or cycle fails here.

use eel_repro::core::Scheduler;
use eel_repro::edit::{EditSession, Executable};
use eel_repro::pipeline::{chrome_trace, render_issue_trace, MachineModel};
use eel_repro::qpt::{ProfileOptions, Profiler};
use eel_repro::sim::{run, RunConfig, TimingConfig};
use eel_repro::sparc::Instruction;
use eel_repro::workloads::{spec95, BuildOptions};

/// A small count keeps the attributed runs short.
const ITERATIONS: u32 = 4;

/// The tables' load bias on the measured machine.
const BIAS: u32 = 2;

/// The pinned programs: one CINT body of short blocks, one CFP body of
/// long ones.
const PROGRAMS: [&str; 2] = ["130.li", "102.swim"];

/// A running FNV-1a digest over text.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain([&0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The tables' measured machine.
fn measured() -> MachineModel {
    MachineModel::ultrasparc().with_load_latency_bias(BIAS)
}

/// `name` built as the tables build it, optimized for [`measured`], and
/// an edit session on it with QPT's counters inserted.
fn build_and_instrument(name: &str) -> (Executable, EditSession) {
    let bench = spec95()
        .into_iter()
        .find(|b| b.name == name)
        .expect("in the suite");
    let original = bench.build(&BuildOptions {
        iterations: Some(ITERATIONS),
        optimize: Some(measured()),
    });
    let mut session = EditSession::new(&original).expect("analyzable");
    let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
    (original, session)
}

/// One digest per (program, machine) in [`PROGRAMS`] order, machines
/// UltraSPARC, SuperSPARC, hyperSPARC.
const EXPLAIN: [[u64; 3]; 2] = [
    [
        0x96ac_bc3d_afe2_f40d,
        0x974e_66ab_ed12_c7aa,
        0xd327_6867_a9b5_314a,
    ],
    [
        0x41e0_9090_81c2_1501,
        0xc4ff_34ba_83e9_5d9c,
        0x5d59_23b0_c9da_bd39,
    ],
];

#[test]
fn explained_blocks_are_pinned() {
    let machines = [
        MachineModel::ultrasparc(),
        MachineModel::supersparc(),
        MachineModel::hypersparc(),
    ];
    let mut got = [[0u64; 3]; 2];
    for (row, name) in PROGRAMS.into_iter().enumerate() {
        let (_, session) = build_and_instrument(name);
        for (col, model) in machines.iter().enumerate() {
            let sched = Scheduler::new(model.clone());
            let mut d = Fnv::new();
            for (r, b) in session.all_blocks() {
                let code = session.block_code(r, b);
                let before: Vec<Instruction> = code.instructions().collect();
                let ex = sched.explain_block(code);
                let after: Vec<Instruction> = ex.scheduled.instructions().collect();
                for (timing, profile) in [
                    (&ex.before, &ex.before_profile),
                    (&ex.after, &ex.after_profile),
                ] {
                    assert_eq!(
                        profile.total(),
                        timing.stalls,
                        "{name} {r}:{b} on {}",
                        model.name()
                    );
                    d.text(&format!(
                        "{:?} {} {}",
                        timing.issue_cycles, timing.stalls, timing.completes
                    ));
                    d.text(&profile.summary(model));
                    d.text(&profile.render(model));
                }
                for insns in [&before, &after] {
                    d.text(&render_issue_trace(model, insns));
                    d.text(&chrome_trace(model, insns));
                }
            }
            got[row][col] = d.0;
        }
    }
    assert_eq!(got, EXPLAIN, "attribution output changed; got {got:#018x?}");
}

/// One digest per program in [`PROGRAMS`] order, over its built,
/// instrumented and scheduled runs.
const RUNS: [u64; 2] = [0x7556_2a8f_4430_ebb3, 0x6496_6309_0d12_926d];

#[test]
fn attributed_runs_are_pinned() {
    let measured = measured();
    let plain = RunConfig {
        timing: Some(TimingConfig {
            taken_branch_penalty: 1,
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    let attributed = RunConfig {
        attribute_stalls: true,
        ..plain.clone()
    };
    let mut got = [0u64; 2];
    for (row, name) in PROGRAMS.into_iter().enumerate() {
        let (original, session) = build_and_instrument(name);
        let instrumented = session.emit_unscheduled().expect("instrumentable");
        let scheduled = session
            .emit(Scheduler::new(MachineModel::ultrasparc()).transform())
            .expect("schedulable");
        let mut d = Fnv::new();
        for (kind, exe) in [
            ("original", &original),
            ("instrumented", &instrumented),
            ("scheduled", &scheduled),
        ] {
            let r = run(exe, Some(&measured), &attributed).expect("runs");
            let cycles = run(exe, Some(&measured), &plain).expect("runs").cycles;
            assert_eq!(
                r.cycles, cycles,
                "{name} {kind}: attribution changed timing"
            );
            let profile = r.stall_profile.expect("attribution was requested");
            d.text(&format!("{} {}", r.cycles, profile.total()));
            d.text(&profile.render(&measured));
        }
        got[row] = d.0;
    }
    assert_eq!(got, RUNS, "attributed run output changed; got {got:#018x?}");
}
