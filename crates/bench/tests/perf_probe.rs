//! The nightly SPEC95 differential: every workload — as built,
//! QPT-instrumented and scheduled, the three executables the tables
//! time — runs on the block engine and on the [`ReferenceCpu`] oracle
//! under the tables' own timing, with an I-cache, with a data cache,
//! and with stall attribution, and both must agree exactly. Each edit
//! is also walked along the original's recorded path, as the engine
//! times it, and the walk must agree with the oracle on everything but
//! the final memory, which a walk does not compute; the data cache is
//! left out there, because its timing needs execution.
//! Ignored by default; run with
//! `cargo test -p eel-bench --release --test perf_probe -- --ignored --nocapture`.

use eel_bench::experiment::{ExperimentConfig, Measurement};
use eel_edit::{EditSession, Executable};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{record, run, walk, DCacheConfig, ReferenceCpu, RunConfig, RunResult};
use eel_workloads::spec95;

/// Requires two runs to agree on every observable but the final
/// memory: counts, profiles, timing and attribution.
fn assert_same(what: &str, fast: &RunResult, slow: &RunResult) {
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
}

/// [`assert_same`], and the final data memory of `exe`'s runs.
fn assert_exact(what: &str, exe: &Executable, fast: &RunResult, slow: &RunResult) {
    assert_same(what, fast, slow);
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
    let m = Measurement::new(&MachineModel::ultrasparc(), &ExperimentConfig::default());
    let mut icache = m.run.clone();
    icache.timing.as_mut().expect("timed").icache = Some(Default::default());
    let mut dcache = icache.clone();
    dcache.timing.as_mut().expect("timed").dcache = Some(DCacheConfig {
        size: 4096,
        line: 32,
        miss_penalty: 8,
    });
    let configs = [
        ("tables", m.run.clone()),
        ("icache", icache.clone()),
        ("dcache", dcache),
        (
            "attributed",
            RunConfig {
                attribute_stalls: true,
                ..icache
            },
        ),
    ];
    for b in spec95() {
        // Built, instrumented and scheduled as the engine does.
        let exe = b.build(&m.build);
        let (_, path) = record(&exe, Some(&m.measured), &m.run, None).unwrap();
        let mut session = EditSession::new(&exe).expect("analyzable");
        let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
        let instrumented = session.emit_mapped(|_, code| code).expect("instrumentable");
        let scheduled = session
            .emit_mapped(m.scheduler.transform())
            .expect("schedulable");
        for (kind, e, leaders) in [
            ("original", &exe, None),
            ("instrumented", &instrumented.0, Some(&instrumented.1)),
            ("scheduled", &scheduled.0, Some(&scheduled.1)),
        ] {
            for (what, c) in &configs {
                let what = format!("{} {kind} {what}", b.name);
                let fast = run(e, Some(&m.measured), c).unwrap();
                let slow = ReferenceCpu::run(e, Some(&m.measured), c).unwrap();
                assert_exact(&what, e, &fast, &slow);
                let executes = c.timing.as_ref().is_some_and(|t| t.dcache.is_some());
                if let Some(leaders) = leaders.filter(|_| !executes) {
                    let walked = walk(e, &path, leaders, Some(&m.measured), c, None).unwrap();
                    assert_same(&format!("{what} walked"), &walked, &slow);
                }
            }
        }
    }
}
