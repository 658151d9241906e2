//! Correctness of address tracing, alone and beside profiling, end to
//! end through editing, scheduling, and simulation.

use eel_repro::core::Scheduler;
use eel_repro::edit::{EditSession, Executable};
use eel_repro::pipeline::MachineModel;
use eel_repro::qpt::{ProfileOptions, Profiler, TraceOptions, Tracer};
use eel_repro::sim::{run, RunConfig};
use eel_repro::sparc::{Address, Assembler, Cond, IntReg, Operand};
use eel_repro::workloads::{spec95, BuildOptions};

/// A small hand-written program whose exact address trace is known.
fn traced_program() -> (Executable, Vec<u32>) {
    let base = Executable::DEFAULT_DATA_BASE;
    let mut a = Assembler::new();
    let top = a.new_label();
    a.set(base, IntReg::O0);
    a.mov(Operand::imm(3), IntReg::O2);
    a.bind(top);
    a.ld(Address::base_imm(IntReg::O0, 8), IntReg::O1); // base+8, 3 times
    a.st(IntReg::O1, Address::base_imm(IntReg::O0, 12)); // base+12, 3 times
    a.subcc(IntReg::O2, Operand::imm(1), IntReg::O2);
    a.b(Cond::Ne, top);
    a.nop();
    a.ta(0);
    let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
    let mut exe = Executable::from_words(0x10000, words);
    exe.reserve_bss(64);
    let expected = vec![
        base + 8,
        base + 12,
        base + 8,
        base + 12,
        base + 8,
        base + 12,
    ];
    (exe, expected)
}

#[test]
fn trace_records_exact_addresses_in_order() {
    let (exe, expected) = traced_program();
    for schedule in [false, true] {
        let mut session = EditSession::new(&exe).expect("analyzable");
        let tracer = Tracer::instrument(&mut session, TraceOptions { buffer_bytes: 64 });
        assert_eq!(tracer.traced_ops(), 2, "two static memory ops");
        let edited = if schedule {
            session
                .emit(Scheduler::new(MachineModel::ultrasparc()).transform())
                .expect("schedulable")
        } else {
            session.emit_unscheduled().expect("layout")
        };
        let result = run(&edited, None, &RunConfig::default()).expect("runs");

        // 6 entries in a 16-entry ring: entries 0..6 hold them in order.
        let mut mem = result.memory.clone();
        let read: Vec<u32> = (0..expected.len() as u32)
            .map(|i| {
                mem.read_u32(tracer.buffer_base() + 4 * i)
                    .expect("readable")
            })
            .collect();
        assert_eq!(read, expected, "schedule={schedule}");
    }
}

#[test]
fn trace_counts_match_simulator_mem_ops() {
    let bench = &spec95()[3];
    let exe = bench.build(&BuildOptions {
        iterations: Some(2),
        optimize: None,
    });
    let base = run(&exe, None, &RunConfig::default()).expect("runs");

    let mut session = EditSession::new(&exe).expect("analyzable");
    let _tracer = Tracer::instrument(&mut session, TraceOptions::default());
    let edited = session.emit_unscheduled().expect("layout");
    let result = run(&edited, None, &RunConfig::default()).expect("runs");

    assert_eq!(result.exit_code, base.exit_code);
    // Every original memory op gains exactly one trace store.
    assert_eq!(
        result.mem_ops,
        base.mem_ops * 2,
        "one trace store per memory op"
    );
}

#[test]
fn traced_and_profiled_together() {
    // Both tools in one session: profiling at block heads, tracing at
    // memory ops, then scheduled together. Registers must not clash
    // (g1/g2 vs g3/g4/g5).
    let (exe, _) = traced_program();
    let base = run(&exe, None, &RunConfig::default()).expect("runs");

    let mut session = EditSession::new(&exe).expect("analyzable");
    let profiler = Profiler::instrument(&mut session, ProfileOptions::default());
    let tracer = Tracer::instrument(&mut session, TraceOptions { buffer_bytes: 64 });
    let edited = session
        .emit(Scheduler::new(MachineModel::supersparc()).transform())
        .expect("schedulable");
    let result = run(&edited, None, &RunConfig::default()).expect("runs");
    assert_eq!(result.exit_code, base.exit_code);
    assert!(profiler.instrumented_blocks() > 0);
    assert_eq!(tracer.traced_ops(), 2);
}
