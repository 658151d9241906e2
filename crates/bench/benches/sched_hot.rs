//! The scheduling hot path, measured in isolation on every shipped
//! machine model: the stream of blocks an emit of the instrumented
//! SPEC95 programs hands one `Scheduler::transform` (the editor's real
//! block mix, reported per block; the programs are built for the
//! measured UltraSPARC, as the tables and the benchmark's `edit`
//! workload build them), `schedule_block` over a
//! 32-instruction instrumented block (the paper's workload shape —
//! original code interleaved with profiling counter updates) and a
//! single `pipeline_stalls` query against a warm mid-block pipeline
//! state.
//!
//! The stream group prints blocks per second; ns per block is 1e9
//! divided by that rate.
//!
//! The bench prints its medians and writes nothing; a `--test` smoke
//! run (CI) executes everything once. The scheduler's recorded cost is
//! the repository benchmark's `edit` workload, whose `core.*`
//! per-layer metrics split it into blocks, stall queries and ns per
//! query.

use criterion::{black_box, Criterion, Throughput};
use eel_bench::experiment::{ExperimentConfig, Measurement};
use eel_core::{Priority, SchedOptions, Scheduler};
use eel_edit::{BlockCode, BlockInfo, EditSession, Tagged};
use eel_pipeline::{MachineModel, PipelineState};
use eel_qpt::{ProfileOptions, Profiler};
use eel_sparc::{Address, AluOp, Instruction, IntReg, MemWidth, Operand};
use eel_workloads::spec95;

fn add(rs1: IntReg, rd: IntReg) -> Instruction {
    Instruction::Alu {
        op: AluOp::Add,
        rs1,
        src2: Operand::imm(1),
        rd,
    }
}

fn ld(base: IntReg, rd: IntReg) -> Instruction {
    Instruction::Load {
        width: MemWidth::Word,
        addr: Address::base_imm(base, 0),
        rd,
    }
}

fn st(src: IntReg, base: IntReg) -> Instruction {
    Instruction::Store {
        width: MemWidth::Word,
        src,
        addr: Address::base_imm(base, 0),
    }
}

/// A 32-instruction body: three 8-instruction "original" strands (a
/// load feeding a short ALU chain and a store) interleaved with two
/// 4-instruction profiling counter updates — the block shape EEL's
/// scheduler sees after QPT2 instrumentation.
fn instrumented_block_32() -> Vec<Tagged> {
    let mut body = Vec::with_capacity(32);
    let original = |base: IntReg, a: IntReg, b: IntReg, c: IntReg, body: &mut Vec<Tagged>| {
        body.push(Tagged::original(ld(base, a)));
        body.push(Tagged::original(add(a, b)));
        body.push(Tagged::original(add(b, c)));
        body.push(Tagged::original(add(c, c)));
        body.push(Tagged::original(Instruction::Alu {
            op: AluOp::Xor,
            rs1: c,
            src2: Operand::Reg(a),
            rd: b,
        }));
        body.push(Tagged::original(add(b, a)));
        body.push(Tagged::original(st(a, base)));
        body.push(Tagged::original(add(base, base)));
    };
    let counter = |imm22: u32, body: &mut Vec<Tagged>| {
        body.push(Tagged::instrumentation(Instruction::Sethi {
            imm22,
            rd: IntReg::G1,
        }));
        body.push(Tagged::instrumentation(ld(IntReg::G1, IntReg::G2)));
        body.push(Tagged::instrumentation(add(IntReg::G2, IntReg::G2)));
        body.push(Tagged::instrumentation(st(IntReg::G2, IntReg::G1)));
    };
    original(IntReg::L0, IntReg::O0, IntReg::O1, IntReg::O2, &mut body);
    counter(0x2000, &mut body);
    original(IntReg::L1, IntReg::O3, IntReg::O4, IntReg::O5, &mut body);
    counter(0x2001, &mut body);
    original(IntReg::L2, IntReg::L3, IntReg::L4, IntReg::L5, &mut body);
    assert_eq!(body.len(), 32);
    body
}

/// Every block the scheduled emit of each QPT-instrumented SPEC95
/// program hands its transform, in emit order, captured once. The
/// programs are built as the tables and the benchmark's `edit`
/// workload build them: optimized for the measured UltraSPARC.
fn instrumented_spec95_blocks() -> Vec<BlockCode> {
    let build = Measurement::new(&MachineModel::ultrasparc(), &ExperimentConfig::default()).build;
    let mut blocks = Vec::new();
    for bench in spec95() {
        let exe = bench.build(&build);
        let mut session = EditSession::new(&exe).expect("SPEC95 stand-ins analyze");
        Profiler::instrument(&mut session, ProfileOptions::default());
        session
            .emit(|_info, code| {
                blocks.push(code.clone());
                code
            })
            .expect("instrumented SPEC95 stand-ins emit");
    }
    blocks
}

/// The editor's scheduling kernel: one `transform()` per iteration
/// scheduling the whole captured stream, as one emit would. Each
/// machine runs the paper's rule; UltraSPARC then runs each of the
/// four list rules (`ultrasparc/RULE`), since the benchmark's `edit`
/// workload schedules every emit under all four and each asks the
/// pipe a different share of its ready nodes.
fn bench_spec95_stream(c: &mut Criterion) {
    let blocks = instrumented_spec95_blocks();
    let info = BlockInfo {
        routine: "spec95",
        routine_index: 0,
        block_index: 0,
        addr: 0,
    };
    let mut g = c.benchmark_group("sched_hot/spec95_stream");
    g.throughput(Throughput::Elements(blocks.len() as u64));
    let schedulers = MachineModel::shipped()
        .into_iter()
        .map(|model| (model.name().to_ascii_lowercase(), Scheduler::new(model)))
        .chain(Priority::ALL.into_iter().map(|priority| {
            let options = SchedOptions {
                priority,
                ..SchedOptions::default()
            };
            let sched = Scheduler::with_options(MachineModel::ultrasparc(), options);
            (format!("ultrasparc/{priority}"), sched)
        }));
    for (name, sched) in schedulers {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut schedule = sched.transform();
                for code in &blocks {
                    black_box(schedule(info, code.clone()));
                }
            })
        });
    }
    g.finish();
}

fn bench_schedule_block(c: &mut Criterion) {
    let body = instrumented_block_32();
    let mut g = c.benchmark_group("sched_hot/schedule_block_32");
    for model in MachineModel::shipped() {
        let name = model.name().to_ascii_lowercase();
        let sched = Scheduler::new(model);
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(sched.schedule_block(BlockCode {
                    body: body.clone(),
                    tail: vec![],
                }))
            })
        });
    }
    g.finish();
}

/// Per-policy cost of `schedule_block` on the paper's default machine
/// (UltraSPARC): StallsFirst is the refactor-regression canary, the
/// alternatives price what each policy's extra work (a different
/// order, shadow analysis, lookahead cloning) costs on the same
/// block.
fn bench_policies(c: &mut Criterion) {
    let body = instrumented_block_32();
    let mut g = c.benchmark_group("sched_hot/policy_32");
    for priority in Priority::ALL {
        let sched = Scheduler::with_options(
            MachineModel::ultrasparc(),
            SchedOptions {
                priority,
                ..SchedOptions::default()
            },
        );
        g.bench_function(priority, |b| {
            b.iter(|| {
                black_box(sched.schedule_block(BlockCode {
                    body: body.clone(),
                    tail: vec![],
                }))
            })
        });
    }
    g.finish();
}

fn bench_stalls_query(c: &mut Criterion) {
    let body = instrumented_block_32();
    let mut g = c.benchmark_group("sched_hot/stalls_query");
    for model in MachineModel::shipped() {
        // Warm the pipe with the first half of the block, then time the
        // pure query the list scheduler issues per ready candidate.
        let mut pipe = PipelineState::new(&model);
        for t in &body[..16] {
            pipe.issue(&model, &t.insn);
        }
        let candidate = body[16].insn;
        g.bench_function(model.name().to_ascii_lowercase(), |b| {
            b.iter(|| black_box(pipe.stalls(&model, &candidate)))
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_spec95_stream(&mut c);
    bench_schedule_block(&mut c);
    bench_policies(&mut c);
    bench_stalls_query(&mut c);
}
