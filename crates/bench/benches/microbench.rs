//! Microbenchmarks of the library's hot paths: SADL compilation and a
//! whole machine-model build, CFG construction, executable editing, the simulator's functional, timed
//! and D-cache-timed kernels, and the static analyses. The scheduler's own kernel
//! is `sched_hot`'s.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use eel_bench::experiment::{ExperimentConfig, Measurement};
use eel_core::Scheduler;
use eel_edit::{Cfg, EditSession};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_sadl::ArchDescription;
use eel_sim::{run, DCacheConfig, RunConfig};
use eel_workloads::{spec95, Benchmark, BuildOptions};

fn bench_sadl_compile(c: &mut Criterion) {
    c.bench_function("sadl/compile_ultrasparc", |b| {
        b.iter(|| {
            black_box(
                ArchDescription::compile(eel_sadl::descriptions::ULTRASPARC).expect("compiles"),
            )
        })
    });
    // A whole model build (parse, Spawn and the pipeline's tables): what
    // every benchmark set-up and every `eel` command pays per machine.
    c.bench_function("sadl/model_ultrasparc", |b| {
        b.iter(|| black_box(MachineModel::ultrasparc()))
    });
}

fn bench_editing(c: &mut Criterion) {
    let bench = &spec95()[0];
    let exe = bench.build(&BuildOptions {
        iterations: Some(2),
        optimize: None,
    });
    c.bench_function("edit/cfg_build", |b| {
        b.iter(|| black_box(Cfg::build(&exe).expect("analyzable")))
    });
    c.bench_function("edit/instrument_and_emit", |b| {
        b.iter(|| {
            let mut session = EditSession::new(&exe).expect("analyzable");
            let _p = Profiler::instrument(&mut session, ProfileOptions::default());
            black_box(session.emit_unscheduled().expect("layout"))
        })
    });
    let model = MachineModel::ultrasparc();
    c.bench_function("edit/instrument_schedule_emit", |b| {
        b.iter(|| {
            let mut session = EditSession::new(&exe).expect("analyzable");
            let _p = Profiler::instrument(&mut session, ProfileOptions::default());
            black_box(
                session
                    .emit(Scheduler::new(model.clone()).transform())
                    .expect("schedulable"),
            )
        })
    });
}

/// The simulator's kernels on one CINT body (130.li: blocks of about
/// two instructions, branch-bound) and one CFP body (102.swim: blocks
/// of about fifty, FP-double-bound), each run long enough — about
/// 2.5 M instructions — that loading the image and building blocks are
/// noise against steady-state replay. Throughput is in instructions, so
/// ns per instruction is the median over the count. The timed kernel
/// is the tables' own measurement: the engine's timing (a taken-branch
/// penalty, so each taken transfer advances the pipe before its fused
/// delay slot) on the memory-biased machine, over bodies optimized for
/// that machine as the engine builds them. The `timed_dcache` kernel is
/// `dcache_effect`'s measurement: no flat load bias, a 4 KiB D-cache of
/// 32-byte lines with 8-cycle misses, over bodies optimized for the
/// unbiased machine.
fn bench_simulator(c: &mut Criterion) {
    let model = MachineModel::ultrasparc();
    let tables = Measurement::new(
        &model,
        &ExperimentConfig {
            iterations: Some(4000),
            ..ExperimentConfig::default()
        },
    );
    let mut dcache_cfg = ExperimentConfig {
        iterations: Some(4000),
        mem_bias: 0,
        ..ExperimentConfig::default()
    };
    dcache_cfg.timing.dcache = Some(DCacheConfig {
        size: 4096,
        line: 32,
        miss_penalty: 8,
    });
    let dcache = Measurement::new(&model, &dcache_cfg);
    let functional = RunConfig::default();
    let build = |bench: &Benchmark, m: &Measurement| {
        let exe = bench.build(&m.build);
        let insns = run(&exe, None, &functional).expect("runs").instructions;
        (exe, Throughput::Elements(insns))
    };
    let mut g = c.benchmark_group("simulator");
    for name in ["130.li", "102.swim"] {
        let bench = spec95()
            .into_iter()
            .find(|b| b.name == name)
            .expect("in the suite");
        let (exe, insns) = build(&bench, &tables);
        g.throughput(insns);
        g.bench_with_input(BenchmarkId::new("functional", name), &exe, |b, exe| {
            b.iter(|| black_box(run(exe, None, &functional).expect("runs")))
        });
        g.bench_with_input(BenchmarkId::new("timed", name), &exe, |b, exe| {
            b.iter(|| black_box(run(exe, Some(&tables.measured), &tables.run).expect("runs")))
        });
        let (exe, insns) = build(&bench, &dcache);
        g.throughput(insns);
        g.bench_with_input(BenchmarkId::new("timed_dcache", name), &exe, |b, exe| {
            b.iter(|| black_box(run(exe, Some(&dcache.measured), &dcache.run).expect("runs")))
        });
    }
    g.finish();
}

fn bench_analyses(c: &mut Criterion) {
    use eel_edit::{Dominators, Liveness, Loops, ResourceSet};
    let bench = &spec95()[0];
    let exe = bench.build(&BuildOptions {
        iterations: Some(2),
        optimize: None,
    });
    let cfg = Cfg::build(&exe).expect("analyzable");
    let routine = &cfg.routines[0];
    c.bench_function("analysis/liveness", |b| {
        b.iter(|| black_box(Liveness::analyze(&exe, routine, ResourceSet::all())))
    });
    c.bench_function("analysis/dominators_loops", |b| {
        b.iter(|| {
            let dom = Dominators::compute(routine);
            black_box(Loops::compute(routine, &dom))
        })
    });
}

fn bench_edge_profiler(c: &mut Criterion) {
    use eel_qpt::{EdgeProfileOptions, EdgeProfiler};
    let bench = &spec95()[0];
    let exe = bench.build(&BuildOptions {
        iterations: Some(2),
        optimize: None,
    });
    c.bench_function("edge_profiler/instrument_and_emit", |b| {
        b.iter(|| {
            let mut session = EditSession::new(&exe).expect("analyzable");
            let _p = EdgeProfiler::instrument(&mut session, EdgeProfileOptions::default());
            black_box(session.emit_unscheduled().expect("layout"))
        })
    });
}

criterion_group!(
    benches,
    bench_sadl_compile,
    bench_editing,
    bench_simulator,
    bench_analyses,
    bench_edge_profiler
);
criterion_main!(benches);
