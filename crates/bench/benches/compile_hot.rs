//! The workload compiler's hot path, measured in isolation on every
//! shipped machine model: `optimize_block` (list scheduling, then the
//! steady-state local search) on the longest block body of the full
//! corpus's `huge-blocks` tier, and on the longest body of 101.tomcatv
//! (CFP95).
//!
//! The bench prints its medians and writes nothing; a `--test` smoke
//! run (CI) executes everything once. The build stage's recorded cost
//! is the repository benchmark's `workloads.build_*` per-layer metrics,
//! which dominate its `corpus` workload.

use criterion::{black_box, Criterion};
use eel_edit::Cfg;
use eel_pipeline::MachineModel;
use eel_sparc::Instruction;
use eel_workloads::{full_corpus, optimize_block, spec95, Benchmark, BuildOptions};

/// The longest schedulable block body of `bench`, in generated order
/// (the order `optimize_block` receives during a build).
fn longest_body(bench: &Benchmark) -> Vec<Instruction> {
    let exe = bench.build(&BuildOptions {
        iterations: Some(1),
        optimize: None,
    });
    let cfg = Cfg::build(&exe).expect("generated code analyzes");
    let block = cfg
        .routines
        .iter()
        .flat_map(|r| &r.blocks)
        .max_by_key(|b| b.body_len())
        .expect("every program has a block");
    exe.text()[block.start..block.start + block.body_len()]
        .iter()
        .map(|&w| Instruction::decode(w))
        .collect()
}

fn shipped_models() -> [(&'static str, MachineModel); 6] {
    [
        ("hypersparc", MachineModel::hypersparc()),
        ("supersparc", MachineModel::supersparc()),
        ("ultrasparc", MachineModel::ultrasparc()),
        ("microsparc", MachineModel::microsparc()),
        ("vliw", MachineModel::vliw()),
        ("deepsparc", MachineModel::deepsparc()),
    ]
}

fn bench_body(c: &mut Criterion, group: &str, body: &[Instruction]) {
    let mut g = c.benchmark_group(&format!("compile_hot/{group}_{}", body.len()));
    for (name, model) in shipped_models() {
        g.bench_function(name, |b| {
            b.iter(|| black_box(optimize_block(&model, body.to_vec())))
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default();
    let huge = full_corpus()
        .iter()
        .filter(|b| b.name.starts_with("gen.huge-blocks."))
        .map(longest_body)
        .max_by_key(Vec::len)
        .expect("the full corpus has a huge-blocks tier");
    bench_body(&mut c, "huge_blocks", &huge);
    let tomcatv = spec95()
        .into_iter()
        .find(|b| b.name == "101.tomcatv")
        .expect("101.tomcatv is in SPEC95");
    bench_body(&mut c, "tomcatv", &longest_body(&tomcatv));
}
