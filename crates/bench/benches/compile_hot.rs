//! The workload compiler's hot path, measured in isolation on every
//! shipped machine model: `optimize_block` (list scheduling, then the
//! steady-state local search) over the stream of block bodies a build
//! hands it, on the longest block body of the full corpus's
//! `huge-blocks` tier, and on the longest body of 101.tomcatv (CFP95).
//!
//! The stream group runs every block body of the unoptimized SPEC95
//! builds and of the first entry of each full-corpus tier, in
//! generated order, once per iteration with the tables' build model
//! (two extra cycles of load latency). Most of those bodies are short,
//! and many stop at the search's lower bound; the two single-body
//! groups time one long body each. The stream group prints bodies per
//! second; ns per body is 1e9 divided by that rate.
//!
//! The bench prints its medians and writes nothing; a `--test` smoke
//! run (CI) executes everything once. The build stage's recorded cost
//! is the repository benchmark's `workloads.build_*` per-layer metrics,
//! which dominate its `corpus` workload.

use criterion::{black_box, Criterion, Throughput};
use eel_bench::experiment::{ExperimentConfig, Measurement};
use eel_edit::Cfg;
use eel_pipeline::MachineModel;
use eel_sparc::Instruction;
use eel_workloads::{full_corpus, optimize_block, spec95, Benchmark, BuildOptions};

/// Every block body of `bench`'s unoptimized build, in program order:
/// the bodies and the order `optimize_block` receives during a build.
fn block_bodies(bench: &Benchmark) -> Vec<Vec<Instruction>> {
    let exe = bench.build(&BuildOptions {
        iterations: Some(1),
        optimize: None,
    });
    let cfg = Cfg::build(&exe).expect("generated code analyzes");
    cfg.routines
        .iter()
        .flat_map(|r| &r.blocks)
        .map(|block| {
            exe.text()[block.start..block.start + block.body_len()]
                .iter()
                .map(|&w| Instruction::decode(w))
                .collect()
        })
        .collect()
}

/// The longest schedulable block body of `bench`, in generated order.
fn longest_body(bench: &Benchmark) -> Vec<Instruction> {
    block_bodies(bench)
        .into_iter()
        .max_by_key(Vec::len)
        .expect("every program has a block")
}

fn bench_body(c: &mut Criterion, group: &str, body: &[Instruction]) {
    let mut g = c.benchmark_group(&format!("compile_hot/{group}_{}", body.len()));
    for model in MachineModel::shipped() {
        g.bench_function(model.name().to_ascii_lowercase(), |b| {
            b.iter(|| black_box(optimize_block(&model, body.to_vec())))
        });
    }
    g.finish();
}

/// The compiler's build mix: every body of the SPEC95 builds and of
/// the first entry of each full-corpus tier, one `optimize_block` call
/// each per iteration, on the tables' build model (the measured
/// machine).
fn bench_stream(c: &mut Criterion) {
    let corpus = full_corpus();
    // Generated entries are named `gen.TIER.NNN`.
    let tier = |b: &Benchmark| b.name.rsplit_once('.').map(|(tier, _)| tier);
    let mut firsts: Vec<&Benchmark> = Vec::new();
    for bench in corpus.iter().filter(|b| b.name.starts_with("gen.")) {
        if !firsts.iter().any(|f| tier(f) == tier(bench)) {
            firsts.push(bench);
        }
    }
    let bodies: Vec<Vec<Instruction>> = spec95()
        .iter()
        .chain(firsts)
        .flat_map(block_bodies)
        .collect();
    let mut g = c.benchmark_group("compile_hot/stream");
    g.throughput(Throughput::Elements(bodies.len() as u64));
    for model in MachineModel::shipped() {
        let name = model.name().to_ascii_lowercase();
        let model = Measurement::new(&model, &ExperimentConfig::default()).measured;
        g.bench_function(name, |b| {
            b.iter(|| {
                for body in &bodies {
                    black_box(optimize_block(&model, body.clone()));
                }
            })
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_stream(&mut c);
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
