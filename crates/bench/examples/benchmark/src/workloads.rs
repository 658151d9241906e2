//! The five workloads: how each is set up from `--seed`, what one pass
//! runs, and the outputs each pass is checked against.
//!
//! Why these five (README.md has the long form): `paper` is the
//! command users run; `corpus` is dominated by the workload compiler;
//! `simlong` by the block-memoized simulator; `dcache` by the
//! interpretive reference simulator; `edit` by the scheduler and
//! emitter. Each layer is exercised hard by one workload and bypassed
//! by another, so a one-layer change has a workload predicted not to
//! move.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use eel_bench::engine::Engine;
use eel_bench::experiment::{format_table, ExperimentConfig, Row};
use eel_core::{Priority, SchedOptions, Scheduler};
use eel_edit::{EditSession, Executable, Origin};
use eel_pipeline::{evaluate_block, MachineModel};
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::DCacheConfig;
use eel_sparc::Instruction;
use eel_telemetry::{fnv1a, TraceGuard, Tracer};
use eel_workloads::{intern_name, parse_manifest, spec95, Benchmark, BuildOptions};

use crate::stats::SplitMix;

/// Worker threads per pass: the reference box has two cores.
pub const JOBS: usize = 2;

/// Timed passes of a run, fixed per workload so every commit does
/// identical work. Each count times the reference box's pass time is
/// about the `run_seconds` of `BENCHMARK.json`, 10 s.
pub fn timed_passes(workload: &str, smoke: bool) -> usize {
    match workload {
        _ if smoke => 1,
        "paper" | "dcache" => 10,
        "corpus" | "simlong" => 5,
        "edit" => 25,
        other => unreachable!("workload `{other}` is validated against BENCHMARK.json"),
    }
}

/// Generated entries per kind in `corpus` (112 in all).
const CORPUS_MIX: [(&str, usize); 7] = [
    ("small", 30),
    ("medium", 24),
    ("large", 12),
    ("huge-blocks", 12),
    ("deep-chains", 12),
    ("reg-pressure", 12),
    ("random-cfg", 10),
];

/// Generated entries per kind added to SPEC95 in `edit` (18 in all).
const EDIT_MIX: [(&str, usize); 7] = [
    ("small", 4),
    ("medium", 4),
    ("large", 2),
    ("huge-blocks", 2),
    ("deep-chains", 2),
    ("reg-pressure", 2),
    ("random-cfg", 2),
];

/// A seeded draw of `mix` from the built-in generator. Each entry's
/// shape (block size, FP mix, chain length, iterations) comes from a
/// fixed manifest seed; its code comes from `seed`. The seed thus
/// changes the generated programs but not how much work they are, so
/// pass times do not move with the seed.
///
/// The `huge-blocks` entries keep the manifest's code. Each has only 4
/// to 9 blocks of 60 to 140 instructions, and the code decides how the
/// block sizes jitter around the mean. The workload compiler's cost
/// grows faster than linearly with block size, so one such program's
/// build time moves by ±25 % with its code, and these builds are about
/// 90 % of `corpus` build time. Seeding them spread `corpus` pass times
/// by 7 to 9 % from seed to seed.
fn corpus_draw(seed: u64, mix: &[(&str, usize)], smoke: bool) -> Vec<Benchmark> {
    use std::fmt::Write;
    let mut manifest = String::from("# eel-corpus-v1\n");
    for (k, &(kind, count)) in mix.iter().enumerate() {
        let count = if smoke { count.div_ceil(8) } else { count };
        let _ = writeln!(manifest, "gen {kind} {count} {}", 1000 + k);
    }
    let mut rng = SplitMix::new(seed);
    parse_manifest(&manifest)
        .expect("the manifest parses")
        .into_iter()
        .map(|mut b| {
            if !b.name.starts_with("gen.huge-blocks.") {
                b.seed = rng.next_u64();
                b.name = intern_name(&format!("{}.s{seed}", b.name));
            }
            b
        })
        .collect()
}

/// The expected Tables 1–3, copied from `results/` when the benchmark
/// was defined.
const EXPECTED: [&str; 3] = [
    include_str!("../expected/table1.txt"),
    include_str!("../expected/table2.txt"),
    include_str!("../expected/table3.txt"),
];

/// Which engine cells the traced re-drive repeats for a table: the
/// ones the engine computes rather than recalls from its cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redrive {
    /// The Table 1 protocol: original, instrumented, scheduled.
    Full,
    /// Table 2's extra cells: the rescheduled original and its
    /// instrumented run (the other two are cache hits).
    Rescheduled,
    /// Every cell is a cache hit (`summary`).
    Nothing,
}

/// One `Engine::run_table` call of a pass.
#[derive(Debug)]
pub struct Table {
    pub model: MachineModel,
    pub cfg: ExperimentConfig,
    pub reschedule_first: bool,
    pub redrive: Redrive,
    /// The expected rendering (`paper` only).
    pub expected: Option<&'static str>,
    /// This table re-reports the rows of an earlier one (`summary`).
    pub same_as: Option<usize>,
}

/// An engine workload: tables over one benchmark list.
#[derive(Debug)]
pub struct EngineSetup {
    /// The benchmarks, in seed-permuted order.
    pub benches: Vec<Benchmark>,
    pub tables: Vec<Table>,
    /// The disk cache shared by a pass's tables, emptied per pass.
    pub cache_dir: Option<PathBuf>,
}

/// The `edit` workload: built inputs and one scheduler per
/// machine × list policy.
#[derive(Debug)]
pub struct EditSetup {
    pub inputs: Vec<(&'static str, Executable)>,
    pub scheds: Vec<Scheduler>,
}

#[derive(Debug)]
pub enum Setup {
    Engine(EngineSetup),
    Edit(EditSetup),
}

/// A span in `tracer`'s layer `cat`, when tracing.
pub fn span<'t>(
    tracer: Option<&'t Tracer>,
    cat: &'static str,
    name: &'static str,
    op: u64,
) -> Option<TraceGuard<'t>> {
    tracer.map(|t| t.span(cat, name, op, 0))
}

/// Sets a workload up: machine models, inputs, and (for `edit`) the
/// input builds. `work_dir` holds the `paper` disk cache.
pub fn setup(
    workload: &str,
    seed: u64,
    smoke: bool,
    work_dir: &std::path::Path,
    tracer: Option<&Tracer>,
) -> Setup {
    let model = |ctor: fn() -> MachineModel| {
        let _s = span(tracer, "pipeline", "model_build", 0);
        ctor()
    };
    let mut rng = SplitMix::new(seed);
    let mut spec = spec95();
    rng.shuffle(&mut spec);
    let base = ExperimentConfig {
        iterations: smoke.then_some(20),
        ..ExperimentConfig::default()
    };
    let table = |model: &MachineModel, cfg: &ExperimentConfig| Table {
        model: model.clone(),
        cfg: cfg.clone(),
        reschedule_first: false,
        redrive: Redrive::Full,
        expected: None,
        same_as: None,
    };
    let engine = |benches, tables| {
        Setup::Engine(EngineSetup {
            benches,
            tables,
            cache_dir: None,
        })
    };
    match workload {
        "paper" => {
            let (ultra, sup) = (
                model(MachineModel::ultrasparc),
                model(MachineModel::supersparc),
            );
            let expected = |i: usize| (!smoke).then_some(EXPECTED[i]);
            let tables = vec![
                Table {
                    expected: expected(0),
                    ..table(&ultra, &base)
                },
                Table {
                    reschedule_first: true,
                    redrive: Redrive::Rescheduled,
                    expected: expected(1),
                    ..table(&ultra, &base)
                },
                Table {
                    expected: expected(2),
                    ..table(&sup, &base)
                },
                // `summary`: both machines again, answered from the cache.
                Table {
                    redrive: Redrive::Nothing,
                    same_as: Some(0),
                    ..table(&ultra, &base)
                },
                Table {
                    redrive: Redrive::Nothing,
                    same_as: Some(2),
                    ..table(&sup, &base)
                },
            ];
            Setup::Engine(EngineSetup {
                benches: spec,
                tables,
                cache_dir: Some(work_dir.join("paper-cache")),
            })
        }
        "corpus" => {
            let ultra = model(MachineModel::ultrasparc);
            engine(
                corpus_draw(seed, &CORPUS_MIX, smoke),
                vec![table(&ultra, &base)],
            )
        }
        "simlong" => {
            let ultra = model(MachineModel::ultrasparc);
            for b in &mut spec {
                b.iterations *= 10;
            }
            engine(spec, vec![table(&ultra, &base)])
        }
        "dcache" => {
            let ultra = model(MachineModel::ultrasparc);
            let mut cfg = ExperimentConfig {
                mem_bias: 0,
                ..base
            };
            cfg.timing.dcache = Some(DCacheConfig {
                size: 4096,
                line: 32,
                miss_penalty: 8,
            });
            engine(spec, vec![table(&ultra, &cfg)])
        }
        "edit" => {
            let machines = [
                MachineModel::hypersparc,
                MachineModel::supersparc,
                MachineModel::ultrasparc,
                MachineModel::microsparc,
                MachineModel::vliw,
                MachineModel::deepsparc,
            ]
            .map(model);
            let scheds = machines
                .iter()
                .flat_map(|m| {
                    Priority::ALL.map(|priority| {
                        Scheduler::with_options(
                            m.clone(),
                            SchedOptions {
                                priority,
                                ..SchedOptions::default()
                            },
                        )
                    })
                })
                .collect();
            let mut benches = spec95();
            if smoke {
                benches.truncate(3);
            }
            benches.extend(corpus_draw(seed, &EDIT_MIX, smoke));
            let opts = BuildOptions {
                iterations: base.iterations,
                optimize: Some(machines[2].with_load_latency_bias(base.mem_bias)),
            };
            let inputs = benches
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let _s = span(tracer, "workloads", "build", i as u64);
                    (b.name, b.build(&opts))
                })
                .collect();
            Setup::Edit(EditSetup { inputs, scheds })
        }
        other => unreachable!("workload `{other}` is validated against BENCHMARK.json"),
    }
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// One digest per operation (a table row or an edit); `None` where
    /// the operation failed.
    pub ops: Vec<Option<u64>>,
    /// Engine workloads: every table's rows (`None` if the pass
    /// panicked).
    pub rows: Option<Vec<Vec<Row>>>,
    /// Engine cells computed and answered from a cache.
    pub computed: u64,
    pub hits: u64,
}

impl Setup {
    /// Operations one pass attempts.
    pub fn ops_per_pass(&self) -> usize {
        match self {
            Setup::Engine(s) => s.tables.len() * s.benches.len(),
            Setup::Edit(s) => s.inputs.len() * s.scheds.len(),
        }
    }

    /// Runs one pass on [`JOBS`] workers.
    pub fn run_pass(&self) -> PassOut {
        match self {
            Setup::Engine(s) => s.run_pass(self.ops_per_pass()),
            Setup::Edit(s) => PassOut {
                ops: s.run_pass(),
                ..PassOut::default()
            },
        }
    }
}

impl EngineSetup {
    fn run_pass(&self, ops: usize) -> PassOut {
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut out = PassOut::default();
        // A panic anywhere in a table (for instance the engine's
        // exit-code assertion) fails every operation of the pass.
        let rows = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut all = Vec::new();
            for t in &self.tables {
                let mut engine = Engine::new(&t.model, &t.cfg);
                if let Some(dir) = &self.cache_dir {
                    engine = engine.with_disk_cache(dir);
                }
                all.push(engine.run_table(&self.benches, t.reschedule_first, JOBS));
                let stats = engine.stats();
                out.computed += stats.computed();
                out.hits += stats.mem_hits() + stats.disk_hits();
            }
            all
        }));
        match rows {
            Ok(rows) => {
                out.ops = rows.iter().flatten().map(|r| Some(row_digest(r))).collect();
                out.rows = Some(rows);
            }
            Err(_) => out.ops = vec![None; ops],
        }
        out
    }

    /// Checks a reference pass's rows against what they must equal:
    /// the expected tables and, for re-reported tables, the originals.
    /// Returns the indices of failing tables with the reason.
    pub fn check_reference(&self, rows: &[Vec<Row>]) -> Vec<(usize, String)> {
        let mut bad = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            if let Some(expected) = t.expected {
                let rendered =
                    format_table("", &t.model, &spec_order(&rows[i]), t.reschedule_first);
                if !same_body(&rendered, expected) {
                    bad.push((i, format!("table {} differs from expected/", i + 1)));
                }
            }
            if let Some(j) = t.same_as {
                if rows[i] != rows[j] {
                    bad.push((i, format!("re-reported table {i} differs from table {j}")));
                }
            }
        }
        bad
    }
}

/// Rows back in SPEC95 order (the expected tables' order).
fn spec_order(rows: &[Row]) -> Vec<Row> {
    let order: Vec<&str> = spec95().iter().map(|b| b.name).collect();
    let mut sorted = rows.to_vec();
    sorted.sort_by_key(|r| order.iter().position(|&n| n == r.name));
    sorted
}

/// Whether two renderings agree after their title lines.
fn same_body(a: &str, b: &str) -> bool {
    let body = |s: &str| -> Vec<String> {
        s.lines()
            .skip(1)
            .map(str::to_string)
            .filter(|l| !l.trim().is_empty())
            .collect()
    };
    body(a) == body(b)
}

fn row_digest(row: &Row) -> u64 {
    fnv1a(format!("{row:?}").as_bytes())
}

/// A digest of everything an edit emits: text, data, entry and bss of
/// each executable.
pub fn edit_digest(exes: &[&Executable]) -> u64 {
    let mut bytes = Vec::new();
    for exe in exes {
        bytes.extend(exe.text().iter().flat_map(|w| w.to_le_bytes()));
        bytes.extend_from_slice(exe.data());
        bytes.extend(exe.entry().to_le_bytes());
        bytes.extend(exe.bss_size().to_le_bytes());
    }
    fnv1a(&bytes)
}

impl EditSetup {
    fn run_pass(&self) -> Vec<Option<u64>> {
        let n = self.inputs.len() * self.scheds.len();
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                let (input, sched) = self.job(i);
                let digest = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut session = EditSession::new(input).ok()?;
                    Profiler::instrument(&mut session, ProfileOptions::default());
                    let unscheduled = session.emit_unscheduled().ok()?;
                    let scheduled = session.emit(sched.transform()).ok()?;
                    Some(edit_digest(&[&unscheduled, &scheduled]))
                }));
                done.push((i, digest.ok().flatten()));
            }
        };
        let mut ops = vec![None; n];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..JOBS).map(|_| s.spawn(worker)).collect();
            for h in handles {
                for (i, d) in h.join().expect("edit workers catch their panics") {
                    ops[i] = d;
                }
            }
        });
        ops
    }

    /// The input and scheduler of edit `i`.
    pub fn job(&self, i: usize) -> (&Executable, &Scheduler) {
        (
            &self.inputs[i / self.scheds.len()].1,
            &self.scheds[i % self.scheds.len()],
        )
    }

    /// [`hidden_pct`] by the scheduler's own estimate: per block of
    /// every edit, the empty-pipe issue latency of the original,
    /// instrumented and scheduled code under the scheduler's machine
    /// model. Edits are not simulated, so this static figure stands in.
    pub fn static_hidden_pct(&self) -> f64 {
        let mut edits = Vec::new();
        for (_, input) in &self.inputs {
            let mut session = EditSession::new(input).expect("inputs analyze");
            Profiler::instrument(&mut session, ProfileOptions::default());
            let blocks: Vec<_> = session
                .all_blocks()
                .into_iter()
                .map(|(r, b)| session.block_code(r, b))
                .collect();
            for sched in &self.scheds {
                let model = sched.model();
                let latency =
                    |insns: Vec<Instruction>| evaluate_block(model, &insns).issue_latency() as f64;
                let (mut orig, mut inst, mut done) = (0.0, 0.0, 0.0);
                for code in &blocks {
                    orig += latency(
                        code.body
                            .iter()
                            .chain(&code.tail)
                            .filter(|t| t.origin == Origin::Original)
                            .map(|t| t.insn)
                            .collect(),
                    );
                    inst += latency(code.instructions().collect());
                    done += latency(sched.schedule_block(code.clone()).instructions().collect());
                }
                edits.push((orig, inst, done));
            }
        }
        hidden_pct(edits)
    }
}

/// The share of all instrumentation cycles that scheduling hides, in
/// percent, over `(uninstrumented, instrumented, scheduled)` cycle
/// triples. Weighting by cycles, rather than averaging per-row
/// percentages, keeps rows with almost no overhead (whose percentages
/// run to -300 %) from swinging the figure from one seed to the next.
pub fn hidden_pct(cycles: impl IntoIterator<Item = (f64, f64, f64)>) -> f64 {
    let (hidden, overhead) = cycles
        .into_iter()
        .fold((0.0, 0.0), |(h, o), (uninst, inst, sched)| {
            (h + inst - sched, o + inst - uninst)
        });
    100.0 * hidden / overhead
}

/// Wall seconds of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_determines_the_generated_inputs() {
        let describe = |seed| -> Vec<String> {
            corpus_draw(seed, &CORPUS_MIX, false)
                .iter()
                .map(|b| format!("{b:?}"))
                .collect()
        };
        let a = describe(1);
        assert_eq!(a.len(), 112);
        assert_eq!(a, describe(1), "same seed, same inputs");
        assert_ne!(a, describe(2), "another seed draws other inputs");
        assert_eq!(corpus_draw(3, &EDIT_MIX, false).len(), 18);
        let names = |seed| -> Vec<&str> {
            corpus_draw(seed, &CORPUS_MIX, false)
                .iter()
                .map(|b| b.name)
                .collect()
        };
        assert_eq!(names(4), names(4));
        assert_ne!(names(4), names(5), "the seed selects the entries");
    }

    #[test]
    fn every_seed_draws_the_same_shapes_with_other_code() {
        let (a, b) = (
            corpus_draw(1, &CORPUS_MIX, false),
            corpus_draw(2, &CORPUS_MIX, false),
        );
        for (x, y) in a.iter().zip(&b) {
            if x.name.starts_with("gen.huge-blocks.") {
                assert_eq!((x.name, x.seed), (y.name, y.seed), "fixed code");
            } else {
                assert_ne!(x.seed, y.seed);
            }
            let shape = |b: &Benchmark| {
                format!(
                    "{:?}",
                    Benchmark {
                        name: "",
                        seed: 0,
                        ..b.clone()
                    }
                )
            };
            assert_eq!(shape(x), shape(y));
        }
    }

    #[test]
    fn pass_counts_are_fixed_per_workload() {
        assert_eq!(timed_passes("paper", false), 10);
        assert_eq!(timed_passes("corpus", false), 5);
        assert_eq!(timed_passes("edit", false), 25);
        assert_eq!(timed_passes("paper", true), 1);
    }

    #[test]
    fn hidden_share_is_weighted_by_cycles() {
        assert_eq!(hidden_pct([(100.0, 200.0, 150.0)]), 50.0);
        // A row with one cycle of overhead and eleven hidden would
        // average to 1100 %; weighted, it barely moves the figure.
        let both = hidden_pct([(100.0, 200.0, 150.0), (10.0, 11.0, 0.0)]);
        assert!((both - 100.0 * 61.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn expected_tables_compare_after_the_title() {
        assert!(same_body("A\nrow 1\n\n", "B\nrow 1\n"));
        assert!(!same_body("A\nrow 1\n", "A\nrow 2\n"));
    }
}
