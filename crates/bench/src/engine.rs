//! The staged experiment engine behind [`crate::experiment`].
//!
//! [`Engine::measure`] decomposes the monolithic per-benchmark
//! measurement into explicit stages — **build → baseline run →
//! instrument → schedule → instrumented runs** — where every simulator
//! invocation is a *cell* keyed by a stable content hash of everything
//! that determines its value: the code that computes it, the benchmark
//! description, the machine description, and the experiment options. Cells are memoized in an
//! in-process map and (optionally) an on-disk artifact cache, so
//! successive table runs stop recomputing shared work:
//!
//! * Table 2's `Sched` column is by construction the same measurement
//!   as Table 1's (the paper's Sched values are identical across the
//!   two tables) — one cell, computed once;
//! * `summary` re-reports Table 1 and Table 3 rows without re-running
//!   a single simulation when the disk cache is warm;
//! * the Table 2 protocol runs the rescheduled baseline **once** (the
//!   original pipeline simulated it twice).
//!
//! Builds and edits are *not* cached — they are cheap relative to
//! simulation and are only performed lazily, when some cell on top of
//! them actually misses.
//!
//! [`Engine::run_table`] fans benchmarks out over a scoped worker
//! pool. Every cell value is deterministic (seeded workloads, pure
//! simulation), and rows are slotted back by benchmark index, so the
//! output is byte-identical for any `--jobs` value. One process
//! computes a whole table; its workers share the in-process map, and
//! the disk tier carries cells from one run to the next.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eel_edit::{Cfg, EditSession, Executable};
use eel_pipeline::{MachineModel, StallProfile};
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{run_with, RunConfig, RunResult};
use eel_telemetry::{fnv1a, Registry, RunReport, Snapshot, Tracer};
use eel_workloads::{Benchmark, Suite};

use crate::experiment::{ExperimentConfig, Measurement, Row};

/// One memoized measurement: the outcome of a single simulator
/// invocation, plus the block-size statistic when the run is a
/// baseline (it needs the run's PC counts, which are not kept).
#[derive(Debug, Clone, Copy)]
struct CellValue {
    cycles: u64,
    exit_code: u32,
    avg_bb: f64,
}

/// What the disk tier holds for one cell.
enum DiskCell {
    /// No file (or no disk tier).
    Absent,
    /// A well-formed body whose checksum matches its values.
    Valid(CellValue),
    /// Anything else: an older format, a bad checksum, a garbled or
    /// truncated body, trailing fields.
    Rejected,
}

/// A disk cell's body: `v2`, the three values, and an fnv1a checksum
/// of the values' text, so a flipped digit is caught rather than
/// served.
fn cell_body(v: CellValue) -> String {
    let values = format!("{} {} {:016x}", v.cycles, v.exit_code, v.avg_bb.to_bits());
    format!("v2 {values} {:016x}\n", fnv1a(values.as_bytes()))
}

/// The inverse of [`cell_body`]: the values, when `text` is exactly the
/// body they render to.
fn parse_cell(text: &str) -> Option<CellValue> {
    let mut parts = text.split_whitespace();
    if parts.next()? != "v2" {
        return None;
    }
    let v = CellValue {
        cycles: parts.next()?.parse().ok()?,
        exit_code: parts.next()?.parse().ok()?,
        avg_bb: f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?),
    };
    (cell_body(v) == text).then_some(v)
}

/// The pipeline stages the engine accounts wall time to.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
enum Stage {
    /// Generating and "compiling" the workload executable.
    Build,
    /// Simulating uninstrumented baselines (original and rescheduled).
    Baseline,
    /// QPT2 instrumentation and unscheduled emission.
    Instrument,
    /// EEL scheduling (rescheduling passes and scheduled emission).
    Schedule,
    /// Simulating the instrumented executables.
    Runs,
}

const STAGE_NAMES: [&str; 5] = ["build", "baseline", "instrument", "schedule", "runs"];

/// Per-stage wall-time histogram sites (one sample per `stage()`
/// closure); each histogram's `sum` is the stage's total.
const STAGE_SITES: [&str; 5] = [
    "engine.stage.build_ns",
    "engine.stage.baseline_ns",
    "engine.stage.instrument_ns",
    "engine.stage.schedule_ns",
    "engine.stage.runs_ns",
];

/// The engine's accumulated counters and stage timings, read from its
/// telemetry registry; printed by every `eel` table run as a closing
/// stats line.
#[derive(Debug)]
pub struct Stats(Snapshot);

impl Stats {
    fn counter(&self, site: &str) -> u64 {
        self.0.counters.get(site).copied().unwrap_or(0)
    }

    fn stage_nanos(&self, stage: usize) -> u64 {
        self.0
            .histograms
            .get(STAGE_SITES[stage])
            .map_or(0, |h| h.sum)
    }

    /// Simulator invocations actually performed.
    pub fn sims(&self) -> u64 {
        self.counter("engine.sims")
    }

    /// Cells answered from the in-process map.
    pub fn mem_hits(&self) -> u64 {
        self.counter("engine.cache.mem_hits")
    }

    /// Cells answered from the on-disk artifact cache.
    pub fn disk_hits(&self) -> u64 {
        self.counter("engine.cache.disk_hits")
    }

    /// Cells computed cold (each one simulator invocation).
    pub fn computed(&self) -> u64 {
        self.counter("engine.cells.computed")
    }

    /// A two-line human-readable summary for the end of a run.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "engine: {} simulator invocation{}, {} cache hit{} ({} memory, {} disk), {} cell{} computed\nstages:",
            self.sims(),
            if self.sims() == 1 { "" } else { "s" },
            self.mem_hits() + self.disk_hits(),
            if self.mem_hits() + self.disk_hits() == 1 { "" } else { "s" },
            self.mem_hits(),
            self.disk_hits(),
            self.computed(),
            if self.computed() == 1 { "" } else { "s" },
        );
        for (stage, name) in STAGE_NAMES.iter().enumerate() {
            let _ = write!(out, " {name} {:.2}s", self.stage_nanos(stage) as f64 / 1e9);
        }
        // `pipeline_stalls` queries issued by the scheduling stages:
        // the hot-path work behind the `schedule` stage time.
        let queries = self.counter("sched.queries");
        if queries > 0 {
            let sched_nanos = self.stage_nanos(Stage::Schedule as usize);
            let _ = write!(
                out,
                "\nscheduler: {} stall quer{} ({:.0} ns/query)",
                queries,
                if queries == 1 { "y" } else { "ies" },
                sched_nanos as f64 / queries as f64,
            );
        }
        out
    }
}

/// The staged measurement pipeline: one machine, one configuration,
/// shared caches and counters across every benchmark measured with it.
///
/// The engine is `Sync`: [`Engine::run_table`] shares one instance
/// across its worker threads, and callers may too.
#[derive(Debug)]
pub struct Engine {
    model: MachineModel,
    cfg: ExperimentConfig,
    /// The measured machine, scheduler, build and timing `cfg`
    /// describes on `model`.
    setup: Measurement,
    /// The digest of the code that computes a cell, part of every
    /// cell key: [`CODE_DIGEST`].
    code: u64,
    disk: Option<PathBuf>,
    mem: Mutex<HashMap<u64, CellValue>>,
    telemetry: Registry,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// An engine with in-process memoization only (hermetic; used by
    /// the free functions in [`crate::experiment`] and by tests).
    pub fn new(model: &MachineModel, cfg: &ExperimentConfig) -> Engine {
        Engine {
            model: model.clone(),
            cfg: cfg.clone(),
            setup: Measurement::new(model, cfg),
            code: CODE_DIGEST,
            disk: None,
            mem: Mutex::new(HashMap::new()),
            telemetry: Registry::new(),
        }
    }

    /// Adds an on-disk artifact cache rooted at `dir` (created on
    /// first write). Entries are keyed by content hash, so distinct
    /// machines/configurations coexist in one directory.
    #[must_use]
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> Engine {
        self.disk = Some(dir.into());
        self
    }

    /// Attaches a flight recorder: every stage, cell decision,
    /// scheduler pass, and simulator run records trace events into
    /// `tracer`. The engine's registry starts over carrying it, so
    /// call this on a fresh engine, before it measures anything.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Engine {
        self.telemetry = Registry::with_tracer(tracer);
        self
    }

    /// Adds the environment-configured artifact cache the table
    /// binaries share: `$EEL_CACHE_DIR` if set, otherwise
    /// `target/eel-artifacts` in the workspace; `EEL_NO_CACHE=1`
    /// disables it. Cells name the code that computed them (see
    /// `Engine::cell_key`), so a rebuilt engine never serves a cell
    /// an older build wrote.
    #[must_use]
    pub fn with_default_disk_cache(self) -> Engine {
        if std::env::var_os("EEL_NO_CACHE").is_some_and(|v| v == "1") {
            return self;
        }
        let dir = std::env::var_os("EEL_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                PathBuf::from(concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../target/eel-artifacts"
                ))
            });
        self.with_disk_cache(dir)
    }

    /// The engine's accumulated counters and stage timings.
    pub fn stats(&self) -> Stats {
        Stats(self.telemetry.snapshot())
    }

    /// The engine's live telemetry registry. Every simulator run,
    /// scheduler pass, and cache access records here; snapshot it (or
    /// call [`Engine::run_report`]) after the work is done.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    fn stage<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let trace = self
            .telemetry
            .tracer()
            .map(|t| t.span("engine", STAGE_NAMES[stage as usize], 0, 0));
        let t = Instant::now();
        let v = f();
        self.telemetry
            .record(STAGE_SITES[stage as usize], t.elapsed().as_nanos() as u64);
        drop(trace);
        v
    }

    /// One simulator invocation on the measured machine, timed to
    /// `stage`. `attribute_stalls` asks the simulator to classify every
    /// stall cycle as well.
    fn sim(&self, stage: Stage, exe: &Executable, attribute_stalls: bool) -> RunResult {
        self.telemetry.add("engine.sims", 1);
        let config = RunConfig {
            attribute_stalls,
            ..self.setup.run.clone()
        };
        self.stage(stage, || {
            run_with(exe, Some(&self.setup.measured), &config, &self.telemetry)
        })
        .expect("generated workloads execute without faults")
    }

    /// `bench` compiled for the measured machine, timed to `build`.
    fn build(&self, bench: &Benchmark) -> Executable {
        self.stage(Stage::Build, || bench.build(&self.setup.build))
    }

    /// `base` with QPT2 slow profiling, emitted unscheduled; timed to
    /// `instrument`.
    fn instrumented(&self, base: &Executable) -> Executable {
        self.stage(Stage::Instrument, || {
            let mut session = EditSession::new(base).expect("analyzable");
            let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
            session.emit_unscheduled().expect("instrumentable")
        })
    }

    /// `original` with QPT2 slow profiling, every block scheduled by
    /// EEL as it is emitted; instrumenting is timed to `instrument`,
    /// scheduling and emission to `schedule`.
    fn scheduled(&self, original: &Executable) -> Executable {
        let mut session = EditSession::new(original).expect("analyzable");
        self.stage(Stage::Instrument, || {
            let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
        });
        self.stage(Stage::Schedule, || {
            session
                .emit(self.setup.scheduler.transform_with(&self.telemetry))
                .expect("schedulable")
        })
    }

    /// The content-hash key of one cell. It starts with the digest of
    /// the sources the value depends on ([`CODE_DIGEST`]), so a change
    /// to the generator, the compiler, a model, the scheduler, QPT or
    /// the simulator moves every key. `with_sched` folds in the
    /// scheduler options and the scheduler's model (only cells whose
    /// executable passed through EEL's scheduler depend on them);
    /// `rescheduled_base` marks cells built on the Table 2 rescheduled
    /// baseline. The `sched` cell sets neither protocol marker — that
    /// is what makes it one cell shared across Tables 1 and 2.
    fn cell_key(
        &self,
        bench: &Benchmark,
        stage: &str,
        with_sched: bool,
        rescheduled_base: bool,
    ) -> u64 {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "eel-cell-v2|code={:016x}|{stage}|{bench:?}|iters={:?}|machine={:016x}|timing={:?}|bias={}",
            self.code,
            self.cfg.iterations,
            self.model.content_hash(),
            self.cfg.timing,
            self.cfg.mem_bias,
        );
        if with_sched {
            let sm = self.setup.scheduler.model().content_hash();
            let _ = write!(s, "|sched={:?}|smodel={sm:016x}", self.cfg.sched);
        }
        if rescheduled_base {
            s.push_str("|rescheduled-base");
        }
        fnv1a(s.as_bytes())
    }

    fn cell(&self, key: u64, compute: impl FnOnce() -> CellValue) -> CellValue {
        let tracer = self.telemetry.tracer();
        if let Some(&v) = self.mem.lock().expect("cache lock").get(&key) {
            self.telemetry.add("engine.cache.mem_hits", 1);
            if let Some(t) = tracer {
                t.instant("cell", "mem_hit", key, 0);
            }
            return v;
        }
        match self.disk_get(key) {
            DiskCell::Valid(v) => {
                self.telemetry.add("engine.cache.disk_hits", 1);
                if let Some(t) = tracer {
                    t.instant("cell", "disk_hit", key, 0);
                }
                self.mem.lock().expect("cache lock").insert(key, v);
                return v;
            }
            // Recomputed below, and the write-through overwrites it.
            DiskCell::Rejected => self.telemetry.add("engine.cache.disk_rejected", 1),
            DiskCell::Absent => {}
        }
        let compute_trace = tracer.map(|t| t.span("cell", "compute", key, 0));
        let v = compute();
        drop(compute_trace);
        self.telemetry.add("engine.cells.computed", 1);
        self.disk_put(key, v);
        self.mem.lock().expect("cache lock").insert(key, v);
        v
    }

    fn disk_get(&self, key: u64) -> DiskCell {
        let Some(dir) = self.disk.as_ref() else {
            return DiskCell::Absent;
        };
        let _span = self.telemetry.span("engine.cache.disk_read_ns");
        match std::fs::read(dir.join(format!("{key:016x}.cell"))) {
            Err(_) => DiskCell::Absent,
            Ok(bytes) => String::from_utf8(bytes)
                .ok()
                .and_then(|text| parse_cell(&text))
                .map_or(DiskCell::Rejected, DiskCell::Valid),
        }
    }

    /// Best-effort write-through: a failed write only costs a future
    /// recomputation. Each write goes through its own temp file (the
    /// process id and [`TMP_SEQ`] name it) and a rename, so concurrent
    /// writers of one key — two workers measuring a benchmark a corpus
    /// lists twice, or two processes sharing the directory — never
    /// expose a torn entry.
    fn disk_put(&self, key: u64, v: CellValue) {
        let Some(dir) = self.disk.as_ref() else {
            return;
        };
        let _span = self.telemetry.span("engine.cache.disk_write_ns");
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(
            "{key:016x}.tmp{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, cell_body(v)).is_ok() {
            let _ = std::fs::rename(&tmp, dir.join(format!("{key:016x}.cell")));
        }
    }

    /// Runs (or recalls) the staged measurement for one benchmark.
    ///
    /// `reschedule_first` selects the Table 2 protocol: EEL first
    /// reschedules the original without instrumentation, and that
    /// rescheduled executable becomes the baseline for the
    /// instrumented-unscheduled measurement.
    pub fn measure(&self, bench: &Benchmark, reschedule_first: bool) -> Row {
        // Stage 1: build — lazy, shared by every cell that misses.
        let original: OnceCell<Executable> = OnceCell::new();
        let build_original = || self.build(bench);
        let rescheduled: OnceCell<Executable> = OnceCell::new();
        let build_rescheduled = || {
            let orig = original.get_or_init(build_original);
            let session = EditSession::new(orig).expect("analyzable");
            self.stage(Stage::Schedule, || {
                session
                    .emit(self.setup.scheduler.transform_with(&self.telemetry))
                    .expect("rescheduling preserves structure")
            })
        };

        // Stage 2: baseline run(s).
        let uninst = self.cell(self.cell_key(bench, "uninst", false, false), || {
            let exe = original.get_or_init(build_original);
            let r = self.sim(Stage::Baseline, exe, false);
            CellValue {
                cycles: r.cycles,
                exit_code: r.exit_code,
                avg_bb: dynamic_avg_bb(exe, &r),
            }
        });
        let (baseline, resched_ratio) = if reschedule_first {
            // The rescheduled baseline is simulated exactly once; its
            // cell serves both the ratio and the Uninst column.
            let resched = self.cell(self.cell_key(bench, "resched", true, false), || {
                let exe = rescheduled.get_or_init(build_rescheduled);
                let r = self.sim(Stage::Baseline, exe, false);
                CellValue {
                    cycles: r.cycles,
                    exit_code: r.exit_code,
                    avg_bb: dynamic_avg_bb(exe, &r),
                }
            });
            (resched, resched.cycles as f64 / uninst.cycles as f64)
        } else {
            (uninst, 1.0)
        };

        // Stages 3+5: instrument the baseline, run it unscheduled.
        let inst = self.cell(
            self.cell_key(bench, "inst", reschedule_first, reschedule_first),
            || {
                let base: &Executable = if reschedule_first {
                    rescheduled.get_or_init(build_rescheduled)
                } else {
                    original.get_or_init(build_original)
                };
                let r = self.sim(Stage::Runs, &self.instrumented(base), false);
                CellValue {
                    cycles: r.cycles,
                    exit_code: r.exit_code,
                    avg_bb: 0.0,
                }
            },
        );

        // Stages 4+5: instrument and schedule the *original*, run it.
        // Identical across both protocols (the paper's Sched values
        // are the same in Tables 1 and 2), hence a shared cell.
        let sched = self.cell(self.cell_key(bench, "sched", true, false), || {
            let orig = original.get_or_init(build_original);
            let r = self.sim(Stage::Runs, &self.scheduled(orig), false);
            CellValue {
                cycles: r.cycles,
                exit_code: r.exit_code,
                avg_bb: 0.0,
            }
        });

        // Sanity: all three executions do the same architectural work.
        // Exit codes travel with the cells, so this holds for cached
        // recalls too.
        assert_eq!(inst.exit_code, baseline.exit_code, "{}", bench.name);
        assert_eq!(sched.exit_code, baseline.exit_code, "{}", bench.name);

        Row {
            name: bench.name,
            suite: bench.suite,
            avg_bb: baseline.avg_bb,
            uninst_cycles: baseline.cycles,
            resched_ratio,
            inst_cycles: inst.cycles,
            sched_cycles: sched.cycles,
        }
    }

    /// Measures every benchmark, fanning out over `jobs` worker
    /// threads. Rows come back in benchmark order and are bit-for-bit
    /// identical for every `jobs` value: each cell is a deterministic
    /// function of its key, and results are slotted by index.
    pub fn run_table(
        &self,
        benchmarks: &[Benchmark],
        reschedule_first: bool,
        jobs: usize,
    ) -> Vec<Row> {
        in_order(benchmarks, jobs, |b| self.measure(b, reschedule_first))
    }

    /// Distills everything this engine has measured so far into a
    /// versioned [`RunReport`]: per-stage wall time, every telemetry
    /// counter and histogram (cache tiers, scheduler query latency,
    /// simulator totals), and identifying metadata. `label` names the
    /// workload (e.g. `table1`); `extra_meta` lets callers add
    /// run-scoped facts such as the jobs count.
    pub fn run_report(&self, label: &str, extra_meta: &[(&str, String)]) -> RunReport {
        let mut meta = std::collections::BTreeMap::new();
        meta.insert("label".to_string(), label.to_string());
        meta.insert("machine".to_string(), self.model.name().to_string());
        meta.insert(
            "machine_hash".to_string(),
            format!("{:016x}", self.model.content_hash()),
        );
        meta.insert(
            "scheduler_model_hash".to_string(),
            format!("{:016x}", self.setup.scheduler.model().content_hash()),
        );
        meta.insert("mem_bias".to_string(), self.cfg.mem_bias.to_string());
        meta.insert("policy".to_string(), self.cfg.sched.priority.to_string());
        meta.insert(
            "iterations".to_string(),
            match self.cfg.iterations {
                Some(n) => n.to_string(),
                None => "default".to_string(),
            },
        );
        // "on"/"off" rather than the cache directory: reports are
        // committed artifacts and must not embed machine-local paths.
        meta.insert(
            "disk_cache".to_string(),
            if self.disk.is_some() { "on" } else { "off" }.to_string(),
        );
        for (k, v) in extra_meta {
            meta.insert((*k).to_string(), v.clone());
        }
        let stats = self.stats();
        let stages = STAGE_NAMES
            .iter()
            .enumerate()
            .map(|(stage, name)| (name.to_string(), stats.stage_nanos(stage)))
            .collect();
        RunReport::new(meta, stages, &stats.0)
    }
}

/// Per-benchmark aggregate stall attribution: the Table 1 `inst`
/// (instrumented, unscheduled) and `sched` (instrumented, scheduled)
/// measurements re-run with per-cycle stall classification.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Benchmark name.
    pub name: &'static str,
    /// CINT or CFP.
    pub suite: Suite,
    /// Cycles of the instrumented, unscheduled run.
    pub inst_cycles: u64,
    /// Stall attribution of the instrumented, unscheduled run.
    pub inst: StallProfile,
    /// Cycles of the instrumented, scheduled run.
    pub sched_cycles: u64,
    /// Stall attribution of the instrumented, scheduled run.
    pub sched: StallProfile,
}

impl Engine {
    /// Re-measures the Table 1 `inst` and `sched` executables for one
    /// benchmark with stall attribution enabled.
    ///
    /// Attribution runs bypass the cell caches: profiles are not cell
    /// values, and keeping the attributed path separate guarantees the
    /// plain measurement never pays for classification. The attributed
    /// run's cycle counts are returned alongside the profiles so
    /// callers can check them against the plain cells (they must
    /// agree — attribution is observation, not simulation change).
    pub fn attribute(&self, bench: &Benchmark) -> Attribution {
        let original = self.build(bench);
        let inst = self.sim(Stage::Runs, &self.instrumented(&original), true);
        let sched = self.sim(Stage::Runs, &self.scheduled(&original), true);
        Attribution {
            name: bench.name,
            suite: bench.suite,
            inst_cycles: inst.cycles,
            inst: inst.stall_profile.expect("attribution was requested"),
            sched_cycles: sched.cycles,
            sched: sched.stall_profile.expect("attribution was requested"),
        }
    }

    /// [`Engine::attribute`] for every benchmark, fanned out over
    /// `jobs` workers; results come back in benchmark order.
    pub fn attribute_table(&self, benchmarks: &[Benchmark], jobs: usize) -> Vec<Attribution> {
        in_order(benchmarks, jobs, |b| self.attribute(b))
    }
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads and
/// returns the results in `items` order. Workers claim the next index
/// from one atomic counter and slot each result by its index, so when
/// `f` is a pure function of its item the output is the same for every
/// `jobs` value.
pub(crate) fn in_order<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let r = f(item);
                *slots[i].lock().expect("slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every slot filled")
        })
        .collect()
}

/// Dynamic average block size: executed instructions over executed
/// block entries.
fn dynamic_avg_bb(exe: &Executable, result: &RunResult) -> f64 {
    let cfg = Cfg::build(exe).expect("workloads analyze");
    let mut entries = 0u64;
    for r in &cfg.routines {
        for b in &r.blocks {
            entries += result.pc_counts[b.start];
        }
    }
    if entries == 0 {
        return 0.0;
    }
    result.instructions as f64 / entries as f64
}

/// `$EEL_JOBS` if set and positive, otherwise all available cores.
pub fn jobs_from_env() -> usize {
    if let Some(n) = std::env::var("EEL_JOBS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
    {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Numbers the disk tier's temp files within this process: with the
/// process id it gives every write its own file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

// `CODE_DIGEST` and, in tests, `CODE_SOURCES`: written by `build.rs`.
include!(concat!(env!("OUT_DIR"), "/code_digest.rs"));

#[cfg(test)]
mod tests {
    use super::*;
    use eel_core::{Priority, SchedOptions};
    use eel_workloads::{cfp95, cint95, parse_manifest};

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            iterations: Some(40),
            ..ExperimentConfig::default()
        }
    }

    fn rows_equal(a: &Row, b: &Row) -> bool {
        a.name == b.name
            && a.suite == b.suite
            && a.avg_bb.to_bits() == b.avg_bb.to_bits()
            && a.uninst_cycles == b.uninst_cycles
            && a.resched_ratio.to_bits() == b.resched_ratio.to_bits()
            && a.inst_cycles == b.inst_cycles
            && a.sched_cycles == b.sched_cycles
    }

    #[test]
    fn parallel_table_matches_serial_bit_for_bit() {
        let model = MachineModel::ultrasparc();
        let cfg = quick();
        let benchmarks = [
            cint95()[4].clone(),
            cint95()[3].clone(),
            cfp95()[0].clone(),
            cfp95()[1].clone(),
        ];
        let serial = Engine::new(&model, &cfg).run_table(&benchmarks, false, 1);
        let parallel = Engine::new(&model, &cfg).run_table(&benchmarks, false, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert!(rows_equal(s, p), "serial {s:?} != parallel {p:?}");
        }
        // Formatted output (what the binaries print) is byte-identical.
        assert_eq!(
            crate::experiment::format_csv(&serial),
            crate::experiment::format_csv(&parallel)
        );
    }

    #[test]
    fn telemetry_counters_are_identical_across_job_counts() {
        let model = MachineModel::ultrasparc();
        let cfg = quick();
        let benchmarks = [cint95()[4].clone(), cfp95()[3].clone()];
        let serial = Engine::new(&model, &cfg);
        serial.run_table(&benchmarks, false, 1);
        let parallel = Engine::new(&model, &cfg);
        parallel.run_table(&benchmarks, false, 4);
        let (s, p) = (
            serial.run_report("jobs1", &[]),
            parallel.run_report("jobs4", &[]),
        );
        // The work done is deterministic regardless of fan-out, so
        // every counter total matches; only wall times may differ.
        assert_eq!(s.counters, p.counters, "counters diverge across jobs");
        assert!(s.counters["engine.sims"] > 0);
        for (site, hist) in &s.histograms {
            assert_eq!(
                hist.count, p.histograms[site].count,
                "histogram {site} observed a different number of events"
            );
        }
    }

    #[test]
    fn run_report_round_trips_and_self_diffs_to_zero() {
        let model = MachineModel::ultrasparc();
        let engine = Engine::new(&model, &quick());
        engine.measure(&cint95()[4], false);
        let report = engine.run_report("roundtrip", &[("jobs", "1".to_string())]);
        assert_eq!(report.meta["label"], "roundtrip");
        assert_eq!(report.meta["machine"], "UltraSPARC");
        let parsed = RunReport::from_json(&report.to_json()).expect("round-trip");
        assert_eq!(parsed, report);
        assert!(parsed.diff(&report).all_zero());
    }

    #[test]
    fn memory_cache_answers_repeat_measurements() {
        let model = MachineModel::ultrasparc();
        let engine = Engine::new(&model, &quick());
        let bench = &cint95()[4];
        let cold = engine.measure(bench, false);
        let sims_after_cold = engine.stats().sims();
        assert_eq!(
            sims_after_cold, 3,
            "Table 1 protocol = 3 simulator invocations"
        );
        let warm = engine.measure(bench, false);
        assert!(rows_equal(&cold, &warm));
        assert_eq!(
            engine.stats().sims(),
            sims_after_cold,
            "warm recall simulates nothing"
        );
        assert_eq!(engine.stats().mem_hits(), 3);
    }

    #[test]
    fn table2_shares_sched_cell_and_runs_baseline_once() {
        let model = MachineModel::ultrasparc();
        let engine = Engine::new(&model, &quick());
        let bench = &cfp95()[3]; // hydro2d
        let t1 = engine.measure(bench, false); // 3 sims
        let t2 = engine.measure(bench, true); // + resched + inst(resched) only
        assert_eq!(
            engine.stats().sims(),
            5,
            "uninst and sched cells are shared; the rescheduled baseline runs once"
        );
        assert_eq!(
            t1.sched_cycles, t2.sched_cycles,
            "Sched is identical across Tables 1 and 2"
        );
        assert!(t2.resched_ratio > 0.5 && t2.resched_ratio < 2.0);
    }

    #[test]
    fn disk_cache_round_trips_rows() {
        let model = MachineModel::supersparc();
        let cfg = quick();
        let dir = std::env::temp_dir().join(format!("eel-artifacts-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = &cint95()[0];

        let first = Engine::new(&model, &cfg).with_disk_cache(&dir);
        let cold = first.measure(bench, false);
        assert_eq!(first.stats().computed(), 3);

        // A fresh engine (fresh process, as far as the cache knows)
        // recalls every cell from disk.
        let second = Engine::new(&model, &cfg).with_disk_cache(&dir);
        let warm = second.measure(bench, false);
        assert!(
            rows_equal(&cold, &warm),
            "cached row differs: {cold:?} vs {warm:?}"
        );
        assert_eq!(second.stats().sims(), 0);
        assert_eq!(second.stats().disk_hits(), 3);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A damaged cell is never served: a flipped digit, a truncated
    /// file and a `v1` body are each rejected once, counted,
    /// recomputed to the uncached value and overwritten with a valid
    /// body.
    #[test]
    fn corrupt_disk_cells_are_rejected_and_recomputed() {
        let model = MachineModel::supersparc();
        let cfg = quick();
        let bench = &cint95()[0];
        let uncached = Engine::new(&model, &cfg).measure(bench, false);
        let damage = |what: &str, body: &str| match what {
            "flipped digit" => {
                // The first digit of the cycle count.
                let d = body.as_bytes()[3];
                let flipped = char::from(b'0' + (d - b'0' + 1) % 10);
                format!("{}{flipped}{}", &body[..3], &body[4..])
            }
            "truncated" => body[..body.len() / 2].to_string(),
            _ => {
                let fields: Vec<&str> = body.split_whitespace().collect();
                format!("v1 {} {} {}\n", fields[1], fields[2], fields[3])
            }
        };
        for what in ["flipped digit", "truncated", "v1 body"] {
            let dir = std::env::temp_dir().join(format!(
                "eel-artifacts-corrupt-{}-{}",
                std::process::id(),
                what.replace(' ', "-")
            ));
            let _ = std::fs::remove_dir_all(&dir);
            Engine::new(&model, &cfg)
                .with_disk_cache(&dir)
                .measure(bench, false);
            let key = Engine::new(&model, &cfg).cell_key(bench, "uninst", false, false);
            let path = dir.join(format!("{key:016x}.cell"));
            let body = std::fs::read_to_string(&path).expect("cell written");
            std::fs::write(&path, damage(what, &body)).expect("cell rewritten");

            let engine = Engine::new(&model, &cfg).with_disk_cache(&dir);
            let row = engine.measure(bench, false);
            assert!(
                rows_equal(&row, &uncached),
                "{what}: served {row:?}, uncached {uncached:?}"
            );
            let stats = engine.stats();
            assert_eq!(stats.counter("engine.cache.disk_rejected"), 1, "{what}");
            assert_eq!(stats.computed(), 1, "{what}: only the damaged cell");
            assert_eq!(stats.disk_hits(), 2, "{what}");
            let rewritten = std::fs::read_to_string(&path).expect("cell rewritten");
            assert_eq!(rewritten, body, "{what}: overwritten with the valid body");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Publishing through a temp file and a rename never exposes a torn
    /// entry, even when several threads of one process write the same
    /// key at once: every read between writes parses as a `v2` cell.
    /// A table over a corpus that lists every entry twice, so that two
    /// workers can compute one key together, then equals the serial
    /// uncached rows, and leaves no cell a later engine rejects.
    #[test]
    fn concurrent_writers_of_one_key_never_tear() {
        let model = MachineModel::ultrasparc();
        let cfg = quick();
        let dir = std::env::temp_dir().join(format!("eel-artifacts-tear-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        const KEYS: [u64; 3] = [11, 22, 33];
        let engine = Engine::new(&model, &cfg).with_disk_cache(&dir);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let engine = &engine;
                s.spawn(move || {
                    for round in 0..200u64 {
                        for key in KEYS {
                            let v = CellValue {
                                cycles: t * 1_000 + round,
                                exit_code: key as u32,
                                avg_bb: t as f64 + 0.5,
                            };
                            engine.disk_put(key, v);
                            let read = engine.disk_get(key);
                            assert!(
                                matches!(read, DiskCell::Valid(r) if r.exit_code == key as u32),
                                "key {key}: a read between writes is not a whole v2 cell"
                            );
                        }
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);

        let corpus = parse_manifest("# eel-corpus-v1\ngen small 3 7\ngen small 3 7\n")
            .expect("manifest parses");
        let serial = Engine::new(&model, &cfg).run_table(&corpus, false, 1);
        let cached = Engine::new(&model, &cfg)
            .with_disk_cache(&dir)
            .run_table(&corpus, false, 4);
        assert_eq!(serial.len(), cached.len());
        for (s, c) in serial.iter().zip(&cached) {
            assert!(rows_equal(s, c), "serial {s:?} != cached {c:?}");
        }
        let again = Engine::new(&model, &cfg).with_disk_cache(&dir);
        again.run_table(&corpus, false, 2);
        let stats = again.stats();
        assert_eq!(stats.counter("engine.cache.disk_rejected"), 0);
        assert_eq!(stats.computed(), 0, "every cell is served from disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_keys_separate_machines_and_options() {
        let model = MachineModel::ultrasparc();
        let engine = Engine::new(&model, &quick());
        let bench = &cint95()[0];
        let base = engine.cell_key(bench, "uninst", false, false);
        assert_ne!(
            base,
            engine.cell_key(bench, "inst", false, false),
            "stage in key"
        );
        assert_ne!(
            base,
            engine.cell_key(&cint95()[1], "uninst", false, false),
            "bench in key"
        );

        let other = Engine::new(&MachineModel::supersparc(), &quick());
        assert_ne!(
            base,
            other.cell_key(bench, "uninst", false, false),
            "machine in key"
        );

        let biased = Engine::new(
            &model,
            &ExperimentConfig {
                mem_bias: 0,
                ..quick()
            },
        );
        assert_ne!(
            base,
            biased.cell_key(bench, "uninst", false, false),
            "mem_bias in key"
        );
    }

    #[test]
    fn cache_keys_name_the_code() {
        let model = MachineModel::ultrasparc();
        let engine = Engine::new(&model, &quick());
        let mut rebuilt = Engine::new(&model, &quick());
        rebuilt.code ^= 1;
        let bench = &cint95()[0];
        for (stage, with_sched) in [("uninst", false), ("sched", true)] {
            assert_ne!(
                engine.cell_key(bench, stage, with_sched, false),
                rebuilt.cell_key(bench, stage, with_sched, false),
                "{stage}: the code digest is not in the key"
            );
        }
    }

    #[test]
    fn code_digest_covers_existing_sources() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in CODE_SOURCES {
            let path = root.join(rel);
            let non_empty = if path.is_dir() {
                std::fs::read_dir(&path).is_ok_and(|mut d| d.next().is_some())
            } else {
                std::fs::metadata(&path).is_ok_and(|m| m.len() > 0)
            };
            assert!(non_empty, "{rel} is missing or empty");
        }
    }

    #[test]
    fn cache_keys_separate_policies() {
        // Distinct scheduling policies must never share cached
        // artifacts: every Priority variant (including distinct
        // lookahead depths) gets its own scheduled-stage key. The
        // uninstrumented stage never schedules, so it may share.
        let bench = &cint95()[0];
        let model = MachineModel::ultrasparc();
        let engines: Vec<Engine> = [
            Priority::StallsFirst,
            Priority::ChainFirst,
            Priority::LoadDelay,
            Priority::Lookahead(3),
            Priority::Lookahead(5),
        ]
        .iter()
        .map(|&priority| {
            Engine::new(
                &model,
                &ExperimentConfig {
                    sched: SchedOptions {
                        priority,
                        ..SchedOptions::default()
                    },
                    ..quick()
                },
            )
        })
        .collect();
        let keys: Vec<u64> = engines
            .iter()
            .map(|e| e.cell_key(bench, "sched", true, false))
            .collect();
        for a in 0..keys.len() {
            for b in a + 1..keys.len() {
                assert_ne!(keys[a], keys[b], "policies {a} and {b} share a key");
            }
        }
        let unsched: Vec<u64> = engines
            .iter()
            .map(|e| e.cell_key(bench, "uninst", false, false))
            .collect();
        assert!(
            unsched.iter().all(|k| k == &unsched[0]),
            "unscheduled artifacts are policy-independent"
        );
    }

    #[test]
    fn attribution_agrees_with_plain_measurement() {
        let model = MachineModel::ultrasparc();
        let engine = Engine::new(&model, &quick());
        let bench = &cint95()[4]; // 130.li
        let row = engine.measure(bench, false);
        let attr = engine.attribute(bench);
        assert_eq!(
            attr.inst_cycles, row.inst_cycles,
            "attribution must not change the inst measurement"
        );
        assert_eq!(
            attr.sched_cycles, row.sched_cycles,
            "attribution must not change the sched measurement"
        );
        assert!(attr.inst.total() > 0, "instrumented runs stall somewhere");
        assert!(
            attr.sched.total() <= attr.inst.total(),
            "scheduling must not add stall cycles overall: {} vs {}",
            attr.sched.total(),
            attr.inst.total()
        );
        assert!(!attr.inst.top_units(5).is_empty() || attr.inst.structural_total() == 0);
    }

    #[test]
    fn traced_engine_records_stage_cell_and_hot_loop_events() {
        let model = MachineModel::ultrasparc();
        let tracer = Arc::new(Tracer::new(65536));
        let engine = Engine::new(&model, &quick()).with_tracer(Arc::clone(&tracer));
        let bench = &cint95()[4]; // 130.li
        let traced_row = engine.measure(bench, false);
        let has = |cat: &str, name: &str| {
            tracer
                .events()
                .iter()
                .any(|e| e.cat == cat && e.name == name)
        };
        // Engine stages as spans.
        for stage in ["build", "baseline", "instrument", "schedule", "runs"] {
            assert!(has("engine", stage), "missing engine/{stage} span");
        }
        // Cell lifecycle: three cold computes, and a warm re-measure
        // turns into memory hits.
        assert!(has("cell", "compute"));
        engine.measure(bench, false);
        assert!(has("cell", "mem_hit"));
        // The hot loops trace through the engine's registry: per-block
        // scheduler passes and simulator runs with cache summaries.
        assert!(has("sched", "block"));
        assert!(has("sim", "run"));
        assert!(has("sim", "block_cache"));
        assert!(has("sim", "block_totals"));
        // Tracing must not perturb the measurement itself.
        let untraced_row = Engine::new(&model, &quick()).measure(bench, false);
        assert!(rows_equal(&traced_row, &untraced_row));
        // Spans carry durations; instants do not.
        assert!(tracer
            .events()
            .iter()
            .any(|e| e.cat == "engine" && e.name == "baseline" && e.dur_ns > 0));
    }

    mod cell_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `parse_cell` never panics, and it returns a value only
            /// for the exact body `cell_body` writes for it: on
            /// arbitrary text, and on a valid body with flipped bytes and
            /// a cut tail.
            #[test]
            fn cells_never_panic(
                text in prop_oneof![".{0,64}", "v2 [-+0-9a-fx ]{0,60}", "v2 [-+0-9a-f\n ]{0,60}"],
                (cycles, exit_code, bits) in (any::<u64>(), any::<u32>(), any::<u64>()),
                flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
                cut in any::<usize>(),
            ) {
                let body = cell_body(CellValue { cycles, exit_code, avg_bb: f64::from_bits(bits) });
                prop_assert!(parse_cell(&body).is_some(), "a written body reads back");
                let mut damaged = body.clone().into_bytes();
                for (at, b) in flips {
                    let i = at % damaged.len();
                    damaged[i] = b;
                }
                damaged.truncate(cut % (2 * damaged.len()));
                for text in [text, body, String::from_utf8_lossy(&damaged).into_owned()] {
                    if let Some(v) = parse_cell(&text) {
                        prop_assert_eq!(cell_body(v), text);
                    }
                }
            }
        }
    }
}
