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
//!   original pipeline simulated it twice), and not at all where EEL's
//!   rescheduling leaves the original unchanged (most integer code):
//!   then its cells take the original's values.
//!
//! Builds are performed lazily, when some cell on top of them actually
//! misses, and the disk tier keeps them too, keyed by what determines
//! them: the code, the benchmark, the iteration count and the measured
//! machine. So Table 2, whose rescheduled cells miss, loads the
//! originals Table 1 built instead of compiling them again. Edits are
//! not cached.
//!
//! No edit changes control flow, so a baseline simulated here records
//! its control path (`eel_sim::record`), and the instrumented and
//! scheduled executables built on it are timed by walking that path
//! (`eel_sim::walk`) instead of executing them again. A cell whose
//! baseline came from a cache, and any timing with a D-cache (its
//! misses need data addresses), executes.
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

use eel_edit::{EditSession, Executable, LeaderMap};
use eel_pipeline::{MachineModel, StallProfile};
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{record, run_with, walk, Path, RunConfig, RunResult};
use eel_telemetry::{fnv1a, Registry, RunReport, Snapshot, Tracer};
use eel_workloads::{Benchmark, Suite};

use crate::experiment::{dynamic_avg_bb, ExperimentConfig, Measurement, Row};

/// One memoized measurement: the outcome of a single simulator
/// invocation, plus the block-size statistic when the run is a
/// baseline (it needs the run's PC counts, which are not kept).
#[derive(Debug, Clone, Copy)]
struct CellValue {
    cycles: u64,
    exit_code: u32,
    avg_bb: f64,
}

/// What the disk tier holds for one cell or build.
enum Disk<T> {
    /// No file (or no disk tier).
    Absent,
    /// A well-formed body whose checksum matches its contents.
    Valid(T),
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

/// The inverse of [`cell_body`]: the values, when `body` is exactly the
/// body they render to.
fn parse_cell(body: &[u8]) -> Option<CellValue> {
    let text = std::str::from_utf8(body).ok()?;
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

/// A disk build's body: the `.eelx` image, then an fnv1a checksum of
/// the image (8 bytes, big-endian), so a flipped bit is caught rather
/// than served.
fn build_body(exe: &Executable) -> Vec<u8> {
    let mut body = exe.to_bytes();
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_be_bytes());
    body
}

/// The inverse of [`build_body`]: the executable, when the checksum
/// matches the image and the image decodes.
fn parse_build(body: &[u8]) -> Option<Executable> {
    let (image, sum) = body.split_last_chunk::<8>()?;
    if u64::from_be_bytes(*sum) != fnv1a(image) {
        return None;
    }
    Executable::from_bytes(image).ok()
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

/// The engine's accumulated counters, read from its telemetry
/// registry, and its stage wall times; printed by every `eel` table
/// run as a closing stats line.
#[derive(Debug)]
pub struct Stats {
    snapshot: Snapshot,
    /// Wall time per [`Stage`], in nanoseconds.
    stage_ns: [u64; 5],
}

impl Stats {
    fn counter(&self, site: &str) -> u64 {
        self.snapshot.counters.get(site).copied().unwrap_or(0)
    }

    /// Simulator invocations actually performed, walks included.
    pub fn sims(&self) -> u64 {
        self.counter("engine.sims")
    }

    /// Of [`Stats::sims`], the edited executables timed by walking
    /// their original's recorded path instead of executing them.
    pub fn walks(&self) -> u64 {
        self.counter("sim.walks")
    }

    /// Cells answered from the in-process map.
    pub fn mem_hits(&self) -> u64 {
        self.counter("engine.cache.mem_hits")
    }

    /// Cells answered from the on-disk artifact cache.
    pub fn disk_hits(&self) -> u64 {
        self.counter("engine.cache.disk_hits")
    }

    /// Cells computed cold: each one simulator invocation, or none for
    /// a Table 2 cell whose rescheduled executable is the original.
    pub fn computed(&self) -> u64 {
        self.counter("engine.cells.computed")
    }

    /// Built executables loaded from the on-disk artifact cache
    /// instead of compiled.
    pub fn build_hits(&self) -> u64 {
        self.counter("engine.cache.build_hits")
    }

    /// A two-line human-readable summary for the end of a run.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let walks = match self.walks() {
            0 => String::new(),
            1 => " (1 walk)".to_string(),
            n => format!(" ({n} walks)"),
        };
        let mut out = format!(
            "engine: {} simulator invocation{}{walks}, {} cache hit{} ({} memory, {} disk), {} cell{} computed",
            self.sims(),
            if self.sims() == 1 { "" } else { "s" },
            self.mem_hits() + self.disk_hits(),
            if self.mem_hits() + self.disk_hits() == 1 { "" } else { "s" },
            self.mem_hits(),
            self.disk_hits(),
            self.computed(),
            if self.computed() == 1 { "" } else { "s" },
        );
        let builds = self.build_hits();
        if builds > 0 {
            let _ = write!(
                out,
                ", {builds} build{} from disk",
                if builds == 1 { "" } else { "s" }
            );
        }
        out.push_str("\nstages:");
        for (stage, name) in STAGE_NAMES.iter().enumerate() {
            let _ = write!(out, " {name} {:.2}s", self.stage_ns[stage] as f64 / 1e9);
        }
        // `pipeline_stalls` queries issued by the scheduling stages:
        // the hot-path work behind the `schedule` stage time.
        let queries = self.counter("sched.queries");
        if queries > 0 {
            let sched_nanos = self.stage_ns[Stage::Schedule as usize];
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
    /// Wall time per [`Stage`], in nanoseconds, summed by
    /// [`Engine::stage`]. Not registry counters: those count work,
    /// which is equal across runs and `--jobs` values, and time is not.
    stage_ns: [AtomicU64; 5],
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// An engine with in-process memoization only (hermetic; `eel
    /// experiment --no-cache`, the golden tables and tests use it).
    pub fn new(model: &MachineModel, cfg: &ExperimentConfig) -> Engine {
        Engine {
            model: model.clone(),
            cfg: cfg.clone(),
            setup: Measurement::new(model, cfg),
            code: CODE_DIGEST,
            disk: None,
            mem: Mutex::new(HashMap::new()),
            telemetry: Registry::new(),
            stage_ns: Default::default(),
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
    /// disables it. Cells and builds name the code that made them (see
    /// `Engine::cell_key` and `Engine::build_key`), so a rebuilt engine
    /// never serves a cell or an executable an older build wrote.
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
        Stats {
            snapshot: self.telemetry.snapshot(),
            stage_ns: self
                .stage_ns
                .each_ref()
                .map(|ns| ns.load(Ordering::Relaxed)),
        }
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
        self.stage_ns[stage as usize].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
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

    /// A baseline run, timed to `baseline`, with its control path when
    /// edits of `exe` can be walked along it: always, unless the timing
    /// models a D-cache, whose misses need the data addresses only
    /// execution computes.
    fn baseline(&self, exe: &Executable) -> (RunResult, Option<Path>) {
        if self
            .setup
            .run
            .timing
            .as_ref()
            .is_some_and(|t| t.dcache.is_some())
        {
            return (self.sim(Stage::Baseline, exe, false), None);
        }
        self.telemetry.add("engine.sims", 1);
        let (r, path) = self
            .stage(Stage::Baseline, || {
                record(
                    exe,
                    Some(&self.setup.measured),
                    &self.setup.run,
                    Some(&self.telemetry),
                )
            })
            .expect("generated workloads execute without faults");
        (r, Some(path))
    }

    /// An edited executable's run, timed to `runs`: walked along its
    /// baseline's `path` when there is one, executed otherwise.
    fn edited(&self, (exe, leaders): &(Executable, LeaderMap), path: Option<&Path>) -> CellValue {
        let r = match path {
            None => self.sim(Stage::Runs, exe, false),
            Some(path) => {
                self.telemetry.add("engine.sims", 1);
                self.stage(Stage::Runs, || {
                    walk(
                        exe,
                        path,
                        leaders,
                        Some(&self.setup.measured),
                        &self.setup.run,
                        Some(&self.telemetry),
                    )
                })
                .expect("edits keep the original's control flow")
            }
        };
        CellValue {
            cycles: r.cycles,
            exit_code: r.exit_code,
            avg_bb: 0.0,
        }
    }

    /// `bench` compiled for the measured machine, timed to `build`:
    /// loaded from the disk tier when an earlier engine built it, and
    /// written through when it is compiled here. A damaged build file
    /// is counted as `engine.cache.disk_rejected` and replaced.
    fn build(&self, bench: &Benchmark) -> Executable {
        self.stage(Stage::Build, || {
            let key = self.build_key(bench);
            match self.disk_get(key, "eelx", parse_build) {
                Disk::Valid(exe) => {
                    self.telemetry.add("engine.cache.build_hits", 1);
                    return exe;
                }
                Disk::Rejected => self.telemetry.add("engine.cache.disk_rejected", 1),
                Disk::Absent => {}
            }
            let exe = bench.build(&self.setup.build);
            self.disk_put(key, "eelx", &build_body(&exe));
            exe
        })
    }

    /// The content-hash key of one build: the code digest, the
    /// benchmark, the iteration count and the measured machine (whose
    /// hash folds in `mem_bias`), and nothing else. The timing, the
    /// scheduler options and the scheduler's model do not change what
    /// the workload compiler emits, so every table, ablation variant
    /// and policy on one machine shares one build.
    fn build_key(&self, bench: &Benchmark) -> u64 {
        let key = format!(
            "eel-build-v1|code={:016x}|{bench:?}|iters={:?}|measured={:016x}",
            self.code,
            self.cfg.iterations,
            self.setup.measured.content_hash(),
        );
        fnv1a(key.as_bytes())
    }

    /// `base` with QPT2 slow profiling, emitted unscheduled, and where
    /// its blocks went; timed to `instrument`.
    fn instrumented(&self, base: &Executable) -> (Executable, LeaderMap) {
        self.stage(Stage::Instrument, || {
            let mut session = EditSession::new(base).expect("analyzable");
            let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
            session.emit_mapped(|_, code| code).expect("instrumentable")
        })
    }

    /// `original` with QPT2 slow profiling, every block scheduled by
    /// EEL as it is emitted, and where its blocks went; instrumenting
    /// is timed to `instrument`, scheduling and emission to `schedule`.
    fn scheduled(&self, original: &Executable) -> (Executable, LeaderMap) {
        let mut session = EditSession::new(original).expect("analyzable");
        self.stage(Stage::Instrument, || {
            let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
        });
        self.stage(Stage::Schedule, || {
            session
                .emit_mapped(self.setup.scheduler.transform_with(&self.telemetry))
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
        match self.disk_get(key, "cell", parse_cell) {
            Disk::Valid(v) => {
                self.telemetry.add("engine.cache.disk_hits", 1);
                if let Some(t) = tracer {
                    t.instant("cell", "disk_hit", key, 0);
                }
                self.mem.lock().expect("cache lock").insert(key, v);
                return v;
            }
            // Recomputed below, and the write-through overwrites it.
            Disk::Rejected => self.telemetry.add("engine.cache.disk_rejected", 1),
            Disk::Absent => {}
        }
        let compute_trace = tracer.map(|t| t.span("cell", "compute", key, 0));
        let v = compute();
        drop(compute_trace);
        self.telemetry.add("engine.cells.computed", 1);
        self.disk_put(key, "cell", cell_body(v).as_bytes());
        self.mem.lock().expect("cache lock").insert(key, v);
        v
    }

    /// The disk tier's file `{key:016x}.{ext}`, read by `parse`, which
    /// returns `None` for any body it does not accept.
    fn disk_get<T>(&self, key: u64, ext: &str, parse: impl FnOnce(&[u8]) -> Option<T>) -> Disk<T> {
        let Some(dir) = self.disk.as_ref() else {
            return Disk::Absent;
        };
        match std::fs::read(dir.join(format!("{key:016x}.{ext}"))) {
            Err(_) => Disk::Absent,
            Ok(bytes) => parse(&bytes).map_or(Disk::Rejected, Disk::Valid),
        }
    }

    /// Best-effort write-through of `{key:016x}.{ext}`: a failed write
    /// only costs a future recomputation. Each write goes through its
    /// own temp file (the process id and [`TMP_SEQ`] name it) and a
    /// rename, so concurrent writers of one key — two workers measuring
    /// a benchmark a corpus lists twice, or two processes sharing the
    /// directory — never expose a torn entry.
    fn disk_put(&self, key: u64, ext: &str, body: &[u8]) {
        let Some(dir) = self.disk.as_ref() else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(
            "{key:016x}.tmp{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, body).is_ok() {
            let _ = std::fs::rename(&tmp, dir.join(format!("{key:016x}.{ext}")));
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
        // EEL's rescheduling of the original, or `None` where it leaves
        // the executable exactly as it was (most integer code does):
        // then the rescheduled cells measure the original, so they take
        // the original's values instead of simulating it again.
        let rescheduled: OnceCell<Option<Executable>> = OnceCell::new();
        let build_rescheduled = || {
            let orig = original.get_or_init(build_original);
            let session = EditSession::new(orig).expect("analyzable");
            let exe = self.stage(Stage::Schedule, || {
                session
                    .emit(self.setup.scheduler.transform_with(&self.telemetry))
                    .expect("rescheduling preserves structure")
            });
            (exe != *orig).then_some(exe)
        };
        // The control paths of the baselines this call simulates. No
        // edit changes control flow, so each edit of a baseline is
        // timed by walking its path instead of executing it again; a
        // baseline served from a cache leaves no path, and its edits
        // execute.
        let original_path: OnceCell<Path> = OnceCell::new();
        let rescheduled_path: OnceCell<Path> = OnceCell::new();
        let baseline_run = |exe: &Executable, path: &OnceCell<Path>| {
            let (r, recorded) = self.baseline(exe);
            if let Some(p) = recorded {
                let _ = path.set(p);
            }
            CellValue {
                cycles: r.cycles,
                exit_code: r.exit_code,
                avg_bb: dynamic_avg_bb(exe, &r),
            }
        };

        // Stage 2: baseline run(s).
        let uninst = self.cell(self.cell_key(bench, "uninst", false, false), || {
            baseline_run(original.get_or_init(build_original), &original_path)
        });
        let (baseline, resched_ratio) = if reschedule_first {
            // The rescheduled baseline is simulated exactly once; its
            // cell serves both the ratio and the Uninst column.
            let resched = self.cell(self.cell_key(bench, "resched", true, false), || {
                rescheduled
                    .get_or_init(build_rescheduled)
                    .as_ref()
                    .map_or(uninst, |exe| baseline_run(exe, &rescheduled_path))
            });
            (resched, resched.cycles as f64 / uninst.cycles as f64)
        } else {
            (uninst, 1.0)
        };

        // Stages 3+5: instrument the baseline, run it unscheduled.
        let original_inst = || {
            self.cell(self.cell_key(bench, "inst", false, false), || {
                let orig = original.get_or_init(build_original);
                self.edited(&self.instrumented(orig), original_path.get())
            })
        };
        let inst = if reschedule_first {
            self.cell(
                self.cell_key(bench, "inst", true, true),
                || match rescheduled.get_or_init(build_rescheduled) {
                    Some(exe) => self.edited(&self.instrumented(exe), rescheduled_path.get()),
                    None => original_inst(),
                },
            )
        } else {
            original_inst()
        };

        // Stages 4+5: instrument and schedule the *original*, run it.
        // Identical across both protocols (the paper's Sched values
        // are the same in Tables 1 and 2), hence a shared cell.
        let sched = self.cell(self.cell_key(bench, "sched", true, false), || {
            let orig = original.get_or_init(build_original);
            self.edited(&self.scheduled(orig), original_path.get())
        });

        // Sanity: all three executions do the same architectural work.
        // Exit codes travel with the cells, so this holds for cached
        // recalls too. A walked cell reports its baseline's exit code,
        // so this guards only executed and cached cells; the edits'
        // semantics on the tables' own builds are checked by
        // `tests/table_semantics.rs`.
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
    /// counter (cache tiers, scheduler queries, simulator totals), and
    /// identifying metadata. `label` names the workload (e.g.
    /// `table1`); `extra_meta` lets callers add run-scoped facts such
    /// as the jobs count.
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
            .zip(stats.stage_ns)
            .map(|(name, ns)| (name.to_string(), ns))
            .collect();
        RunReport::new(meta, stages, &stats.snapshot)
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
        let inst = self.sim(Stage::Runs, &self.instrumented(&original).0, true);
        let sched = self.sim(Stage::Runs, &self.scheduled(&original).0, true);
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

    /// Table 2 after Table 1 shares the uninst and sched cells and
    /// simulates the rescheduled baseline once. Where rescheduling
    /// leaves the original as it was, its cells are the original's and
    /// Table 2 simulates nothing.
    #[test]
    fn table2_shares_sched_cell_and_runs_baseline_once() {
        let model = MachineModel::ultrasparc();
        // tomcatv's loops are rescheduled; hydro2d comes back unchanged.
        for (bench, changed) in [(&cfp95()[0], true), (&cfp95()[3], false)] {
            let engine = Engine::new(&model, &quick());
            let original = engine.build(bench);
            let session = EditSession::new(&original).expect("analyzable");
            let rescheduled = session.emit(engine.setup.scheduler.transform());
            assert_eq!(rescheduled.expect("schedulable") != original, changed);

            let t1 = engine.measure(bench, false); // 3 sims
            let t2 = engine.measure(bench, true); // + resched + inst(resched) only
            assert_eq!(
                engine.stats().sims(),
                if changed { 5 } else { 3 },
                "{}: uninst and sched cells are shared; the rescheduled baseline runs once",
                bench.name
            );
            assert_eq!(
                t1.sched_cycles, t2.sched_cycles,
                "Sched is identical across Tables 1 and 2"
            );
            if changed {
                assert!(t2.resched_ratio > 0.5 && t2.resched_ratio < 2.0);
            } else {
                assert!(rows_equal(&t1, &t2), "{t1:?} != {t2:?}");
            }
        }
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

    /// Table 2 after Table 1 over one disk tier loads the originals
    /// Table 1 built instead of compiling them again, and measures the
    /// rows a hermetic engine does.
    #[test]
    fn table2_loads_table1_builds_from_disk() {
        let model = MachineModel::ultrasparc();
        let cfg = quick();
        let dir = std::env::temp_dir().join(format!("eel-artifacts-builds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let benchmarks = [cint95()[4].clone(), cfp95()[3].clone()];

        let table1 = Engine::new(&model, &cfg).with_disk_cache(&dir);
        table1.run_table(&benchmarks, false, 2);
        assert_eq!(
            table1.stats().build_hits(),
            0,
            "a fresh directory holds no build"
        );
        let table2 = Engine::new(&model, &cfg).with_disk_cache(&dir);
        let rows = table2.run_table(&benchmarks, true, 2);
        assert_eq!(
            table2.stats().build_hits(),
            2,
            "both originals load from disk"
        );
        assert!(table2.stats().report().contains(", 2 builds from disk\n"));

        let hermetic = Engine::new(&model, &cfg).run_table(&benchmarks, true, 1);
        for (r, h) in rows.iter().zip(&hermetic) {
            assert!(rows_equal(r, h), "from disk {r:?} != hermetic {h:?}");
        }
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

    /// A damaged build is never served: a flipped byte, a truncated
    /// file and a cell body in a build's place are each rejected once,
    /// counted, rebuilt to the executable a hermetic engine builds and
    /// overwritten with a valid body.
    #[test]
    fn corrupt_disk_builds_are_rejected_and_rebuilt() {
        let model = MachineModel::supersparc();
        let cfg = quick();
        let bench = &cint95()[0];
        let hermetic = Engine::new(&model, &cfg).build(bench);
        for what in ["flipped byte", "truncated", "cell body"] {
            let dir = std::env::temp_dir().join(format!(
                "eel-artifacts-corrupt-build-{}-{}",
                std::process::id(),
                what.replace(' ', "-")
            ));
            let _ = std::fs::remove_dir_all(&dir);
            Engine::new(&model, &cfg).with_disk_cache(&dir).build(bench);
            let key = Engine::new(&model, &cfg).build_key(bench);
            let path = dir.join(format!("{key:016x}.eelx"));
            let body = std::fs::read(&path).expect("build written");
            let damaged = match what {
                // A byte of the text, which the image decoder accepts
                // whatever its value: only the checksum catches it.
                "flipped byte" => {
                    let mut b = body.clone();
                    b[body.len() / 2] ^= 0x10;
                    b
                }
                "truncated" => body[..body.len() / 2].to_vec(),
                _ => {
                    let v = CellValue {
                        cycles: 1,
                        exit_code: 0,
                        avg_bb: 1.0,
                    };
                    cell_body(v).into_bytes()
                }
            };
            std::fs::write(&path, damaged).expect("build rewritten");

            let engine = Engine::new(&model, &cfg).with_disk_cache(&dir);
            assert_eq!(engine.build(bench), hermetic, "{what}");
            let stats = engine.stats();
            assert_eq!(stats.counter("engine.cache.disk_rejected"), 1, "{what}");
            assert_eq!(stats.build_hits(), 0, "{what}");
            let rewritten = std::fs::read(&path).expect("build rewritten");
            assert!(rewritten == body, "{what}: overwritten with the valid body");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Publishing through a temp file and a rename never exposes a torn
    /// entry, even when several threads of one process write the same
    /// key at once: every read between writes parses as a `v2` cell.
    /// A table over a corpus that lists every entry twice, so that two
    /// workers can compute one key together, then equals the serial
    /// uncached rows, and leaves no cell a later engine rejects.
    ///
    /// The directory lives in memory (`/dev/shm`) where there is one:
    /// on a disk file system a rename over an existing file can flush
    /// it first (ext4's replace-by-rename heuristic), which turns the
    /// 4,800 renames from milliseconds into minutes.
    #[test]
    fn concurrent_writers_of_one_key_never_tear() {
        let model = MachineModel::ultrasparc();
        let cfg = quick();
        let shm = std::path::Path::new("/dev/shm");
        let base = if shm.is_dir() {
            shm.to_path_buf()
        } else {
            std::env::temp_dir()
        };
        let dir = base.join(format!("eel-artifacts-tear-{}", std::process::id()));
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
                            engine.disk_put(key, "cell", cell_body(v).as_bytes());
                            let read = engine.disk_get(key, "cell", parse_cell);
                            assert!(
                                matches!(read, Disk::Valid(r) if r.exit_code == key as u32),
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

        // A build depends on the benchmark, the iteration count and the
        // measured machine, and on nothing the scheduler or the timing
        // adds.
        let build = engine.build_key(bench);
        assert_ne!(build, engine.build_key(&cint95()[1]), "bench in build key");
        assert_ne!(build, other.build_key(bench), "machine in build key");
        assert_ne!(build, biased.build_key(bench), "mem_bias in build key");
        let longer = Engine::new(
            &model,
            &ExperimentConfig {
                iterations: Some(41),
                ..quick()
            },
        );
        assert_ne!(build, longer.build_key(bench), "iterations in build key");
        for (what, cfg) in [
            (
                "timing",
                ExperimentConfig {
                    timing: eel_sim::TimingConfig::default(),
                    ..quick()
                },
            ),
            (
                "scheduler model",
                ExperimentConfig {
                    scheduler_model: Some(MachineModel::supersparc()),
                    ..quick()
                },
            ),
        ] {
            let variant = Engine::new(&model, &cfg);
            assert_ne!(
                engine.cell_key(bench, "sched", true, false),
                variant.cell_key(bench, "sched", true, false),
                "{what} in cell key"
            );
            assert_eq!(build, variant.build_key(bench), "{what} not in build key");
        }
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
        assert_ne!(
            engine.build_key(bench),
            rebuilt.build_key(bench),
            "the code digest is not in the build key"
        );
    }

    /// A crate the digest covers may depend by path only on crates it
    /// also covers, or on the few that cannot change a value: any
    /// other would let a warm disk tier serve cells and builds that
    /// older code computed. Read from the workspace manifests line by
    /// line: the root's `[workspace.dependencies]` and each covered
    /// crate's `[dependencies]`.
    #[test]
    fn sources_cover_every_path_dependency() {
        /// Path dependencies that only count and trace.
        const VALUE_FREE: &[&str] = &["eel-telemetry"];
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
        };
        // The trimmed lines of a manifest's `[section]` table.
        let table = |manifest: &str, section: &str| -> Vec<String> {
            let mut lines = manifest.lines().map(str::trim);
            lines.find(|l| *l == section);
            lines
                .take_while(|l| !l.starts_with('['))
                .map(String::from)
                .collect()
        };
        // The dependency a line names (before its first `.` or `=`), and
        // its `path = "P"`, if it has one.
        let name_of = |line: &str| {
            line.split(['.', '='])
                .next()
                .unwrap_or("")
                .trim()
                .to_string()
        };
        let path_of = |line: &str| {
            Some(
                line.split_once("path = \"")?
                    .1
                    .split_once('"')?
                    .0
                    .to_string(),
            )
        };
        // `dir/rel` with `..` components resolved.
        let join = |dir: &str, rel: &str| {
            let mut parts: Vec<&str> = dir.split('/').collect();
            for part in rel.split('/') {
                if part == ".." {
                    parts.pop();
                } else {
                    parts.push(part);
                }
            }
            parts.join("/")
        };
        let workspace: Vec<(String, String)> =
            table(&read("Cargo.toml"), "[workspace.dependencies]")
                .iter()
                .filter_map(|l| Some((name_of(l), path_of(l)?)))
                .collect();
        let covered = |dir: &str| {
            CODE_SOURCES
                .iter()
                .any(|s| s.starts_with(&format!("{dir}/")))
        };
        let mut crates: Vec<String> = CODE_SOURCES
            .iter()
            .map(|s| s.split('/').take(2).collect::<Vec<_>>().join("/"))
            .collect();
        crates.sort();
        crates.dedup();
        let mut uncovered = Vec::new();
        for krate in &crates {
            for line in table(&read(&format!("{krate}/Cargo.toml")), "[dependencies]") {
                let name = name_of(&line);
                let path = if line.contains("workspace = true") {
                    workspace
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, p)| p.clone())
                } else {
                    path_of(&line).map(|p| join(krate, &p))
                };
                if let Some(path) = path {
                    if !covered(&path) && !VALUE_FREE.contains(&name.as_str()) {
                        uncovered.push(format!("{krate} -> {name} ({path})"));
                    }
                }
            }
        }
        assert!(
            uncovered.is_empty(),
            "path dependencies outside build.rs's SOURCES: {uncovered:?}"
        );
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
        // uninstrumented stage and the build never schedule, so they
        // may share.
        let bench = &cint95()[0];
        let model = MachineModel::ultrasparc();
        let engines: Vec<Engine> = [
            Priority::StallsFirst,
            Priority::ChainFirst,
            Priority::LoadDelay,
            Priority::Lookahead(3),
            Priority::Lookahead(5),
            Priority::Exact,
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
        let builds: Vec<u64> = engines.iter().map(|e| e.build_key(bench)).collect();
        assert!(
            builds.iter().all(|k| k == &builds[0]),
            "builds are policy-independent"
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
                prop_assert!(parse_cell(body.as_bytes()).is_some(), "a written body reads back");
                let mut damaged = body.clone().into_bytes();
                for (at, b) in flips {
                    let i = at % damaged.len();
                    damaged[i] = b;
                }
                damaged.truncate(cut % (2 * damaged.len()));
                for text in [text, body, String::from_utf8_lossy(&damaged).into_owned()] {
                    if let Some(v) = parse_cell(text.as_bytes()) {
                        prop_assert_eq!(cell_body(v), text);
                    }
                }
            }

            /// `parse_build` never panics, and it returns an executable
            /// only for the exact body `build_body` writes for it: on
            /// arbitrary bytes, and on a valid body with flipped bytes
            /// and a cut tail, both with its checksum as damaged and
            /// with one recomputed, so the image decoder sees the damage.
            #[test]
            fn builds_never_panic(
                bytes in prop::collection::vec(any::<u8>(), 0..96),
                words in prop::collection::vec(any::<u32>(), 1..48),
                flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
                cut in any::<usize>(),
            ) {
                let exe = Executable::from_words(Executable::DEFAULT_TEXT_BASE, words);
                let body = build_body(&exe);
                prop_assert_eq!(parse_build(&body), Some(exe), "a written body reads back");
                let mut damaged = body.clone();
                for (at, b) in flips {
                    let i = at % damaged.len();
                    damaged[i] = b;
                }
                damaged.truncate(cut % (2 * damaged.len()));
                let mut resealed = damaged[..damaged.len().saturating_sub(8)].to_vec();
                resealed.extend_from_slice(&fnv1a(&resealed).to_be_bytes());
                for bytes in [bytes, body, damaged, resealed] {
                    if let Some(exe) = parse_build(&bytes) {
                        prop_assert_eq!(build_body(&exe), bytes);
                    }
                }
            }
        }
    }
}
