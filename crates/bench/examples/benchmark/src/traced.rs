//! The re-drive: after the timed passes, the set-up and one pass are
//! repeated single-threaded without the engine, calling each layer's
//! public functions directly with one span around each call. Its
//! checks feed the failure count of every run; with `--trace 1` its
//! spans also give the per-layer metrics. The span's category is the
//! layer, and `a0` is the operation (engine cell or edit) the call
//! belongs to. Counts come from the `Registry` handed to the `*_with`
//! calls. After the pass, every executable the re-drive simulated is
//! run once more functionally, on two threads, outside the pass's time
//! budget.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use eel_bench::experiment::Row;
use eel_core::Scheduler;
use eel_edit::{EditSession, Executable};
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_sim::{run, run_with, RunConfig, RunResult};
use eel_telemetry::{Registry, Snapshot, TraceFile, TraceGuard, Tracer};
use eel_workloads::{Benchmark, BuildOptions};

use crate::stats::median;
use crate::workloads::{edit_digest, EditSetup, EngineSetup, Redrive, Setup, JOBS};

/// The layers a traced pass is split into (span categories).
pub const LAYERS: [&str; 5] = ["workloads", "sim", "core", "eel", "qpt"];

/// Ring slots per tracer stripe (one thread records, so one stripe
/// fills): room for every span of the largest re-drive, `edit` at
/// about 92k spans with one `core` span per scheduled block, without
/// overwriting.
const STRIPE_EVENTS: usize = 1 << 18;

/// What the re-drive recorded.
#[derive(Debug)]
pub struct TracedRun {
    /// Every event: traced set-up and traced pass.
    pub trace: TraceFile,
    /// The pass's events only (shares and coverage are per pass).
    pub pass: TraceFile,
    pub pass_wall_s: f64,
    pub counters: Snapshot,
    pub blocks_instrumented: u64,
    /// Operations re-driven: engine cells or edits.
    pub ops: u64,
    /// The failed operations by id, each with the first reason found,
    /// so an operation counts once however many of its checks fail.
    pub failures: BTreeMap<u64, String>,
    /// The ring overwrote events, so the layer metrics miss some.
    pub overflowed: bool,
}

/// Sets `workload` up again, traced, and re-drives one pass against
/// the reference pass.
pub fn traced_run(
    workload: &str,
    seed: u64,
    smoke: bool,
    work_dir: &std::path::Path,
    reference_rows: &[Vec<Row>],
    reference_ops: &[Option<u64>],
) -> TracedRun {
    let tracer = Tracer::new(8 * STRIPE_EVENTS);
    let setup = crate::workloads::setup(workload, seed, smoke, work_dir, Some(&tracer));
    let meta = [
        ("kind", "benchmark".to_string()),
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
    ];
    redrive(&tracer, &setup, reference_rows, reference_ops, &meta)
}

/// Re-drives one pass of `setup` and checks it against the reference
/// pass: engine rows for engine workloads, edit digests for `edit`.
pub fn redrive(
    tracer: &Tracer,
    setup: &Setup,
    reference_rows: &[Vec<Row>],
    reference_ops: &[Option<u64>],
    meta: &[(&str, String)],
) -> TracedRun {
    let mut calls = Calls {
        tracer,
        reg: Registry::new(),
        op: 0,
        blocks_instrumented: 0,
        exit_checks: Vec::new(),
    };
    let pass_start_ns = tracer.now_ns();
    let t = Instant::now();
    let (ops, mut failures) = match setup {
        Setup::Engine(s) => redrive_engine(s, reference_rows, &mut calls),
        Setup::Edit(s) => redrive_edit(s, reference_ops, &mut calls),
    };
    let pass_wall_s = t.elapsed().as_secs_f64();
    let pass_end_ns = tracer.now_ns();
    // After the pass window, so the pass's layer budget stays that of
    // the engine's own work.
    for (op, why) in functional_failures(tracer, &calls.exit_checks) {
        failures.entry(op).or_insert(why);
    }
    let trace = tracer.trace_file(meta);
    let overflowed = tracer.pushed() != trace.events.len() as u64;
    let pass = TraceFile {
        epoch_unix_ns: trace.epoch_unix_ns,
        pid: trace.pid,
        meta: trace.meta.clone(),
        events: trace
            .events
            .iter()
            .filter(|e| e.ts_ns >= pass_start_ns && e.ts_ns + e.dur_ns <= pass_end_ns)
            .cloned()
            .collect(),
    };
    TracedRun {
        trace,
        pass,
        pass_wall_s,
        counters: calls.reg.snapshot(),
        blocks_instrumented: calls.blocks_instrumented,
        ops,
        failures,
        overflowed,
    }
}

/// The layer calls, each wrapped in a span of operation `op`.
struct Calls<'t> {
    tracer: &'t Tracer,
    reg: Registry,
    op: u64,
    blocks_instrumented: u64,
    exit_checks: Vec<ExitCheck>,
}

/// Executables whose functional (interpretive, untimed) run must exit
/// like their timed runs did: (op, benchmark, executables, exit code).
type ExitCheck = (u64, &'static str, Vec<Executable>, u32);

/// Runs the exit checks on [`JOBS`] threads (they are outside the pass
/// window, so only their total time matters) and returns each failed
/// operation's first failure.
fn functional_failures(tracer: &Tracer, checks: &[ExitCheck]) -> Vec<(u64, String)> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut bad = Vec::new();
        while let Some((op, name, exes, exit)) = checks.get(next.fetch_add(1, Ordering::Relaxed)) {
            for exe in exes {
                let _s = tracer.span("sim", "functional", *op, 0);
                let why = match run(exe, None, &RunConfig::default()) {
                    Ok(r) if r.exit_code == *exit => continue,
                    Ok(r) => format!(
                        "{name}: functional run exits {}, timed runs exit {exit}",
                        r.exit_code
                    ),
                    Err(e) => format!("{name}: functional run: {e}"),
                };
                bad.push((*op, why));
                break;
            }
        }
        bad
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..JOBS).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a functional run panicked"))
            .collect()
    })
}

impl<'t> Calls<'t> {
    fn span(&self, layer: &'static str, name: &'static str) -> TraceGuard<'t> {
        self.tracer.span(layer, name, self.op, 0)
    }

    fn build(&self, bench: &Benchmark, opts: &BuildOptions) -> Executable {
        let _s = self.span("workloads", "build");
        bench.build(opts)
    }

    fn sim(
        &self,
        exe: &Executable,
        model: &MachineModel,
        cfg: &RunConfig,
    ) -> Result<RunResult, String> {
        let _s = self.span("sim", "run");
        run_with(exe, Some(model), cfg, &self.reg).map_err(|e| e.to_string())
    }

    fn session(&self, exe: &Executable) -> Result<EditSession, String> {
        let _s = self.span("eel", "session");
        EditSession::new(exe).map_err(|e| e.to_string())
    }

    fn instrument(&mut self, session: &mut EditSession) {
        let profiler = {
            let _s = self.span("qpt", "instrument");
            Profiler::instrument(session, ProfileOptions::default())
        };
        self.blocks_instrumented += profiler.instrumented_blocks() as u64;
    }

    fn emit_unscheduled(&self, session: &EditSession) -> Result<Executable, String> {
        let _s = self.span("eel", "emit");
        session.emit_unscheduled().map_err(|e| e.to_string())
    }

    /// `emit(transform_with)`, with a `core` span per scheduled block
    /// nested in the `eel` span so emission and scheduling separate.
    fn emit_scheduled(
        &self,
        session: &EditSession,
        sched: &Scheduler,
    ) -> Result<Executable, String> {
        let _s = self.span("eel", "emit");
        let mut transform = sched.transform_with(&self.reg);
        session
            .emit(|info, code| {
                let _c = self.span("core", "schedule");
                transform(info, code)
            })
            .map_err(|e| e.to_string())
    }
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: &[T]) -> Result<(), String> {
    if got.windows(2).all(|w| w[0] == w[1]) {
        Ok(())
    } else {
        Err(format!("{what} disagree: {got:?}"))
    }
}

/// Repeats the engine's cell protocol for every cell the pass computed.
fn redrive_engine(
    s: &EngineSetup,
    rows: &[Vec<Row>],
    c: &mut Calls,
) -> (u64, BTreeMap<u64, String>) {
    let (mut ops, mut failures) = (0, BTreeMap::new());
    for (t, table_rows) in s.tables.iter().zip(rows) {
        if t.redrive == Redrive::Nothing {
            continue;
        }
        let measured = t.model.with_load_latency_bias(t.cfg.mem_bias);
        let sched_model = t.cfg.scheduler_model.clone();
        let sched =
            Scheduler::with_options(sched_model.unwrap_or_else(|| t.model.clone()), t.cfg.sched);
        let cfg = RunConfig {
            timing: Some(t.cfg.timing.clone()),
            ..RunConfig::default()
        };
        let opts = BuildOptions {
            iterations: t.cfg.iterations,
            optimize: Some(measured.clone()),
        };
        for (bench, row) in s.benches.iter().zip(table_rows) {
            c.op += 1;
            ops += 1;
            let cell = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
                let orig = c.build(bench, &opts);
                match t.redrive {
                    Redrive::Full => {
                        let base = c.sim(&orig, &measured, &cfg)?;
                        let mut s1 = c.session(&orig)?;
                        c.instrument(&mut s1);
                        let inst_exe = c.emit_unscheduled(&s1)?;
                        let inst = c.sim(&inst_exe, &measured, &cfg)?;
                        let mut s2 = c.session(&orig)?;
                        c.instrument(&mut s2);
                        let sched_exe = c.emit_scheduled(&s2, &sched)?;
                        let done = c.sim(&sched_exe, &measured, &cfg)?;
                        same(
                            "cycles (re-driven vs engine)",
                            &[
                                [base.cycles, inst.cycles, done.cycles],
                                [row.uninst_cycles, row.inst_cycles, row.sched_cycles],
                            ],
                        )?;
                        same(
                            "exit codes",
                            &[base.exit_code, inst.exit_code, done.exit_code],
                        )?;
                        let exes = vec![orig, inst_exe, sched_exe];
                        c.exit_checks.push((c.op, bench.name, exes, base.exit_code));
                        Ok(())
                    }
                    Redrive::Rescheduled => {
                        let s0 = c.session(&orig)?;
                        let resched_exe = c.emit_scheduled(&s0, &sched)?;
                        let resched = c.sim(&resched_exe, &measured, &cfg)?;
                        let mut s1 = c.session(&resched_exe)?;
                        c.instrument(&mut s1);
                        let inst_exe = c.emit_unscheduled(&s1)?;
                        let inst = c.sim(&inst_exe, &measured, &cfg)?;
                        same(
                            "cycles (re-driven vs engine)",
                            &[
                                [resched.cycles, inst.cycles],
                                [row.uninst_cycles, row.inst_cycles],
                            ],
                        )?;
                        same("exit codes", &[resched.exit_code, inst.exit_code])?;
                        let exes = vec![resched_exe, inst_exe];
                        c.exit_checks
                            .push((c.op, bench.name, exes, resched.exit_code));
                        Ok(())
                    }
                    Redrive::Nothing => unreachable!("skipped above"),
                }
            }));
            let why = match cell {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => format!("{}: {e}", bench.name),
                Err(_) => format!("{}: re-drive panicked", bench.name),
            };
            failures.insert(c.op, why);
        }
    }
    (ops, failures)
}

/// Repeats every edit of the pass and checks its digest.
fn redrive_edit(
    s: &EditSetup,
    reference: &[Option<u64>],
    c: &mut Calls,
) -> (u64, BTreeMap<u64, String>) {
    let mut failures = BTreeMap::new();
    for (i, want) in reference.iter().enumerate() {
        c.op = i as u64;
        let (input, sched) = s.job(i);
        let edit = catch_unwind(AssertUnwindSafe(|| -> Result<u64, String> {
            let mut session = c.session(input)?;
            c.instrument(&mut session);
            let unscheduled = c.emit_unscheduled(&session)?;
            let scheduled = c.emit_scheduled(&session, sched)?;
            Ok(edit_digest(&[&unscheduled, &scheduled]))
        }));
        let name = s.inputs[i / s.scheds.len()].0;
        let why = match edit {
            Ok(Ok(d)) if Some(d) == *want => continue,
            Ok(Ok(_)) => format!("edit {i} ({name}): output differs from the timed passes"),
            Ok(Err(e)) => format!("edit {i} ({name}): {e}"),
            Err(_) => format!("edit {i} ({name}): panicked"),
        };
        failures.insert(c.op, why);
    }
    (reference.len() as u64, failures)
}

/// Numbers the timed passes contribute to the per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTotals {
    /// Engine cells computed per pass.
    pub cells_computed: f64,
    /// Cache hits over cache lookups, all timed passes.
    pub cache_hit_ratio: f64,
    /// Untraced CPU seconds and median wall seconds per pass.
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, by name.
pub fn layer_metrics(run: &TracedRun, totals: PassTotals) -> BTreeMap<&'static str, f64> {
    let self_ns: BTreeMap<String, u64> = run
        .pass
        .profile()
        .into_iter()
        .map(|(cat, _, _, own)| (cat, own))
        .collect();
    let self_s = |layer: &str| self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e9;
    let wall = run.pass_wall_s;
    let durations_ns = |file: &TraceFile, cat: &str, name: &str| -> Vec<f64> {
        file.events
            .iter()
            .filter(|e| e.cat == cat && e.name == name)
            .map(|e| e.dur_ns as f64)
            .collect()
    };
    let counter = |site: &str| run.counters.counters.get(site).copied().unwrap_or(0) as f64;

    let builds = durations_ns(&run.trace, "workloads", "build");
    let kinsn = counter("sim.instructions") / 1e3;
    let timed_sim_ns: f64 = durations_ns(&run.pass, "sim", "run").iter().sum();
    let (ctx_hits, ctx_misses) = (
        counter("sim.block_ctx_hits"),
        counter("sim.block_ctx_misses"),
    );
    let queries = counter("sched.queries");
    let session_s = durations_ns(&run.pass, "eel", "session")
        .iter()
        .sum::<f64>()
        / 1e9;
    let model_ns: f64 = durations_ns(&run.trace, "pipeline", "model_build")
        .iter()
        .sum();

    BTreeMap::from([
        ("workloads.build_s", builds.iter().sum::<f64>() / 1e9),
        ("workloads.build_calls", builds.len() as f64),
        (
            "workloads.build_ms_p50",
            if builds.is_empty() {
                0.0
            } else {
                median(&builds) / 1e6
            },
        ),
        ("workloads.share", self_s("workloads") / wall),
        ("sim.kinsn", kinsn),
        ("sim.ns_per_kinsn", ratio(timed_sim_ns, kinsn)),
        (
            "sim.block_hit_ratio",
            ratio(ctx_hits, ctx_hits + ctx_misses),
        ),
        ("sim.block_builds", counter("sim.block_builds")),
        ("sim.share", self_s("sim") / wall),
        ("core.schedule_s", self_s("core")),
        ("core.blocks", counter("sched.blocks")),
        ("core.stall_queries", queries),
        ("core.ns_per_query", ratio(self_s("core") * 1e9, queries)),
        ("core.share", self_s("core") / wall),
        ("eel.session_s", session_s),
        ("eel.emit_s", self_s("eel") - session_s),
        ("eel.share", self_s("eel") / wall),
        ("qpt.instrument_s", self_s("qpt")),
        ("qpt.blocks_instrumented", run.blocks_instrumented as f64),
        ("qpt.share", self_s("qpt") / wall),
        ("engine.cells_computed", totals.cells_computed),
        ("engine.cache_hit_ratio", totals.cache_hit_ratio),
        (
            "engine.busy_ratio",
            ratio(totals.cpu_s, totals.wall_s * JOBS as f64),
        ),
        ("pipeline.model_build_ms", model_ns / 1e6),
        (
            "bench.trace_coverage",
            LAYERS.iter().map(|l| self_s(l)).sum::<f64>() / wall,
        ),
        ("bench.trace_overhead", ratio(wall, totals.cpu_s)),
    ])
}
