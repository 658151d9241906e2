//! The repository benchmark (see README.md).
//!
//! ```text
//! eel-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//!               [--json OUT] [--trace-out FILE]
//! eel-benchmark --workload all ...    one process per workload
//! eel-benchmark --smoke [--workload NAME]
//! eel-benchmark --compare PARENT.json[,...] CHANGE.json[,...]
//! ```
//!
//! A single-workload run prints, as its last line, one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics of `BENCHMARK.json`, or its per-layer metrics with
//! `--trace 1`. Pass counts are fixed per workload; `--seconds` is
//! accepted only as `BENCHMARK.json`'s `run_seconds`, the run length
//! they are sized for.

mod compare;
mod spec;
mod stats;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use eel_telemetry::json::Json;

use crate::spec::spec;
use crate::stats::{median, peak_rss_mb, process_cpu_s, HostProbe, PROBE_REF_S};
use crate::traced::{layer_metrics, PassTotals, TracedRun};
use crate::workloads::{timed, timed_passes, Setup};

const USAGE: &str = "usage: eel-benchmark --workload NAME|all [--seed N] [--seconds S] \
                     [--trace 0|1] [--json OUT] [--trace-out FILE] [--smoke]\n       \
                     eel-benchmark --compare PARENT.json[,...] CHANGE.json[,...]";

/// Set-up is repeated at least this many times, and until this much
/// time has gone by (millisecond set-ups need many samples for a
/// steady median); `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 200;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    /// The parent's and the change's record files.
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        trace: false,
        json: None,
        trace_out: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let want = spec().run_seconds;
                if value()?.parse::<u64>() != Ok(want) {
                    return Err(format!(
                        "--seconds must be {want}, the run_seconds the pass counts are sized for"
                    ));
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--json" => a.json = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--smoke" => a.smoke = true,
            "--compare" => {
                let files = |list: &String| list.split(',').map(PathBuf::from).collect();
                let parent = files(value()?);
                a.compare = Some((parent, files(value()?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // A smoke run exercises every path, the traced one included.
    a.trace |= a.smoke;
    if a.compare.is_none() {
        if a.workload.is_empty() {
            if !a.smoke {
                return Err("--workload is required".into());
            }
            a.workload = "all".into();
        }
        if a.workload != "all" && !spec().workloads.contains(&a.workload) {
            return Err(format!(
                "unknown workload `{}` (try: all, {})",
                a.workload,
                spec().workloads.join(", ")
            ));
        }
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("eel-benchmark: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match (&a.compare, a.workload.as_str()) {
        (Some((parent, change)), _) => compare::main(parent, change),
        (None, "all") => run_all(&a),
        (None, _) => run_one(&a),
    };
    std::process::exit(code);
}

/// One workload's results.
#[derive(Debug)]
struct Outcome {
    passes: usize,
    correct: bool,
    /// End-to-end metrics: value and the samples behind it.
    end_to_end: BTreeMap<&'static str, (f64, Vec<f64>)>,
    /// Per-layer metrics (traced runs only).
    layers: BTreeMap<&'static str, f64>,
    /// The measurements behind `end_to_end`, for `--json`.
    raw: Raw,
}

/// Raw end-to-end measurements of one run: times as the clock read
/// them, the host probe taken before each timed pass and after the
/// last (one more probe than passes), the two around set-up, and the
/// operations of the timed passes and the re-drive.
#[derive(Debug, Clone, Default)]
struct Raw {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    probe_s: Vec<f64>,
    setup_probe_s: Vec<f64>,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    hidden_pct: f64,
}

/// Every end-to-end metric, by name. Each pass's wall and CPU time is
/// scaled by the host speed the probes on either side of it measured,
/// and set-up time by the probes on either side of set-up, so times
/// read as seconds on the reference host. The faster of the two probes
/// sets the speed: a burst of load during a 55 ms probe slows it far
/// more than it slows a pass of a second or more.
fn end_to_end(raw: &Raw) -> BTreeMap<&'static str, (f64, Vec<f64>)> {
    let speed = |p: &[f64]| PROBE_REF_S / p[0].min(p[1]);
    let pass_speed: Vec<f64> = raw.probe_s.windows(2).map(speed).collect();
    let scaled =
        |times: &[f64]| -> Vec<f64> { times.iter().zip(&pass_speed).map(|(t, s)| t * s).collect() };
    let (wall, cpu) = (scaled(&raw.wall_s), scaled(&raw.cpu_s));
    let setup_speed = speed(&raw.setup_probe_s);
    let setup: Vec<f64> = raw.setup_s.iter().map(|t| t * setup_speed).collect();
    let ok_ratio = (raw.attempted - raw.failed) as f64 / raw.attempted as f64;
    BTreeMap::from([
        ("setup_s", (median(&setup), setup)),
        ("wall_s", (median(&wall), wall)),
        ("cpu_s", (median(&cpu), cpu)),
        ("peak_rss_mb", (raw.peak_rss_mb, vec![raw.peak_rss_mb])),
        ("ok_ratio", (ok_ratio, vec![ok_ratio])),
        ("hidden_pct", (raw.hidden_pct, vec![raw.hidden_pct])),
    ])
}

/// Adds the re-drive's operations to the tally, and its failed
/// operations, each once.
fn count_redrive(raw: &mut Raw, run: &TracedRun) {
    raw.attempted += run.ops;
    raw.failed += run.failures.len() as u64;
}

/// Where a run keeps its scratch files (the `paper` disk cache).
fn work_dir(workload: &str) -> PathBuf {
    Path::new("target")
        .join("eel-benchmark")
        .join(format!("{workload}-{}", std::process::id()))
}

fn measure(a: &Args) -> Outcome {
    let name = a.workload.as_str();
    let dir = work_dir(name);
    let mut probe = HostProbe::new(workloads::JOBS);
    let mut raw = Raw::default();
    let (min_reps, budget) = if a.smoke {
        (1, 0.0)
    } else {
        (SETUP_REPS, SETUP_BUDGET_S)
    };
    raw.setup_probe_s.push(probe.run_s());
    let setup = loop {
        let (s, secs) = timed(|| workloads::setup(name, a.seed, a.smoke, &dir, None));
        raw.setup_s.push(secs);
        let n = raw.setup_s.len();
        if n >= SETUP_MAX_REPS || (n >= min_reps && raw.setup_s.iter().sum::<f64>() >= budget) {
            break s;
        }
    };
    raw.setup_probe_s.push(probe.run_s());

    // The untimed warm-up pass is the reference every timed pass must
    // reproduce; a smoke run's single pass is its own reference.
    let mut reference = (!a.smoke).then(|| setup.run_pass());
    let passes = timed_passes(name, a.smoke);
    let ops = setup.ops_per_pass();
    let mut diverged = vec![0u64; ops];
    let (mut computed, mut hits) = (0, 0);
    for _ in 0..passes {
        raw.probe_s.push(probe.run_s());
        let cpu = process_cpu_s();
        let (out, wall) = timed(|| setup.run_pass());
        raw.cpu_s.push(process_cpu_s() - cpu);
        raw.wall_s.push(wall);
        computed += out.computed;
        hits += out.hits;
        match &reference {
            Some(r) => {
                for (d, (got, want)) in diverged.iter_mut().zip(out.ops.iter().zip(&r.ops)) {
                    *d += u64::from(got != want);
                }
            }
            None => reference = Some(out),
        }
    }
    raw.probe_s.push(probe.run_s());
    let reference = reference.expect("at least one pass");
    // Before anything below allocates: the re-drive's trace and edit's
    // static estimate are not part of what a pass holds.
    raw.peak_rss_mb = peak_rss_mb();

    let mut notes = Vec::new();
    let mut bad_op = vec![false; ops];
    match &setup {
        Setup::Engine(s) => match &reference.rows {
            Some(rows) => {
                for (t, why) in s.check_reference(rows) {
                    notes.push(why);
                    bad_op[t * s.benches.len()..(t + 1) * s.benches.len()].fill(true);
                }
                raw.hidden_pct = workloads::hidden_pct(rows.iter().flatten().map(|r| {
                    let c = |cycles: u64| cycles as f64;
                    (c(r.uninst_cycles), c(r.inst_cycles), c(r.sched_cycles))
                }));
            }
            None => notes.push("the reference pass panicked".into()),
        },
        Setup::Edit(s) => raw.hidden_pct = s.static_hidden_pct(),
    }
    for (bad, op) in bad_op.iter_mut().zip(&reference.ops) {
        *bad |= op.is_none();
    }
    raw.attempted = (ops * passes) as u64;
    raw.failed = bad_op
        .iter()
        .zip(&diverged)
        .map(|(&bad, &d)| if bad { passes as u64 } else { d })
        .sum();

    // Every run re-drives, so its checks count with or without
    // `--trace`; only a traced run reports the layers it measured.
    let rows = reference.rows.clone().unwrap_or_default();
    let run = traced::traced_run(name, a.seed, a.smoke, &dir, &rows, &reference.ops);
    count_redrive(&mut raw, &run);
    notes.extend(run.failures.values().cloned());
    if run.overflowed {
        notes.push("the trace ring overflowed, so layer metrics miss events".into());
    }
    let layers = if a.trace {
        layer_metrics(
            &run,
            PassTotals {
                cells_computed: computed as f64 / passes as f64,
                cache_hit_ratio: traced::ratio(hits as f64, (computed + hits) as f64),
                cpu_s: raw.cpu_s.iter().sum::<f64>() / passes as f64,
                wall_s: median(&raw.wall_s),
            },
        )
    } else {
        BTreeMap::new()
    };
    if let Some(path) = &a.trace_out {
        if let Err(e) = std::fs::write(path, run.trace.to_jsonl()) {
            notes.push(format!("{}: {e}", path.display()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    for n in &notes {
        eprintln!("eel-benchmark: {name}: {n}");
    }
    Outcome {
        passes,
        correct: raw.failed == 0,
        end_to_end: end_to_end(&raw),
        layers,
        raw,
    }
}

fn metric_json(name: &str, unit: &str, value: f64) -> (String, Json) {
    (
        name.to_string(),
        Json::Obj(vec![
            ("value".into(), Json::Num(value)),
            ("unit".into(), Json::Str(unit.to_string())),
        ]),
    )
}

/// The result line: the end-to-end metrics, or the per-layer ones when
/// traced, in `BENCHMARK.json` order.
fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        spec()
            .per_layer
            .iter()
            .map(|m| metric_json(&m.name, &m.unit, out.layers[m.name.as_str()]))
            .collect()
    } else {
        spec()
            .end_to_end
            .iter()
            .map(|m| metric_json(&m.name, &m.unit, out.end_to_end[m.name.as_str()].0))
            .collect()
    };
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), Json::Num(out.raw.attempted as f64)),
        ("failed".into(), Json::Num(out.raw.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_compact()
}

/// The `--json` record of one workload: every metric with its samples.
fn record(a: &Args, out: &Outcome) -> Json {
    let mut metrics = Vec::new();
    for m in &spec().end_to_end {
        let (value, samples) = &out.end_to_end[m.name.as_str()];
        metrics.push((m.name.clone(), metric_record(&m.unit, *value, samples)));
    }
    for m in spec().per_layer.iter().filter(|_| a.trace) {
        let value = out.layers[m.name.as_str()];
        metrics.push((m.name.clone(), metric_record(&m.unit, value, &[value])));
    }
    let samples = |v: &[f64]| Json::Arr(v.iter().map(|&s| Json::Num(s)).collect());
    let clock = Json::Obj(vec![
        ("probe_ref_s".into(), Json::Num(PROBE_REF_S)),
        ("probe_s".into(), samples(&out.raw.probe_s)),
        ("setup_probe_s".into(), samples(&out.raw.setup_probe_s)),
        ("setup_s".into(), samples(&out.raw.setup_s)),
        ("wall_s".into(), samples(&out.raw.wall_s)),
        ("cpu_s".into(), samples(&out.raw.cpu_s)),
    ]);
    Json::Obj(vec![
        ("seed".into(), Json::Num(a.seed as f64)),
        ("passes".into(), Json::Num(out.passes as f64)),
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), Json::Num(out.raw.attempted as f64)),
        ("failed".into(), Json::Num(out.raw.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
        // Times as the clock read them, before host-speed scaling.
        ("unscaled".into(), clock),
    ])
}

fn metric_record(unit: &str, value: f64, samples: &[f64]) -> Json {
    Json::Obj(vec![
        ("unit".into(), Json::Str(unit.to_string())),
        ("value".into(), Json::Num(value)),
        (
            "samples".into(),
            Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ])
}

/// A `--json` file: run facts plus per-workload records.
fn record_file(a: &Args, workloads: Vec<(String, Json)>) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Json::Obj(vec![
        ("schema".into(), Json::Str("eel-benchmark-record".into())),
        ("version".into(), Json::Num(1.0)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("smoke".into(), Json::Bool(a.smoke)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
    .to_pretty()
}

fn run_one(a: &Args) -> i32 {
    let out = measure(a);
    if let Some(path) = &a.json {
        let text = record_file(a, vec![(a.workload.clone(), record(a, &out))]);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("eel-benchmark: {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", result_line(&out, a.trace));
    0
}

/// Runs every workload in its own process, so set-up and peak memory
/// stay per workload. Exits nonzero if any workload fails.
fn run_all(a: &Args) -> i32 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut records = Vec::new();
    let mut code = 0;
    for name in spec().workloads.iter().cloned() {
        let part = work_dir("all").with_extension(format!("{name}.json"));
        if let Some(parent) = part.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &name, "--seed", &a.seed.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--json")
            .arg(&part)
            .stderr(Stdio::inherit());
        if a.smoke {
            cmd.arg("--smoke");
        }
        if let Some(t) = &a.trace_out {
            cmd.arg("--trace-out")
                .arg(t.with_extension(format!("{name}.jsonl")));
        }
        let (child, secs) = timed(|| cmd.output());
        let rec = std::fs::read_to_string(&part)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .and_then(|j| j.get("workloads")?.get(&name).cloned());
        let _ = std::fs::remove_file(&part);
        let ok = matches!(&child, Ok(o) if o.status.success())
            && rec.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
        println!("{name:<8} {:>6.1}s  {}", secs, summary(rec.as_ref()));
        if !ok {
            code = 1;
        }
        if let Some(r) = rec {
            records.push((name, r));
        }
    }
    if let Some(path) = &a.json {
        if let Err(e) = std::fs::write(path, record_file(a, records)) {
            eprintln!("eel-benchmark: {}: {e}", path.display());
            code = 1;
        }
    }
    code
}

fn summary(rec: Option<&Json>) -> String {
    use std::fmt::Write;
    let Some(rec) = rec else {
        return "FAILED (no result)".into();
    };
    let num = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let mut s = format!(
        "{} ops={}/{}",
        if rec.get("correct") == Some(&Json::Bool(true)) {
            "ok"
        } else {
            "FAILED"
        },
        num(rec.get("attempted")) - num(rec.get("failed")),
        num(rec.get("attempted")),
    );
    for m in &spec().end_to_end {
        let v = num(rec
            .get("metrics")
            .and_then(|x| x.get(&m.name))
            .and_then(|x| x.get("value")));
        let _ = write!(s, " {}={v:.4}", m.name);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn sample_run() -> traced::TracedRun {
        traced::TracedRun {
            trace: Default::default(),
            pass: Default::default(),
            pass_wall_s: 1.0,
            counters: Default::default(),
            blocks_instrumented: 0,
            ops: 0,
            failures: BTreeMap::new(),
            overflowed: false,
        }
    }

    fn sample_raw() -> Raw {
        Raw {
            setup_s: vec![0.1, 0.2],
            wall_s: vec![1.0, 1.1],
            cpu_s: vec![2.0, 2.1],
            probe_s: vec![PROBE_REF_S, 2.0 * PROBE_REF_S, 3.0 * PROBE_REF_S],
            setup_probe_s: vec![3.0 * PROBE_REF_S, 2.0 * PROBE_REF_S],
            peak_rss_mb: 50.0,
            attempted: 10,
            failed: 1,
            hidden_pct: 20.0,
        }
    }

    #[test]
    fn times_are_scaled_by_the_probe_of_their_pass() {
        let e2e = end_to_end(&sample_raw());
        // The faster probe around the second pass took twice the
        // reference: the host ran at half speed, so 1.1 s reads as
        // 0.55 s at the reference speed.
        assert_eq!(e2e["wall_s"].1, [1.0, 0.55]);
        assert_eq!(e2e["wall_s"].0, 0.775);
        assert_eq!(e2e["cpu_s"].1, [2.0, 1.05]);
        // Set-up takes the probes around set-up: half speed here.
        assert!((e2e["setup_s"].0 - 0.075).abs() < 1e-12);
        assert_eq!(e2e["ok_ratio"].0, 0.9);
        assert_eq!(e2e["peak_rss_mb"].0, 50.0);
    }

    #[test]
    fn a_failed_redrive_lowers_ok_ratio() {
        use eel_workloads::{spec95, BuildOptions};
        let opts = BuildOptions {
            iterations: Some(20),
            optimize: None,
        };
        let bench = &spec95()[0];
        let setup = Setup::Edit(workloads::EditSetup {
            inputs: vec![(bench.name, bench.build(&opts))],
            scheds: vec![eel_core::Scheduler::new(
                eel_pipeline::MachineModel::ultrasparc(),
            )],
        });
        let good = setup.run_pass().ops;
        let redrive = |reference: &[Option<u64>]| {
            let tracer = eel_telemetry::Tracer::new(1 << 12);
            traced::redrive(&tracer, &setup, &[], reference, &[])
        };
        let mut raw = Raw {
            attempted: 3,
            failed: 0,
            ..sample_raw()
        };
        let run = redrive(&good);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        count_redrive(&mut raw, &run);
        assert_eq!(end_to_end(&raw)["ok_ratio"].0, 1.0);
        // An edit whose output no longer matches the timed passes.
        let wrong: Vec<Option<u64>> = good.iter().map(|d| d.map(|d| d ^ 1)).collect();
        let run = redrive(&wrong);
        assert_eq!((run.ops, run.failures.len()), (1, 1));
        count_redrive(&mut raw, &run);
        assert_eq!((raw.attempted, raw.failed), (5, 1));
        assert_eq!(end_to_end(&raw)["ok_ratio"].0, 0.8);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let declared = |list: &[spec::MetricSpec]| -> BTreeSet<String> {
            list.iter().map(|m| m.name.clone()).collect()
        };
        let emitted = |names: Vec<&str>| -> BTreeSet<String> {
            names.into_iter().map(str::to_string).collect()
        };
        let e2e = end_to_end(&sample_raw());
        assert_eq!(
            declared(&spec().end_to_end),
            emitted(e2e.keys().copied().collect())
        );
        let layers = layer_metrics(&sample_run(), PassTotals::default());
        assert_eq!(
            declared(&spec().per_layer),
            emitted(layers.keys().copied().collect())
        );
        let workloads: BTreeSet<&str> = spec().workloads.iter().map(String::as_str).collect();
        assert_eq!(
            workloads,
            BTreeSet::from(["paper", "corpus", "simlong", "dcache", "edit"])
        );
    }

    #[test]
    fn every_name_is_valid() {
        let s = spec();
        let names = s
            .workloads
            .iter()
            .chain(s.end_to_end.iter().map(|m| &m.name))
            .chain(s.per_layer.iter().map(|m| &m.name));
        for n in names {
            assert!(valid_name(n), "invalid name `{n}`");
        }
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s");
        let setup = setup.expect("setup_s is declared");
        assert!(
            s.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn result_line_has_the_required_shape() {
        let out = Outcome {
            passes: 2,
            correct: true,
            end_to_end: end_to_end(&sample_raw()),
            layers: layer_metrics(&sample_run(), PassTotals::default()),
            raw: sample_raw(),
        };
        for trace in [false, true] {
            let line = Json::parse(&result_line(&out, trace)).expect("valid JSON");
            let keys: Vec<&str> = line
                .members()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").unwrap().members().unwrap();
            let want = if trace {
                &spec().per_layer
            } else {
                &spec().end_to_end
            };
            assert_eq!(metrics.len(), want.len());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = args(&[
            "--workload",
            "edit",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("edit", 3, true));
        let run_seconds = |s: &str| args(&["--workload", "edit", "--seconds", s]);
        assert!(run_seconds("5").is_err(), "pass counts are sized for 10 s");
        assert!(run_seconds("ten").is_err());
        assert_eq!(args(&["--smoke"]).unwrap().workload, "all");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "edit", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "edit", "--bogus"]).is_err());
        assert!(args(&[]).is_err());
    }
}
