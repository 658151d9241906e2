//! Results-directory housekeeping and the regression gate.
//!
//! * **Traces** — flight-recorder traces and crash dumps, written
//!   content-addressed under `results/` (`TRACE_<hash>.jsonl`,
//!   `FLIGHT_<hash>.jsonl`). Runs write telemetry run reports only
//!   where `eel experiment --report FILE` asks; `eel report --gc`
//!   sweeps the legacy `results/RUN_<hash>.json` files.
//! * **Gate outcomes** — [`gate`] compares a fresh report against a
//!   checked-in baseline: deterministic counters must match exactly,
//!   wall-time metrics may regress at most `tolerance_pct`.
//!   `eel perf-gate` turns a failed outcome into a nonzero exit.

use std::io;
use std::path::{Path, PathBuf};

use eel_telemetry::{fnv1a, HistogramSnapshot, RunReport, TraceFile};

/// The workspace root (two levels up from this crate's manifest).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
}

/// Writes a flight-recorder trace to `TRACE_<hash>.jsonl` under
/// `dir`, where the hash is the FNV-1a of the serialized body, so
/// identical traces collapse to one file. Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_trace_report_in(trace: &TraceFile, dir: &Path) -> io::Result<PathBuf> {
    let body = trace.to_jsonl();
    let path = dir.join(format!("TRACE_{:016x}.jsonl", fnv1a(body.as_bytes())));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Writes a panic/error flight dump (the tracer's last events at the
/// moment of failure) to `FLIGHT_<hash>.jsonl` under `dir`. Same
/// content-addressing as [`write_trace_report_in`], different prefix
/// so crash evidence is never GC'd or confused with healthy traces.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_flight_dump_in(dir: &Path, trace: &TraceFile) -> io::Result<PathBuf> {
    let body = trace.to_jsonl();
    let path = dir.join(format!("FLIGHT_{:016x}.jsonl", fnv1a(body.as_bytes())));
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Scans the repo for `RUN_<16 hex>` references so the report GC never
/// deletes a run some document or baseline still points at. Looks in
/// every `*.md` at `root` and every file under `root/baselines/`
/// (non-recursive — both flat by construction).
pub fn referenced_run_hashes(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut scan = |text: &str| {
        let bytes = text.as_bytes();
        let mut i = 0;
        while let Some(pos) = text[i..].find("RUN_") {
            let start = i + pos + 4;
            let end = start
                + bytes[start.min(bytes.len())..]
                    .iter()
                    .take(16)
                    .take_while(|b| b.is_ascii_hexdigit())
                    .count();
            if end - start == 16 {
                out.push(text[start..end].to_ascii_lowercase());
            }
            i = start;
        }
    };
    let mut files: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root) {
        for e in entries.flatten() {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "md") {
                files.push(p);
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir(root.join("baselines")) {
        files.extend(entries.flatten().map(|e| e.path()));
    }
    for p in files {
        if let Ok(text) = std::fs::read_to_string(&p) {
            scan(&text);
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Garbage-collects `RUN_*.json` files under `dir`: keeps every run
/// whose hash appears in `referenced`, plus the newest `keep` by
/// modification time, and deletes the rest. Returns how many were
/// kept and the paths deleted. Only `RUN_` files are touched —
/// traces and flight dumps survive any sweep.
///
/// # Errors
///
/// Propagates filesystem errors from listing or deleting.
pub fn gc_run_reports(
    dir: &Path,
    keep: usize,
    referenced: &[String],
) -> io::Result<(usize, Vec<PathBuf>)> {
    let mut runs: Vec<(std::time::SystemTime, String, PathBuf)> = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, Vec::new())),
        Err(e) => return Err(e),
    };
    for e in entries.flatten() {
        let path = e.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(hash) = name
            .strip_prefix("RUN_")
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        if hash.len() != 16 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
            continue;
        }
        let mtime = e
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::UNIX_EPOCH);
        runs.push((mtime, hash.to_ascii_lowercase(), path));
    }
    // Newest first; ties broken by name so the sweep is deterministic.
    runs.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut kept = 0;
    let mut deleted = Vec::new();
    let mut fresh_kept = 0;
    for (_, hash, path) in runs {
        if referenced.iter().any(|r| r == &hash) {
            kept += 1;
        } else if fresh_kept < keep {
            fresh_kept += 1;
            kept += 1;
        } else {
            std::fs::remove_file(&path)?;
            deleted.push(path);
        }
    }
    Ok((kept, deleted))
}

/// Deterministic counters the regression gate compares exactly: these
/// count *work*, not time, so any drift means the measurement pipeline
/// itself changed (different cell structure, different schedules,
/// different simulated work) and must be acknowledged by refreshing
/// the baseline.
pub const EXACT_GATE_COUNTERS: &[&str] = &[
    "engine.sims",
    "engine.cells.computed",
    "sched.blocks",
    "sched.queries",
    "sim.runs",
    "sim.instructions",
    "sim.cycles",
    "sim.mem_ops",
    "sim.taken_branches",
    // Block-replay cache behavior: builds and memo hit/miss totals are
    // pure functions of the workload set (the memo is per-run and the
    // context chain is deterministic), so any drift means block
    // formation or context keying changed.
    "sim.block_builds",
    "sim.block_ctx_hits",
    "sim.block_ctx_misses",
    "sim.block_slot_fused",
];

/// One gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Metric name.
    pub name: String,
    /// Exact checks fail on any difference; tolerance checks fail only
    /// on regressions beyond the configured percentage.
    pub exact: bool,
    /// Baseline value.
    pub old: f64,
    /// Fresh value.
    pub new: f64,
    /// Whether this check passed.
    pub pass: bool,
}

impl GateCheck {
    /// Relative change in percent (positive = grew/regressed).
    pub fn delta_pct(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else {
                100.0
            }
        } else {
            (self.new - self.old) * 100.0 / self.old
        }
    }
}

/// The verdict of [`gate`].
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Every comparison performed.
    pub checks: Vec<GateCheck>,
    /// The tolerance applied to time metrics, in percent.
    pub tolerance_pct: f64,
}

impl GateOutcome {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// A human-readable verdict table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:<34} {:>14} {:>14} {:>9}  verdict",
            "kind", "metric", "baseline", "fresh", "delta"
        );
        // Counters are exact integers; time metrics (means included)
        // carry no information past a tenth of a nanosecond.
        let fmt = |exact: bool, v: f64| {
            if exact || v.fract() == 0.0 {
                format!("{v}")
            } else {
                format!("{v:.1}")
            }
        };
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{:<6} {:<34} {:>14} {:>14} {:>+8.1}%  {}",
                if c.exact { "exact" } else { "time" },
                c.name,
                fmt(c.exact, c.old),
                fmt(c.exact, c.new),
                c.delta_pct(),
                if c.pass { "ok" } else { "FAIL" },
            );
        }
        let _ = writeln!(
            out,
            "gate: {} ({} checks, time tolerance {}%)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.checks.len(),
            self.tolerance_pct,
        );
        out
    }
}

/// Wall-time floor below which a stage is reported but not gated:
/// millisecond-scale stages (build, instrument) flap by integer
/// factors between back-to-back runs on a shared box, so a
/// percentage tolerance on them is pure noise. Only applies to
/// `stage.*` rows — the per-event means and `sim.ns_per_kinsn` are
/// averaged over enough work to stay meaningful at any magnitude.
const TIME_GATE_FLOOR_NS: f64 = 25_000_000.0;

/// Compares a fresh run report against the checked-in baseline.
///
/// Counters in [`EXACT_GATE_COUNTERS`] must be byte-equal (they are
/// deterministic functions of the workload set). Per-stage wall times
/// and the mean stall-query and simulator-run latencies may grow by
/// at most `tolerance_pct` percent; shrinking is always fine. Stages
/// under [`TIME_GATE_FLOOR_NS`] on both sides are exempt. A metric
/// present in the baseline but absent fresh fails its check
/// (instrumentation went missing); metrics only the fresh report has
/// are ignored (additive change).
pub fn gate(baseline: &RunReport, fresh: &RunReport, tolerance_pct: f64) -> GateOutcome {
    let mut checks = Vec::new();
    for &name in EXACT_GATE_COUNTERS {
        let old = baseline.counters.get(name).copied();
        if old.is_none() && !fresh.counters.contains_key(name) {
            continue;
        }
        let old = old.unwrap_or(0) as f64;
        let new = fresh.counters.get(name).copied().unwrap_or(0) as f64;
        checks.push(GateCheck {
            name: name.to_string(),
            exact: true,
            old,
            new,
            pass: old == new,
        });
    }

    let mut time_metrics: Vec<(String, f64, Option<f64>)> = Vec::new();
    for (stage, &old) in &baseline.stages {
        time_metrics.push((
            format!("stage.{stage}_ns"),
            old as f64,
            fresh.stages.get(stage).map(|&n| n as f64),
        ));
    }
    // Means, not quantiles: with log2 buckets a quantile is a bucket
    // midpoint, which jumps ~2x when the rank crosses a bucket
    // boundary between otherwise-identical runs. sum/count is
    // continuous and stable enough to tolerance-gate.
    for site in ["sched.stall_query_ns", "sim.run_ns"] {
        if let Some(old) = baseline.histograms.get(site) {
            time_metrics.push((
                format!("{site}.mean"),
                old.mean(),
                fresh.histograms.get(site).map(HistogramSnapshot::mean),
            ));
        }
    }
    // Simulator throughput, normalized per thousand retired
    // instructions — the headline number the block-replay engine is
    // accountable for.
    let kinsn = |r: &RunReport| -> Option<f64> {
        let h = r.histograms.get("sim.run_ns")?;
        let insns = r.counters.get("sim.instructions").copied()?;
        (insns > 0).then(|| h.sum as f64 * 1000.0 / insns as f64)
    };
    if let Some(old) = kinsn(baseline) {
        time_metrics.push(("sim.ns_per_kinsn".to_string(), old, kinsn(fresh)));
    }
    for (name, old, new) in time_metrics {
        let (new, pass) = match new {
            None => (0.0, false),
            Some(new) => {
                let below_floor = name.starts_with("stage.")
                    && old < TIME_GATE_FLOOR_NS
                    && new < TIME_GATE_FLOOR_NS;
                (
                    new,
                    below_floor || new <= old * (1.0 + tolerance_pct / 100.0),
                )
            }
        };
        checks.push(GateCheck {
            name,
            exact: false,
            old,
            new,
            pass,
        });
    }
    GateOutcome {
        checks,
        tolerance_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(counters: &[(&str, u64)], stages: &[(&str, u64)]) -> RunReport {
        let mut r = RunReport::default();
        for (k, v) in counters {
            r.counters.insert((*k).to_string(), *v);
        }
        for (k, v) in stages {
            r.stages.insert((*k).to_string(), *v);
        }
        r
    }

    #[test]
    fn gate_exact_counters_fail_on_any_drift() {
        let base = report_with(&[("engine.sims", 10), ("sim.cycles", 5000)], &[]);
        let same = report_with(&[("engine.sims", 10), ("sim.cycles", 5000)], &[]);
        assert!(gate(&base, &same, 15.0).passed());
        // One more sim: a determinism break, however small.
        let drifted = report_with(&[("engine.sims", 11), ("sim.cycles", 5000)], &[]);
        let out = gate(&base, &drifted, 15.0);
        assert!(!out.passed());
        let failed: Vec<&str> = out
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(failed, ["engine.sims"]);
    }

    #[test]
    fn gate_time_metrics_use_tolerance() {
        let base = report_with(&[], &[("runs", 1_000_000_000)]);
        let ok = report_with(&[], &[("runs", 1_100_000_000)]); // +10%
        assert!(gate(&base, &ok, 15.0).passed());
        let slow = report_with(&[], &[("runs", 1_300_000_000)]); // +30%
        assert!(!gate(&base, &slow, 15.0).passed());
        assert!(gate(&base, &slow, 50.0).passed(), "tolerance widens");
        let faster = report_with(&[], &[("runs", 200_000_000)]);
        assert!(gate(&base, &faster, 15.0).passed(), "improvement passes");
    }

    #[test]
    fn gate_ignores_stages_below_the_noise_floor() {
        // Millisecond-scale stages flap by integer factors run to run;
        // they are reported but never gated.
        let base = report_with(&[], &[("instrument", 500_000)]);
        let noisy = report_with(&[], &[("instrument", 4_000_000)]); // 8x, still tiny
        assert!(gate(&base, &noisy, 15.0).passed());
        // Crossing the floor re-arms the check: a stage that *grows*
        // past it by more than the tolerance is a real regression.
        let grown = report_with(&[], &[("instrument", 30_000_000)]);
        assert!(!gate(&base, &grown, 15.0).passed());
        // Two above-floor sides gate normally.
        let big = report_with(&[], &[("instrument", 100_000_000)]);
        let big_slow = report_with(&[], &[("instrument", 130_000_000)]);
        assert!(!gate(&big, &big_slow, 15.0).passed());
    }

    #[test]
    fn gate_fails_when_instrumentation_disappears() {
        let base = report_with(&[("sched.queries", 42)], &[("schedule", 5)]);
        let empty = RunReport::default();
        let out = gate(&base, &empty, 15.0);
        assert!(!out.passed());
        assert!(out
            .checks
            .iter()
            .any(|c| c.name == "sched.queries" && !c.pass));
        assert!(out
            .checks
            .iter()
            .any(|c| c.name == "stage.schedule_ns" && !c.pass));
    }

    #[test]
    fn trace_and_flight_writers_are_content_addressed() {
        let dir = std::env::temp_dir().join(format!("eel-tracewrite-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = eel_telemetry::Tracer::new(64);
        tracer.instant("engine", "sim_start", 3, 0);
        let trace = tracer.trace_file(&[("label", "t".to_string())]);
        let a = write_trace_report_in(&trace, &dir).unwrap();
        let b = write_trace_report_in(&trace, &dir).unwrap();
        assert_eq!(a, b, "same content, same file");
        let name = a.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("TRACE_") && name.ends_with(".jsonl"));
        let back = TraceFile::parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
        assert_eq!(back.events.len(), 1);
        let f = write_flight_dump_in(&dir, &trace).unwrap();
        assert!(f
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("FLIGHT_"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn referenced_hashes_found_in_docs_and_baselines() {
        let root = std::env::temp_dir().join(format!("eel-refscan-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("baselines")).unwrap();
        std::fs::write(
            root.join("EXPERIMENTS.md"),
            "see results/RUN_00112233aabbccdd.json and RUN_tooshort.json\n",
        )
        .unwrap();
        std::fs::write(
            root.join("baselines").join("table1.json"),
            "{\"source\": \"RUN_FFEEDDCCBBAA9988.json\"}",
        )
        .unwrap();
        std::fs::write(root.join("notes.txt"), "RUN_9999999999999999 ignored").unwrap();
        let refs = referenced_run_hashes(&root);
        assert_eq!(refs, ["00112233aabbccdd", "ffeeddccbbaa9988"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_keeps_referenced_and_newest_runs() {
        let dir = std::env::temp_dir().join(format!("eel-gc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..5u64 {
            std::fs::write(dir.join(format!("RUN_{i:016x}.json")), "{}").unwrap();
        }
        std::fs::write(dir.join("TRACE_0000000000000000.jsonl"), "x").unwrap();
        std::fs::write(dir.join("notes.json"), "{}").unwrap();
        let referenced = vec!["0000000000000004".to_string()];
        let (kept, deleted) = gc_run_reports(&dir, 2, &referenced).unwrap();
        assert_eq!(kept, 3, "2 newest + 1 referenced");
        assert_eq!(deleted.len(), 2);
        assert!(
            dir.join("RUN_0000000000000004.json").exists(),
            "referenced survives"
        );
        assert!(dir.join("TRACE_0000000000000000.jsonl").exists());
        assert!(dir.join("notes.json").exists());
        // Idempotent: a second sweep deletes nothing.
        let (kept2, deleted2) = gc_run_reports(&dir, 2, &referenced).unwrap();
        assert_eq!((kept2, deleted2.len()), (3, 0));
        // Missing directory is a clean no-op.
        let (k, d) = gc_run_reports(&dir.join("nope"), 2, &referenced).unwrap();
        assert_eq!((k, d.len()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
