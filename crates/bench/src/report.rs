//! Workspace paths and the regression gate.
//!
//! Nothing is written under `results/` except the published
//! `NAME.txt` files; runs write telemetry run reports and traces only
//! where `eel experiment --report FILE` or `--trace FILE` asks.
//! [`gate`] compares a fresh report against a checked-in baseline:
//! deterministic counters must match exactly, wall-time metrics may
//! regress at most `tolerance_pct`. `eel perf-gate` turns a failed
//! outcome into a nonzero exit.

use std::path::PathBuf;

use eel_telemetry::{HistogramSnapshot, RunReport};

/// The workspace root (two levels up from this crate's manifest).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
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
/// under `TIME_GATE_FLOOR_NS` (25 ms) on both sides are exempt. A metric
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
}
