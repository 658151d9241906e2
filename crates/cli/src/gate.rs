//! `eel perf-gate`: the performance-regression gate. Runs the golden
//! workload pair hermetically, distills a run report, and compares it
//! against the checked-in baseline at
//! `crates/bench/baselines/perf_gate.json`.
//!
//! Deterministic work counters (simulator invocations, retired
//! instructions, simulated cycles, stall queries, …) must match the
//! baseline **exactly** — any drift means the measurement pipeline
//! changed and the baseline must be refreshed deliberately with
//! `--update-baseline`. Wall-time metrics may regress up to
//! `--tolerance` percent (default 15; CI passes a generous value
//! because runner speed varies, so the counters are the hard gate).
//!
//! Exits 0 on pass, 1 on regression, 2 on a usage or baseline-file
//! problem (missing, wrong version, corrupt) — always with a
//! diagnostic, never a panic.

use std::path::Path;

use eel_bench::engine::Engine;
use eel_bench::experiment::ExperimentConfig;
use eel_bench::report::{gate, workspace_root};
use eel_pipeline::MachineModel;
use eel_telemetry::{ReportError, RunReport};

use crate::{err, golden_pair, Args, CliError};

fn load_baseline(path: &Path) -> Result<RunReport, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        err(format!(
            "cannot read baseline {}: {e}\n(create one with --update-baseline)",
            path.display()
        ))
    })?;
    RunReport::from_json(&text).map_err(|e| {
        err(match e {
            ReportError::Version(v) => format!(
                "baseline {} is report version {v}, which this build cannot read; \
                 regenerate it with --update-baseline",
                path.display()
            ),
            other => format!("baseline {} is not usable: {other}", path.display()),
        })
    })
}

fn write_creating(path: &Path, body: &str) -> Result<(), CliError> {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, body).map_err(|e| err(format!("cannot write {}: {e}", path.display())))
}

pub(crate) fn perf_gate(mut args: Args) -> Result<String, CliError> {
    let usage = |e: CliError| e.with_code(2);
    let update = args.flag("--update-baseline");
    let baseline_path = args.value("--baseline").map_err(usage)?.map_or_else(
        || workspace_root().join("crates/bench/baselines/perf_gate.json"),
        Into::into,
    );
    let report_path = args.value("--report").map_err(usage)?;
    let tolerance = args.parsed("--tolerance").map_err(usage)?.unwrap_or(15.0);
    let jobs = args.jobs().map_err(usage)?;
    args.finish().map_err(usage)?;

    // Validate the baseline before spending minutes measuring.
    let baseline = if update {
        None
    } else {
        Some(load_baseline(&baseline_path).map_err(usage)?)
    };

    // `Engine::new` — no disk cache, exactly like the golden-table
    // tests, so a stale artifact cache can never mask a regression.
    let model = MachineModel::ultrasparc();
    let engine = Engine::new(&model, &ExperimentConfig::default());
    let rows = engine.run_table(&golden_pair(), false, jobs);
    eprintln!("measured {} golden rows ({})", rows.len(), model.name());
    let fresh = engine.run_report("perf_gate", &[("jobs", jobs.to_string())]);
    if let Some(p) = &report_path {
        write_creating(Path::new(p), &fresh.to_json()).map_err(usage)?;
        eprintln!("fresh report: {p}");
    }

    let Some(baseline) = baseline else {
        write_creating(&baseline_path, &fresh.to_json()).map_err(usage)?;
        return Ok(format!("baseline updated: {}\n", baseline_path.display()));
    };
    let outcome = gate(&baseline, &fresh, tolerance);
    if outcome.passed() {
        Ok(outcome.render())
    } else {
        Err(err(format!(
            "perf gate failed\n{}",
            outcome.render().trim_end()
        )))
    }
}
