//! Reading back what runs recorded: flight-recorder traces, shard row
//! files, and telemetry run reports.

use std::collections::BTreeSet;
use std::fs;

use eel_bench::experiment::{format_csv, format_table};
use eel_bench::shard::{merge_rows, ShardRows};
use eel_telemetry::json::Json;
use eel_telemetry::{RunReport, TraceFile};

use crate::{err, load_report, machine_by_name, write, Args, CliError};

/// Where a merged shard report disagrees with a reference run:
/// counters must match exactly, histograms must have seen the same
/// number of events per site (their *timings* legitimately differ
/// between runs, so bucket contents are not compared).
fn counter_mismatches(reference: &RunReport, merged: &RunReport) -> Vec<String> {
    let mut out = Vec::new();
    let keys: BTreeSet<&String> = reference
        .counters
        .keys()
        .chain(merged.counters.keys())
        .collect();
    for key in keys {
        let a = reference.counters.get(key).copied().unwrap_or(0);
        let b = merged.counters.get(key).copied().unwrap_or(0);
        if a != b {
            out.push(format!("  counter {key}: reference {a}, merged {b}"));
        }
    }
    let sites: BTreeSet<&String> = reference
        .histograms
        .keys()
        .chain(merged.histograms.keys())
        .collect();
    for site in sites {
        let a = reference.histograms.get(site).map_or(0, |h| h.count);
        let b = merged.histograms.get(site).map_or(0, |h| h.count);
        if a != b {
            out.push(format!(
                "  histogram {site}: reference saw {a} events, merged {b}"
            ));
        }
    }
    out
}

fn load_trace(path: &str) -> Result<TraceFile, CliError> {
    let text = fs::read_to_string(path).map_err(|e| err(format!("{path}: {e}")))?;
    TraceFile::parse(&text).map_err(|e| err(format!("{path}: {e}")))
}

pub(crate) fn trace(mut args: Args) -> Result<String, CliError> {
    let path = args.positional().ok_or_else(|| err("trace needs a file"))?;
    let chrome = args.value("--chrome")?;
    let check = args.value("--check")?;
    let limit = args.parsed("--limit")?.unwrap_or(40);
    args.finish()?;
    let trace = load_trace(&path)?;
    let mut out = trace.render(limit);
    if let Some(cats) = &check {
        for cat in cats.split(',').filter(|c| !c.is_empty()) {
            let n = trace.events.iter().filter(|e| e.cat == cat).count();
            if n == 0 {
                return Err(err(format!("category `{cat}` recorded no events")));
            }
            out.push_str(&format!("check {cat}: {n} events\n"));
        }
        // The Chrome export must itself be well-formed JSON with a
        // non-empty event list (the CI smoke gate).
        let exported = trace.to_chrome();
        let parsed = Json::parse(&exported)
            .map_err(|e| err(format!("chrome export is not valid JSON: {e}")))?;
        let n = match parsed.get("traceEvents") {
            Some(Json::Arr(events)) => events.len(),
            _ => 0,
        };
        if n == 0 {
            return Err(err("chrome export has no traceEvents"));
        }
        out.push_str(&format!("check chrome: {n} trace events\n"));
    }
    if let Some(p) = &chrome {
        write(p, &trace.to_chrome())?;
        out.push_str(&format!(
            "wrote {p}: load it in chrome://tracing or https://ui.perfetto.dev\n"
        ));
    }
    Ok(out)
}

pub(crate) fn merge(mut args: Args) -> Result<String, CliError> {
    let rows_mode = args.flag("--rows");
    let trace_mode = args.flag("--trace");
    let csv = args.flag("--csv");
    let out_path = args.value("--out")?;
    let check = args.value("--check-counters")?;
    let mut paths = Vec::new();
    while let Some(p) = args.positional() {
        paths.push(p);
    }
    args.finish()?;
    if paths.is_empty() {
        return Err(err("merge needs at least one shard file"));
    }
    if trace_mode {
        let files = paths
            .iter()
            .map(|p| load_trace(p))
            .collect::<Result<Vec<_>, _>>()?;
        let merged = TraceFile::merge(&files);
        let mut out = String::new();
        if let Some(p) = &out_path {
            write(p, &merged.to_jsonl())?;
            out.push_str(&format!("wrote merged trace {p}\n"));
        }
        out.push_str(&merged.render(40));
        return Ok(out);
    }
    if rows_mode {
        let parts = paths
            .iter()
            .map(|p| {
                let text = fs::read_to_string(p).map_err(|e| err(format!("{p}: {e}")))?;
                ShardRows::parse(&text).map_err(|e| err(format!("{p}: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (meta, rows) = merge_rows(&parts).map_err(|e| err(e.to_string()))?;
        let model = machine_by_name(&meta.machine)?;
        return Ok(if csv {
            format_csv(&rows)
        } else {
            format_table(&meta.title, &model, &rows, meta.show_resched)
        });
    }
    let reports = paths
        .iter()
        .map(|p| load_report(p))
        .collect::<Result<Vec<_>, _>>()?;
    let mut merged = reports[0].clone();
    for r in &reports[1..] {
        merged.merge(r);
    }
    let mut out = String::new();
    if let Some(ref_path) = &check {
        let reference = load_report(ref_path)?;
        let mismatches = counter_mismatches(&reference, &merged);
        if !mismatches.is_empty() {
            return Err(err(format!(
                "merged report disagrees with {ref_path}:\n{}",
                mismatches.join("\n")
            )));
        }
        out.push_str(&format!(
            "counters and histogram event counts match {ref_path}\n"
        ));
    }
    if let Some(p) = &out_path {
        write(p, &merged.to_json())?;
        out.push_str(&format!("wrote merged report {p}\n"));
    }
    out.push_str(&merged.render());
    Ok(out)
}

pub(crate) fn report(mut args: Args) -> Result<String, CliError> {
    let json = args.flag("--json");
    if args.flag("--diff") {
        let old_path = args
            .positional()
            .ok_or_else(|| err("report --diff needs OLD NEW"))?;
        let new_path = args
            .positional()
            .ok_or_else(|| err("report --diff needs OLD NEW"))?;
        args.finish()?;
        let old = load_report(&old_path)?;
        let new = load_report(&new_path)?;
        let diff = old.diff(&new);
        if json {
            return Ok(diff.to_json());
        }
        let mut out = diff.render(false);
        if diff.all_zero() {
            out.push_str("reports are identical\n");
        }
        Ok(out)
    } else {
        let path = args
            .positional()
            .ok_or_else(|| err("report needs a file"))?;
        args.finish()?;
        let report = load_report(&path)?;
        if json {
            Ok(report.to_json())
        } else {
            Ok(report.render())
        }
    }
}
