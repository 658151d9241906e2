//! Reading back what runs recorded: flight-recorder traces and
//! telemetry run reports.

use std::fs;

use eel_telemetry::json::Json;
use eel_telemetry::TraceFile;

use crate::{err, load_report, write, Args, CliError};

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
