//! `eel experiment`: the paper's table protocol with every knob
//! exposed. The published tables (`eel results table1|2|3`) run the
//! same engine in their one configuration.

use std::num::NonZeroU32;
use std::sync::Arc;

use eel_bench::engine::Engine;
use eel_bench::experiment::{format_csv, format_table, ExperimentConfig};
use eel_core::{Priority, SchedOptions};
use eel_pipeline::MachineModel;
use eel_telemetry::Tracer;
use eel_workloads::{load_corpus, spec95};

use crate::{err, policy_by_name, write, Args, CliError};

pub(crate) fn experiment(mut args: Args) -> Result<String, CliError> {
    let model = args
        .machine("--machine")?
        .unwrap_or_else(MachineModel::ultrasparc);
    let reschedule = args.flag("--reschedule");
    let no_cache = args.flag("--no-cache");
    let iterations = args.parsed("--iterations")?.map(NonZeroU32::get);
    let filter = args.value("--benchmark")?;
    let report_path = args.value("--report")?;
    let priority = args
        .value("--policy")?
        .map(|p| policy_by_name(&p))
        .transpose()?
        .unwrap_or_default();
    let exact_budget = args.parsed("--exact-budget")?;
    let csv = args.flag("--csv");
    let jobs = args.jobs()?;
    let corpus = args.value("--corpus")?;
    let trace_path = args.value("--trace")?;
    args.finish()?;
    if exact_budget.is_some() && priority != Priority::Exact {
        return Err(err("--exact-budget needs --policy exact"));
    }
    let corpus = match &corpus {
        Some(spec) => {
            let corpus = load_corpus(spec).map_err(|e| err(e.to_string()))?;
            if corpus.is_empty() {
                return Err(err(format!("corpus `{spec}` lists no benchmarks")));
            }
            corpus
        }
        None => spec95(),
    };
    let benchmarks: Vec<_> = match &filter {
        None => corpus,
        Some(name) => {
            let matched: Vec<_> = corpus.into_iter().filter(|b| b.name == name).collect();
            if matched.is_empty() {
                return Err(err(format!("unknown benchmark `{name}`")));
            }
            matched
        }
    };
    let cfg = ExperimentConfig {
        iterations,
        sched: SchedOptions {
            priority,
            exact_budget: exact_budget.unwrap_or(eel_core::DEFAULT_EXACT_BUDGET),
            ..SchedOptions::default()
        },
        ..ExperimentConfig::default()
    };
    let mut engine = Engine::new(&model, &cfg);
    if !no_cache {
        engine = engine.with_default_disk_cache();
    }
    let tracer = trace_path.is_some().then(|| Arc::new(Tracer::new(1 << 16)));
    if let Some(t) = &tracer {
        engine = engine.with_tracer(Arc::clone(t));
    }
    let rows = engine.run_table(&benchmarks, reschedule, jobs);
    let mut out = if csv {
        format_csv(&rows)
    } else {
        let protocol = if reschedule {
            ", originals first rescheduled"
        } else {
            ""
        };
        let policy_note = if priority == Priority::StallsFirst {
            String::new()
        } else {
            format!(", {priority} policy")
        };
        let title = format!(
            "Slow profiling instrumentation on the {}{protocol}{policy_note}",
            model.name()
        );
        format_table(&title, &model, &rows, reschedule)
    };
    out.push_str(&engine.stats().report());
    out.push('\n');
    if let Some(p) = &report_path {
        let meta = [("jobs", jobs.to_string())];
        write(p, &engine.run_report("experiment", &meta).to_json())?;
        out.push_str(&format!("wrote run report {p}\n"));
    }
    if let (Some(t), Some(p)) = (&tracer, &trace_path) {
        let meta = [
            ("label", "experiment".to_string()),
            ("machine", model.name().to_string()),
        ];
        let file = t.trace_file(&meta);
        write(p, &file.to_jsonl())?;
        out.push_str(&format!("wrote trace {p} ({} events)\n", file.events.len()));
    }
    Ok(out)
}
