//! The paper's table protocol: `eel experiment`, and the one table
//! driver it shares with `eel results table1|2|3`.

use std::sync::Arc;

use eel_bench::engine::Engine;
use eel_bench::experiment::{format_csv, format_table, ExperimentConfig};
use eel_bench::report::{results_dir, write_trace_report_in};
use eel_core::{Priority, SchedOptions};
use eel_pipeline::MachineModel;
use eel_telemetry::Tracer;
use eel_workloads::{load_corpus, spec95, Benchmark};

use crate::{err, machine_by_name, policy_by_name, write, Args, CliError};

/// The output, fan-out, and corpus flags `eel experiment` shares with
/// `eel results table1|2|3`.
pub(crate) struct TableFlags {
    pub(crate) csv: bool,
    pub(crate) jobs: usize,
    pub(crate) corpus: Option<String>,
}

impl TableFlags {
    pub(crate) fn parse(args: &mut Args) -> Result<TableFlags, CliError> {
        Ok(TableFlags {
            csv: args.flag("--csv"),
            jobs: args.jobs()?,
            corpus: args.value("--corpus")?,
        })
    }

    /// The `--corpus` benchmark set, SPEC95 by default.
    pub(crate) fn corpus(&self) -> Result<Vec<Benchmark>, CliError> {
        match &self.corpus {
            Some(spec) => load_corpus(spec).map_err(|e| err(e.to_string())),
            None => Ok(spec95()),
        }
    }
}

/// One table: its title, the machine it measures, whether the
/// originals are first rescheduled (Table 2's protocol), and how the
/// engine runs.
pub(crate) struct Table {
    pub(crate) title: String,
    pub(crate) model: MachineModel,
    pub(crate) reschedule: bool,
    pub(crate) cfg: ExperimentConfig,
    pub(crate) cache: bool,
    pub(crate) tracer: Option<Arc<Tracer>>,
}

impl Table {
    /// Measures `benchmarks` and returns the rendering (CSV or the
    /// paper's layout) with the engine that measured it.
    pub(crate) fn run(&self, flags: &TableFlags, benchmarks: &[Benchmark]) -> (String, Engine) {
        let mut engine = Engine::new(&self.model, &self.cfg);
        if self.cache {
            engine = engine.with_default_disk_cache();
        }
        if let Some(t) = &self.tracer {
            engine = engine.with_tracer(Arc::clone(t));
        }
        let rows = engine.run_table(benchmarks, self.reschedule, flags.jobs);
        let text = if flags.csv {
            format_csv(&rows)
        } else {
            format_table(&self.title, &self.model, &rows, self.reschedule)
        };
        (text, engine)
    }
}

pub(crate) fn experiment(mut args: Args) -> Result<String, CliError> {
    let machine = args
        .value("--machine")?
        .unwrap_or_else(|| "ultrasparc".into());
    let model = machine_by_name(&machine)?;
    let reschedule = args.flag("--reschedule");
    let no_cache = args.flag("--no-cache");
    let iterations = args.parsed("--iterations")?;
    let filter = args.value("--benchmark")?;
    let report_path = args.value("--report")?;
    let priority = args
        .value("--policy")?
        .map(|p| policy_by_name(&p))
        .transpose()?
        .unwrap_or_default();
    let exact_budget = args.parsed("--exact-budget")?;
    let flags = TableFlags::parse(&mut args)?;
    let trace_flag = args.flag("--trace");
    let trace_out = args.value("--trace-out")?;
    args.finish()?;
    if exact_budget.is_some() && priority != Priority::Exact {
        return Err(err("--exact-budget needs --policy exact"));
    }
    let benchmarks: Vec<_> = flags
        .corpus()?
        .into_iter()
        .filter(|b| filter.as_deref().is_none_or(|f| b.name == f))
        .collect();
    if benchmarks.is_empty() {
        return Err(err(format!(
            "unknown benchmark `{}`",
            filter.as_deref().unwrap_or("")
        )));
    }
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
    let tracer = (trace_flag || trace_out.is_some()).then(|| Arc::new(Tracer::new(1 << 16)));
    let table = Table {
        title: format!(
            "Slow profiling instrumentation on the {}{protocol}{policy_note}",
            model.name()
        ),
        model,
        reschedule,
        cfg: ExperimentConfig {
            iterations,
            sched: SchedOptions {
                priority,
                exact_budget: exact_budget.unwrap_or(eel_core::DEFAULT_EXACT_BUDGET),
                ..SchedOptions::default()
            },
            ..ExperimentConfig::default()
        },
        cache: !no_cache,
        tracer: tracer.clone(),
    };
    let (mut out, engine) = table.run(&flags, &benchmarks);
    out.push_str(&engine.stats().report());
    out.push('\n');
    if let Some(p) = &report_path {
        let meta = [("jobs", flags.jobs.to_string())];
        write(p, &engine.run_report("experiment", &meta).to_json())?;
        out.push_str(&format!("wrote run report {p}\n"));
    }
    if let Some(t) = &tracer {
        let meta = [
            ("label", "experiment".to_string()),
            ("machine", table.model.name().to_string()),
        ];
        let file = t.trace_file(&meta);
        let written = match &trace_out {
            Some(p) => {
                write(p, &file.to_jsonl())?;
                std::path::PathBuf::from(p)
            }
            None => write_trace_report_in(&file, &results_dir())
                .map_err(|e| err(format!("trace write failed: {e}")))?,
        };
        out.push_str(&format!(
            "wrote trace {} ({} events)\n",
            written.display(),
            file.events.len()
        ));
    }
    Ok(out)
}
