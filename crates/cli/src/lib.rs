//! The `eel` command-line tool: the whole reproduction pipeline —
//! generate a workload, inspect it, instrument and schedule it,
//! simulate it, read profiles back, and regenerate every published
//! result — from a shell.
//!
//! ```text
//! eel list-benchmarks
//! eel machines
//! eel gen 130.li -o li.eelx [--iterations N] [--optimize MACHINE]
//!                           # compiled as the tables build it
//! eel disasm li.eelx
//! eel cfg li.eelx
//! eel instrument li.eelx -o out.eelx [--mode slow|fast|trace]
//!                [--schedule MACHINE] [--scavenge]
//! eel run li.eelx [--machine MACHINE] [--branch-penalty N]
//! eel profile li.eelx [--machine MACHINE] [--mode slow|fast] [--schedule]
//! eel pipeline li.eelx --machine MACHINE [--block R:B]
//! eel explain li.eelx [--machine MACHINE] [--routine R] [--block B]
//!             [--chrome FILE] [--policy POLICY]
//! eel experiment [--machine MACHINE] [--reschedule] [--jobs N] [--csv]
//!                [--iterations N] [--benchmark NAME] [--no-cache]
//!                [--report FILE] [--policy POLICY]
//!                [--corpus golden|full|FILE]
//!                [--trace | --trace-out FILE]
//! eel results NAME [flags]          # stdout is results/NAME.txt
//! eel perf-gate [--tolerance PCT] [--report FILE] [--update-baseline]
//! eel trace FILE [--chrome OUT] [--check CAT,...] [--limit N]
//! eel report FILE [--json]
//! eel report --diff OLD NEW [--json]
//! ```
//!
//! Commands live in one module per family: `tools` (images and
//! machines), `experiment` (the table protocol), `results` (every
//! published result), `gate` (the perf gate), and `telemetry` (traces
//! and run reports). They are pure functions over their arguments
//! (file I/O and engine stats on stderr aside), so the crate's tests
//! drive them directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::fs;
use std::str::FromStr;

use eel_bench::engine::jobs_from_env;
use eel_core::Priority;
use eel_edit::Executable;
use eel_pipeline::MachineModel;
use eel_telemetry::RunReport;
use eel_workloads::{cfp95, cint95, Benchmark};

mod experiment;
mod gate;
mod results;
mod telemetry;
mod tools;

#[cfg(test)]
mod tests;

/// A user-facing CLI error (bad arguments, bad files, failed runs).
#[derive(Debug)]
pub struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    /// The process exit status for this error: 1, except where a
    /// command documents otherwise (`perf-gate` exits 2 on usage and
    /// baseline problems).
    pub fn exit_code(&self) -> u8 {
        self.code
    }

    fn with_code(self, code: u8) -> CliError {
        CliError { code, ..self }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for CliError {}

impl From<fmt::Error> for CliError {
    fn from(e: fmt::Error) -> CliError {
        err(e.to_string())
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        code: 1,
    }
}

/// The usage text printed for `--help` or argument errors.
pub const USAGE: &str = "\
eel — instruction scheduling and executable editing (MICRO 1996 reproduction)

commands:
  list-benchmarks                      the synthetic SPEC95 suite
  machines                             the shipped SADL machine models
  gen <benchmark> -o FILE              generate a workload image;
      [--iterations N]                 --optimize compiles it as the tables
      [--optimize MACHINE]             do, for MACHINE with loads 2 cycles
                                       slower (run it with --load-bias 2)
  disasm FILE                          disassemble an image
  cfg FILE                             routine/block/edge summary
  instrument FILE -o OUT               add instrumentation
      [--mode slow|fast|trace] [--schedule MACHINE] [--scavenge]
  run FILE [--machine MACHINE]         simulate (cycles, CPI, exit code)
      [--branch-penalty N] [--load-bias N]
  profile FILE [--machine MACHINE]     instrument+run+report block counts
      [--mode slow|fast] [--schedule]
  pipeline FILE --machine MACHINE      per-cycle issue trace of one block
      [--block R:B]
  explain FILE [--machine MACHINE]     per-block stall attribution, before
      [--routine R] [--block B]        and after scheduling; one block (-B)
      [--chrome FILE]                  adds tables, traces, and optionally a
      [--policy POLICY]                chrome://tracing JSON of the schedule;
      [--exact [--exact-budget N]]     --exact also runs the branch-and-bound
                                       oracle and prints each block's
                                       optimality gap (N caps search nodes)
  sadl FILE                            compile and validate a machine
      [--groups]                       description; print its timing tables
  experiment [--machine MACHINE]       run the paper's table protocol over
      [--reschedule] [--jobs N]        the suite (Table 2 protocol with
      [--csv] [--iterations N]         --reschedule), fanned out over N
      [--benchmark NAME] [--no-cache]  workers, with engine stats appended;
      [--report FILE]                  --report also writes the telemetry
      [--policy POLICY]                run report as JSON; --policy picks the
      [--corpus golden|full|FILE]      ready-list rule (stalls-first,
      [--exact-budget N]               chain-first, load-delay, lookahead[:k],
      [--trace | --trace-out FILE]     or the exact branch-and-bound oracle);
                                       --corpus picks the benchmark set (a
                                       built-in name or an eel-corpus-v1
                                       manifest); --trace records a
                                       flight-recorder trace to
                                       results/TRACE_<hash>.jsonl (or the
                                       --trace-out path)
  results NAME                         regenerate results/NAME.txt on stdout
                                       (engine stats on stderr); NAME is one
                                       of table1 table2 table3 summary
                                       ablations gap_report stall_breakdown
                                       figure2 blocksizes cache_effect
                                       dcache_effect fast_vs_slow tracing
                                       scavenging model_accuracy
                                       scalar_control
      table1|table2|table3             the paper's tables over the shared
        [--csv] [--jobs N]             artifact cache; --corpus as for
        [--corpus golden|full|FILE]    `experiment`
      summary [--jobs N]               the abstract's 13%/33% averages
      ablations [--jobs N]             design-choice ablations and the
        [--iterations N]               policy x machine sweep
        [--sweep-only]
      gap_report [--machine MACHINE]   exact oracle vs the list scheduler
        [--full] [--quick]             (--full: all of SPEC95; --quick:
        [--budget N] [--jobs N]        shrunken workloads)
      stall_breakdown [--jobs N]       per-benchmark stall attribution
        [--quick]
  perf-gate [--tolerance PCT]          run the golden workloads and compare
      [--report FILE] [--jobs N]       against crates/bench/baselines/
      [--baseline FILE]                perf_gate.json: exact work counters,
      [--update-baseline]              wall times within PCT (default 15);
                                       exits 1 on a regression, 2 on a
                                       usage or baseline problem
  trace FILE [--chrome OUT]            render a recorded trace: timeline plus
      [--check CAT,...] [--limit N]    the per-category self-time profile
                                       (--limit caps timeline lines, default
                                       40); --chrome exports chrome://tracing
                                       JSON; --check exits nonzero unless
                                       every listed category recorded events
                                       and the Chrome export is valid JSON
  report FILE [--json]                 render a run report written by
                                       `experiment --report`
  report --diff OLD NEW [--json]       compare two run reports metric by
                                       metric with per-row deltas
";

/// Simple flag/value argument cursor. Every command consumes the flags
/// it knows and then calls [`Args::finish`], so a misspelled flag is an
/// error rather than silently ignored.
struct Args {
    items: Vec<String>,
}

impl Args {
    fn positional(&mut self) -> Option<String> {
        let i = self.items.iter().position(|a| !a.starts_with("--"))?;
        Some(self.items.remove(i))
    }

    fn flag(&mut self, name: &str) -> bool {
        match self.items.iter().position(|a| a == name) {
            Some(i) => {
                self.items.remove(i);
                true
            }
            None => false,
        }
    }

    /// The value of `NAME V` or `NAME=V`, if given.
    fn value(&mut self, name: &str) -> Result<Option<String>, CliError> {
        let prefix = format!("{name}=");
        if let Some(i) = self.items.iter().position(|a| a.starts_with(&prefix)) {
            return Ok(Some(self.items.remove(i).split_off(prefix.len())));
        }
        let Some(i) = self.items.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.items.len() {
            return Err(err(format!("{name} needs a value")));
        }
        self.items.remove(i);
        Ok(Some(self.items.remove(i)))
    }

    /// [`Args::value`] parsed as a `T`; a value that does not parse is
    /// an error naming the flag.
    fn parsed<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        self.value(name)?
            .map(|v| v.parse().map_err(|e| err(format!("bad {name} `{v}`: {e}"))))
            .transpose()
    }

    /// `--jobs N`, defaulting to `$EEL_JOBS`, then all cores.
    fn jobs(&mut self) -> Result<usize, CliError> {
        Ok(self.parsed("--jobs")?.unwrap_or_else(jobs_from_env).max(1))
    }

    fn finish(self) -> Result<(), CliError> {
        if let Some(extra) = self.items.first() {
            return Err(err(format!("unexpected argument `{extra}`")));
        }
        Ok(())
    }
}

/// The shipped machine models, by their CLI names.
const MACHINES: [&str; 6] = [
    "hypersparc",
    "supersparc",
    "ultrasparc",
    "microsparc",
    "vliw",
    "deepsparc",
];

fn machine_by_name(name: &str) -> Result<MachineModel, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "hypersparc" => Ok(MachineModel::hypersparc()),
        "supersparc" => Ok(MachineModel::supersparc()),
        "ultrasparc" => Ok(MachineModel::ultrasparc()),
        "microsparc" => Ok(MachineModel::microsparc()),
        "vliw" => Ok(MachineModel::vliw()),
        "deepsparc" => Ok(MachineModel::deepsparc()),
        other => Err(err(format!(
            "unknown machine `{other}` (try: {})",
            MACHINES.join(", ")
        ))),
    }
}

fn policy_by_name(name: &str) -> Result<Priority, CliError> {
    Priority::parse(&name.to_ascii_lowercase()).ok_or_else(|| {
        err(format!(
            "unknown policy `{name}` (try: stalls-first, chain-first, load-delay, \
             lookahead[:k], exact)"
        ))
    })
}

/// The golden benchmark pair the golden-table tests pin: the smallest
/// deterministic CINT and CFP workloads (130.li, 104.hydro2d).
fn golden_pair() -> Vec<Benchmark> {
    vec![cint95()[4].clone(), cfp95()[3].clone()]
}

fn load(path: &str) -> Result<Executable, CliError> {
    let bytes = fs::read(path).map_err(|e| err(format!("{path}: {e}")))?;
    Executable::from_bytes(&bytes).map_err(|e| err(format!("{path}: {e}")))
}

fn save(exe: &Executable, path: &str) -> Result<(), CliError> {
    fs::write(path, exe.to_bytes()).map_err(|e| err(format!("{path}: {e}")))
}

fn write(path: &str, body: &str) -> Result<(), CliError> {
    fs::write(path, body).map_err(|e| err(format!("{path}: {e}")))
}

/// Loads and validates a telemetry run report, mapping I/O and schema
/// failures (missing file, corrupt JSON, future version) to user-facing
/// errors instead of panics.
fn load_report(path: &str) -> Result<RunReport, CliError> {
    let text = fs::read_to_string(path).map_err(|e| err(format!("{path}: {e}")))?;
    RunReport::from_json(&text).map_err(|e| err(format!("{path}: {e}")))
}

/// Runs one CLI invocation and returns its stdout text.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on any failure.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(err(USAGE));
    };
    let args = Args {
        items: rest.to_vec(),
    };
    match cmd.as_str() {
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        "list-benchmarks" => tools::list_benchmarks(args),
        "machines" => tools::machines(args),
        "gen" => tools::gen(args),
        "disasm" => tools::disasm(args),
        "cfg" => tools::cfg(args),
        "instrument" => tools::instrument(args),
        "run" => tools::run(args),
        "profile" => tools::profile(args),
        "pipeline" => tools::pipeline(args),
        "explain" => tools::explain(args),
        "sadl" => tools::sadl(args),
        "experiment" => experiment::experiment(args),
        "results" => results::results(args),
        "perf-gate" => gate::perf_gate(args),
        "trace" => telemetry::trace(args),
        "report" => telemetry::report(args),
        other => Err(err(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}
