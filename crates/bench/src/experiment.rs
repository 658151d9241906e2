//! The end-to-end experiment pipeline behind every table in §4.2.
//!
//! For each benchmark and machine:
//!
//! 1. build the "compiled" executable (block bodies scheduled for the
//!    target machine, like Sun's `-xO4 -xchip=…`);
//! 2. measure it uninstrumented on the timing simulator;
//! 3. add QPT2 slow profiling and measure it *unscheduled*;
//! 4. re-edit with the EEL scheduler transforming every block
//!    (instrumentation + original together) and measure again;
//! 5. report `% hidden = (inst − sched) / (inst − uninst)`.
//!
//! Table 2 repeats the measurement after first letting EEL reschedule
//! the original instructions without instrumentation (factoring out
//! EEL-induced de-scheduling of already-optimized code).

use std::borrow::Borrow;

use eel_core::{SchedOptions, Scheduler};
use eel_edit::{Cfg, Executable};
use eel_pipeline::MachineModel;
use eel_sim::{RunConfig, RunResult, TimingConfig};
use eel_workloads::{Benchmark, BuildOptions, Suite};

use crate::engine::{jobs_from_env, Engine};

/// Scaling and model options for one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Override benchmark iteration counts (for quick runs/tests).
    pub iterations: Option<u32>,
    /// Timing realism beyond the scheduler's model.
    pub timing: TimingConfig,
    /// Scheduler options (defaults follow the paper).
    pub sched: SchedOptions,
    /// Extra average load latency of the *measured machine* (memory
    /// interface and cache effects the SADL descriptions omit, §3.2).
    /// The workload "compiler" schedules for the biased machine; EEL
    /// schedules with the nominal description — the paper's
    /// model-vs-machine gap.
    pub mem_bias: u32,
    /// The model EEL's scheduler consults; `None` uses the measured
    /// machine's nominal description. Setting a *different* machine is
    /// the gross model-mismatch ablation.
    pub scheduler_model: Option<MachineModel>,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            iterations: None,
            // The measured machine redirects fetch on taken branches —
            // a real-machine effect the scheduler's model omits, like
            // the paper's.
            timing: TimingConfig {
                taken_branch_penalty: 1,
                ..TimingConfig::default()
            },
            sched: SchedOptions::default(),
            mem_bias: 2,
            scheduler_model: None,
        }
    }
}

/// The setup behind every measurement of §4.2, resolved once from a
/// machine and an [`ExperimentConfig`]: originals compiled for the
/// measured machine (the nominal model with `mem_bias` extra cycles of
/// load latency), EEL scheduling against the nominal description (or
/// `scheduler_model`), and runs timed on the measured machine. The
/// engine keeps one, and the side studies, benches and tools that
/// drive the editor and simulator by hand build theirs here.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The machine runs are timed on.
    pub measured: MachineModel,
    /// EEL's scheduler: the model it consults and the options it
    /// schedules with.
    pub scheduler: Scheduler,
    /// How originals are built: optimized for the measured machine.
    pub build: BuildOptions,
    /// How runs are timed: the experiment's timing, nothing recorded.
    pub run: RunConfig,
}

impl Measurement {
    /// The setup `cfg` describes on `model`.
    pub fn new(model: &MachineModel, cfg: &ExperimentConfig) -> Measurement {
        let measured = model.with_load_latency_bias(cfg.mem_bias);
        let scheduler_model = cfg.scheduler_model.as_ref().unwrap_or(model);
        Measurement {
            scheduler: Scheduler::with_options(scheduler_model.clone(), cfg.sched),
            build: BuildOptions {
                iterations: cfg.iterations,
                optimize: Some(measured.clone()),
            },
            run: RunConfig {
                timing: Some(cfg.timing.clone()),
                ..RunConfig::default()
            },
            measured,
        }
    }
}

/// One row of a results table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// CINT or CFP.
    pub suite: Suite,
    /// Measured dynamic average basic-block size (instructions).
    pub avg_bb: f64,
    /// Uninstrumented cycles (after the Table-2 reschedule pass, when
    /// enabled).
    pub uninst_cycles: u64,
    /// Ratio of the rescheduled-uninstrumented time to the original
    /// uninstrumented time (Table 2's parenthesized Uninst column);
    /// 1.0 when rescheduling is off.
    pub resched_ratio: f64,
    /// Instrumented, unscheduled cycles.
    pub inst_cycles: u64,
    /// Instrumented, scheduled cycles.
    pub sched_cycles: u64,
}

impl Row {
    /// Instrumented-to-uninstrumented slowdown (the paper's
    /// parenthesized ratio).
    pub fn inst_ratio(&self) -> f64 {
        self.inst_cycles as f64 / self.uninst_cycles as f64
    }

    /// Scheduled-to-uninstrumented slowdown.
    pub fn sched_ratio(&self) -> f64 {
        self.sched_cycles as f64 / self.uninst_cycles as f64
    }

    /// This row's [`pct_hidden`].
    pub fn pct_hidden(&self) -> f64 {
        pct_hidden(self.uninst_cycles, self.inst_cycles, self.sched_cycles)
    }
}

/// The fraction of instrumentation overhead hidden by scheduling, in
/// percent: `(inst − sched) / (inst − uninst)`. Can exceed 100 % or go
/// negative, as in the paper; 0 when instrumenting added no cycles.
pub fn pct_hidden(uninst: u64, inst: u64, sched: u64) -> f64 {
    let overhead = inst as f64 - uninst as f64;
    if overhead <= 0.0 {
        return 0.0;
    }
    100.0 * (inst as f64 - sched as f64) / overhead
}

/// Dynamic average block size, the tables' `Avg.BB` column: executed
/// instructions over executed block entries (0 when no block ran).
pub fn dynamic_avg_bb(exe: &Executable, result: &RunResult) -> f64 {
    let cfg = Cfg::build(exe).expect("workloads analyze");
    let mut entries = 0u64;
    for r in &cfg.routines {
        for b in &r.blocks {
            entries += result.pc_counts[b.start];
        }
    }
    if entries == 0 {
        return 0.0;
    }
    result.instructions as f64 / entries as f64
}

/// Mean % hidden across a set of rows (the paper's suite averages).
/// Accepts owned or borrowed rows (`&[Row]` or `&[&Row]`).
pub fn mean_pct_hidden<R: Borrow<Row>>(rows: &[R]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.borrow().pct_hidden()).sum::<f64>() / rows.len() as f64
}

/// Geometric-mean slowdown ratio across rows.
pub fn mean_ratio<R: Borrow<Row>>(rows: &[R], f: impl Fn(&Row) -> f64) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = rows.iter().map(|r| f(r.borrow()).ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

/// Runs a whole table: every benchmark in `benchmarks` on `model`,
/// fanned out over `$EEL_JOBS` workers (default: all cores). Row order
/// and contents are independent of the worker count; see
/// [`Engine::run_table`].
pub fn run_table(
    benchmarks: &[Benchmark],
    model: &MachineModel,
    cfg: &ExperimentConfig,
    reschedule_first: bool,
) -> Vec<Row> {
    Engine::new(model, cfg).run_table(benchmarks, reschedule_first, jobs_from_env())
}

/// Formats rows in the paper's table layout.
pub fn format_table(title: &str, model: &MachineModel, rows: &[Row], show_resched: bool) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let clock = model.clock_mhz();
    let secs = |cycles: u64| cycles as f64 / (f64::from(clock) * 1e6);
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>12} {:>18} {:>18} {:>9}",
        "Benchmark", "Avg.BB", "Uninst.", "Inst.", "Sched.", "%Hidden"
    );
    let print_suite = |rows: &[&Row], label: &str, out: &mut String| {
        for &r in rows {
            let uninst = if show_resched {
                format!("{:.3} ({:.2})", secs(r.uninst_cycles), r.resched_ratio)
            } else {
                format!("{:.3}", secs(r.uninst_cycles))
            };
            let _ = writeln!(
                out,
                "{:<14} {:>7.1} {:>12} {:>11.3} ({:>4.2}) {:>11.3} ({:>4.2}) {:>8.1}%",
                r.name,
                r.avg_bb,
                uninst,
                secs(r.inst_cycles),
                r.inst_ratio(),
                secs(r.sched_cycles),
                r.sched_ratio(),
                r.pct_hidden()
            );
        }
        let _ = writeln!(
            out,
            "{label:<14} {:>7} {:>12} {:>18.2} {:>18.2} {:>8.1}%",
            "",
            "",
            mean_ratio(rows, Row::inst_ratio),
            mean_ratio(rows, Row::sched_ratio),
            mean_pct_hidden(rows)
        );
    };
    let cint: Vec<&Row> = rows.iter().filter(|r| r.suite == Suite::Cint).collect();
    let cfp: Vec<&Row> = rows.iter().filter(|r| r.suite == Suite::Cfp).collect();
    if !cint.is_empty() {
        print_suite(&cint, "CINT95 Average", &mut out);
    }
    if !cfp.is_empty() {
        print_suite(&cfp, "CFP95 Average", &mut out);
    }
    out
}

/// Formats rows as CSV (for spreadsheets/plotting), one row per
/// benchmark plus a header.
pub fn format_csv(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::from(concat!(
        "benchmark,suite,avg_bb,uninst_cycles,resched_ratio,",
        "inst_cycles,sched_cycles,inst_ratio,sched_ratio,pct_hidden\n",
    ));
    for r in rows {
        let suite = match r.suite {
            Suite::Cint => "CINT95",
            Suite::Cfp => "CFP95",
        };
        let _ = writeln!(
            out,
            "{},{},{:.2},{},{:.3},{},{},{:.3},{:.3},{:.2}",
            r.name,
            suite,
            r.avg_bb,
            r.uninst_cycles,
            r.resched_ratio,
            r.inst_cycles,
            r.sched_cycles,
            r.inst_ratio(),
            r.sched_ratio(),
            r.pct_hidden()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_workloads::{cfp95, cint95};

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            iterations: Some(40),
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn pct_hidden_is_zero_without_overhead() {
        // No instrumentation cost to hide: 0, not NaN (0/0) or ±∞.
        assert_eq!(pct_hidden(100, 100, 100), 0.0);
        assert_eq!(pct_hidden(100, 100, 90), 0.0);
        assert_eq!(pct_hidden(100, 90, 95), 0.0);
        assert_eq!(pct_hidden(100, 200, 150), 50.0);
        assert_eq!(pct_hidden(100, 200, 250), -50.0);
    }

    #[test]
    fn int_benchmark_pipeline_end_to_end() {
        let model = MachineModel::ultrasparc();
        let row = Engine::new(&model, &quick()).measure(&cint95()[4], false); // 130.li
        assert!(
            row.inst_cycles > row.uninst_cycles,
            "instrumentation costs time"
        );
        assert!(
            row.sched_cycles <= row.inst_cycles,
            "scheduling should not hurt: {} > {}",
            row.sched_cycles,
            row.inst_cycles
        );
        assert!(
            row.inst_ratio() > 1.5,
            "slow profiling is expensive on small blocks"
        );
        let hidden = row.pct_hidden();
        assert!(hidden > 0.0, "some overhead hidden, got {hidden:.1}%");
    }

    #[test]
    fn fp_benchmark_pipeline_end_to_end() {
        let model = MachineModel::supersparc();
        let row = Engine::new(&model, &quick()).measure(&cfp95()[1], false); // 102.swim
        assert!(
            row.inst_ratio() < 1.6,
            "long blocks amortize instrumentation"
        );
        assert!(
            row.avg_bb > 20.0,
            "swim has very long blocks: {:.1}",
            row.avg_bb
        );
    }

    #[test]
    fn reschedule_protocol_reports_ratio() {
        let model = MachineModel::ultrasparc();
        let row = Engine::new(&model, &quick()).measure(&cfp95()[3], true); // hydro2d
        assert!(row.resched_ratio > 0.5 && row.resched_ratio < 2.0);
    }

    #[test]
    fn measured_avg_bb_tracks_paper_targets() {
        let model = MachineModel::ultrasparc();
        for b in [&cint95()[4], &cint95()[3], &cfp95()[0]] {
            let row = Engine::new(&model, &quick()).measure(b, false);
            let rel = (row.avg_bb - b.target_block_size).abs() / b.target_block_size;
            assert!(
                rel < 0.30,
                "{}: measured {:.1} vs target {:.1}",
                b.name,
                row.avg_bb,
                b.target_block_size
            );
        }
    }

    #[test]
    fn formatting_contains_all_rows() {
        let model = MachineModel::ultrasparc();
        let rows = vec![Engine::new(&model, &quick()).measure(&cint95()[4], false)];
        let text = format_table("Table X", &model, &rows, false);
        assert!(text.contains("130.li"));
        assert!(text.contains("CINT95 Average"));
        let csv = format_csv(&rows);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().nth(1).unwrap().starts_with("130.li,CINT95,"));
    }
}
