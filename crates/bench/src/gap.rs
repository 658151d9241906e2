//! Optimality-gap measurement: the branch-and-bound oracle
//! (`eel_core::exact`) run over every instrumented block of a
//! benchmark, against the list schedule as the incumbent.
//!
//! Unlike the experiment engine's cells this is pure static analysis —
//! no simulation, no caching — so it gets its own small harness: build
//! the workload and instrument it exactly like Table 1's `sched` arm
//! (one [`Measurement`] supplies the build and the scheduler), and
//! hand every block body (instrumentation included) to
//! [`Scheduler::exact_block`](eel_core::Scheduler::exact_block). The
//! per-benchmark aggregates — how many blocks the list scheduler
//! already schedules optimally, and how many issue cycles the oracle
//! wins back — are the paper-level answer to "how much is greedy
//! leaving on the table?".

use eel_edit::EditSession;
use eel_pipeline::MachineModel;
use eel_qpt::{ProfileOptions, Profiler};
use eel_workloads::Benchmark;

use crate::engine::in_order;
use crate::experiment::{ExperimentConfig, Measurement};

/// Per-benchmark aggregate of the oracle/list differential.
#[derive(Debug, Clone, Copy, Default)]
pub struct GapRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Schedulable blocks examined (bodies of ≥ 2 instructions;
    /// smaller bodies are trivially optimal and uncounted).
    pub blocks: u64,
    /// Blocks whose list schedule the oracle proved optimal.
    pub optimal: u64,
    /// Blocks where the search hit its node budget and kept the list
    /// incumbent (their true gap is unknown, counted as zero).
    pub cut: u64,
    /// Summed list-schedule issue latency over all counted blocks.
    pub list_cycles: u64,
    /// Summed oracle issue latency over all counted blocks.
    pub exact_cycles: u64,
    /// Search nodes expanded across all counted blocks.
    pub nodes: u64,
}

impl GapRow {
    /// Total issue cycles the list scheduler leaves on the table.
    pub fn gap_cycles(&self) -> u64 {
        self.list_cycles - self.exact_cycles
    }

    /// Percentage of examined blocks proven optimal as-is (a block the
    /// oracle *improved* is proven too — this counts only the ones
    /// where the list schedule already matched the optimum).
    pub fn pct_optimal(&self) -> f64 {
        if self.blocks == 0 {
            return 100.0;
        }
        100.0 * self.optimal as f64 / self.blocks as f64
    }
}

/// Runs `m`'s scheduler's oracle over every instrumented block of
/// `bench` built as `m` builds it.
pub fn gap_row(m: &Measurement, bench: &Benchmark) -> GapRow {
    let exe = bench.build(&m.build);
    let mut session = EditSession::new(&exe).expect("analyzable");
    let _profiler = Profiler::instrument(&mut session, ProfileOptions::default());
    let mut row = GapRow {
        name: bench.name,
        ..GapRow::default()
    };
    for (r, b) in session.all_blocks() {
        let code = session.block_code(r, b);
        if code.body.len() < 2 {
            continue;
        }
        let out = m.scheduler.exact_block(&code);
        row.blocks += 1;
        row.list_cycles += out.list_latency;
        row.exact_cycles += out.latency;
        row.nodes += out.nodes;
        if out.budget_exhausted {
            row.cut += 1;
        } else if out.gap() == 0 {
            row.optimal += 1;
        }
    }
    row
}

/// [`gap_row`] for every benchmark on `model` under Table 1's
/// configuration (the default node budget per block), fanned out over
/// `jobs` workers; rows come back in benchmark order (the search is
/// deterministic, so the report is byte-identical for any worker
/// count).
pub fn gap_table(model: &MachineModel, benchmarks: &[Benchmark], jobs: usize) -> Vec<GapRow> {
    let m = Measurement::new(model, &ExperimentConfig::default());
    in_order(benchmarks, jobs, |b| gap_row(&m, b))
}

/// Renders the gap table, with a totals line, in the fixed-width style
/// of the other published tables.
pub fn format_gap_report(title: &str, rows: &[GapRow]) -> String {
    let mut out = format!(
        "{title}\n{:<14} {:>7} {:>8} {:>9} {:>5} {:>10} {:>10} {:>6}\n",
        "Benchmark", "blocks", "optimal", "%optimal", "cut", "list cyc", "exact cyc", "gap"
    );
    let mut total = GapRow {
        name: "total",
        ..GapRow::default()
    };
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>7} {:>8} {:>8.1}% {:>5} {:>10} {:>10} {:>6}\n",
            r.name,
            r.blocks,
            r.optimal,
            r.pct_optimal(),
            r.cut,
            r.list_cycles,
            r.exact_cycles,
            r.gap_cycles(),
        ));
        total.blocks += r.blocks;
        total.optimal += r.optimal;
        total.cut += r.cut;
        total.list_cycles += r.list_cycles;
        total.exact_cycles += r.exact_cycles;
        total.nodes += r.nodes;
    }
    out.push_str(&format!(
        "{:<14} {:>7} {:>8} {:>8.1}% {:>5} {:>10} {:>10} {:>6}\n",
        total.name,
        total.blocks,
        total.optimal,
        total.pct_optimal(),
        total.cut,
        total.list_cycles,
        total.exact_cycles,
        total.gap_cycles(),
    ));
    out
}
