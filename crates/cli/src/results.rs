//! `eel results NAME`: every published result. The stdout of
//! `eel results NAME` is exactly `results/NAME.txt`, so
//! `eel results NAME > results/NAME.txt` is the one regeneration rule;
//! engine stats and progress go to stderr.
//!
//! Each generator runs only its published configuration and takes at
//! most `--jobs`. The paper's tables (§4.2 Tables 1–3) and the studies
//! built on them share the on-disk artifact cache (`EEL_NO_CACHE=1`
//! disables it). The rest are the abstract's summary, the design-choice
//! ablations, and the §4.1 side studies.

use std::fmt::Write;

use eel_bench::engine::{jobs_from_env, Engine};
use eel_bench::experiment::{
    dynamic_avg_bb, format_table, mean_pct_hidden, pct_hidden, ExperimentConfig, Measurement, Row,
};
use eel_bench::gap::{format_gap_report, gap_table};
use eel_core::{Priority, SchedOptions, DEFAULT_EXACT_BUDGET};
use eel_edit::{Cfg, EditSession, Executable};
use eel_pipeline::{evaluate_block, MachineModel};
use eel_qpt::{ProfileOptions, Profiler, TraceOptions, Tracer};
use eel_sadl::RegClass;
use eel_sim::{run, DCacheConfig, ICacheConfig, RunConfig, RunResult};
use eel_sparc::Instruction;
use eel_workloads::{spec95, Benchmark, BuildOptions, Suite};

use crate::{err, golden_pair, Args, CliError};

type Generator = fn(Args) -> Result<String, CliError>;

/// Every result, by name: `results/NAME.txt` for each.
pub(crate) const RESULTS: &[(&str, Generator)] = &[
    ("table1", |a| {
        let title = "Table 1: Slow profiling instrumentation on the UltraSPARC";
        paper_table(a, title, MachineModel::ultrasparc(), false)
    }),
    ("table2", |a| {
        let title = "Table 2: Slow profiling on the UltraSPARC, originals first rescheduled by EEL";
        paper_table(a, title, MachineModel::ultrasparc(), true)
    }),
    ("table3", |a| {
        let title = "Table 3: Slow profiling instrumentation on the SuperSPARC";
        paper_table(a, title, MachineModel::supersparc(), false)
    }),
    ("summary", summary),
    ("ablations", ablations),
    ("gap_report", gap_report),
    ("stall_breakdown", stall_breakdown),
    ("figure2", figure2),
    ("blocksizes", blocksizes),
    ("cache_effect", cache_effect),
    ("dcache_effect", dcache_effect),
    ("tracing", tracing),
    ("model_accuracy", model_accuracy),
    ("scalar_control", scalar_control),
];

pub(crate) fn results(mut args: Args) -> Result<String, CliError> {
    let names = || {
        RESULTS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(", ")
    };
    // The generator NAME picks parses the flags, so NAME comes first.
    if let Some(flag) = args.items.first().filter(|a| a.starts_with('-')) {
        return Err(err(format!(
            "results needs NAME before its flags: `eel results NAME {flag} ...`"
        )));
    }
    let name = args
        .positional()
        .ok_or_else(|| err(format!("results needs a NAME (one of: {})", names())))?;
    let (_, generate) = RESULTS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| err(format!("unknown result `{name}` (one of: {})", names())))?;
    generate(args)
}

/// One of the paper's Tables 1–3: SPEC95 on `model`, with the
/// originals first rescheduled by EEL when `reschedule` (Table 2's
/// protocol). Table 2 shares its `Uninst` and `Sched` cells and its
/// builds with Table 1 through the artifact cache, so after a `table1`
/// run only the rescheduled baselines and their instrumented runs are
/// simulated.
fn paper_table(
    mut args: Args,
    title: &str,
    model: MachineModel,
    reschedule: bool,
) -> Result<String, CliError> {
    let jobs = args.jobs()?;
    args.finish()?;
    let engine = Engine::new(&model, &ExperimentConfig::default()).with_default_disk_cache();
    let rows = engine.run_table(&spec95(), reschedule, jobs);
    eprintln!("{}", engine.stats().report());
    Ok(format_table(title, &model, &rows, reschedule) + "\n")
}

/// Table 1's protocol over SPEC95 on `model` under `cfg`, through the
/// artifact cache; the engine's stats go to stderr after `label`.
fn table_rows(label: &str, model: &MachineModel, cfg: &ExperimentConfig, jobs: usize) -> Vec<Row> {
    let engine = Engine::new(model, cfg).with_default_disk_cache();
    let rows = engine.run_table(&spec95(), false, jobs);
    eprintln!("{label}: {}", engine.stats().report());
    rows
}

/// Mean % hidden over the CINT rows and over the CFP rows.
fn suite_means(rows: &[Row]) -> (f64, f64) {
    let mean = |suite| {
        let rows: Vec<&Row> = rows.iter().filter(|r| r.suite == suite).collect();
        mean_pct_hidden(&rows)
    };
    (mean(Suite::Cint), mean(Suite::Cfp))
}

/// The abstract's headline numbers: averaged across the two
/// superscalar SPARCs, the scheduler hides ~13 % of the profiling
/// overhead on SPECINT and ~33 % on SPECFP. These are exactly the
/// Table 1 and Table 3 measurements, so a warm cache simulates nothing.
fn summary(mut args: Args) -> Result<String, CliError> {
    let jobs = args.jobs()?;
    args.finish()?;
    let cfg = ExperimentConfig::default();
    let mut out = String::new();
    let (mut int_avgs, mut fp_avgs) = (Vec::new(), Vec::new());
    for model in [MachineModel::ultrasparc(), MachineModel::supersparc()] {
        let (i, f) = suite_means(&table_rows(model.name(), &model, &cfg, jobs));
        writeln!(
            out,
            "{:<12} SPECINT hidden: {i:5.1}%   SPECFP hidden: {f:5.1}%",
            model.name()
        )?;
        int_avgs.push(i);
        fp_avgs.push(f);
    }
    let int = int_avgs.iter().sum::<f64>() / int_avgs.len() as f64;
    let fp = fp_avgs.iter().sum::<f64>() / fp_avgs.len() as f64;
    writeln!(out)?;
    writeln!(out, "Across both machines (paper's abstract: 13% / 33%):")?;
    writeln!(out, "  SPECINT average hidden: {int:5.1}%")?;
    writeln!(out, "  SPECFP  average hidden: {fp:5.1}%")?;
    Ok(out)
}

/// Ablations of the design choices DESIGN.md §5 calls out, on the
/// UltraSPARC with the Table 1 protocol over a representative subset:
/// the instrumentation-memory independence rule off, delay-slot
/// filling on, chain-first priority, and a gross model mismatch. Then
/// every scheduling policy on every shipped machine over the golden
/// pair, as a table and as `sweep,MACHINE,POLICY,PCT` lines.
fn ablations(mut args: Args) -> Result<String, CliError> {
    let jobs = args.jobs()?;
    args.finish()?;
    let model = MachineModel::ultrasparc();
    let base_cfg = ExperimentConfig::default();
    let subset: Vec<Benchmark> = spec95()
        .into_iter()
        .filter(|b| {
            [
                "099.go",
                "130.li",
                "132.ijpeg",
                "101.tomcatv",
                "104.hydro2d",
                "102.swim",
            ]
            .contains(&b.name)
        })
        .collect();
    let (mut configs, mut sims, mut hits) = (0, 0, 0);
    let mut run_with = |cfg: &ExperimentConfig, model: &MachineModel, benchmarks: &[Benchmark]| {
        let engine = Engine::new(model, cfg).with_default_disk_cache();
        let rows = engine.run_table(benchmarks, false, jobs);
        configs += 1;
        sims += engine.stats().sims();
        hits += engine.stats().mem_hits() + engine.stats().disk_hits();
        rows
    };
    let mut out = String::new();

    let base = run_with(&base_cfg, &model, &subset);
    writeln!(out, "{:<28} {:>8}", "configuration", "%hidden")?;
    writeln!(
        out,
        "{:<28} {:>7.1}%",
        "baseline (paper's options)",
        mean_pct_hidden(&base)
    )?;
    let variants = [
        (
            "memdep: fully conservative",
            SchedOptions {
                instr_mem_independent: false,
                ..SchedOptions::default()
            },
            None,
        ),
        (
            "delayslot: filling on",
            SchedOptions {
                fill_delay_slots: true,
                ..SchedOptions::default()
            },
            None,
        ),
        (
            "priority: chain-first",
            SchedOptions {
                priority: Priority::ChainFirst,
                ..SchedOptions::default()
            },
            None,
        ),
        (
            "mismatch: hyperSPARC model",
            SchedOptions::default(),
            Some(MachineModel::hypersparc()),
        ),
    ];
    for (label, sched, scheduler_model) in variants {
        let cfg = ExperimentConfig {
            sched,
            scheduler_model,
            ..base_cfg.clone()
        };
        let rows = run_with(&cfg, &model, &subset);
        writeln!(out, "{label:<28} {:>7.1}%", mean_pct_hidden(&rows))?;
    }
    writeln!(out)?;
    writeln!(out, "Per-benchmark baseline detail:")?;
    for r in &base {
        writeln!(out, "  {:<14} {:>6.1}%", r.name, r.pct_hidden())?;
    }
    writeln!(out)?;

    // Every (machine, policy) pair gets its own engine — and, through
    // the SchedOptions in the cell key, its own cached artifacts.
    writeln!(
        out,
        "Policy x machine sweep (mean %hidden, 130.li + 104.hydro2d):"
    )?;
    write!(out, "{:<12}", "machine")?;
    for p in Priority::ALL {
        write!(out, " {:>12}", p.to_string())?;
    }
    writeln!(out)?;
    let mut lines = Vec::new();
    for machine in MachineModel::shipped() {
        write!(out, "{:<12}", machine.name())?;
        for priority in Priority::ALL {
            let cfg = ExperimentConfig {
                sched: SchedOptions {
                    priority,
                    ..SchedOptions::default()
                },
                ..base_cfg.clone()
            };
            let pct = mean_pct_hidden(&run_with(&cfg, &machine, &golden_pair()));
            write!(out, " {pct:>11.1}%")?;
            lines.push(format!("sweep,{},{priority},{pct:.1}", machine.name()));
        }
        writeln!(out)?;
    }
    writeln!(out)?;
    for l in &lines {
        writeln!(out, "{l}")?;
    }
    eprintln!(
        "ablations: {sims} simulator invocations, {hits} cache hits across {configs} configurations"
    );
    Ok(out)
}

/// Per-benchmark optimality gap: the branch-and-bound oracle vs the
/// paper's list scheduler over every instrumented block of the golden
/// pair, on the UltraSPARC and the hyperSPARC (the deep pipeline where
/// the greedy gap shows). `eel experiment --policy exact` and
/// `eel explain --exact` reach the oracle's other settings.
fn gap_report(mut args: Args) -> Result<String, CliError> {
    let jobs = args.jobs()?;
    args.finish()?;
    let mut out = String::new();
    let mut nodes = 0u64;
    for (k, model) in [MachineModel::ultrasparc(), MachineModel::hypersparc()]
        .iter()
        .enumerate()
    {
        let rows = gap_table(model, &golden_pair(), jobs);
        if k > 0 {
            writeln!(out)?;
        }
        out.push_str(&format_gap_report(
            &format!(
                "Optimality gap (golden subset): exact oracle vs the list scheduler on the {}",
                model.name()
            ),
            &rows,
        ));
        nodes += rows.iter().map(|r| r.nodes).sum::<u64>();
    }
    eprintln!("oracle: {nodes} search nodes, budget {DEFAULT_EXACT_BUDGET} per block");
    Ok(out)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 0.0;
    }
    100.0 * part as f64 / whole as f64
}

/// Per-benchmark aggregate stall attribution on the UltraSPARC for the
/// instrumented executable before and after EEL scheduling: structural
/// vs RAW vs WAR/WAW stalls, and the most contended units. Attribution
/// runs are never cached, so this always simulates, but it loads
/// Table 1's builds from the artifact cache.
fn stall_breakdown(mut args: Args) -> Result<String, CliError> {
    let jobs = args.jobs()?;
    args.finish()?;
    let model = MachineModel::ultrasparc();
    let engine = Engine::new(&model, &ExperimentConfig::default()).with_default_disk_cache();
    let attrs = engine.attribute_table(&spec95(), jobs);
    let mut out = String::new();
    writeln!(
        out,
        "Stall attribution: slow profiling on the {}",
        model.name()
    )?;
    writeln!(
        out,
        "{:<14} {:>5} {:>10} {:>7} {:>7} {:>9}  top contended units",
        "Benchmark", "run", "stalls", "%struct", "%raw", "%war+waw"
    )?;
    for a in &attrs {
        for (run, profile) in [("inst", &a.inst), ("sched", &a.sched)] {
            let total = profile.total();
            let units: Vec<String> = profile
                .top_units(5)
                .iter()
                .map(|&(u, c)| {
                    let name = model.desc().unit_name(u).unwrap_or("?");
                    format!("{name} {:.1}%", pct(c, total.max(1)))
                })
                .collect();
            writeln!(
                out,
                "{:<14} {:>5} {:>10} {:>6.1}% {:>6.1}% {:>8.1}%  {}",
                if run == "inst" { a.name } else { "" },
                run,
                total,
                pct(profile.structural_total(), total),
                pct(profile.raw_total(), total),
                pct(profile.war_total() + profile.waw_total(), total),
                units.join(", "),
            )?;
        }
    }
    eprintln!("{}", engine.stats().report());
    Ok(out)
}

/// The paper's Figure 2 walkthrough: what Spawn infers from the
/// hyperSPARC description for `add`, `sub`, and `sra` — dual issue, 3
/// cycles through the pipe, operands read in cycle 1, result forwarded
/// at the end of cycle 1, register file updated in cycle 2.
fn figure2(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let model = MachineModel::hypersparc();
    let desc = model.desc();
    let mut out = String::new();
    writeln!(
        out,
        "Machine: {} ({}-way superscalar, {} MHz)",
        desc.machine, desc.issue_width, desc.clock_mhz
    )?;
    writeln!(out, "Units:")?;
    for u in &desc.units {
        writeln!(out, "  {:<8} x{}", u.name, u.count)?;
    }
    writeln!(out)?;
    for m in ["add", "sub", "sra"] {
        let g = desc.group_for(m).expect("figure 2 instructions are bound");
        writeln!(
            out,
            "{m}: group #{} — {} cycles through the pipe",
            desc.group_id(m).expect("bound"),
            g.cycles
        )?;
        writeln!(
            out,
            "  reads integer operands in cycle {:?}",
            g.read_cycle(RegClass::Int).expect("reads integers")
        )?;
        writeln!(
            out,
            "  computes its result in cycle {:?} (forwarded to same-cycle readers next cycle)",
            g.write_cycle(RegClass::Int).expect("writes an integer")
        )?;
        for c in 0..=g.cycles {
            let a = g.acquires_at(c);
            let r = g.releases_at(c);
            if a.is_empty() && r.is_empty() {
                continue;
            }
            let fmt = |v: &[(usize, u32)]| {
                v.iter()
                    .map(|&(u, n)| format!("{}x{}", desc.units[u].name, n))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            writeln!(
                out,
                "  cycle {c}: acquire [{}] release [{}]",
                fmt(a),
                fmt(r)
            )?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "add, sub, and sra share one timing group: {}",
        desc.group_id("add") == desc.group_id("sra")
    )?;
    Ok(out)
}

/// Workload calibration: every synthetic benchmark's measured dynamic
/// average basic block size against the paper's `Avg. BB Size` column
/// (§4.1: the SPEC95 integer average is 2.9 instructions).
fn blocksizes(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let mut out = String::new();
    writeln!(
        out,
        "{:<14} {:>8} {:>10} {:>10} {:>8}",
        "Benchmark", "paper", "measured", "static", "error"
    )?;
    let mut int_sum = 0.0;
    let mut int_n = 0;
    for b in spec95() {
        let exe = b.build(&BuildOptions {
            iterations: Some(50),
            optimize: None,
        });
        let result = run(&exe, None, &RunConfig::default()).expect("runs");
        let dynamic = dynamic_avg_bb(&exe, &result);
        let err = 100.0 * (dynamic - b.target_block_size) / b.target_block_size;
        writeln!(
            out,
            "{:<14} {:>8.1} {:>10.2} {:>10.2} {:>7.1}%",
            b.name,
            b.target_block_size,
            dynamic,
            Cfg::build(&exe).expect("analyzes").mean_block_len(),
            err
        )?;
        if b.suite == Suite::Cint {
            int_sum += dynamic;
            int_n += 1;
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "SPECINT dynamic average block size: {:.1} (paper: 2.9)",
        int_sum / f64::from(int_n)
    )?;
    Ok(out)
}

/// `exe` timed on `m`'s measured machine.
fn run_measured(m: &Measurement, exe: &Executable) -> RunResult {
    run(exe, Some(&m.measured), &m.run).expect("runs")
}

/// An instrumented session simulated unscheduled, then scheduled.
fn inst_and_sched(m: &Measurement, session: &EditSession) -> (RunResult, RunResult) {
    let inst = run_measured(m, &session.emit_unscheduled().expect("layout"));
    let scheduled = session.emit(m.scheduler.transform()).expect("schedulable");
    (inst, run_measured(m, &scheduled))
}

/// The §4.1 instruction-cache discussion: scheduling instrumentation
/// does not reduce the cache misses it causes, since the added
/// instructions grow the code regardless of stalls. Lebeck–Wood predict
/// that growing a program ×E grows its misses ≈ ×E·√E; profiling grows
/// text 2–3×. Measured on gcc (the biggest text relative to cache)
/// across I-cache sizes.
fn cache_effect(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let model = MachineModel::ultrasparc();
    let cfg = ExperimentConfig {
        iterations: Some(300),
        ..ExperimentConfig::default()
    };
    let m = Measurement::new(&model, &cfg);
    let bench = spec95()
        .into_iter()
        .find(|b| b.name == "126.gcc")
        .expect("exists");
    let original = bench.build(&m.build);

    let mut session = EditSession::new(&original).expect("analyzable");
    let _p = Profiler::instrument(&mut session, ProfileOptions::default());
    let instrumented = session.emit_unscheduled().expect("instrumentable");
    let scheduled = session.emit(m.scheduler.transform()).expect("schedulable");

    let growth = instrumented.text_len() as f64 / original.text_len() as f64;
    let mut out = String::new();
    writeln!(
        out,
        "text: {} -> {} words (x{:.2}; the paper reports profiling growing text 2-3x)",
        original.text_len(),
        instrumented.text_len(),
        growth
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:>9} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "icache", "uninst", "inst", "sched", "growth", "E*sqrt(E)"
    )?;
    // The I-cache sees only the fetch stream, so one build and one
    // schedule serve every cache size.
    for size in [1024u32, 2048, 4096, 8192] {
        let mut cfg = cfg.clone();
        cfg.timing.icache = Some(ICacheConfig {
            size,
            line: 32,
            miss_penalty: 8,
        });
        let m = Measurement::new(&model, &cfg);
        let misses = |exe: &Executable| run_measured(&m, exe).icache_misses;
        let (m0, m1, m2) = (misses(&original), misses(&instrumented), misses(&scheduled));
        let miss_growth = if m0 > 0 {
            m1 as f64 / m0 as f64
        } else {
            f64::NAN
        };
        writeln!(
            out,
            "{:>8}B {:>12} {:>12} {:>12} {:>8.1}x {:>8.1}x",
            size,
            m0,
            m1,
            m2,
            miss_growth,
            growth * growth.sqrt(),
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "Scheduling leaves the instrumented miss count essentially unchanged,"
    )?;
    writeln!(
        out,
        "confirming that cache growth is the unhidable part of the overhead."
    )?;
    Ok(out)
}

/// Measurement realism: the Table 1 protocol with an explicit data
/// cache instead of the flat +2-cycle load bias. Hot counter words
/// hit, scattered array accesses miss — the headline %hidden numbers
/// should not hinge on how memory is modeled. The flat-bias rows are
/// Table 1's.
fn dcache_effect(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let model = MachineModel::ultrasparc();
    let flat = ExperimentConfig::default();
    let mut cache = ExperimentConfig {
        mem_bias: 0, // the cache, not a flat bias, supplies memory time
        ..ExperimentConfig::default()
    };
    cache.timing.dcache = Some(DCacheConfig {
        size: 4096,
        line: 32,
        miss_penalty: 8,
    });
    let rows_flat = table_rows("flat bias", &model, &flat, jobs_from_env());
    let rows_cache = table_rows("D-cache", &model, &cache, jobs_from_env());
    let mut out = String::new();
    writeln!(
        out,
        "{}",
        format_table(
            "With the flat +2-cycle load bias:",
            &model,
            &rows_flat,
            false
        )
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{}",
        format_table(
            "With a 4 KiB direct-mapped D-cache (8-cycle misses):",
            &model,
            &rows_cache,
            false
        )
    )?;
    let (i1, f1) = suite_means(&rows_flat);
    let (i2, f2) = suite_means(&rows_cache);
    writeln!(out)?;
    writeln!(
        out,
        "robustness: CINT {i1:.1}% -> {i2:.1}%, CFP {f1:.1}% -> {f2:.1}% when the"
    )?;
    writeln!(
        out,
        "memory model changes — the paper's conclusions do not hinge on it."
    )?;
    Ok(out)
}

/// The paper's closing argument applied to a heavier tool: address
/// tracing (qpt's other mode) inserts four instructions per memory
/// operation, and scheduling should hide part of it the same way it
/// hides profiling.
fn tracing(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let m = Measurement::new(&MachineModel::ultrasparc(), &ExperimentConfig::default());
    let mut out = String::new();
    writeln!(
        out,
        "{:<14} {:>8} {:>12} {:>12} {:>12} {:>9}",
        "benchmark", "mem ops", "uninst", "inst", "sched", "%hidden"
    )?;
    let mut int_hidden = Vec::new();
    let mut fp_hidden = Vec::new();
    for bench in spec95() {
        let exe = bench.build(&m.build);
        let uninst = run_measured(&m, &exe);
        let mut session = EditSession::new(&exe).expect("analyzable");
        let _tracer = Tracer::instrument(&mut session, TraceOptions::default());
        let (inst, sched) = inst_and_sched(&m, &session);
        let hidden = pct_hidden(uninst.cycles, inst.cycles, sched.cycles);
        writeln!(
            out,
            "{:<14} {:>8} {:>12} {:>12} {:>12} {:>8.1}%",
            bench.name, uninst.mem_ops, uninst.cycles, inst.cycles, sched.cycles, hidden
        )?;
        match bench.suite {
            Suite::Cint => int_hidden.push(hidden),
            Suite::Cfp => fp_hidden.push(hidden),
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    writeln!(out)?;
    writeln!(
        out,
        "tracing overhead hidden: CINT {:.1}%, CFP {:.1}%",
        mean(&int_hidden),
        mean(&fp_hidden)
    )?;
    Ok(out)
}

/// How accurate is the scheduler's model of the machine? §3.2 admits
/// the Spawn descriptions model only the execution pipelines; this
/// compares, per benchmark, the cycles the *model* predicts (static
/// per-block issue latency × execution counts) against the cycles the
/// measured machine takes.
fn model_accuracy(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let m = Measurement::new(&MachineModel::ultrasparc(), &ExperimentConfig::default());
    let model = m.scheduler.model();
    let mut out = String::new();
    writeln!(
        out,
        "{:<14} {:>14} {:>14} {:>10}",
        "benchmark", "model cycles", "machine cycles", "model/mach"
    )?;
    for bench in spec95() {
        let exe = bench.build(&m.build);
        let result = run_measured(&m, &exe);
        // The scheduler's view: every block starts on an empty pipe
        // and costs its issue latency, weighted by how often it runs.
        let cfg = Cfg::build(&exe).expect("analyzable");
        let mut predicted = 0.0f64;
        for b in cfg.routines.iter().flat_map(|r| &r.blocks) {
            let insns: Vec<Instruction> = exe.text()[b.start..b.start + b.len]
                .iter()
                .map(|&w| Instruction::decode(w))
                .collect();
            let lat = evaluate_block(model, &insns).issue_latency() as f64;
            predicted += lat * result.pc_counts[b.start] as f64;
        }
        writeln!(
            out,
            "{:<14} {:>14.0} {:>14} {:>10.2}",
            bench.name,
            predicted,
            result.cycles,
            predicted / result.cycles as f64
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "Ratios below 1.0 are the memory latency, taken-branch redirects, and"
    )?;
    writeln!(
        out,
        "cross-block overlap the per-block model cannot see — the same gap that"
    )?;
    writeln!(
        out,
        "makes EEL de-schedule compiler-optimized code (Tables 1 vs 2)."
    )?;
    Ok(out)
}

/// The control experiment behind the paper's premise (§1): the unused
/// issue width is where instrumentation hides, so on a scalar (1-wide)
/// machine the same scheduler should hide little beyond load-latency
/// bubbles. The UltraSPARC and SuperSPARC rows are Tables 1 and 3.
fn scalar_control(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let cfg = ExperimentConfig::default();
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:>6} {:>14} {:>14}",
        "machine", "width", "CINT hidden", "CFP hidden"
    )?;
    for model in [
        MachineModel::microsparc(),
        MachineModel::hypersparc(),
        MachineModel::supersparc(),
        MachineModel::ultrasparc(),
    ] {
        let (int, fp) = suite_means(&table_rows(model.name(), &model, &cfg, jobs_from_env()));
        writeln!(
            out,
            "{:<12} {:>6} {:>13.1}% {:>13.1}%",
            model.name(),
            model.issue_width(),
            int,
            fp
        )?;
    }
    writeln!(out)?;
    for line in [
        "Integer hiding grows with issue width (the paper's motivating",
        "observation) but does not vanish at width 1: load-delay bubbles in",
        "an in-order scalar pipe are idle slots too. The narrow 2-way",
        "hyperSPARC is the most fragile: with one ALU and one FPU, EEL's",
        "rescheduling of optimized FP code costs more than the counters.",
    ] {
        writeln!(out, "{line}")?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The side studies measure what Table 1 measures: the chain they
    /// drive by hand over a [`Measurement`] (build → run, instrument →
    /// unscheduled emit → run, scheduled emit → run) gives exactly the
    /// engine's three cycle counts.
    #[test]
    fn side_study_chain_matches_the_engine() {
        let model = MachineModel::ultrasparc();
        let cfg = ExperimentConfig {
            iterations: Some(40),
            ..ExperimentConfig::default()
        };
        let m = Measurement::new(&model, &cfg);
        let engine = Engine::new(&model, &cfg);
        for name in ["130.li", "104.hydro2d"] {
            let bench = spec95().into_iter().find(|b| b.name == name).unwrap();
            let row = engine.measure(&bench, false);
            let exe = bench.build(&m.build);
            let uninst = run_measured(&m, &exe);
            let mut session = EditSession::new(&exe).expect("analyzable");
            let _p = Profiler::instrument(&mut session, ProfileOptions::default());
            let (inst, sched) = inst_and_sched(&m, &session);
            assert_eq!(
                [uninst.cycles, inst.cycles, sched.cycles],
                [row.uninst_cycles, row.inst_cycles, row.sched_cycles],
                "{name}"
            );
            // `measure` asserts that its three runs exit alike; so do
            // the chain's.
            assert_eq!(
                [inst.exit_code, sched.exit_code],
                [uninst.exit_code; 2],
                "{name}"
            );
        }
    }
}
