//! Commands over single images and machine descriptions: list, generate,
//! disassemble, analyze, instrument, simulate, profile, and explain.

use std::fs;
use std::num::NonZeroU32;

use eel_bench::experiment::{ExperimentConfig, Measurement};
use eel_core::{Priority, SchedOptions, Scheduler};
use eel_edit::{Cfg, Edge, EditSession};
use eel_pipeline::{chrome_trace, render_issue_trace, MachineModel};
use eel_qpt::{ProfileOptions, Profiler, TraceOptions, Tracer};
use eel_sim::{run as simulate, RunConfig, TimingConfig};
use eel_sparc::Instruction;
use eel_workloads::{spec95, BuildOptions};

use crate::{err, load, policy_by_name, save, write, Args, CliError};

/// Indents every non-empty line of a rendered sub-report two spaces.
fn indent(text: &str) -> String {
    text.lines()
        .map(|l| {
            if l.is_empty() {
                "\n".to_string()
            } else {
                format!("  {l}\n")
            }
        })
        .collect()
}

pub(crate) fn list_benchmarks(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let mut out = String::new();
    for b in spec95() {
        out.push_str(&format!(
            "{:<14} {:?}  target block size {:.1}\n",
            b.name, b.suite, b.target_block_size
        ));
    }
    Ok(out)
}

pub(crate) fn machines(args: Args) -> Result<String, CliError> {
    args.finish()?;
    let mut out = String::new();
    for m in MachineModel::shipped() {
        out.push_str(&format!(
            "{:<12} {}-way, {} MHz, {} units, {} timing groups\n",
            m.name(),
            m.issue_width(),
            m.clock_mhz(),
            m.desc().units.len(),
            m.desc().groups.len()
        ));
    }
    Ok(out)
}

pub(crate) fn gen(mut args: Args) -> Result<String, CliError> {
    let out_path = args.value("-o")?;
    let iterations = args.parsed("--iterations")?.map(NonZeroU32::get);
    let optimize = args.machine("--optimize")?;
    let name = args
        .positional()
        .ok_or_else(|| err("gen needs a benchmark name"))?;
    let out_path = out_path.ok_or_else(|| err("gen needs -o FILE"))?;
    args.finish()?;
    let bench = spec95()
        .into_iter()
        .find(|b| b.name == name)
        .ok_or_else(|| err(format!("unknown benchmark `{name}`")))?;
    // Compile for the measured machine, as every table does.
    let cfg = ExperimentConfig {
        iterations,
        ..ExperimentConfig::default()
    };
    let build = match optimize {
        Some(machine) => Measurement::new(&machine, &cfg).build,
        None => BuildOptions {
            iterations,
            optimize: None,
        },
    };
    let exe = bench.build(&build);
    save(&exe, &out_path)?;
    Ok(format!(
        "wrote {out_path}: {} instructions, {} bytes of data+bss\n",
        exe.text_len(),
        exe.data_end() - exe.data_base()
    ))
}

pub(crate) fn disasm(mut args: Args) -> Result<String, CliError> {
    let path = args
        .positional()
        .ok_or_else(|| err("disasm needs a file"))?;
    args.finish()?;
    Ok(load(&path)?.disassemble())
}

pub(crate) fn cfg(mut args: Args) -> Result<String, CliError> {
    let path = args.positional().ok_or_else(|| err("cfg needs a file"))?;
    args.finish()?;
    let exe = load(&path)?;
    let cfg = Cfg::build(&exe).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    for (ri, r) in cfg.routines.iter().enumerate() {
        out.push_str(&format!(
            "routine {ri} `{}`: {} blocks, {} instructions\n",
            r.name,
            r.blocks.len(),
            r.end - r.start
        ));
        for (bi, b) in r.blocks.iter().enumerate() {
            let succs: Vec<String> = b
                .succs
                .iter()
                .map(|e| match e {
                    Edge::Fall(t) => format!("fall:{t}"),
                    Edge::Taken(t) => format!("taken:{t}"),
                    Edge::Exit => "exit".into(),
                })
                .collect();
            out.push_str(&format!(
                "  block {bi}: @{:#x} len {} -> [{}]\n",
                exe.text_addr(b.start),
                b.len,
                succs.join(", ")
            ));
        }
    }
    out.push_str(&format!(
        "total: {} blocks, mean static size {:.2}\n",
        cfg.block_count(),
        cfg.mean_block_len()
    ));
    Ok(out)
}

pub(crate) fn instrument(mut args: Args) -> Result<String, CliError> {
    let out_path = args.value("-o")?;
    let mode = args.value("--mode")?;
    let schedule = args.machine("--schedule")?;
    let path = args
        .positional()
        .ok_or_else(|| err("instrument needs a file"))?;
    let out_path = out_path.ok_or_else(|| err("instrument needs -o FILE"))?;
    args.finish()?;
    let trace = match mode.as_deref() {
        None | Some("slow") => false,
        Some("trace") => true,
        Some(other) => return Err(err(format!("unknown mode `{other}`"))),
    };
    let exe = load(&path)?;
    let mut session = EditSession::new(&exe).map_err(|e| err(e.to_string()))?;
    let what = if trace {
        let t = Tracer::instrument(&mut session, TraceOptions::default());
        format!(
            "address tracing: {} memory operations, ring at {:#x}",
            t.traced_ops(),
            t.buffer_base()
        )
    } else {
        let p = Profiler::instrument(&mut session, ProfileOptions::default());
        format!(
            "slow profiling: {} counters (+{} skipped), table at {:#x}",
            p.instrumented_blocks(),
            p.skipped_blocks(),
            p.counter_base()
        )
    };
    let edited = match &schedule {
        Some(model) => session
            .emit(Scheduler::new(model.clone()).transform())
            .map_err(|e| err(e.to_string()))?,
        None => session.emit_unscheduled().map_err(|e| err(e.to_string()))?,
    };
    save(&edited, &out_path)?;
    let sched = schedule
        .map(|m| format!(", scheduled for {}", m.name()))
        .unwrap_or_default();
    Ok(format!(
        "wrote {out_path}: {} -> {} instructions ({what}{sched})\n",
        exe.text_len(),
        edited.text_len()
    ))
}

pub(crate) fn run(mut args: Args) -> Result<String, CliError> {
    let machine = args.machine("--machine")?;
    let branch_penalty = args.parsed("--branch-penalty")?.unwrap_or(0);
    let load_bias = args.parsed("--load-bias")?.unwrap_or(0);
    let path = args.positional().ok_or_else(|| err("run needs a file"))?;
    args.finish()?;
    let model = machine
        .map(|m| {
            let max = m.max_load_latency_bias();
            if load_bias > max {
                return Err(err(format!(
                    "--load-bias {load_bias} is above {}'s limit of {max}",
                    m.name()
                )));
            }
            Ok(m.with_load_latency_bias(load_bias))
        })
        .transpose()?;
    let exe = load(&path)?;
    let cfg = RunConfig {
        timing: model.as_ref().map(|_| TimingConfig {
            taken_branch_penalty: branch_penalty,
            ..TimingConfig::default()
        }),
        ..RunConfig::default()
    };
    let result = simulate(&exe, model.as_ref(), &cfg).map_err(|e| err(e.to_string()))?;
    let mut out = format!(
        "exit code {}\n{} instructions, {} memory ops, {} taken branches\n",
        result.exit_code, result.instructions, result.mem_ops, result.taken_branches
    );
    if let Some(m) = &model {
        out.push_str(&format!(
            "{} cycles on {} (CPI {:.2}, {:.3} simulated ms)\n",
            result.cycles,
            m.name(),
            result.cpi(),
            result.seconds(m.clock_mhz()) * 1e3
        ));
    }
    Ok(out)
}

pub(crate) fn profile(mut args: Args) -> Result<String, CliError> {
    let model = args
        .machine("--machine")?
        .unwrap_or_else(MachineModel::ultrasparc);
    let schedule = args.flag("--schedule");
    let path = args
        .positional()
        .ok_or_else(|| err("profile needs a file"))?;
    args.finish()?;
    let exe = load(&path)?;
    let mut session = EditSession::new(&exe).map_err(|e| err(e.to_string()))?;
    let prof = Profiler::instrument(&mut session, ProfileOptions::default());
    let edited = if schedule {
        session
            .emit(Scheduler::new(model.clone()).transform())
            .map_err(|e| err(e.to_string()))?
    } else {
        session.emit_unscheduled().map_err(|e| err(e.to_string()))?
    };
    let result = simulate(&edited, None, &RunConfig::default()).map_err(|e| err(e.to_string()))?;
    let mut mem = result.memory.clone();
    let mut counts: Vec<_> = prof
        .profile(|a| mem.read_u32(a).expect("counter readable"))
        .into_iter()
        .collect();
    counts.sort();
    let cfg = session.cfg();
    let mut out = String::from("routine:block        address  executions\n");
    for ((r, b), n) in counts {
        let addr = exe.text_addr(cfg.routines[r].blocks[b].start);
        out.push_str(&format!("{r:>3}:{b:<12} {addr:#010x}  {n}\n"));
    }
    Ok(out)
}

pub(crate) fn explain(mut args: Args) -> Result<String, CliError> {
    let model = args
        .machine("--machine")?
        .unwrap_or_else(MachineModel::ultrasparc);
    let routine = args.parsed("--routine")?.unwrap_or(0);
    let block: Option<usize> = args.parsed("--block")?;
    let chrome = args.value("--chrome")?;
    let priority = args
        .value("--policy")?
        .map(|p| policy_by_name(&p))
        .transpose()?
        .unwrap_or_default();
    // `--policy exact` already schedules with the oracle, so it
    // implies the gap rendering `--exact` asks for.
    let exact = args.flag("--exact") || priority == Priority::Exact;
    let exact_budget = args.parsed("--exact-budget")?;
    let path = args
        .positional()
        .ok_or_else(|| err("explain needs a file"))?;
    args.finish()?;
    if chrome.is_some() && block.is_none() {
        return Err(err("--chrome needs --block B (one block per trace)"));
    }
    if exact_budget.is_some() && !exact {
        return Err(err("--exact-budget needs --exact (or --policy exact)"));
    }
    let exe = load(&path)?;
    let session = EditSession::new(&exe).map_err(|e| err(e.to_string()))?;
    let n_blocks = session
        .cfg()
        .routines
        .get(routine)
        .ok_or_else(|| err(format!("no routine {routine}")))?
        .blocks
        .len();
    let name = session.cfg().routines[routine].name.clone();
    let sched = Scheduler::with_options(
        model.clone(),
        SchedOptions {
            priority,
            exact_budget: exact_budget.unwrap_or(eel_core::DEFAULT_EXACT_BUDGET),
            ..SchedOptions::default()
        },
    );
    let blocks: Vec<usize> = match block {
        Some(b) if b >= n_blocks => return Err(err(format!("no block {routine}:{b}"))),
        Some(b) => vec![b],
        None => (0..n_blocks).collect(),
    };
    let mut out = format!(
        "stall attribution on {} ({priority}), routine {routine} `{name}`\n",
        model.name()
    );
    for b in blocks {
        let blk = &session.cfg().routines[routine].blocks[b];
        let addr = exe.text_addr(blk.start);
        let code = session.block_code(routine, b);
        let before_insns: Vec<Instruction> = code.instructions().collect();
        let oracle = exact.then(|| sched.exact_block(&code));
        let ex = sched.explain_block(code);
        out.push_str(&format!(
            "block {b} @{addr:#x}: {} instructions\n  before: {:>3} issue cycles, \
             {:>3} stall cycles  [{}]\n  after:  {:>3} issue cycles, {:>3} stall \
             cycles  [{}]\n",
            before_insns.len(),
            ex.before.issue_latency(),
            ex.before.stalls,
            ex.before_profile.summary(&model),
            ex.after.issue_latency(),
            ex.after.stalls,
            ex.after_profile.summary(&model),
        ));
        if let Some(o) = &oracle {
            let verdict = if o.budget_exhausted {
                format!(
                    "budget exhausted after {} nodes, list schedule kept",
                    o.nodes
                )
            } else {
                format!("proven optimal in {} nodes", o.nodes)
            };
            // Body-only cycles: the oracle never reorders the control
            // tail, so its baseline is the list schedule's body
            // latency, not the full-block timing of the lines above.
            out.push_str(&format!(
                "  exact:  body {:>3} -> {:>3} issue cycles, gap {:>3} cycles  \
                 [{verdict}]\n",
                o.list_latency,
                o.latency,
                o.gap(),
            ));
        }
        if block.is_none() {
            continue;
        }
        // Single-block mode: full attribution tables and issue traces
        // on both sides of the scheduler.
        let after_insns: Vec<Instruction> = ex.scheduled.instructions().collect();
        out.push_str("\nbefore scheduling:\n");
        out.push_str(&indent(&render_issue_trace(&model, &before_insns)));
        out.push_str(&indent(&ex.before_profile.render(&model)));
        out.push_str("\nafter scheduling:\n");
        out.push_str(&indent(&render_issue_trace(&model, &after_insns)));
        out.push_str(&indent(&ex.after_profile.render(&model)));
        if let Some(chrome_path) = &chrome {
            write(chrome_path, &chrome_trace(&model, &after_insns))?;
            out.push_str(&format!(
                "\nwrote {chrome_path}: load it in chrome://tracing or \
                 https://ui.perfetto.dev\n"
            ));
        }
    }
    Ok(out)
}

pub(crate) fn sadl(mut args: Args) -> Result<String, CliError> {
    let groups = args.flag("--groups");
    let path = args.positional().ok_or_else(|| err("sadl needs a file"))?;
    args.finish()?;
    let src = fs::read_to_string(&path).map_err(|e| err(format!("{path}: {e}")))?;
    let model = MachineModel::from_source(&src).map_err(|e| err(e.to_string()))?;
    let desc = model.desc();
    let mut out = format!(
        "{}: {}-way issue, {} MHz\nunits:",
        desc.machine, desc.issue_width, desc.clock_mhz
    );
    for u in &desc.units {
        out.push_str(&format!(" {}x{}", u.name, u.count));
    }
    out.push_str(&format!(
        "\n{} timing groups over {} bound mnemonics; every instruction covered\n",
        desc.groups.len(),
        desc.mnemonics().count()
    ));
    if groups {
        let mut names: Vec<&str> = desc.mnemonics().collect();
        names.sort_unstable();
        for name in names {
            let g = desc.group_for(name).expect("bound");
            out.push_str(&format!(
                "  {name:<8} group {:>2}: {} cycles\n",
                desc.group_id(name).expect("bound"),
                g.cycles
            ));
        }
    }
    Ok(out)
}
