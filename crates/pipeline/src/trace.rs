//! Issue-trace rendering: a per-cycle picture of how a straight-line
//! sequence flows through the modeled pipeline — the visual companion
//! to `pipeline_stalls`, useful in examples, debugging machine
//! descriptions, and documenting schedules.

use std::fmt::Write as _;

use eel_sparc::Instruction;
use eel_telemetry::trace::{chrome_trace_json, ChromeEvent};

use crate::model::MachineModel;
use crate::state::{evaluate_block, PipelineState};

/// Renders an issue trace as text: one line per cycle, the
/// instructions that issued together on it, and `-- stall --` markers
/// for empty cycles.
///
/// ```
/// use eel_pipeline::{render_issue_trace, MachineModel};
/// use eel_sparc::{Instruction, IntReg, Operand};
///
/// let model = MachineModel::ultrasparc();
/// let code = [
///     Instruction::mov(Operand::imm(1), IntReg::O0),
///     Instruction::mov(Operand::imm(2), IntReg::O1),
/// ];
/// let text = render_issue_trace(&model, &code);
/// assert!(text.starts_with("cycle"));
/// ```
pub fn render_issue_trace(model: &MachineModel, insns: &[Instruction]) -> String {
    let cycles = evaluate_block(model, insns).issue_cycles;
    let mut out = String::new();
    let last_cycle = cycles.last().copied().unwrap_or(0);
    for cycle in 0..=last_cycle {
        let in_cycle: Vec<&Instruction> = insns
            .iter()
            .zip(&cycles)
            .filter(|&(_, &c)| c == cycle)
            .map(|(insn, _)| insn)
            .collect();
        if in_cycle.is_empty() {
            let _ = writeln!(out, "cycle {cycle:>3}:   -- stall --");
            continue;
        }
        for (k, insn) in in_cycle.iter().enumerate() {
            if k == 0 {
                let _ = writeln!(out, "cycle {cycle:>3}:   {insn}");
            } else {
                let _ = writeln!(out, "            {insn}");
            }
        }
    }
    out
}

/// Renders a straight-line sequence as Chrome trace-event JSON
/// (`chrome://tracing` / Perfetto), showing per-cycle pipeline
/// occupancy: one timeline row per SADL unit with the instructions
/// holding it, an `issue` row with each instruction's issue slot, and
/// a `stalls` row with one labeled event per classified stall cycle
/// (cause taxonomy of `crate::attr`). One cycle maps to one
/// microsecond of trace time.
///
/// Load the returned string from a `.json` file in `chrome://tracing`
/// or <https://ui.perfetto.dev> to inspect a block's schedule
/// visually.
///
/// Rendering goes through `eel_telemetry::trace::chrome_trace_json`,
/// the same writer the whole-engine `eel trace --chrome` export uses.
pub fn chrome_trace(model: &MachineModel, insns: &[Instruction]) -> String {
    let mut pipe = PipelineState::new(model);

    // Unit rows first (tid 2 + unit id), then issue (0) and stalls (1).
    let desc = model.desc();
    let mut threads: Vec<(u64, String)> = vec![(0, "issue".to_string()), (1, "stalls".to_string())];
    for (u, unit) in desc.units.iter().enumerate() {
        threads.push((2 + u as u64, format!("unit {}", unit.name)));
    }

    let mut events: Vec<ChromeEvent> = Vec::new();
    // One event per classified stall cycle, after all the others.
    let mut stalls: Vec<ChromeEvent> = Vec::new();
    for (index, insn) in insns.iter().enumerate() {
        let p = model.prepare(insn);
        let causes = pipe.stall_causes(model, insn, &p);
        stalls.extend(
            causes
                .iter()
                .zip(pipe.cycle()..)
                .map(|(cause, cycle)| ChromeEvent {
                    name: cause.label(model),
                    cat: "stall".to_string(),
                    ts: cycle,
                    dur: 1,
                    tid: 1,
                    args: Vec::new(),
                }),
        );
        let info = pipe.issue_queried(model, insn, &p, causes.len() as u64);
        let name = insn.to_string();
        events.push(ChromeEvent {
            name: name.clone(),
            cat: "issue".to_string(),
            ts: info.cycle,
            dur: 1,
            tid: 0,
            args: vec![
                ("index".to_string(), index as u64),
                ("stalls".to_string(), info.stalls),
            ],
        });
        // Per-unit occupancy: contiguous runs of cycles holding each
        // unit become one span on that unit's row.
        let usage = model.usage(insn);
        for u in 0..desc.units.len() {
            let mut c = 0usize;
            while c < usage.len() {
                let copies = usage[c].iter().find(|&&(uu, _)| uu == u).map(|&(_, n)| n);
                match copies {
                    None => c += 1,
                    Some(n) => {
                        let start = c;
                        while c < usage.len() && usage[c].iter().any(|&(uu, nn)| uu == u && nn == n)
                        {
                            c += 1;
                        }
                        events.push(ChromeEvent {
                            name: name.clone(),
                            cat: "unit".to_string(),
                            ts: info.cycle + start as u64,
                            dur: (c - start) as u64,
                            tid: 2 + u as u64,
                            args: vec![("copies".to_string(), u64::from(n))],
                        });
                    }
                }
            }
        }
    }

    events.extend(stalls);
    chrome_trace_json(&threads, &events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::{Address, AluOp, IntReg, MemWidth, Operand};

    fn add(rs1: IntReg, rd: IntReg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            rs1,
            src2: Operand::imm(1),
            rd,
        }
    }

    #[test]
    fn render_shows_dual_issue() {
        let model = MachineModel::ultrasparc();
        let code = [add(IntReg::O0, IntReg::O0), add(IntReg::O1, IntReg::O1)];
        assert_eq!(
            render_issue_trace(&model, &code),
            format!("cycle   0:   {}\n            {}\n", code[0], code[1])
        );
    }

    #[test]
    fn render_shows_stall_gaps() {
        let model = MachineModel::ultrasparc();
        let code = [
            Instruction::Load {
                width: MemWidth::Word,
                addr: Address::base_imm(IntReg::O0, 0),
                rd: IntReg::O1,
            },
            add(IntReg::O1, IntReg::O2), // 2-cycle load-use gap
        ];
        let text = render_issue_trace(&model, &code);
        assert!(text.contains("-- stall --"), "{text}");
        assert!(text.contains("ld ["));
    }

    #[test]
    fn empty_sequence_renders_one_cycle() {
        let model = MachineModel::hypersparc();
        let text = render_issue_trace(&model, &[]);
        assert!(text.contains("cycle   0"));
    }

    #[test]
    fn chrome_trace_emits_unit_rows_and_stall_events() {
        let model = MachineModel::ultrasparc();
        let code = [
            Instruction::Load {
                width: MemWidth::Word,
                addr: Address::base_imm(IntReg::O0, 0),
                rd: IntReg::O1,
            },
            add(IntReg::O1, IntReg::O2), // load-use stall → raw:%o1
        ];
        let json = chrome_trace(&model, &code);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("thread_name"), "{json}");
        assert!(json.contains("raw:%o1"), "{json}");
        assert!(json.contains("\"cat\":\"unit\""), "{json}");
        // Every unit of the description gets a named row.
        for unit in &model.desc().units {
            assert!(
                json.contains(&format!("unit {}", unit.name)),
                "{}",
                unit.name
            );
        }
    }

    #[test]
    fn chrome_trace_escapes_json_strings() {
        use eel_telemetry::trace::json_escape;
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }
}
