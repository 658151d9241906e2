//! Stall-cause attribution: *why* each stall cycle was lost.
//!
//! `pipeline_stalls` (the paper's Appendix A) answers *how many*
//! cycles a candidate instruction must wait; this module answers
//! *why* — which SADL `unit` was contended, or which register carried
//! the RAW/WAR/WAW hazard — without touching the scheduler's hot
//! path.
//!
//! # One query, one record
//!
//! Each pipeline answers one attribution query, `stall_causes`
//! ([`PipelineState::stall_causes`],
//! [`crate::ReferencePipeline::stall_causes`]): the cause of each
//! cycle the next instruction would stall, in cycle order, so the
//! stall count is the list's length. [`StallProfile`] is the one
//! record: a count per cause. [`StallProfile::issue`] asks the query
//! once, records each cause and issues with that count. The hot paths
//! — the scheduler's candidate loop and the simulator's unattributed
//! runs — call `stalls_prepared` / `issue_prepared` directly and so
//! carry no classification branch or state at all; only callers that
//! want causes pay for them.
//!
//! # The attribution taxonomy
//!
//! Every stalled cycle gets exactly one [`StallCause`], chosen by
//! replaying the hazard checks **in the reference pipeline's
//! `can_issue_at` order** and reporting the first that fails:
//!
//! 1. structural — demand rows in ascending cycle, units in ascending
//!    id: the first unit with fewer free copies than the row demands;
//! 2. RAW — operands in `Instruction::uses` order: the first operand
//!    whose value is not yet available at its read cycle;
//! 3. per result in `Instruction::defs` order: WAW (our value would
//!    not become available strictly after the previous writer's),
//!    then WAR (our value would appear before the last scheduled read
//!    of the previous value).
//!
//! Both pipeline implementations classify with this same order, so
//! the flat scoreboard and [`crate::ReferencePipeline`] agree not
//! just on stall *counts* but on per-cycle *causes* — pinned by the
//! differential proptest in `tests/flat_vs_reference.rs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use eel_sparc::{Instruction, Resource};

use crate::model::{MachineModel, PreparedInsn};
use crate::state::{BlockTiming, IssueInfo, PipelineState};

/// Why one stall cycle was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// A structural hazard: too few free copies of a SADL unit in
    /// some cycle of the candidate's reservation pattern.
    Structural {
        /// The contended unit's id in the machine description
        /// (resolve to a name with `ArchDescription::unit_name`).
        unit: usize,
    },
    /// A read-after-write hazard: the operand's value is not yet
    /// available at the cycle the candidate would read it.
    Raw {
        /// The operand register (or condition-code/Y resource).
        resource: Resource,
    },
    /// A write-after-read hazard: the candidate's result would appear
    /// before the last scheduled read of the previous value.
    War {
        /// The written register.
        resource: Resource,
    },
    /// A write-after-write hazard: the candidate's result would not
    /// become available strictly after the previous writer's.
    Waw {
        /// The written register.
        resource: Resource,
    },
}

impl StallCause {
    /// A short human-readable label, resolving structural unit ids
    /// through the model's description (e.g. `structural:IEU`,
    /// `raw:%o1`).
    pub fn label(&self, model: &MachineModel) -> String {
        let (kind, name) = self.name(model);
        format!("{kind}:{name}")
    }

    /// The cause's kind and the unit or register it names.
    fn name(&self, model: &MachineModel) -> (&'static str, String) {
        match *self {
            StallCause::Structural { unit } => (
                "structural",
                model.desc().unit_name(unit).unwrap_or("?").to_string(),
            ),
            StallCause::Raw { resource } => ("raw", resource.to_string()),
            StallCause::War { resource } => ("war", resource.to_string()),
            StallCause::Waw { resource } => ("waw", resource.to_string()),
        }
    }
}

/// Aggregate stall attribution: how many stall cycles each cause ate.
///
/// The invariant surfaced by `eel explain` and the engine's
/// `stall_breakdown`: [`StallProfile::total`] equals the sequence's
/// total stall cycles exactly — every stalled cycle is classified,
/// once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallProfile {
    /// Stall cycles per cause, in [`StallCause`]'s order: structural
    /// by unit id, then RAW, WAR and WAW by register.
    pub causes: BTreeMap<StallCause, u64>,
}

impl StallProfile {
    /// Issues `insn` (prepared as `p`) on `pipe`, recording the cause
    /// of each cycle it stalls: one [`PipelineState::stall_causes`]
    /// query, whose length is the count
    /// [`PipelineState::issue_queried`] issues with.
    pub fn issue(
        &mut self,
        pipe: &mut PipelineState,
        model: &MachineModel,
        insn: &Instruction,
        p: &PreparedInsn,
    ) -> IssueInfo {
        let causes = pipe.stall_causes(model, insn, p);
        for &cause in &causes {
            *self.causes.entry(cause).or_insert(0) += 1;
        }
        pipe.issue_queried(model, insn, p, causes.len() as u64)
    }

    /// Total stall cycles whose cause `kind` accepts.
    fn sum(&self, kind: impl Fn(&StallCause) -> bool) -> u64 {
        self.causes
            .iter()
            .filter(|(c, _)| kind(c))
            .map(|(_, &n)| n)
            .sum()
    }

    /// Total stall cycles lost to structural hazards.
    pub fn structural_total(&self) -> u64 {
        self.sum(|c| matches!(c, StallCause::Structural { .. }))
    }

    /// Total stall cycles lost to RAW hazards.
    pub fn raw_total(&self) -> u64 {
        self.sum(|c| matches!(c, StallCause::Raw { .. }))
    }

    /// Total stall cycles lost to WAR hazards.
    pub fn war_total(&self) -> u64 {
        self.sum(|c| matches!(c, StallCause::War { .. }))
    }

    /// Total stall cycles lost to WAW hazards.
    pub fn waw_total(&self) -> u64 {
        self.sum(|c| matches!(c, StallCause::Waw { .. }))
    }

    /// Total classified stall cycles — equals the sequence's total
    /// stall count exactly.
    pub fn total(&self) -> u64 {
        self.causes.values().sum()
    }

    /// The most contended units, `(unit id, stall cycles)`, heaviest
    /// first (ties broken by unit id for determinism), at most `n`.
    pub fn top_units(&self, n: usize) -> Vec<(usize, u64)> {
        let mut units: Vec<(usize, u64)> = self
            .causes
            .iter()
            .filter_map(|(c, &n)| match *c {
                StallCause::Structural { unit } => Some((unit, n)),
                _ => None,
            })
            .collect();
        units.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        units.truncate(n);
        units
    }

    /// A one-line summary resolving unit ids and resource indices to
    /// names, e.g. `structural 3 (IEU 2, LSU 1) | raw 2 (%o1 2)`.
    /// Cause kinds with zero cycles are omitted; an empty profile
    /// renders as `no stalls`.
    pub fn summary(&self, model: &MachineModel) -> String {
        // Per kind, in order: its total and its `name cycles` items.
        let mut kinds: Vec<(&str, u64, Vec<String>)> = Vec::new();
        for (cause, &n) in &self.causes {
            let (kind, name) = cause.name(model);
            match kinds.last_mut() {
                Some((k, total, items)) if *k == kind => {
                    *total += n;
                    items.push(format!("{name} {n}"));
                }
                _ => kinds.push((kind, n, vec![format!("{name} {n}")])),
            }
        }
        if kinds.is_empty() {
            return "no stalls".to_string();
        }
        kinds
            .iter()
            .map(|(kind, total, items)| format!("{kind} {total} ({})", items.join(", ")))
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// A multi-line attribution table resolving names through the
    /// model, with a `total` row — the rendering `eel explain` prints
    /// per block.
    pub fn render(&self, model: &MachineModel) -> String {
        let mut out = String::new();
        let total = self.total();
        let mut row = |label: String, cycles: u64| {
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * cycles as f64 / total as f64
            };
            let _ = writeln!(out, "  {label:<24} {cycles:>8}  {pct:>5.1}%");
        };
        for (cause, &n) in &self.causes {
            let (kind, name) = cause.name(model);
            row(format!("{kind} {name}"), n);
        }
        row("total".to_string(), total);
        out
    }
}

/// Times a straight-line sequence on an empty pipe, attributing every
/// stall cycle — the recorded counterpart of
/// [`crate::evaluate_block`].
pub fn attribute_block(model: &MachineModel, insns: &[Instruction]) -> (BlockTiming, StallProfile) {
    let mut pipe = PipelineState::new(model);
    let mut profile = StallProfile::default();
    let timing = insns
        .iter()
        .map(|insn| profile.issue(&mut pipe, model, insn, &model.prepare(insn)))
        .collect();
    (timing, profile)
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

    fn load(base: IntReg, rd: IntReg) -> Instruction {
        Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(base, 0),
            rd,
        }
    }

    #[test]
    fn load_use_stall_attributed_to_raw_on_loaded_register() {
        let m = MachineModel::ultrasparc();
        let block = [load(IntReg::O0, IntReg::O1), add(IntReg::O1, IntReg::O2)];
        let (timing, profile) = attribute_block(&m, &block);
        assert_eq!(profile.total(), timing.stalls);
        assert_eq!(
            profile.causes.get(&StallCause::Raw {
                resource: Resource::Int(IntReg::O1)
            }),
            Some(&timing.stalls),
            "every stall is a RAW on %o1: {profile:?}"
        );
    }

    #[test]
    fn alu_contention_attributed_to_structural_unit() {
        // hyperSPARC has one arithmetic ALU: the second independent
        // add stalls on it, not on any register.
        let m = MachineModel::hypersparc();
        let block = [add(IntReg::O0, IntReg::O0), add(IntReg::O1, IntReg::O1)];
        let (timing, profile) = attribute_block(&m, &block);
        assert!(timing.stalls > 0);
        assert_eq!(profile.structural_total(), timing.stalls, "{profile:?}");
        assert_eq!(
            profile.raw_total() + profile.war_total() + profile.waw_total(),
            0
        );
        let alu = m.desc().unit_id("ALU").unwrap();
        assert_eq!(profile.top_units(5), vec![(alu, timing.stalls)]);
    }

    #[test]
    fn waw_attributed_to_rewritten_register() {
        // Two IEUs on the UltraSPARC, so back-to-back writes of %o0
        // clear the structural check and the stall lands on WAW.
        let m = MachineModel::ultrasparc();
        let block = [add(IntReg::O1, IntReg::O0), add(IntReg::O2, IntReg::O0)];
        let (timing, profile) = attribute_block(&m, &block);
        assert!(timing.stalls > 0);
        assert_eq!(
            profile.causes.get(&StallCause::Waw {
                resource: Resource::Int(IntReg::O0)
            }),
            Some(&timing.stalls),
            "{profile:?}"
        );
    }

    #[test]
    fn profile_summary_and_render() {
        let m = MachineModel::ultrasparc();
        let block = [load(IntReg::O0, IntReg::O1), add(IntReg::O1, IntReg::O2)];
        let (_, p1) = attribute_block(&m, &block);
        let s = p1.summary(&m);
        assert!(s.contains("raw") && s.contains("%o1"), "{s}");
        assert_eq!(StallProfile::default().summary(&m), "no stalls");
        let rendered = p1.render(&m);
        assert!(rendered.contains("total"), "{rendered}");
    }
}
