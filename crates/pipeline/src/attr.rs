//! Stall-cause attribution: *why* each stall cycle was lost.
//!
//! `pipeline_stalls` (the paper's Appendix A) answers *how many*
//! cycles a candidate instruction must wait; this module answers
//! *why* — which SADL `unit` was contended, or which register carried
//! the RAW/WAR/WAW hazard — without touching the scheduler's hot
//! path.
//!
//! # Attribution is a separate call
//!
//! [`PipelineState::stalls_with`] and [`PipelineState::issue_with`]
//! classify every stalled cycle into a [`StallSink`] such as
//! [`StallRecorder`] or [`CollectSink`]. The hot paths — the
//! scheduler's candidate loop and the simulator's unattributed runs —
//! call `stalls_prepared` / `issue_prepared` directly and so carry no
//! classification branch or state at all; only callers that want
//! causes pay for them.
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
//!
//! [`PipelineState::stalls_with`]: crate::PipelineState::stalls_with
//! [`PipelineState::issue_with`]: crate::PipelineState::issue_with

use std::collections::BTreeMap;
use std::fmt::Write as _;

use eel_sparc::{Instruction, Resource};

use crate::model::MachineModel;
use crate::state::{BlockTiming, PipelineState};

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
        match *self {
            StallCause::Structural { unit } => {
                let name = model.desc().unit_name(unit).unwrap_or("?");
                format!("structural:{name}")
            }
            StallCause::Raw { resource } => format!("raw:{resource}"),
            StallCause::War { resource } => format!("war:{resource}"),
            StallCause::Waw { resource } => format!("waw:{resource}"),
        }
    }
}

/// A consumer of per-cycle stall classifications.
pub trait StallSink {
    /// One stalled cycle at absolute cycle `cycle`, lost to `cause`.
    fn stall(&mut self, cycle: u64, cause: StallCause);
}

/// A sink that simply collects `(cycle, cause)` events — used by the
/// differential tests and the Chrome-trace exporter.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    /// Every classified stall cycle, in query order.
    pub events: Vec<(u64, StallCause)>,
}

impl StallSink for CollectSink {
    fn stall(&mut self, cycle: u64, cause: StallCause) {
        self.events.push((cycle, cause));
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
    /// Stall cycles charged to each contended unit, by unit id.
    pub structural: BTreeMap<usize, u64>,
    /// RAW stall cycles per operand resource (dense index).
    pub raw: BTreeMap<usize, u64>,
    /// WAR stall cycles per written resource (dense index).
    pub war: BTreeMap<usize, u64>,
    /// WAW stall cycles per written resource (dense index).
    pub waw: BTreeMap<usize, u64>,
    /// RAW stall cycles per `(resource index, producer label)`, when
    /// the recording sink knew the producing instruction. Labels are
    /// caller-chosen (block position for the scheduler, text word
    /// index for the simulator).
    pub producers: BTreeMap<(usize, u32), u64>,
}

impl StallProfile {
    /// Adds one stall cycle under `cause`.
    pub fn record(&mut self, cause: StallCause) {
        match cause {
            StallCause::Structural { unit } => *self.structural.entry(unit).or_insert(0) += 1,
            StallCause::Raw { resource } => *self.raw.entry(resource.index()).or_insert(0) += 1,
            StallCause::War { resource } => *self.war.entry(resource.index()).or_insert(0) += 1,
            StallCause::Waw { resource } => *self.waw.entry(resource.index()).or_insert(0) += 1,
        }
    }

    /// Total stall cycles lost to structural hazards.
    pub fn structural_total(&self) -> u64 {
        self.structural.values().sum()
    }

    /// Total stall cycles lost to RAW hazards.
    pub fn raw_total(&self) -> u64 {
        self.raw.values().sum()
    }

    /// Total stall cycles lost to WAR hazards.
    pub fn war_total(&self) -> u64 {
        self.war.values().sum()
    }

    /// Total stall cycles lost to WAW hazards.
    pub fn waw_total(&self) -> u64 {
        self.waw.values().sum()
    }

    /// Total classified stall cycles — equals the sequence's total
    /// stall count exactly.
    pub fn total(&self) -> u64 {
        self.structural_total() + self.raw_total() + self.war_total() + self.waw_total()
    }

    /// Whether no stall cycle has been recorded.
    pub fn is_empty(&self) -> bool {
        self.structural.is_empty()
            && self.raw.is_empty()
            && self.war.is_empty()
            && self.waw.is_empty()
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &StallProfile) {
        for (&u, &n) in &other.structural {
            *self.structural.entry(u).or_insert(0) += n;
        }
        for (&r, &n) in &other.raw {
            *self.raw.entry(r).or_insert(0) += n;
        }
        for (&r, &n) in &other.war {
            *self.war.entry(r).or_insert(0) += n;
        }
        for (&r, &n) in &other.waw {
            *self.waw.entry(r).or_insert(0) += n;
        }
        for (&k, &n) in &other.producers {
            *self.producers.entry(k).or_insert(0) += n;
        }
    }

    /// The most contended units, `(unit id, stall cycles)`, heaviest
    /// first (ties broken by unit id for determinism), at most `n`.
    pub fn top_units(&self, n: usize) -> Vec<(usize, u64)> {
        let mut units: Vec<(usize, u64)> = self.structural.iter().map(|(&u, &c)| (u, c)).collect();
        units.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        units.truncate(n);
        units
    }

    /// A one-line summary resolving unit ids and resource indices to
    /// names, e.g. `structural 3 (IEU 2, LSU 1) | raw 2 (%o1 2)`.
    /// Cause kinds with zero cycles are omitted; an empty profile
    /// renders as `no stalls`.
    pub fn summary(&self, model: &MachineModel) -> String {
        fn resources(map: &BTreeMap<usize, u64>) -> String {
            map.iter()
                .map(|(&r, &n)| {
                    let name = Resource::from_index(r)
                        .map(|r| r.to_string())
                        .unwrap_or_else(|| format!("#{r}"));
                    format!("{name} {n}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        }
        let mut parts = Vec::new();
        if !self.structural.is_empty() {
            let units = self
                .structural
                .iter()
                .map(|(&u, &n)| format!("{} {n}", model.desc().unit_name(u).unwrap_or("?")))
                .collect::<Vec<_>>()
                .join(", ");
            parts.push(format!("structural {} ({units})", self.structural_total()));
        }
        if !self.raw.is_empty() {
            parts.push(format!(
                "raw {} ({})",
                self.raw_total(),
                resources(&self.raw)
            ));
        }
        if !self.war.is_empty() {
            parts.push(format!(
                "war {} ({})",
                self.war_total(),
                resources(&self.war)
            ));
        }
        if !self.waw.is_empty() {
            parts.push(format!(
                "waw {} ({})",
                self.waw_total(),
                resources(&self.waw)
            ));
        }
        if parts.is_empty() {
            "no stalls".to_string()
        } else {
            parts.join(" | ")
        }
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
        for (&u, &n) in &self.structural {
            let name = model.desc().unit_name(u).unwrap_or("?");
            row(format!("structural {name}"), n);
        }
        for (kind, map) in [("raw", &self.raw), ("war", &self.war), ("waw", &self.waw)] {
            for (&r, &n) in map {
                let name = Resource::from_index(r)
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| format!("#{r}"));
                row(format!("{kind} {name}"), n);
            }
        }
        row("total".to_string(), total);
        out
    }
}

/// A recording [`StallSink`] that aggregates causes into a
/// [`StallProfile`] and attributes RAW stalls to producing
/// instructions.
///
/// Producer tracking lives here — not in [`PipelineState`] — so the
/// hot pipeline state carries no attribution fields. Callers label
/// each issued instruction via [`StallRecorder::note_issue`]
/// immediately after its `issue_with`; the recorder remembers the
/// last writer of every resource and charges subsequent RAW stalls on
/// that resource to it.
#[derive(Debug, Clone)]
pub struct StallRecorder {
    profile: StallProfile,
    /// Per resource (dense index): label of the most recent writer.
    last_writer: [Option<u32>; Resource::COUNT],
}

impl Default for StallRecorder {
    fn default() -> StallRecorder {
        StallRecorder::new()
    }
}

impl StallRecorder {
    /// An empty recorder.
    pub fn new() -> StallRecorder {
        StallRecorder {
            profile: StallProfile::default(),
            last_writer: [None; Resource::COUNT],
        }
    }

    /// Registers that the instruction labeled `label` issued, so
    /// later RAW stalls on its results are charged to it. Call right
    /// after the corresponding `issue_with`.
    pub fn note_issue(&mut self, label: u32, insn: &Instruction) {
        for r in &insn.defs_fixed() {
            self.last_writer[r.index()] = Some(label);
        }
    }

    /// The profile accumulated so far.
    pub fn profile(&self) -> &StallProfile {
        &self.profile
    }

    /// Consumes the recorder, yielding its profile.
    pub fn into_profile(self) -> StallProfile {
        self.profile
    }
}

impl StallSink for StallRecorder {
    fn stall(&mut self, _cycle: u64, cause: StallCause) {
        self.profile.record(cause);
        if let StallCause::Raw { resource } = cause {
            if let Some(producer) = self.last_writer[resource.index()] {
                *self
                    .profile
                    .producers
                    .entry((resource.index(), producer))
                    .or_insert(0) += 1;
            }
        }
    }
}

/// Times a straight-line sequence on an empty pipe, attributing every
/// stall cycle — the recorded counterpart of
/// [`crate::evaluate_block`]. Instructions are labeled by position,
/// so `profile.producers` names producers by block index.
pub fn attribute_block(model: &MachineModel, insns: &[Instruction]) -> (BlockTiming, StallProfile) {
    let mut state = PipelineState::new(model);
    let mut rec = StallRecorder::new();
    let mut issue_cycles = Vec::with_capacity(insns.len());
    let mut stalls = 0;
    let mut completes = 0;
    for (i, insn) in insns.iter().enumerate() {
        let p = model.prepare(insn);
        let info = state.issue_with(model, insn, &p, &mut rec);
        rec.note_issue(i as u32, insn);
        issue_cycles.push(info.cycle);
        stalls += info.stalls;
        completes = completes.max(info.completes);
    }
    (
        BlockTiming {
            issue_cycles,
            stalls,
            completes,
        },
        rec.into_profile(),
    )
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
            profile.raw.get(&Resource::Int(IntReg::O1).index()),
            Some(&timing.stalls),
            "every stall is a RAW on %o1: {profile:?}"
        );
        // The producer is the load, block index 0.
        assert_eq!(
            profile
                .producers
                .get(&(Resource::Int(IntReg::O1).index(), 0)),
            Some(&timing.stalls)
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
            profile.waw.get(&Resource::Int(IntReg::O0).index()),
            Some(&timing.stalls),
            "{profile:?}"
        );
    }

    #[test]
    fn profile_merge_and_summary() {
        let m = MachineModel::ultrasparc();
        let block = [load(IntReg::O0, IntReg::O1), add(IntReg::O1, IntReg::O2)];
        let (timing, p1) = attribute_block(&m, &block);
        let mut total = StallProfile::default();
        total.merge(&p1);
        total.merge(&p1);
        assert_eq!(total.total(), 2 * timing.stalls);
        let s = p1.summary(&m);
        assert!(s.contains("raw") && s.contains("%o1"), "{s}");
        assert_eq!(StallProfile::default().summary(&m), "no stalls");
        let rendered = p1.render(&m);
        assert!(rendered.contains("total"), "{rendered}");
    }
}
