//! The straightforward `pipeline_stalls` implementation, retained as
//! an executable specification.
//!
//! [`ReferencePipeline`] is the pre-reservation-table
//! [`crate::PipelineState`]: a `VecDeque` of per-cycle free-unit rows,
//! interpreting each instruction's sparse occupancy lists and timing
//! group on every query. It is deliberately simple and obviously
//! faithful to the paper's Appendix A (with the same
//! reservation-table reformulation of mid-pipe stalls).
//!
//! The flat-scoreboard `PipelineState` must agree with this
//! implementation **byte for byte** — same stall counts, same issue
//! placements — on every instruction stream and every model. The
//! property test `tests/flat_vs_reference.rs` enforces that; any
//! future hot-path optimization has to keep it green.

use std::collections::VecDeque;

use eel_sparc::{Instruction, Resource};

use crate::attr::StallCause;
use crate::model::{class_of, MachineModel};
use crate::state::IssueInfo;

/// Hard bound on the stall search; hit only by inconsistent models.
const MAX_STALLS: u64 = 100_000;

/// The baseline interpretation of the pipeline state: correct, slow,
/// and kept around so the optimized state machine can be checked
/// against it.
#[derive(Debug, Clone)]
pub struct ReferencePipeline {
    /// `window[i][u]` — free copies of unit `u` at cycle `base + i`.
    window: VecDeque<Vec<u32>>,
    /// Absolute cycle of `window[0]`.
    base: u64,
    /// Next candidate issue cycle (issue is in-order and monotone).
    cycle: u64,
    /// Per-resource: absolute cycle its most recent value is available.
    write_avail: Vec<u64>,
    /// Per-resource: last absolute cycle it is read.
    last_read: Vec<u64>,
    /// Initial per-unit copy counts (window rows start from this).
    counts: Vec<u32>,
}

impl ReferencePipeline {
    /// An empty pipeline for the given machine.
    pub fn new(model: &MachineModel) -> ReferencePipeline {
        ReferencePipeline {
            window: VecDeque::new(),
            base: 0,
            cycle: 0,
            write_avail: vec![0; Resource::COUNT],
            last_read: vec![0; Resource::COUNT],
            counts: model.unit_counts(),
        }
    }

    /// Clears all history, returning to an empty pipe at cycle 0.
    pub fn reset(&mut self) {
        self.window.clear();
        self.base = 0;
        self.cycle = 0;
        self.write_avail.fill(0);
        self.last_read.fill(0);
    }

    /// The next candidate issue cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    fn row(&mut self, abs: u64) -> &mut Vec<u32> {
        debug_assert!(abs >= self.base, "window rows are dropped once past");
        let idx = (abs - self.base) as usize;
        while self.window.len() <= idx {
            self.window.push_back(self.counts.clone());
        }
        &mut self.window[idx]
    }

    fn free_at(&self, abs: u64, unit: usize) -> u32 {
        if abs < self.base {
            return self.counts[unit];
        }
        let idx = (abs - self.base) as usize;
        self.window
            .get(idx)
            .map(|r| r[unit])
            .unwrap_or(self.counts[unit])
    }

    /// Drops window rows that can no longer be touched (before the
    /// current issue cycle).
    fn trim(&mut self) {
        while self.base < self.cycle && self.window.pop_front().is_some() {
            self.base += 1;
        }
        if self.window.is_empty() {
            self.base = self.cycle;
        }
    }

    /// Whether `insn` could flow through the pipe starting at absolute
    /// cycle `t` without structural or register hazards.
    fn can_issue_at(&self, model: &MachineModel, insn: &Instruction, t: u64) -> bool {
        self.classify_at(model, insn, t).is_none()
    }

    /// The first hazard preventing issue at absolute cycle `t`, or
    /// `None` if the instruction can issue. The check order here —
    /// structural (pattern cycles ascending, units ascending), then
    /// RAW per operand, then WAW/WAR per result — **defines** the
    /// attribution taxonomy; the flat scoreboard's classifier must
    /// agree with it cause for cause (see `crate::attr` and the
    /// differential proptest).
    fn classify_at(&self, model: &MachineModel, insn: &Instruction, t: u64) -> Option<StallCause> {
        let group = model.group(insn);

        // Structural hazards: in every cycle of the group's pattern,
        // the units it holds must be free.
        for (c, held) in model.usage(insn).iter().enumerate() {
            for &(u, n) in held {
                if self.free_at(t + c as u64, u) < n {
                    return Some(StallCause::Structural { unit: u });
                }
            }
        }

        // RAW: each operand must be read no earlier than the cycle its
        // value becomes available.
        for r in insn.uses() {
            let read = u64::from(group.read_cycle(class_of(r)).unwrap_or(0));
            if t + read < self.write_avail[r.index()] {
                return Some(StallCause::Raw { resource: r });
            }
        }

        for r in insn.defs() {
            let wc = u64::from(group.write_cycle(class_of(r)).unwrap_or(group.cycles));
            let avail = t + wc + 1;
            // WAW: our value must become available strictly after the
            // previous value of the same resource.
            if avail <= self.write_avail[r.index()] {
                return Some(StallCause::Waw { resource: r });
            }
            // WAR: our value must not appear before the last scheduled
            // read of the previous value.
            if avail < self.last_read[r.index()] {
                return Some(StallCause::War { resource: r });
            }
        }
        None
    }

    /// The number of stall cycles the next instruction must wait
    /// before entering the pipe.
    ///
    /// # Panics
    ///
    /// Panics if no issue slot exists within 100 000 cycles.
    pub fn stalls(&self, model: &MachineModel, insn: &Instruction) -> u64 {
        for s in 0..MAX_STALLS {
            if self.can_issue_at(model, insn, self.cycle + s) {
                return s;
            }
        }
        panic!(
            "no issue slot within {MAX_STALLS} cycles for `{insn}` on {}",
            model.name()
        );
    }

    /// The cause of each cycle `insn` would stall before issuing, in
    /// cycle order; its length is [`ReferencePipeline::stalls`]. The
    /// specification the flat scoreboard's
    /// [`crate::PipelineState::stall_causes`] must match.
    ///
    /// # Panics
    ///
    /// As [`ReferencePipeline::stalls`].
    pub fn stall_causes(&self, model: &MachineModel, insn: &Instruction) -> Vec<StallCause> {
        let stalls = self.stalls(model, insn);
        (self.cycle..self.cycle + stalls)
            .map(|t| {
                self.classify_at(model, insn, t)
                    .expect("a stalled cycle has a failing hazard check")
            })
            .collect()
    }

    /// Issues `insn`, updating unit occupancy and register history,
    /// and returns where it landed.
    pub fn issue(&mut self, model: &MachineModel, insn: &Instruction) -> IssueInfo {
        let stalls = self.stalls(model, insn);
        let t = self.cycle + stalls;
        let group = model.group(insn);

        let usage = model.usage(insn).to_vec();
        for (c, held) in usage.iter().enumerate() {
            let abs = t + c as u64;
            for &(u, n) in held {
                let row = self.row(abs);
                debug_assert!(row[u] >= n, "issue checked availability");
                row[u] -= n;
            }
        }

        for r in insn.uses() {
            let read = t + u64::from(group.read_cycle(class_of(r)).unwrap_or(0));
            let lr = &mut self.last_read[r.index()];
            *lr = (*lr).max(read);
        }
        for r in insn.defs() {
            let wc = u64::from(group.write_cycle(class_of(r)).unwrap_or(group.cycles));
            self.write_avail[r.index()] = t + wc + 1;
        }

        self.cycle = t;
        self.trim();
        IssueInfo {
            stalls,
            cycle: t,
            completes: t + u64::from(group.cycles),
        }
    }

    /// Advances the issue point past the current cycle.
    pub fn advance(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.trim();
    }

    /// Delays the availability of `insn`'s results by `extra` cycles.
    /// Call right after [`ReferencePipeline::issue`] returns for the
    /// same instruction.
    pub fn add_result_latency(&mut self, insn: &Instruction, extra: u64) {
        if extra == 0 {
            return;
        }
        for r in insn.defs() {
            self.write_avail[r.index()] += extra;
        }
    }
}
