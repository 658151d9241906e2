//! Pipeline state and the `pipeline_stalls` hazard computation
//! (the paper's Appendix A).
//!
//! [`PipelineState`] tracks, for an in-order superscalar pipe: the
//! number of free copies of each unit in each future cycle, the
//! absolute cycle each register's value becomes available (with
//! forwarding), and the last cycle each register is read.
//! [`PipelineState::stalls`] answers the scheduler's key question —
//! *how many cycles must the next instruction wait before entering the
//! execution pipeline?* — and [`PipelineState::issue`] commits an
//! instruction into the state.
//!
//! One simplification relative to Appendix A: the original walks the
//! instruction through the pipe and lets it stall *mid-pipe*; we
//! instead delay issue until the instruction can flow through without
//! mid-pipe stalls (a reservation-table formulation). Because issue is
//! in-order in both formulations, subsequent instructions see the same
//! delays.
//!
//! # The flat scoreboard
//!
//! The occupancy window is a power-of-two ring of free-unit counters
//! sized at construction from [`MachineModel::max_pattern_rows`] — no
//! instruction can hold units further past its issue cycle than the
//! longest compiled pattern, so the live span `[base, hi)` always fits.
//! Ring slots *outside* the live span are kept at the machine's full
//! unit counts (the resting state), which makes both directions cheap:
//! extending `hi` needs no writes at all, and `trim` restores each
//! retiring slot as it passes. A `stalls` query is therefore a handful
//! of saturating subtractions (the register-hazard lower bound) plus an
//! array-stride walk over the group's dense demand rows — no heap
//! allocation, no hashing, no per-cycle `Vec` chasing.
//!
//! `crate::ReferencePipeline` retains the original interpretive
//! implementation; the property test `tests/flat_vs_reference.rs`
//! checks the two agree exactly on randomized instruction streams.

use std::cell::Cell;

use eel_sparc::{Instruction, Resource};

use crate::attr::{StallCause, StallSink};
use crate::model::{MachineModel, PreparedInsn, ReservationTables};

/// Hard bound on the stall search; hit only by inconsistent models.
const MAX_STALLS: u64 = 100_000;

/// What happened when an instruction was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueInfo {
    /// Stall cycles inserted before issue.
    pub stalls: u64,
    /// The absolute cycle the instruction entered the pipe.
    pub cycle: u64,
    /// The absolute cycle the instruction leaves the pipe.
    pub completes: u64,
}

/// The microarchitectural pipeline state generated by previously
/// issued instructions.
#[derive(Debug)]
pub struct PipelineState {
    /// The ring: `cap` rows of `unit_kinds` free-copy counters, one row
    /// per absolute cycle modulo `cap`. Rows outside `[base, hi)` hold
    /// the full initial counts.
    win: Vec<u32>,
    /// `cap - 1`; `cap` is a power of two, so `abs & slot_mask` is the
    /// ring row of absolute cycle `abs`.
    slot_mask: usize,
    /// Row stride of `win`.
    unit_kinds: usize,
    /// First absolute cycle with live (possibly reduced) counters.
    base: u64,
    /// First absolute cycle past the live span.
    hi: u64,
    /// Next candidate issue cycle (issue is in-order and monotone).
    cycle: u64,
    /// Per-resource: absolute cycle its most recent value is available.
    write_avail: Vec<u64>,
    /// Per-resource: last absolute cycle it is read.
    last_read: Vec<u64>,
    /// Initial per-unit copy counts (the resting state of a ring row).
    counts: Vec<u32>,
    /// How many `stalls` queries this state has answered (scheduler
    /// instrumentation; `Cell` because `stalls` is logically `&self`).
    queries: Cell<u64>,
}

impl Clone for PipelineState {
    fn clone(&self) -> PipelineState {
        PipelineState {
            win: self.win.clone(),
            slot_mask: self.slot_mask,
            unit_kinds: self.unit_kinds,
            base: self.base,
            hi: self.hi,
            cycle: self.cycle,
            write_avail: self.write_avail.clone(),
            last_read: self.last_read.clone(),
            counts: self.counts.clone(),
            queries: self.queries.clone(),
        }
    }

    /// Copies `source` into `self` through `self`'s own buffers: no
    /// allocation once both states come from the same model. The
    /// scheduler's lookahead refills one scratch pipe this way for
    /// every tied candidate.
    fn clone_from(&mut self, source: &PipelineState) {
        self.win.clone_from(&source.win);
        self.slot_mask = source.slot_mask;
        self.unit_kinds = source.unit_kinds;
        self.base = source.base;
        self.hi = source.hi;
        self.cycle = source.cycle;
        self.write_avail.clone_from(&source.write_avail);
        self.last_read.clone_from(&source.last_read);
        self.counts.clone_from(&source.counts);
        self.queries.set(source.queries.get());
    }
}

impl PipelineState {
    /// An empty pipeline for the given machine.
    pub fn new(model: &MachineModel) -> PipelineState {
        let unit_kinds = model.unit_kinds();
        let counts = model.unit_counts();
        let cap = model.max_pattern_rows().next_power_of_two().max(1);
        let mut win = Vec::with_capacity(cap * unit_kinds);
        for _ in 0..cap {
            win.extend_from_slice(&counts);
        }
        PipelineState {
            win,
            slot_mask: cap - 1,
            unit_kinds,
            base: 0,
            hi: 0,
            cycle: 0,
            write_avail: vec![0; Resource::COUNT],
            last_read: vec![0; Resource::COUNT],
            counts,
            queries: Cell::new(0),
        }
    }

    /// Clears all history, returning to an empty pipe at cycle 0.
    pub fn reset(&mut self) {
        for abs in self.base..self.hi {
            self.restore_row(abs);
        }
        self.base = 0;
        self.hi = 0;
        self.cycle = 0;
        self.write_avail.fill(0);
        self.last_read.fill(0);
    }

    /// The next candidate issue cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total `stalls` queries answered since construction (reset does
    /// not clear it; it counts work, not state).
    pub fn stall_queries(&self) -> u64 {
        self.queries.get()
    }

    /// Returns the ring row of absolute cycle `abs` to full counts.
    fn restore_row(&mut self, abs: u64) {
        let at = (abs as usize & self.slot_mask) * self.unit_kinds;
        self.win[at..at + self.unit_kinds].copy_from_slice(&self.counts);
    }

    /// Retires rows before the issue cycle: restores each to the full
    /// counts (so its ring slot is ready for reuse) and advances
    /// `base`. Keeps the `[base, hi)` live-span invariant.
    fn trim(&mut self) {
        while self.base < self.cycle && self.base < self.hi {
            self.restore_row(self.base);
            self.base += 1;
        }
        self.base = self.base.max(self.cycle);
        self.hi = self.hi.max(self.base);
    }

    /// Whether the group's demand rows starting at absolute cycle `t`
    /// all fit in the free counters. Rows landing outside the live span
    /// see full counts and fit by feasibility.
    fn fits_at(&self, tab: &ReservationTables, first: u32, rows: u32, t: u64) -> bool {
        for i in 0..rows {
            let row = (first + i) as usize;
            let mask = tab.masks[row];
            if mask == 0 {
                continue;
            }
            let abs = t + u64::from(i);
            if abs < self.base || abs >= self.hi {
                continue;
            }
            let slot = (abs as usize & self.slot_mask) * self.unit_kinds;
            let demand = row * self.unit_kinds;
            let mut m = mask;
            while m != 0 {
                let u = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.win[slot + u] < tab.demand[demand + u] {
                    return false;
                }
            }
        }
        true
    }

    /// The earliest absolute cycle at which `p`'s register hazards are
    /// all clear. RAW/WAW/WAR constraints are each monotone in the
    /// issue cycle, so this is exact: every earlier cycle violates one,
    /// every later cycle satisfies all.
    fn register_ready(&self, p: &PreparedInsn) -> u64 {
        let mut t = 0u64;
        // RAW: `t + read_cycle >= write_avail`.
        for &(r, rc) in &p.uses[..p.n_uses as usize] {
            t = t.max(self.write_avail[r as usize].saturating_sub(u64::from(rc)));
        }
        for &(r, off) in &p.defs[..p.n_defs as usize] {
            let off = u64::from(off);
            // WAW: our value must become available strictly after the
            // previous value: `t + off > write_avail`.
            t = t.max((self.write_avail[r as usize] + 1).saturating_sub(off));
            // WAR: and no earlier than the last scheduled read of the
            // previous value: `t + off >= last_read`.
            t = t.max(self.last_read[r as usize].saturating_sub(off));
        }
        t
    }

    /// [`PipelineState::stalls`] for an already-prepared instruction —
    /// the scheduler's hot path. `insn` is used only in the panic
    /// message.
    ///
    /// # Panics
    ///
    /// Panics if no issue slot exists within 100 000 cycles, which
    /// indicates an inconsistent machine description.
    pub fn stalls_prepared(
        &self,
        model: &MachineModel,
        insn: &Instruction,
        p: &PreparedInsn,
    ) -> u64 {
        self.queries.set(self.queries.get() + 1);
        let tab = model.tables();
        let gid = p.gid as usize;
        let no_slot = || -> ! {
            panic!(
                "no issue slot within {MAX_STALLS} cycles for `{insn}` on {}",
                model.name()
            )
        };
        // A group demanding more copies than the machine has can never
        // issue; the interpretive search would probe all 100 000 slots
        // before concluding the same.
        if !tab.feasible[gid] {
            no_slot();
        }
        // Start at the register-hazard bound instead of probing every
        // cycle the registers already rule out.
        let s0 = self.register_ready(p).saturating_sub(self.cycle);
        if s0 >= MAX_STALLS {
            no_slot();
        }
        let (first, rows) = tab.spans[gid];
        for s in s0..MAX_STALLS {
            if self.fits_at(tab, first, rows, self.cycle + s) {
                return s;
            }
        }
        no_slot()
    }

    /// The number of stall cycles the next instruction must wait
    /// before entering the pipe — the scheduler's priority metric.
    ///
    /// Does not modify the state.
    ///
    /// # Panics
    ///
    /// Panics if no issue slot exists within 100 000 cycles, which
    /// indicates an inconsistent machine description.
    pub fn stalls(&self, model: &MachineModel, insn: &Instruction) -> u64 {
        self.stalls_prepared(model, insn, &model.prepare(insn))
    }

    /// The first hazard that prevents `p` from issuing at absolute
    /// cycle `t`, or `None` if it can issue. Checks run in the
    /// reference pipeline's `can_issue_at` order — structural (rows
    /// ascending, units ascending), then RAW per operand, then
    /// WAW/WAR per result — which is the attribution taxonomy the
    /// differential test pins (see `crate::attr`).
    fn classify_at(&self, tab: &ReservationTables, p: &PreparedInsn, t: u64) -> Option<StallCause> {
        let (first, rows) = tab.spans[p.gid as usize];
        for i in 0..rows {
            let row = (first + i) as usize;
            let mask = tab.masks[row];
            if mask == 0 {
                continue;
            }
            let abs = t + u64::from(i);
            if abs < self.base || abs >= self.hi {
                // Outside the live span rows rest at full counts and
                // cannot fail for a feasible group.
                continue;
            }
            let slot = (abs as usize & self.slot_mask) * self.unit_kinds;
            let demand = row * self.unit_kinds;
            let mut m = mask;
            while m != 0 {
                let u = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.win[slot + u] < tab.demand[demand + u] {
                    return Some(StallCause::Structural { unit: u });
                }
            }
        }
        for &(r, rc) in &p.uses[..p.n_uses as usize] {
            if t + u64::from(rc) < self.write_avail[r as usize] {
                let resource = Resource::from_index(r as usize).expect("prepared index in range");
                return Some(StallCause::Raw { resource });
            }
        }
        for &(r, off) in &p.defs[..p.n_defs as usize] {
            let avail = t + u64::from(off);
            let resource = Resource::from_index(r as usize).expect("prepared index in range");
            if avail <= self.write_avail[r as usize] {
                return Some(StallCause::Waw { resource });
            }
            if avail < self.last_read[r as usize] {
                return Some(StallCause::War { resource });
            }
        }
        None
    }

    /// [`PipelineState::stalls_prepared`] with stall-cause
    /// attribution: reports every stalled cycle's [`StallCause`] to
    /// `sink` before returning the count.
    ///
    /// # Panics
    ///
    /// As [`PipelineState::stalls_prepared`].
    pub fn stalls_with<S: StallSink>(
        &self,
        model: &MachineModel,
        insn: &Instruction,
        p: &PreparedInsn,
        sink: &mut S,
    ) -> u64 {
        let stalls = self.stalls_prepared(model, insn, p);
        let tab = model.tables();
        for t in self.cycle..self.cycle + stalls {
            let cause = self
                .classify_at(tab, p, t)
                .expect("a stalled cycle has a failing hazard check");
            sink.stall(t, cause);
        }
        stalls
    }

    /// [`PipelineState::issue_prepared`] with stall-cause
    /// attribution: classifies every stalled cycle into `sink`, then
    /// issues.
    pub fn issue_with<S: StallSink>(
        &mut self,
        model: &MachineModel,
        insn: &Instruction,
        p: &PreparedInsn,
        sink: &mut S,
    ) -> IssueInfo {
        // Classification must see the pre-issue state; the extra
        // stalls query is the recorded path's price, not the hot
        // path's.
        self.stalls_with(model, insn, p, sink);
        self.issue_prepared(model, insn, p)
    }

    /// [`PipelineState::issue`] for an already-prepared instruction.
    pub fn issue_prepared(
        &mut self,
        model: &MachineModel,
        insn: &Instruction,
        p: &PreparedInsn,
    ) -> IssueInfo {
        let stalls = self.stalls_prepared(model, insn, p);
        let t = self.cycle + stalls;
        let tab = model.tables();
        let gid = p.gid as usize;

        // Retire rows behind the new issue point *before* touching the
        // ring: a retiring slot may be the very slot a new demand row
        // wraps onto.
        self.cycle = t;
        self.trim();

        let (first, rows) = tab.spans[gid];
        self.hi = self.hi.max(t + u64::from(rows));
        debug_assert!(
            (self.hi - self.base) as usize <= self.slot_mask + 1,
            "live span exceeds ring capacity"
        );
        for i in 0..rows {
            let row = (first + i) as usize;
            let mut m = tab.masks[row];
            if m == 0 {
                continue;
            }
            let slot = ((t + u64::from(i)) as usize & self.slot_mask) * self.unit_kinds;
            let demand = row * self.unit_kinds;
            while m != 0 {
                let u = m.trailing_zeros() as usize;
                m &= m - 1;
                let n = tab.demand[demand + u];
                debug_assert!(self.win[slot + u] >= n, "issue checked availability");
                self.win[slot + u] -= n;
            }
        }

        for &(r, rc) in &p.uses[..p.n_uses as usize] {
            let lr = &mut self.last_read[r as usize];
            *lr = (*lr).max(t + u64::from(rc));
        }
        for &(r, off) in &p.defs[..p.n_defs as usize] {
            self.write_avail[r as usize] = t + u64::from(off);
        }

        IssueInfo {
            stalls,
            cycle: t,
            completes: t + u64::from(tab.cycles[gid]),
        }
    }

    /// Issues `insn`, updating unit occupancy and register history,
    /// and returns where it landed.
    pub fn issue(&mut self, model: &MachineModel, insn: &Instruction) -> IssueInfo {
        self.issue_prepared(model, insn, &model.prepare(insn))
    }

    /// Advances the issue point past the current cycle — used at basic
    /// block boundaries when control transfers, so the next block
    /// cannot co-issue with the previous one.
    pub fn advance(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.trim();
    }

    /// Delays the availability of `insn`'s results by `extra` cycles —
    /// the hook for memory-system effects (cache misses) the SADL
    /// descriptions deliberately do not model. Call right after
    /// [`PipelineState::issue`] returns for the same instruction.
    pub fn add_result_latency(&mut self, insn: &Instruction, extra: u64) {
        if extra == 0 {
            return;
        }
        for r in &insn.defs_fixed() {
            self.write_avail[r.index()] += extra;
        }
    }
}

/// Separator between sections of a [`PipelineState::context_key`].
const KEY_SEP: u32 = u32::MAX;

impl PipelineState {
    /// Serializes the parts of the state that can influence any future
    /// stall computation into `out` (cleared first), as a canonical,
    /// issue-cycle-relative key. Two states with equal keys evolve
    /// identically under the same instruction sequence — the basis for
    /// block-level timing memoization in `eel-sim`, for dominance
    /// pruning in `eel-core`'s exact scheduler, and for the workload
    /// compiler's incremental steady-state cost.
    /// [`Self::restore_context`] turns a key back into a state, and
    /// [`Self::matches_context`] compares the state with one in place.
    ///
    /// Values are clamped at the boundary where they stop mattering:
    ///
    /// * `write_avail[r] <= cycle - 1` can never constrain a future
    ///   issue (RAW bounds `t >= wa - rc` and WAW bounds
    ///   `t >= wa + 1 - off` both fall at or below `cycle`, where
    ///   issue starts anyway), so those entries are omitted. A value
    ///   *equal* to `cycle` still matters for WAW with a zero
    ///   availability offset (e.g. `sethi`), so the stored delta is
    ///   `wa + 1 - cycle`, which keeps that case distinct.
    /// * `last_read[r] <= cycle` can never constrain a future WAR
    ///   check (`t + off >= lr` holds from `t = cycle` on), so only
    ///   larger values are kept, as `lr - cycle`.
    /// * The ring contributes the unit deficits of the live span,
    ///   relative to the current cycle; rows at rest are omitted.
    pub fn context_key(&self, out: &mut Vec<u32>) {
        out.clear();
        debug_assert_eq!(
            self.base, self.cycle,
            "context_key expects a trimmed state (after issue/advance)"
        );
        for (r, &wa) in self.write_avail.iter().enumerate() {
            let d = (wa + 1).saturating_sub(self.cycle);
            if d > 0 {
                debug_assert!(u32::try_from(d).is_ok(), "write_avail delta overflows key");
                out.push(r as u32);
                out.push(d as u32);
            }
        }
        out.push(KEY_SEP);
        for (r, &lr) in self.last_read.iter().enumerate() {
            let d = lr.saturating_sub(self.cycle);
            if d > 0 {
                debug_assert!(u32::try_from(d).is_ok(), "last_read delta overflows key");
                out.push(r as u32);
                out.push(d as u32);
            }
        }
        out.push(KEY_SEP);
        for abs in self.cycle..self.hi {
            let slot = (abs as usize & self.slot_mask) * self.unit_kinds;
            for u in 0..self.unit_kinds {
                let deficit = self.counts[u] - self.win[slot + u];
                if deficit > 0 {
                    out.push((abs - self.cycle) as u32);
                    out.push(u as u32);
                    out.push(deficit);
                }
            }
        }
    }

    /// Whether [`Self::context_key`] would yield exactly `key`. Walks
    /// the state in key order, sections and cells included, and returns
    /// at the first difference without building the key or allocating.
    /// The workload compiler's convergence checks fail more often than
    /// not, and mostly within the first few `write_avail` pairs.
    pub fn matches_context(&self, key: &[u32]) -> bool {
        debug_assert_eq!(
            self.base, self.cycle,
            "matches_context expects a trimmed state (after issue/advance)"
        );
        let mut want = key.iter().copied();
        for (r, &wa) in self.write_avail.iter().enumerate() {
            let d = (wa + 1).saturating_sub(self.cycle);
            if d > 0 && (want.next() != Some(r as u32) || want.next() != Some(d as u32)) {
                return false;
            }
        }
        if want.next() != Some(KEY_SEP) {
            return false;
        }
        for (r, &lr) in self.last_read.iter().enumerate() {
            let d = lr.saturating_sub(self.cycle);
            if d > 0 && (want.next() != Some(r as u32) || want.next() != Some(d as u32)) {
                return false;
            }
        }
        if want.next() != Some(KEY_SEP) {
            return false;
        }
        for abs in self.cycle..self.hi {
            let slot = (abs as usize & self.slot_mask) * self.unit_kinds;
            for u in 0..self.unit_kinds {
                let deficit = self.counts[u] - self.win[slot + u];
                if deficit > 0
                    && (want.next() != Some((abs - self.cycle) as u32)
                        || want.next() != Some(u as u32)
                        || want.next() != Some(deficit))
                {
                    return false;
                }
            }
        }
        want.next().is_none()
    }

    /// The inverse of [`Self::context_key`]: overwrites this state with
    /// the context `key` describes, anchored at absolute cycle `cycle`.
    /// Afterwards `context_key` yields `key` again, and the state
    /// evolves exactly like the one the key was taken from, shifted by
    /// the difference of the two cycles. Entries the key omits were
    /// clamped as dead and rest at zero, an equally dead stand-in. So
    /// a run can be snapshotted as keys alone and resumed from any of
    /// them, as the workload compiler and `eel-sim`'s timing memo do.
    ///
    /// `key` must come from a state of this machine. At cycle 0 only a
    /// key taken at cycle 0 fits, since there every register entry is
    /// live.
    pub fn restore_context(&mut self, key: &[u32], cycle: u64) {
        for abs in self.base..self.hi {
            self.restore_row(abs);
        }
        self.cycle = cycle;
        self.base = cycle;
        self.hi = cycle;
        self.write_avail.fill(0);
        self.last_read.fill(0);
        // Resource indices are never `KEY_SEP`, so the first word of
        // each pair tells a pair from the section end.
        let mut at = 0;
        while key[at] != KEY_SEP {
            self.write_avail[key[at] as usize] = cycle + u64::from(key[at + 1]) - 1;
            at += 2;
        }
        at += 1;
        while key[at] != KEY_SEP {
            self.last_read[key[at] as usize] = cycle + u64::from(key[at + 1]);
            at += 2;
        }
        for cell in key[at + 1..].chunks_exact(3) {
            let abs = cycle + u64::from(cell[0]);
            let u = cell[1] as usize;
            let slot = (abs as usize & self.slot_mask) * self.unit_kinds;
            self.win[slot + u] = self.counts[u] - cell[2];
            self.hi = abs + 1;
        }
        debug_assert!(
            (self.hi - self.base) as usize <= self.slot_mask + 1,
            "restored live span exceeds ring capacity"
        );
    }
}

/// The result of timing a straight-line sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTiming {
    /// Issue cycle of each instruction, in order.
    pub issue_cycles: Vec<u64>,
    /// Total stall cycles inserted.
    pub stalls: u64,
    /// Cycle the last instruction leaves the pipe.
    pub completes: u64,
}

impl BlockTiming {
    /// The block's latency: the cycle after the last issue, i.e. how
    /// long the block occupies the issue stage. This is the metric the
    /// scheduler minimizes (trailing pipe drain overlaps the next
    /// block).
    pub fn issue_latency(&self) -> u64 {
        self.issue_cycles.last().map(|&c| c + 1).unwrap_or(0)
    }
}

/// Times a straight-line instruction sequence on an empty pipe.
///
/// ```
/// use eel_pipeline::{evaluate_block, MachineModel};
/// use eel_sparc::{Address, Instruction, IntReg, MemWidth, Operand};
///
/// let model = MachineModel::hypersparc();
/// // An ALU op and a load dual-issue on the 2-way hyperSPARC.
/// let block = [
///     Instruction::mov(Operand::imm(1), IntReg::O0),
///     Instruction::Load {
///         width: MemWidth::Word,
///         addr: Address::base_imm(IntReg::O1, 0),
///         rd: IntReg::O2,
///     },
/// ];
/// let t = evaluate_block(&model, &block);
/// assert_eq!(t.issue_cycles, vec![0, 0]);
/// ```
pub fn evaluate_block(model: &MachineModel, insns: &[Instruction]) -> BlockTiming {
    let mut state = PipelineState::new(model);
    let mut issue_cycles = Vec::with_capacity(insns.len());
    let mut stalls = 0;
    let mut completes = 0;
    for insn in insns {
        let info = state.issue(model, insn);
        issue_cycles.push(info.cycle);
        stalls += info.stalls;
        completes = completes.max(info.completes);
    }
    BlockTiming {
        issue_cycles,
        stalls,
        completes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::{Address, AluOp, Cond, FpOp, FpReg, IntReg, MemWidth, Operand};

    fn add(rs1: IntReg, rd: IntReg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            rs1,
            src2: Operand::imm(1),
            rd,
        }
    }

    #[test]
    fn clone_from_reuses_a_pipe_without_changing_answers() {
        // A pipe with a longer, unrelated history refilled from another
        // answers every later query exactly as a fresh clone does.
        let m = MachineModel::ultrasparc();
        let fdiv = Instruction::Fp {
            op: FpOp::FDivD,
            rs1: FpReg::new(0),
            rs2: FpReg::new(2),
            rd: FpReg::new(4),
        };
        let ld = Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(IntReg::O2, 0),
            rd: IntReg::O3,
        };
        let mut source = PipelineState::new(&m);
        source.issue(&m, &ld);
        source.issue(&m, &add(IntReg::O3, IntReg::O4));
        let mut reused = PipelineState::new(&m);
        for _ in 0..5 {
            reused.issue(&m, &fdiv);
        }
        reused.clone_from(&source);
        let mut fresh = source.clone();
        for insn in [add(IntReg::O4, IntReg::O5), fdiv, ld, fdiv] {
            assert_eq!(reused.stalls(&m, &insn), fresh.stalls(&m, &insn));
            assert_eq!(reused.issue(&m, &insn), fresh.issue(&m, &insn));
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        reused.context_key(&mut a);
        fresh.context_key(&mut b);
        assert_eq!(a, b);
        assert_eq!(reused.stall_queries(), fresh.stall_queries());
    }

    #[test]
    fn add_and_load_dual_issue_on_hypersparc() {
        // The paper's hyperSPARC has *one* arithmetic ALU and one LSU:
        // an ALU op dual-issues with a memory op, not with another
        // ALU op.
        let m = MachineModel::hypersparc();
        let ld = Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(IntReg::O2, 0),
            rd: IntReg::O3,
        };
        let t = evaluate_block(&m, &[add(IntReg::O0, IntReg::O0), ld]);
        assert_eq!(
            t.issue_cycles,
            vec![0, 0],
            "ALU op + memory op share a group"
        );
    }

    #[test]
    fn two_adds_serialize_on_hypersparc_single_alu() {
        let m = MachineModel::hypersparc();
        let t = evaluate_block(
            &m,
            &[add(IntReg::O0, IntReg::O0), add(IntReg::O1, IntReg::O1)],
        );
        assert_eq!(t.issue_cycles, vec![0, 1], "one arithmetic ALU");
    }

    #[test]
    fn dependent_add_waits_one_cycle() {
        // add computes at end of cycle 1 → a consumer reading at its
        // own cycle 1 can issue in the next cycle (forwarding).
        let m = MachineModel::hypersparc();
        let t = evaluate_block(
            &m,
            &[add(IntReg::O0, IntReg::O1), add(IntReg::O1, IntReg::O2)],
        );
        assert_eq!(t.issue_cycles, vec![0, 1]);
    }

    #[test]
    fn sethi_consumer_can_co_issue() {
        // The paper: sethi's value is available at the end of cycle 0,
        // usable by an instruction issued in the same cycle.
        let m = MachineModel::hypersparc();
        let block = [
            Instruction::Sethi {
                imm22: 0x1000,
                rd: IntReg::O0,
            },
            add(IntReg::O0, IntReg::O1),
        ];
        let t = evaluate_block(&m, &block);
        assert_eq!(t.issue_cycles, vec![0, 0]);
    }

    #[test]
    fn load_use_delay_on_ultrasparc() {
        let m = MachineModel::ultrasparc();
        let block = [
            Instruction::Load {
                width: MemWidth::Word,
                addr: Address::base_imm(IntReg::O0, 0),
                rd: IntReg::O1,
            },
            add(IntReg::O1, IntReg::O2),
        ];
        let t = evaluate_block(&m, &block);
        // 2-cycle load latency: value computed in cycle 2, consumer
        // reads at its cycle 1 → earliest issue at cycle 2.
        assert_eq!(t.issue_cycles, vec![0, 2]);
    }

    #[test]
    fn ultrasparc_integer_issue_capped_at_two() {
        let m = MachineModel::ultrasparc();
        let block = [
            add(IntReg::O0, IntReg::O0),
            add(IntReg::O1, IntReg::O1),
            add(IntReg::O2, IntReg::O2),
            add(IntReg::O3, IntReg::O3),
        ];
        let t = evaluate_block(&m, &block);
        assert_eq!(
            t.issue_cycles,
            vec![0, 0, 1, 1],
            "2 IEUs despite 4-way groups"
        );
    }

    #[test]
    fn ultrasparc_mixed_group_of_four() {
        // 2 integer + 1 load + 1 FP can co-issue on the 4-way machine.
        let m = MachineModel::ultrasparc();
        let block = [
            add(IntReg::O0, IntReg::O0),
            add(IntReg::O1, IntReg::O1),
            Instruction::Load {
                width: MemWidth::Word,
                addr: Address::base_imm(IntReg::O2, 0),
                rd: IntReg::O3,
            },
            Instruction::Fp {
                op: FpOp::FAddS,
                rs1: FpReg::new(0),
                rs2: FpReg::new(1),
                rd: FpReg::new(2),
            },
        ];
        let t = evaluate_block(&m, &block);
        assert_eq!(t.issue_cycles, vec![0, 0, 0, 0]);
    }

    #[test]
    fn stores_serialize_on_single_lsu() {
        let m = MachineModel::ultrasparc();
        let st = |rd: IntReg| Instruction::Store {
            width: MemWidth::Word,
            src: rd,
            addr: Address::base_imm(IntReg::SP, 0),
        };
        let t = evaluate_block(&m, &[st(IntReg::O0), st(IntReg::O1)]);
        assert!(
            t.issue_cycles[1] > t.issue_cycles[0],
            "one memory op per group"
        );
    }

    #[test]
    fn cc_dependence_orders_cmp_and_branch() {
        let m = MachineModel::supersparc();
        let block = [
            Instruction::cmp(IntReg::O0, Operand::imm(0)),
            Instruction::Branch {
                cond: Cond::Ne,
                annul: false,
                disp: 4,
            },
        ];
        let t = evaluate_block(&m, &block);
        assert!(t.issue_cycles[1] > t.issue_cycles[0]);
    }

    #[test]
    fn fp_divide_blocks_fp_divider() {
        let m = MachineModel::ultrasparc();
        let fdiv = Instruction::Fp {
            op: FpOp::FDivD,
            rs1: FpReg::new(0),
            rs2: FpReg::new(2),
            rd: FpReg::new(4),
        };
        let fdiv2 = Instruction::Fp {
            op: FpOp::FDivD,
            rs1: FpReg::new(6),
            rs2: FpReg::new(8),
            rd: FpReg::new(10),
        };
        let t = evaluate_block(&m, &[fdiv, fdiv2]);
        assert!(
            t.issue_cycles[1] >= 22,
            "non-pipelined divider: second divide waits, got {:?}",
            t.issue_cycles
        );
    }

    #[test]
    fn stalls_is_pure() {
        let m = MachineModel::hypersparc();
        let state = PipelineState::new(&m);
        let i = add(IntReg::O0, IntReg::O1);
        let s1 = state.stalls(&m, &i);
        let s2 = state.stalls(&m, &i);
        assert_eq!(s1, s2);
        assert_eq!(s1, 0);
    }

    #[test]
    fn stall_queries_counted() {
        let m = MachineModel::hypersparc();
        let mut state = PipelineState::new(&m);
        let i = add(IntReg::O0, IntReg::O1);
        assert_eq!(state.stall_queries(), 0);
        state.stalls(&m, &i);
        assert_eq!(state.stall_queries(), 1);
        state.issue(&m, &i);
        assert_eq!(state.stall_queries(), 2, "issue queries once");
    }

    #[test]
    fn reset_restores_empty_pipe() {
        let m = MachineModel::hypersparc();
        let mut state = PipelineState::new(&m);
        for _ in 0..10 {
            state.issue(&m, &add(IntReg::O0, IntReg::O0));
        }
        assert!(state.cycle() > 0);
        state.reset();
        assert_eq!(state.cycle(), 0);
        assert_eq!(state.issue(&m, &add(IntReg::O0, IntReg::O0)).cycle, 0);
    }

    #[test]
    fn advance_moves_issue_point() {
        let m = MachineModel::hypersparc();
        let mut state = PipelineState::new(&m);
        state.advance(5);
        assert_eq!(state.issue(&m, &add(IntReg::O0, IntReg::O0)).cycle, 5);
    }

    #[test]
    fn waw_orders_writes_to_same_register() {
        let m = MachineModel::hypersparc();
        // Two writes to %o0 in a row cannot make their values
        // available in the same cycle.
        let t = evaluate_block(
            &m,
            &[add(IntReg::O1, IntReg::O0), add(IntReg::O2, IntReg::O0)],
        );
        assert!(t.issue_cycles[1] > t.issue_cycles[0]);
    }

    #[test]
    fn block_timing_issue_latency() {
        let m = MachineModel::hypersparc();
        let t = evaluate_block(&m, &[add(IntReg::O0, IntReg::O0)]);
        assert_eq!(t.issue_latency(), 1);
        let empty = evaluate_block(&m, &[]);
        assert_eq!(empty.issue_latency(), 0);
    }

    #[test]
    fn nop_streams_issue_at_full_width() {
        let m = MachineModel::ultrasparc();
        let block = vec![Instruction::nop(); 8];
        let t = evaluate_block(&m, &block);
        // 4-way: 8 nops in 2 cycles.
        assert_eq!(t.issue_cycles[7], 1);
    }

    #[test]
    fn long_run_keeps_live_span_bounded() {
        let m = MachineModel::hypersparc();
        let mut state = PipelineState::new(&m);
        let footprint = state.win.len();
        for i in 0..10_000 {
            let r = IntReg::new((i % 8 + 8) as u8);
            state.issue(&m, &add(r, r));
        }
        // The ring never reallocates, and the live span stays bounded
        // by the capacity (the longest group pattern), not the run
        // length.
        assert_eq!(state.win.len(), footprint, "ring never grows");
        let span = (state.hi - state.base) as usize;
        assert!(
            span <= state.slot_mask + 1,
            "live span {span} exceeds ring capacity"
        );
    }

    #[test]
    fn retired_rows_rest_at_full_counts() {
        // Saturate a unit, advance far enough that every issued row
        // retires, then check the whole ring is back at the resting
        // state — the invariant `free_at` relies on for slots outside
        // `[base, hi)`.
        let m = MachineModel::ultrasparc();
        let mut state = PipelineState::new(&m);
        state.issue(&m, &add(IntReg::O0, IntReg::O0));
        state.advance(100);
        assert!(state.hi <= state.cycle, "all rows retired");
        for (i, &free) in state.win.iter().enumerate() {
            assert_eq!(
                free,
                state.counts[i % state.unit_kinds],
                "ring row not restored at {i}"
            );
        }
        assert_eq!(state.issue(&m, &add(IntReg::O1, IntReg::O1)).stalls, 0);
    }

    #[test]
    fn prepared_issue_matches_interpreted_issue() {
        let m = MachineModel::ultrasparc();
        let block = [
            add(IntReg::O0, IntReg::O1),
            add(IntReg::O1, IntReg::O2),
            Instruction::Load {
                width: MemWidth::Word,
                addr: Address::base_imm(IntReg::O2, 0),
                rd: IntReg::O3,
            },
        ];
        let mut a = PipelineState::new(&m);
        let mut b = PipelineState::new(&m);
        for insn in &block {
            let p = m.prepare(insn);
            assert_eq!(
                a.issue(&m, insn),
                b.issue_prepared(&m, insn, &p),
                "prepared path diverged at `{insn}`"
            );
        }
    }

    fn ld(rs1: IntReg, rd: IntReg) -> Instruction {
        Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(rs1, 0),
            rd,
        }
    }

    fn key(state: &PipelineState) -> Vec<u32> {
        let mut k = Vec::new();
        state.context_key(&mut k);
        k
    }

    /// Issues `seq` and returns the exit context key, which is what
    /// `eel-sim`'s timing memo keeps and hashes for each entry.
    fn issue_and_key(m: &MachineModel, state: &mut PipelineState, seq: &[Instruction]) -> Vec<u32> {
        for insn in seq {
            state.issue(m, insn);
        }
        key(state)
    }

    /// A load feeding a chain of three adds.
    fn load_chain() -> [Instruction; 4] {
        [
            ld(IntReg::O0, IntReg::O1),
            add(IntReg::O1, IntReg::O2),
            add(IntReg::O2, IntReg::O3),
            add(IntReg::O3, IntReg::O4),
        ]
    }

    #[test]
    fn exit_key_is_a_pure_function_of_the_exit_picture() {
        // The simulator's context-id chain converges in steady-state
        // loops only if the same sequence, entered from *different*
        // contexts, leaves the same exit key.
        let m = MachineModel::ultrasparc();
        let seq = load_chain();
        // Entry A: empty pipe at cycle 0. Entry B: different history,
        // fully drained, at a different absolute cycle.
        let mut a = PipelineState::new(&m);
        let mut b = PipelineState::new(&m);
        b.issue(&m, &ld(IntReg::G1, IntReg::G2));
        b.issue(&m, &add(IntReg::G2, IntReg::G3));
        b.advance(50);
        assert_ne!(a.cycle(), b.cycle());
        let key_a = issue_and_key(&m, &mut a, &seq);
        let key_b = issue_and_key(&m, &mut b, &seq);
        assert_eq!(key_a, key_b, "exit key leaked entry-dependent state");
        // And a genuinely different exit picture must not collide.
        let key_c = issue_and_key(&m, &mut PipelineState::new(&m), &seq[..2]);
        assert_ne!(key_a, key_c);
    }

    #[test]
    fn exit_key_converges_after_a_dead_dependency() {
        // Entry B carries a pending load on O1 that the sequence's own
        // first instruction overwrites; by exit the old dependency is
        // dead, so both runs share one exit key even though their
        // entry contexts (and possibly cycle counts) differ.
        let m = MachineModel::ultrasparc();
        let mut a = PipelineState::new(&m);
        a.advance(1);
        let mut b = PipelineState::new(&m);
        b.issue(&m, &ld(IntReg::G1, IntReg::O1));
        b.advance(1);
        assert_ne!(key(&a), key(&b), "entry contexts should differ");
        let key_a = issue_and_key(&m, &mut a, &load_chain());
        assert_eq!(key_a, issue_and_key(&m, &mut b, &load_chain()));
    }
}
