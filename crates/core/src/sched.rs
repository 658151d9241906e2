//! The two-pass local list scheduler (paper §4).
//!
//! *The scheduler uses a common two pass list scheduling algorithm.
//! The first pass starts at the end of the block and works backwards
//! to compute the length (in cycles) of the dependence chain between
//! every instruction and the end of the block. … The second pass
//! starts at the beginning of the block and works forward, to order
//! instructions with list scheduling. The instruction with the highest
//! priority of any instruction that can be legally scheduled at this
//! point is put next in the schedule. An instruction's priority is
//! determined primarily by how few stalls it requires before it can
//! start execution (as computed by `pipeline_stalls`). If two
//! instructions require the same number of stalls, the instruction
//! farthest from the end of the block … is scheduled first. If two
//! instructions still have the same priority, the instruction listed
//! earlier in the original code sequence is chosen.*

use std::sync::Arc;

use eel_edit::{BlockCode, BlockInfo, Tagged};
use eel_pipeline::{
    attribute_block, BlockTiming, MachineModel, PipelineState, PreparedInsn, StallProfile,
};
use eel_sparc::Instruction;
use eel_telemetry::{Counter, Registry};

use crate::dep::{DepGraph, DepScratch};
use crate::policy::{Candidate, Priority};

/// Options controlling the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedOptions {
    /// Assume instrumentation memory traffic is independent of the
    /// original program's (the paper's default; see §4). Disable to
    /// "limit the movement of instrumentation code".
    pub instr_mem_independent: bool,
    /// After scheduling, try to move the last body instruction into a
    /// `nop` delay slot when that is semantics-preserving. The paper's
    /// scheduler does not do this; it is an ablation extension.
    pub fill_delay_slots: bool,
    /// The ready-list priority rule.
    pub priority: Priority,
    /// Per-block node budget for the [`Priority::Exact`] oracle; when
    /// the search exhausts it, the incumbent list schedule stands (the
    /// oracle never returns a worse order). Ignored by list policies.
    pub exact_budget: u32,
}

impl Default for SchedOptions {
    fn default() -> SchedOptions {
        SchedOptions {
            instr_mem_independent: true,
            fill_delay_slots: false,
            priority: Priority::StallsFirst,
            exact_budget: crate::exact::DEFAULT_EXACT_BUDGET,
        }
    }
}

/// One block's schedule with before/after stall attribution, from
/// [`Scheduler::explain_block`].
#[derive(Debug, Clone)]
pub struct ScheduleExplain {
    /// The scheduled block (what [`Scheduler::schedule_block`] would
    /// have returned).
    pub scheduled: BlockCode,
    /// Timing of the block as given (body then tail) on an empty pipe.
    pub before: BlockTiming,
    /// Per-cause attribution of the unscheduled block's stalls;
    /// `before_profile.total() == before.stalls`.
    pub before_profile: StallProfile,
    /// Timing of the scheduled block on an empty pipe.
    pub after: BlockTiming,
    /// Per-cause attribution of the scheduled block's stalls;
    /// `after_profile.total() == after.stalls`.
    pub after_profile: StallProfile,
}

/// One block as the list pass sees it: the body in original order,
/// each instruction prepared against the model once, its dependence
/// graph, chain-to-end lengths (§4's first pass) and, for
/// [`Priority::LoadDelay`], its load shadows.
#[derive(Debug, Default)]
struct Block {
    body: Vec<Tagged>,
    prepared: Vec<PreparedInsn>,
    graph: DepGraph,
    cte: Vec<u32>,
    shadowed: Vec<bool>,
}

impl Block {
    /// Loads `body`: prepares it, builds its graph from the prepared
    /// form, and runs the backward chain-length pass.
    fn load(
        &mut self,
        model: &MachineModel,
        body: &[Tagged],
        instr_mem_independent: bool,
        dep: &mut DepScratch,
    ) {
        self.body.clear();
        self.body.extend_from_slice(body);
        self.prepared.clear();
        self.prepared
            .extend(body.iter().map(|t| model.prepare(&t.insn)));
        self.graph
            .rebuild(&self.body, &self.prepared, instr_mem_independent, dep);
        self.graph.chain_to_end_into(&mut self.cte);
    }
}

/// Lookahead's scratch: the round's queried candidates and a copy of
/// the pipe to try each tied candidate on.
#[derive(Debug, Default)]
struct Lookahead {
    round: Vec<Candidate>,
    /// Refilled with `clone_from` per tied candidate; created on first
    /// use, so policies without lookahead never build it.
    pipe: Option<PipelineState>,
}

/// A registry with the list pass's two per-block counters resolved
/// once, so that a scheduled block adds to them without looking its
/// sites up.
#[derive(Debug)]
struct Recorder<'a> {
    registry: &'a Registry,
    /// `sched.blocks`.
    blocks: Arc<Counter>,
    /// `sched.queries`.
    queries: Arc<Counter>,
}

impl Recorder<'_> {
    fn new(registry: &Registry) -> Recorder<'_> {
        Recorder {
            registry,
            blocks: registry.counter("sched.blocks"),
            queries: registry.counter("sched.queries"),
        }
    }
}

/// Everything scheduling a block needs besides the block itself, kept
/// from block to block so that steady-state scheduling allocates
/// nothing: buffers only grow, and the pipe is `reset`, not rebuilt.
/// [`Scheduler::transform`]'s closure owns one for a whole emit.
#[derive(Debug)]
struct Workspace {
    block: Block,
    dep: DepScratch,
    remaining_preds: Vec<u32>,
    /// Ready nodes, in the active rule's order without stalls
    /// ([`Priority::ready_key`]).
    ready: Vec<usize>,
    /// Per node, the absolute cycle its last query found it could
    /// issue at, or 0 before its first. The pipe only gains
    /// constraints as the block issues, so this only grows: it bounds
    /// every later answer from below.
    earliest: Vec<u64>,
    pipe: PipelineState,
    lookahead: Lookahead,
}

impl Workspace {
    fn new(model: &MachineModel) -> Workspace {
        Workspace {
            block: Block::default(),
            dep: DepScratch::default(),
            remaining_preds: Vec::new(),
            ready: Vec::new(),
            earliest: Vec::new(),
            pipe: PipelineState::new(model),
            lookahead: Lookahead::default(),
        }
    }
}

/// The local instruction scheduler added to EEL.
///
/// ```
/// use eel_core::Scheduler;
/// use eel_edit::{BlockCode, Tagged};
/// use eel_pipeline::MachineModel;
/// use eel_sparc::{Address, Instruction, IntReg, MemWidth, Operand};
///
/// let sched = Scheduler::new(MachineModel::ultrasparc());
/// // A load-use pair with an independent instruction after it: the
/// // scheduler hides the load latency behind the independent op.
/// let code = BlockCode {
///     body: vec![
///         Tagged::original(Instruction::Load {
///             width: MemWidth::Word,
///             addr: Address::base_imm(IntReg::O0, 0),
///             rd: IntReg::O1,
///         }),
///         Tagged::original(Instruction::mov(Operand::Reg(IntReg::O1), IntReg::O2)),
///         Tagged::original(Instruction::mov(Operand::imm(7), IntReg::O3)),
///     ],
///     tail: vec![],
/// };
/// let out = sched.schedule_block(code);
/// // The independent mov now sits between the load and its use.
/// assert_eq!(out.body[1].insn, Instruction::mov(Operand::imm(7), IntReg::O3));
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    model: MachineModel,
    options: SchedOptions,
}

// Callers share one scheduler across threads; per-block scratch lives
// in each transform closure's workspace, never in the scheduler.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Scheduler>();
};

impl Scheduler {
    /// A scheduler for `model` with default options.
    pub fn new(model: MachineModel) -> Scheduler {
        Scheduler::with_options(model, SchedOptions::default())
    }

    /// A scheduler with explicit options.
    pub fn with_options(model: MachineModel, options: SchedOptions) -> Scheduler {
        Scheduler { model, options }
    }

    /// The machine model being scheduled for.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// The active options.
    pub fn options(&self) -> SchedOptions {
        self.options
    }

    /// Schedules one block: reorders the body by two-pass list
    /// scheduling; the control tail stays in place (optionally
    /// receiving a delay-slot filler).
    ///
    /// Each call sets up its own scratch state; to schedule many
    /// blocks, [`Scheduler::transform`] reuses one.
    pub fn schedule_block(&self, code: BlockCode) -> BlockCode {
        self.schedule_in(code, None, &mut Workspace::new(&self.model))
    }

    /// An adapter for [`eel_edit::EditSession::emit`]. The closure owns
    /// the scheduler's scratch state, so one emit schedules all its
    /// blocks without per-block set-up allocations.
    pub fn transform(&self) -> impl FnMut(BlockInfo<'_>, BlockCode) -> BlockCode + '_ {
        let mut ws = Workspace::new(&self.model);
        move |_info, code| self.schedule_in(code, None, &mut ws)
    }

    /// A [`Scheduler::transform`] that records telemetry into
    /// `telemetry` for every block it schedules; the scheduled output is
    /// the plain transform's.
    ///
    /// Each block of two or more body instructions adds to the
    /// `sched.blocks` and `sched.queries` counters (the queries
    /// include lookahead clones and the exact oracle's search); the
    /// oracle also adds to the `sched.exact_*`, `sched.gap_cycles` and
    /// `sched.optimal_blocks` counters. When `telemetry` carries a
    /// tracer, each such block also records a `sched/block` span (and
    /// the oracle a `sched/exact` span). The closure looks its
    /// `sched.blocks` and `sched.queries` counters up once, so a
    /// list-scheduled block takes no registry lock.
    pub fn transform_with<'a>(
        &'a self,
        telemetry: &'a Registry,
    ) -> impl FnMut(BlockInfo<'_>, BlockCode) -> BlockCode + 'a {
        let recorder = Recorder::new(telemetry);
        let mut ws = Workspace::new(&self.model);
        move |_info, code| self.schedule_in(code, Some(&recorder), &mut ws)
    }

    /// Schedules one block over the scratch state `ws`, recording into
    /// `recorder` when it is given.
    fn schedule_in(
        &self,
        mut code: BlockCode,
        recorder: Option<&Recorder>,
        ws: &mut Workspace,
    ) -> BlockCode {
        self.schedule_body(&mut code.body, recorder, ws);
        if self.options.fill_delay_slots {
            self.fill_delay_slot(&mut code);
        }
        code
    }

    /// Schedules one block and attributes every stall cycle of the
    /// original and scheduled sequences — the observability companion
    /// to [`Scheduler::schedule_block`] behind `eel explain`.
    ///
    /// Both sequences (body followed by control tail) are replayed on
    /// an empty pipe through the recording sink; the scheduling pass
    /// itself runs unrecorded, so this adds replay cost but never
    /// perturbs the hot path. Each profile's
    /// [`StallProfile::total`] equals the corresponding timing's
    /// `stalls` exactly.
    pub fn explain_block(&self, code: BlockCode) -> ScheduleExplain {
        fn insns(code: &BlockCode) -> Vec<Instruction> {
            code.body.iter().chain(&code.tail).map(|t| t.insn).collect()
        }
        let before_insns = insns(&code);
        let scheduled = self.schedule_block(code);
        let (before, before_profile) = attribute_block(&self.model, &before_insns);
        let (after, after_profile) = attribute_block(&self.model, &insns(&scheduled));
        ScheduleExplain {
            scheduled,
            before,
            before_profile,
            after,
            after_profile,
        }
    }

    /// Runs the branch-and-bound oracle (see [`crate::exact`]) on one
    /// block, without going through [`Priority::Exact`] options: the
    /// body is list-scheduled under the active ready-list policy as
    /// the incumbent, then searched to a proven optimum or to
    /// [`SchedOptions::exact_budget`]. The control tail takes no part,
    /// mirroring [`Scheduler::schedule_block`].
    pub fn exact_block(&self, code: &BlockCode) -> crate::exact::ExactOutcome {
        let body = &code.body;
        let mut ws = Workspace::new(&self.model);
        ws.block.load(
            &self.model,
            body,
            self.options.instr_mem_independent,
            &mut ws.dep,
        );
        let mut incumbent = body.clone();
        if body.len() > 1 {
            self.list_pass(&mut ws, &mut incumbent, None);
        }
        crate::exact::exact_schedule(
            &self.model,
            body,
            &ws.block.graph,
            &incumbent,
            u64::from(self.options.exact_budget),
        )
    }

    /// Two-pass list scheduling over a straight-line body, in place,
    /// plus the exact-oracle refinement when [`Priority::Exact`] is
    /// selected.
    fn schedule_body(
        &self,
        body: &mut Vec<Tagged>,
        recorder: Option<&Recorder>,
        ws: &mut Workspace,
    ) {
        let n = body.len();
        if n <= 1 {
            return;
        }
        let telemetry = recorder.map(|r| r.registry);
        let _trace = telemetry
            .and_then(Registry::tracer)
            .map(|t| t.span("sched", "block", n as u64, 0));
        ws.block.load(
            &self.model,
            body,
            self.options.instr_mem_independent,
            &mut ws.dep,
        );
        self.list_pass(ws, body, recorder);
        if self.options.priority == Priority::Exact {
            let incumbent = std::mem::take(body);
            *body = self.exact_pass(&ws.block.body, &ws.block.graph, incumbent, telemetry);
        }
    }

    /// The forward list-scheduling pass (§4's second pass) over the
    /// block loaded into `ws`, writing the schedule into `out`.
    ///
    /// Each round picks the ready node the rule ranks best, asking the
    /// pipe only what can change that pick. The ready list is in the
    /// rule's order without stalls, and a node's last answer bounds its
    /// stalls from below; a node whose bound neither beats nor ties the
    /// round's best so far cannot win, and is not asked. The pick issues
    /// with the stall count its own query returned.
    fn list_pass(&self, ws: &mut Workspace, out: &mut Vec<Tagged>, recorder: Option<&Recorder>) {
        let Workspace {
            block,
            remaining_preds,
            ready,
            earliest,
            pipe,
            lookahead,
            ..
        } = ws;
        let n = block.body.len();
        let policy = self.options.priority;
        let depth = policy.lookahead();
        if policy.uses_load_shadow() {
            block.graph.load_shadowed_into(&mut block.shadowed);
        } else {
            block.shadowed.clear();
        }
        let block = &*block;
        let candidate = |i: usize, stalls: u64| Candidate {
            stalls,
            chain_to_end: block.cte[i],
            index: i,
            load_shadowed: block.shadowed.get(i).copied().unwrap_or(false),
        };
        let key = |i: usize| policy.ready_key(&candidate(i, 0));
        let make_ready = |ready: &mut Vec<usize>, i: usize| {
            let k = key(i);
            let at = ready.partition_point(|&r| key(r) < k);
            ready.insert(at, i);
        };

        remaining_preds.clear();
        remaining_preds.extend_from_slice(block.graph.pred_counts());
        ready.clear();
        for i in (0..n).filter(|&i| remaining_preds[i] == 0) {
            make_ready(ready, i);
        }
        earliest.clear();
        earliest.resize(n, 0);
        pipe.reset();
        out.clear();
        // Stall queries asked, the lookahead's on cloned scoreboards
        // included.
        let mut queries: u64 = 0;

        for _ in 0..n {
            let cycle = pipe.cycle();
            // The best candidate so far and its place in `ready`.
            let mut best: Option<(Candidate, usize)> = None;
            // Candidates queried this round, in ready order — the
            // lookahead tie set is drawn from these.
            lookahead.round.clear();
            for (at, &i) in ready.iter().enumerate() {
                if let Some((b, _)) = &best {
                    let bound = candidate(i, earliest[i].saturating_sub(cycle));
                    if !policy.better(&bound, b) && !policy.ties(&bound, b) {
                        continue;
                    }
                }
                let stalls =
                    pipe.stalls_prepared(&self.model, &block.body[i].insn, &block.prepared[i]);
                queries += 1;
                earliest[i] = cycle + stalls;
                let cand = candidate(i, stalls);
                if depth > 0 {
                    lookahead.round.push(cand);
                }
                if best.is_none_or(|(b, _)| policy.better(&cand, &b)) {
                    best = Some((cand, at));
                }
            }
            let (best, at) =
                best.expect("dependence graph of a finite body always has a ready node");
            let (pick, extra) = if depth > 0 {
                self.lookahead_pick(&best, block, ready, remaining_preds, pipe, lookahead)
            } else {
                (best, 0)
            };
            queries += extra;
            let at = if pick.index == best.index {
                at
            } else {
                ready
                    .iter()
                    .position(|&r| r == pick.index)
                    .expect("the pick is ready")
            };
            let i = pick.index;
            pipe.issue_queried(
                &self.model,
                &block.body[i].insn,
                &block.prepared[i],
                pick.stalls,
            );
            ready.remove(at);
            for e in block.graph.succ_edges(i) {
                remaining_preds[e.to] -= 1;
                if remaining_preds[e.to] == 0 {
                    make_ready(ready, e.to);
                }
            }
            out.push(block.body[i]);
        }
        if let Some(r) = recorder {
            r.blocks.add(1);
            r.queries.add(queries);
        }
    }

    /// The exact-oracle refinement behind [`Priority::Exact`]: search
    /// from the list incumbent, record gap telemetry, and return the
    /// best order found (never worse than `incumbent`).
    fn exact_pass(
        &self,
        body: &[Tagged],
        graph: &DepGraph,
        incumbent: Vec<Tagged>,
        telemetry: Option<&Registry>,
    ) -> Vec<Tagged> {
        let _trace = telemetry
            .and_then(Registry::tracer)
            .map(|t| t.span("sched", "exact", body.len() as u64, 0));
        let outcome = crate::exact::exact_schedule(
            &self.model,
            body,
            graph,
            &incumbent,
            u64::from(self.options.exact_budget),
        );
        if let Some(reg) = telemetry {
            reg.add("sched.queries", outcome.queries);
            reg.add("sched.exact_blocks", 1);
            reg.add("sched.exact_nodes", outcome.nodes);
            reg.add("sched.gap_cycles", outcome.gap());
            if outcome.proven_optimal {
                reg.add("sched.optimal_blocks", 1);
            }
            if outcome.budget_exhausted {
                reg.add("sched.exact_budget_exhausted", 1);
            }
        }
        outcome.body
    }

    /// Resolves one round's pick by one-step lookahead: among the
    /// round's candidates tied with `best` under the policy's `ties`
    /// relation, issue each of the first `k` (original order) on a
    /// copy of the scoreboard and keep the one whose best follow-up
    /// candidate would stall least; remaining ties fall back to the
    /// base order's winner (the smallest original index). Returns the
    /// chosen candidate and the number of stall queries spent on
    /// copies.
    ///
    /// Tied candidates share their chain length, so the ready order
    /// lists them by original index. Each issues on its copy with the
    /// count its round query returned, and a follow-up scan ends at its
    /// first zero, which no later answer can undercut.
    fn lookahead_pick(
        &self,
        best: &Candidate,
        block: &Block,
        ready: &[usize],
        remaining_preds: &[u32],
        pipe: &PipelineState,
        la: &mut Lookahead,
    ) -> (Candidate, u64) {
        let policy = self.options.priority;
        let tied = la
            .round
            .iter()
            .filter(|c| c.index == best.index || policy.ties(c, best))
            .take(policy.lookahead());
        if tied.clone().count() < 2 {
            return (*best, 0);
        }
        let mut extra = 0u64;
        // (best follow-up stalls, original index), minimized. `best`
        // holds the smallest index among ties, so an all-equal
        // lookahead degenerates to the base order.
        let mut winner = (u64::MAX, *best);
        for c in tied {
            let copy = match &mut la.pipe {
                Some(copy) => {
                    copy.clone_from(pipe);
                    copy
                }
                None => la.pipe.insert(pipe.clone()),
            };
            let (insn, prepared) = (&block.body[c.index].insn, &block.prepared[c.index]);
            copy.issue_queried(&self.model, insn, prepared, c.stalls);
            // Ready once `c` issues: the ready list less `c`, plus the
            // successors whose last predecessor is `c` (edges are one
            // per pair).
            let released = block
                .graph
                .succ_edges(c.index)
                .filter(|e| remaining_preds[e.to] == 1)
                .map(|e| e.to);
            // An empty follow-up ready set stalls nothing.
            let mut followup = u64::MAX;
            for j in ready
                .iter()
                .copied()
                .filter(|&j| j != c.index)
                .chain(released)
            {
                followup = followup.min(copy.stalls_prepared(
                    &self.model,
                    &block.body[j].insn,
                    &block.prepared[j],
                ));
                extra += 1;
                if followup == 0 {
                    break;
                }
            }
            let score = if followup == u64::MAX { 0 } else { followup };
            if (score, c.index) < (winner.0, winner.1.index) {
                winner = (score, *c);
            }
        }
        (winner.1, extra)
    }

    /// Moves the last body instruction into the delay slot when the
    /// slot holds a `nop` and the move preserves semantics.
    fn fill_delay_slot(&self, code: &mut BlockCode) {
        if code.tail.len() != 2 || !code.tail[1].insn.is_nop() {
            return;
        }
        let cti = code.tail[0].insn;
        // An annulled slot only executes on the taken path; moving
        // fall-through code there changes the untaken path.
        if cti.annul() == Some(true) {
            return;
        }
        let Some(candidate) = code.body.last().copied() else {
            return;
        };
        if candidate.insn.is_scheduling_barrier() || candidate.insn.is_cti() {
            return;
        }
        // The CTI's condition must not depend on the candidate.
        let cti_uses = cti.uses();
        if candidate.insn.defs().iter().any(|d| cti_uses.contains(d)) {
            return;
        }
        code.body.pop();
        code.tail[1] = candidate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_edit::Origin;
    use eel_pipeline::evaluate_block;
    use eel_sparc::{Address, AluOp, Cond, Instruction, IntReg, MemWidth, Operand};

    fn orig(i: Instruction) -> Tagged {
        Tagged::original(i)
    }

    fn inst(i: Instruction) -> Tagged {
        Tagged::instrumentation(i)
    }

    fn add(rs1: IntReg, rd: IntReg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            rs1,
            src2: Operand::imm(1),
            rd,
        }
    }

    fn ld(base: IntReg, rd: IntReg) -> Instruction {
        Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(base, 0),
            rd,
        }
    }

    #[test]
    fn explain_block_attribution_sums_to_stalls() {
        let sched = Scheduler::new(MachineModel::ultrasparc());
        let code = BlockCode {
            body: vec![
                orig(ld(IntReg::O0, IntReg::O1)),
                orig(add(IntReg::O1, IntReg::O2)),
                orig(add(IntReg::O4, IntReg::O5)),
            ],
            tail: vec![],
        };
        let ex = sched.explain_block(code);
        // The explain invariant: every stall cycle is classified,
        // once, before and after scheduling.
        assert_eq!(ex.before_profile.total(), ex.before.stalls);
        assert_eq!(ex.after_profile.total(), ex.after.stalls);
        // The load-use gap shows up as RAW stalls on %o1 before
        // scheduling, and the schedule never becomes slower.
        assert!(ex.before.stalls > 0);
        assert!(ex.before_profile.raw_total() > 0, "{:?}", ex.before_profile);
        assert!(ex.after.stalls <= ex.before.stalls);
        assert!(ex.after.issue_latency() <= ex.before.issue_latency());
        assert!(ex.scheduled.body.len() == 3);
    }

    fn st(src: IntReg, base: IntReg) -> Instruction {
        Instruction::Store {
            width: MemWidth::Word,
            src,
            addr: Address::base_imm(base, 0),
        }
    }

    fn issue_latency(model: &MachineModel, body: &[Tagged]) -> u64 {
        let insns: Vec<Instruction> = body.iter().map(|t| t.insn).collect();
        evaluate_block(model, &insns).issue_latency()
    }

    /// Runs the scheduler and checks every dependence is preserved.
    fn schedule_checked(sched: &Scheduler, body: Vec<Tagged>) -> Vec<Tagged> {
        let graph = DepGraph::build(sched.model(), &body, sched.options().instr_mem_independent);
        let out = sched
            .schedule_block(BlockCode {
                body: body.clone(),
                tail: vec![],
            })
            .body;
        assert_eq!(out.len(), body.len(), "no instruction lost or added");
        // Positions of original indices in the output.
        let pos: Vec<usize> = body
            .iter()
            .map(|t| {
                out.iter()
                    .position(|o| o == t)
                    .expect("every input instruction appears")
            })
            .collect();
        for e in &graph.edges {
            // For duplicated instructions `position` can alias, so only
            // check when the tagged values are distinct.
            if body[e.from] != body[e.to] {
                assert!(
                    pos[e.from] < pos[e.to],
                    "dependence {:?} violated: {} !< {}",
                    e,
                    pos[e.from],
                    pos[e.to]
                );
            }
        }
        out
    }

    #[test]
    fn fills_load_delay_with_independent_work() {
        let sched = Scheduler::new(MachineModel::ultrasparc());
        let body = vec![
            orig(ld(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O1, IntReg::O2)), // needs the load
            orig(add(IntReg::O3, IntReg::O4)), // independent
        ];
        let before = issue_latency(sched.model(), &body);
        let out = schedule_checked(&sched, body);
        let after = issue_latency(sched.model(), &out);
        assert!(
            after <= before,
            "schedule must not regress: {after} > {before}"
        );
        assert_eq!(
            out[1].insn,
            add(IntReg::O3, IntReg::O4),
            "independent op fills the gap"
        );
    }

    #[test]
    fn hides_instrumentation_in_stall_cycles() {
        // Original: a load-use pair (a 2-cycle bubble on UltraSPARC).
        // Instrumentation: a counter update. The scheduler should slot
        // the counter code into the bubble.
        let sched = Scheduler::new(MachineModel::ultrasparc());
        let counter = 0x0080_0000u32;
        let body = vec![
            inst(Instruction::Sethi {
                imm22: counter >> 10,
                rd: IntReg::G1,
            }),
            inst(ld(IntReg::G1, IntReg::G2)),
            inst(add(IntReg::G2, IntReg::G2)),
            inst(st(IntReg::G2, IntReg::G1)),
            orig(ld(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O1, IntReg::O2)),
        ];
        let unscheduled = issue_latency(sched.model(), &body);
        let out = schedule_checked(&sched, body);
        let scheduled = issue_latency(sched.model(), &out);
        assert!(
            scheduled < unscheduled,
            "scheduling should hide overhead: {scheduled} !< {unscheduled}"
        );
    }

    #[test]
    fn single_instruction_is_untouched() {
        let sched = Scheduler::new(MachineModel::supersparc());
        let body = vec![orig(add(IntReg::O0, IntReg::O1))];
        let out = sched
            .schedule_block(BlockCode {
                body: body.clone(),
                tail: vec![],
            })
            .body;
        assert_eq!(out, body);
    }

    #[test]
    fn dependences_hold_on_every_machine() {
        for model in MachineModel::shipped() {
            let sched = Scheduler::new(model);
            let body = vec![
                orig(ld(IntReg::O0, IntReg::O1)),
                orig(add(IntReg::O1, IntReg::O2)),
                orig(st(IntReg::O2, IntReg::O0)),
                orig(add(IntReg::O3, IntReg::O3)),
                orig(Instruction::cmp(IntReg::O2, Operand::imm(0))),
            ];
            schedule_checked(&sched, body);
        }
    }

    #[test]
    fn cc_writer_order_preserved_for_branch() {
        // Two cc writers: their WAW edge keeps the branch's input the
        // same after scheduling.
        let sched = Scheduler::new(MachineModel::ultrasparc());
        let body = vec![
            orig(Instruction::cmp(IntReg::O0, Operand::imm(1))),
            orig(add(IntReg::O3, IntReg::O4)),
            orig(Instruction::cmp(IntReg::O1, Operand::imm(2))),
        ];
        let out = schedule_checked(&sched, body);
        let cmp1 = out
            .iter()
            .position(|t| t.insn == Instruction::cmp(IntReg::O0, Operand::imm(1)))
            .unwrap();
        let cmp2 = out
            .iter()
            .position(|t| t.insn == Instruction::cmp(IntReg::O1, Operand::imm(2)))
            .unwrap();
        assert!(cmp1 < cmp2);
    }

    #[test]
    fn tail_is_never_reordered() {
        let sched = Scheduler::new(MachineModel::ultrasparc());
        let tail = vec![
            orig(Instruction::Branch {
                cond: Cond::Ne,
                annul: false,
                disp: -4,
            }),
            orig(Instruction::nop()),
        ];
        let code = BlockCode {
            body: vec![
                orig(add(IntReg::O0, IntReg::O1)),
                orig(add(IntReg::O2, IntReg::O3)),
            ],
            tail: tail.clone(),
        };
        let out = sched.schedule_block(code);
        assert_eq!(out.tail, tail);
    }

    #[test]
    fn delay_slot_filling_moves_safe_instruction() {
        let model = MachineModel::ultrasparc();
        let sched = Scheduler::with_options(
            model,
            SchedOptions {
                fill_delay_slots: true,
                ..SchedOptions::default()
            },
        );
        let code = BlockCode {
            body: vec![
                orig(Instruction::cmp(IntReg::O0, Operand::imm(0))),
                orig(add(IntReg::O2, IntReg::O3)),
            ],
            tail: vec![
                orig(Instruction::Branch {
                    cond: Cond::Ne,
                    annul: false,
                    disp: 8,
                }),
                orig(Instruction::nop()),
            ],
        };
        let out = sched.schedule_block(code);
        assert_eq!(out.body.len(), 1);
        assert_eq!(out.tail[1].insn, add(IntReg::O2, IntReg::O3));
    }

    #[test]
    fn delay_slot_filling_respects_branch_condition() {
        // The only candidate writes the condition codes the branch
        // reads: it must not move into the slot.
        let model = MachineModel::ultrasparc();
        let sched = Scheduler::with_options(
            model,
            SchedOptions {
                fill_delay_slots: true,
                ..SchedOptions::default()
            },
        );
        let code = BlockCode {
            body: vec![orig(Instruction::cmp(IntReg::O0, Operand::imm(0)))],
            tail: vec![
                orig(Instruction::Branch {
                    cond: Cond::Ne,
                    annul: false,
                    disp: 8,
                }),
                orig(Instruction::nop()),
            ],
        };
        let out = sched.schedule_block(code.clone());
        assert_eq!(out, code, "cmp must stay out of the slot");
    }

    #[test]
    fn delay_slot_filling_respects_indirect_target_register() {
        // The candidate computes the register an indirect jump reads
        // for its target: moving it past the jump would redirect it.
        let model = MachineModel::ultrasparc();
        let sched = Scheduler::with_options(
            model,
            SchedOptions {
                fill_delay_slots: true,
                ..SchedOptions::default()
            },
        );
        let code = BlockCode {
            body: vec![orig(add(IntReg::O0, IntReg::O0))],
            tail: vec![
                orig(Instruction::Jmpl {
                    rs1: IntReg::O0,
                    src2: Operand::imm(0),
                    rd: IntReg::G0,
                }),
                orig(Instruction::nop()),
            ],
        };
        let out = sched.schedule_block(code.clone());
        assert_eq!(out, code, "the target-producing add must stay put");
    }

    #[test]
    fn delay_slot_filling_skips_barrier_and_cti_candidates() {
        let model = MachineModel::ultrasparc();
        let sched = Scheduler::with_options(
            model,
            SchedOptions {
                fill_delay_slots: true,
                ..SchedOptions::default()
            },
        );
        let tail = vec![
            orig(Instruction::Branch {
                cond: Cond::A,
                annul: false,
                disp: 8,
            }),
            orig(Instruction::nop()),
        ];
        // A register-window barrier may not enter the slot…
        let barrier = BlockCode {
            body: vec![orig(Instruction::Restore {
                rs1: IntReg::G0,
                src2: Operand::imm(0),
                rd: IntReg::G0,
            })],
            tail: tail.clone(),
        };
        let out = sched.schedule_block(barrier.clone());
        assert_eq!(out, barrier, "barriers stay out of the slot");
        // …and neither may another control transfer.
        let cti = BlockCode {
            body: vec![orig(Instruction::Call { disp: 16 })],
            tail,
        };
        let out = sched.schedule_block(cti.clone());
        assert_eq!(out, cti, "CTIs stay out of the slot");
    }

    #[test]
    fn delay_slot_filling_requires_a_nop_slot() {
        // A tail whose slot already holds real work is left alone.
        let model = MachineModel::ultrasparc();
        let sched = Scheduler::with_options(
            model,
            SchedOptions {
                fill_delay_slots: true,
                ..SchedOptions::default()
            },
        );
        let code = BlockCode {
            body: vec![orig(add(IntReg::O2, IntReg::O3))],
            tail: vec![
                orig(Instruction::Branch {
                    cond: Cond::Ne,
                    annul: false,
                    disp: 8,
                }),
                orig(add(IntReg::O4, IntReg::O5)),
            ],
        };
        let out = sched.schedule_block(code.clone());
        assert_eq!(out, code);
    }

    #[test]
    fn delay_slot_filling_skips_annulled_branches() {
        let model = MachineModel::ultrasparc();
        let sched = Scheduler::with_options(
            model,
            SchedOptions {
                fill_delay_slots: true,
                ..SchedOptions::default()
            },
        );
        let code = BlockCode {
            body: vec![orig(add(IntReg::O2, IntReg::O3))],
            tail: vec![
                orig(Instruction::Branch {
                    cond: Cond::Ne,
                    annul: true,
                    disp: 8,
                }),
                orig(Instruction::nop()),
            ],
        };
        let out = sched.schedule_block(code.clone());
        assert_eq!(out, code);
    }

    #[test]
    fn memory_conservatism_limits_original_reordering() {
        // An original load cannot move above an original store.
        let sched = Scheduler::new(MachineModel::ultrasparc());
        let body = vec![
            orig(st(IntReg::O1, IntReg::O0)),
            orig(ld(IntReg::O2, IntReg::O3)),
        ];
        let out = schedule_checked(&sched, body.clone());
        assert_eq!(out, body);
    }

    #[test]
    fn instrumentation_load_may_cross_original_store() {
        let sched = Scheduler::new(MachineModel::ultrasparc());
        // store (original, occupies LSU), then instrumentation load.
        // With independence the load may be hoisted if profitable; at
        // minimum the graph permits it. Verify the scheduler output
        // still contains both and respects no false edge.
        let body = vec![
            orig(st(IntReg::O1, IntReg::O0)),
            inst(ld(IntReg::G1, IntReg::G2)),
        ];
        let out = schedule_checked(&sched, body);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn deterministic_output() {
        let sched = Scheduler::new(MachineModel::supersparc());
        let body = vec![
            orig(add(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O2, IntReg::O3)),
            orig(add(IntReg::O4, IntReg::O5)),
            orig(ld(IntReg::L0, IntReg::L1)),
        ];
        let a = sched.schedule_block(BlockCode {
            body: body.clone(),
            tail: vec![],
        });
        let b = sched.schedule_block(BlockCode { body, tail: vec![] });
        assert_eq!(a, b);
    }

    #[test]
    fn origin_tags_survive_scheduling() {
        let sched = Scheduler::new(MachineModel::ultrasparc());
        let body = vec![
            inst(add(IntReg::G1, IntReg::G1)),
            orig(add(IntReg::O0, IntReg::O1)),
        ];
        let out = schedule_checked(&sched, body);
        assert_eq!(
            out.iter()
                .filter(|t| t.origin == Origin::Instrumentation)
                .count(),
            1
        );
        assert_eq!(
            out.iter().filter(|t| t.origin == Origin::Original).count(),
            1
        );
    }

    #[test]
    fn telemetry_sink_observes_scheduling_without_changing_it() {
        let sched = Scheduler::new(MachineModel::ultrasparc());
        let body = vec![
            orig(ld(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O1, IntReg::O2)),
            orig(add(IntReg::O3, IntReg::O4)),
        ];
        let code = BlockCode { body, tail: vec![] };
        let plain = sched.schedule_block(code.clone());
        let info = BlockInfo {
            routine: "f",
            routine_index: 0,
            block_index: 0,
            addr: 0x10000,
        };
        let reg = Registry::new();
        let observed = sched.transform_with(&reg)(info, code.clone());
        assert_eq!(observed, plain, "same schedule");
        let snap = reg.snapshot();
        assert_eq!(snap.counters["sched.blocks"], 1);
        // Round one asks the load, first by its longer chain, and skips
        // the independent add: at no fewer stalls and a shorter chain
        // it cannot win. Round two asks both adds, and round three the
        // dependent add. Each pick issues with its own answer.
        assert_eq!(snap.counters["sched.queries"], 1 + 2 + 1);

        // A registry carrying a tracer schedules and counts the same,
        // and records one `sched/block` span per counted block: none
        // for a one-instruction body, which is left as it is.
        let tracer = std::sync::Arc::new(eel_telemetry::Tracer::new(64));
        let traced = Registry::with_tracer(std::sync::Arc::clone(&tracer));
        let single = BlockCode {
            body: vec![orig(add(IntReg::O3, IntReg::O4))],
            tail: vec![],
        };
        let mut transform = sched.transform_with(&traced);
        assert_eq!(transform(info, single.clone()), single);
        assert_eq!(transform(info, code.clone()), plain, "same schedule");
        assert_eq!(transform(info, code), plain, "same schedule");
        let counters = traced.snapshot().counters;
        assert_eq!(counters["sched.blocks"], 2);
        assert_eq!(
            counters["sched.queries"],
            2 * snap.counters["sched.queries"]
        );
        let spans: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| e.cat == "sched" && e.name == "block")
            .collect();
        assert_eq!(spans.len() as u64, counters["sched.blocks"]);
        assert!(spans.iter().all(|e| e.a0 == 3), "{spans:?}");
        assert_eq!(tracer.events().len(), spans.len(), "nothing else traced");
    }

    /// The list pass as it was before it skipped any query, kept as the
    /// oracle of the pruned one: every round asks every ready node, in
    /// original order, and the pick again as it issues; lookahead asks
    /// each tied candidate's whole follow-up set. Returns the schedule
    /// and the stall queries spent.
    fn full_scan(sched: &Scheduler, body: &[Tagged]) -> (Vec<Tagged>, u64) {
        let model = sched.model();
        let policy = sched.options().priority;
        let mut block = Block::default();
        let imi = sched.options().instr_mem_independent;
        block.load(model, body, imi, &mut DepScratch::default());
        if policy.uses_load_shadow() {
            block.graph.load_shadowed_into(&mut block.shadowed);
        }
        let n = body.len();
        let queries = std::cell::Cell::new(0u64);
        let query = |pipe: &PipelineState, i: usize| {
            queries.set(queries.get() + 1);
            pipe.stalls_prepared(model, &block.body[i].insn, &block.prepared[i])
        };
        let issue = |pipe: &mut PipelineState, i: usize| {
            let stalls = query(pipe, i);
            pipe.issue_queried(model, &block.body[i].insn, &block.prepared[i], stalls);
        };
        let mut remaining = block.graph.pred_counts().to_vec();
        let mut ready: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let mut pipe = PipelineState::new(model);
        let mut out = Vec::new();
        for _ in 0..n {
            let round: Vec<Candidate> = ready
                .iter()
                .map(|&i| Candidate {
                    stalls: query(&pipe, i),
                    chain_to_end: block.cte[i],
                    index: i,
                    load_shadowed: block.shadowed.get(i).copied().unwrap_or(false),
                })
                .collect();
            let best = round
                .iter()
                .copied()
                .reduce(|b, c| if policy.better(&c, &b) { c } else { b })
                .unwrap();
            let tied: Vec<&Candidate> = round
                .iter()
                .filter(|c| c.index == best.index || policy.ties(c, &best))
                .take(policy.lookahead())
                .collect();
            let mut pick = best.index;
            if tied.len() >= 2 {
                let mut winner = (u64::MAX, usize::MAX);
                for c in tied {
                    let mut copy = pipe.clone();
                    issue(&mut copy, c.index);
                    let mut followup: Vec<usize> =
                        ready.iter().copied().filter(|&j| j != c.index).collect();
                    for e in block.graph.succ_edges(c.index) {
                        if remaining[e.to] == 1 {
                            followup.push(e.to);
                        }
                    }
                    followup.sort_unstable();
                    let stalls = followup.iter().map(|&j| query(&copy, j)).min();
                    winner = winner.min((stalls.unwrap_or(0), c.index));
                }
                pick = winner.1;
            }
            issue(&mut pipe, pick);
            ready.retain(|&r| r != pick);
            for e in block.graph.succ_edges(pick) {
                remaining[e.to] -= 1;
                if remaining[e.to] == 0 {
                    let at = ready.partition_point(|&r| r < e.to);
                    ready.insert(at, e.to);
                }
            }
            out.push(block.body[pick]);
        }
        (out, queries.get())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The pruned list pass gives the full scan's order and never
        /// asks more queries, for every list rule and the exact
        /// oracle's incumbent, both memory rules and all six machines,
        /// on bodies of ALU ops, loads and stores of both origins,
        /// barriers, FP doubles and `%g0`.
        #[test]
        fn pruned_pass_matches_the_full_scan(body in crate::dep::tests::arb_body(1..81)) {
            for model in MachineModel::shipped() {
                let mut ws = Workspace::new(&model);
                for priority in Priority::ALL.into_iter().chain([Priority::Exact]) {
                    for instr_mem_independent in [true, false] {
                        let sched = Scheduler::with_options(
                            model.clone(),
                            SchedOptions {
                                priority,
                                instr_mem_independent,
                                ..SchedOptions::default()
                            },
                        );
                        let (want, full_queries) = full_scan(&sched, &body);
                        ws.block.load(&model, &body, instr_mem_independent, &mut ws.dep);
                        let reg = Registry::new();
                        let mut got = Vec::new();
                        sched.list_pass(&mut ws, &mut got, Some(&Recorder::new(&reg)));
                        let ctx = format!(
                            "{} {priority} imi={instr_mem_independent} n={}",
                            model.name(),
                            body.len()
                        );
                        prop_assert_eq!(&got, &want, "{}", ctx);
                        let queries = reg.snapshot().counters["sched.queries"];
                        prop_assert!(queries <= full_queries, "{}: {} > {}", ctx, queries, full_queries);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_body_is_fine() {
        let sched = Scheduler::new(MachineModel::ultrasparc());
        let out = sched.schedule_block(BlockCode {
            body: vec![],
            tail: vec![],
        });
        assert!(out.is_empty());
    }

    /// A deterministic `n`-instruction body: original load/ALU/store/FP
    /// work over a few registers mixed with instrumentation counter
    /// updates, with a register-window barrier in the middle when
    /// `barrier` is set.
    fn stream_body(n: usize, seed: u32, barrier: bool) -> Vec<Tagged> {
        let regs = [
            IntReg::O0,
            IntReg::O1,
            IntReg::O2,
            IntReg::O3,
            IntReg::L0,
            IntReg::L1,
        ];
        (0..n)
            .map(|k| {
                let x = (k as u32 ^ seed).wrapping_mul(0x9E37_79B1) >> 8;
                let r = |shift: u32| regs[((x >> shift) % 6) as usize];
                if barrier && k == n / 2 {
                    return orig(Instruction::Restore {
                        rs1: IntReg::G0,
                        src2: Operand::imm(0),
                        rd: IntReg::G0,
                    });
                }
                match x % 7 {
                    0 => orig(ld(r(3), r(6))),
                    1 => orig(add(r(3), r(6))),
                    2 => orig(st(r(3), r(6))),
                    3 => orig(Instruction::Fp {
                        op: eel_sparc::FpOp::FMulD,
                        rs1: eel_sparc::FpReg::new(2 * (x % 4) as u8),
                        rs2: eel_sparc::FpReg::new(8),
                        rd: eel_sparc::FpReg::new(2 * ((x >> 3) % 4) as u8),
                    }),
                    4 => inst(Instruction::Sethi {
                        imm22: 0x2000 + k as u32,
                        rd: IntReg::G1,
                    }),
                    5 => inst(ld(IntReg::G1, IntReg::G2)),
                    _ => inst(st(IntReg::G2, IntReg::G1)),
                }
            })
            .collect()
    }

    #[test]
    fn workspace_reuse_is_invisible() {
        // One emit-like stream through a single transform (one reused
        // workspace) must equal a fresh transform per block: same
        // schedules, same stall-query total. The sizes cross the one-,
        // two- and three-word bitset boundaries and then shrink again,
        // so stale state from a larger block would show.
        let mut blocks = Vec::new();
        for (k, &n) in [0, 1, 2, 63, 64, 65, 130, 3, 2, 9, 1, 5].iter().enumerate() {
            for barrier in [false, true] {
                let tail = if k % 2 == 0 {
                    vec![]
                } else {
                    vec![
                        orig(Instruction::Branch {
                            cond: Cond::Ne,
                            annul: false,
                            disp: 8,
                        }),
                        orig(Instruction::nop()),
                    ]
                };
                blocks.push(BlockCode {
                    body: stream_body(n, k as u32 * 31 + u32::from(barrier), barrier),
                    tail,
                });
            }
        }
        let info = BlockInfo {
            routine: "stream",
            routine_index: 0,
            block_index: 0,
            addr: 0x10000,
        };
        let policies = Priority::ALL.into_iter().chain([Priority::Exact]);
        for model in MachineModel::shipped() {
            for priority in policies.clone() {
                let sched = Scheduler::with_options(
                    model.clone(),
                    SchedOptions {
                        priority,
                        ..SchedOptions::default()
                    },
                );
                let reused = eel_telemetry::Registry::new();
                let mut transform = sched.transform_with(&reused);
                let fresh = eel_telemetry::Registry::new();
                for (k, code) in blocks.iter().enumerate() {
                    let got = transform(info, code.clone());
                    let want = sched.transform_with(&fresh)(info, code.clone());
                    assert_eq!(got, want, "{} {priority} block {k}", model.name());
                }
                let (reused, fresh) = (reused.snapshot(), fresh.snapshot());
                assert_eq!(
                    reused.counters["sched.queries"],
                    fresh.counters["sched.queries"],
                    "{} {priority}",
                    model.name()
                );
                assert_eq!(
                    reused.counters["sched.blocks"],
                    fresh.counters["sched.blocks"]
                );
            }
        }
    }
}
