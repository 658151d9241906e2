//! The branch-and-bound exact scheduler — the optimality oracle.
//!
//! The paper's list scheduler (§4) is greedy; PR 3 could only pin its
//! anomaly *empirically*. This module turns that bound into a proven
//! one: an implicit enumeration over all dependence-legal orders of a
//! block body, driven by the same precompiled reservation tables and
//! [`DepGraph`] the list scheduler uses, with no external solver.
//!
//! Three devices make the search practical at block sizes up to
//! [`EXACT_MAX_BLOCK`]:
//!
//! * **Admissible lower bounds.** At every partial schedule the
//!   remaining latency is bounded below by the dependence critical
//!   path (earliest feasible issue plus chain-to-end, per remaining
//!   instruction) and by resource height (the remaining first-row unit
//!   demand divided by the machine's per-cycle unit counts). A subtree
//!   whose bound cannot strictly beat the incumbent is dead.
//! * **Dominance pruning.** Two partial schedules over the same
//!   instruction set whose scoreboards serialize to the same
//!   issue-cycle-relative [`PipelineState::context_key`] evolve
//!   identically; only the visit that reached the state at the
//!   earliest cycle can still improve on what it already explored.
//! * **A warm incumbent.** The search starts from the list schedule,
//!   so it never returns a worse order and usually proves the greedy
//!   result optimal at the root bound without expanding a node.
//!
//! The search is budgeted: after [`SchedOptions::exact_budget`] nodes
//! (issues tried) it stops and keeps the best schedule seen — at worst
//! the list incumbent — with [`ExactOutcome::budget_exhausted`] set so
//! callers can tell a proven optimum from a timeout.
//!
//! [`SchedOptions::exact_budget`]: crate::SchedOptions::exact_budget

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use eel_edit::Tagged;
use eel_pipeline::{class_of, evaluate_block, MachineModel, PipelineState, PreparedInsn};
use eel_sparc::Instruction;

use crate::dep::{DepGraph, DepKind};

/// Largest body (in instructions) the search will attempt. Bigger
/// blocks immediately fall back to the incumbent with
/// [`ExactOutcome::budget_exhausted`] set: the state space beyond this
/// defeats the bounds, and the paper's blocks rarely come close.
pub const EXACT_MAX_BLOCK: usize = 32;

/// Default per-block node budget ([`crate::SchedOptions::exact_budget`]).
pub const DEFAULT_EXACT_BUDGET: u32 = 65_536;

/// The oracle's answer for one block body.
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// The best schedule found. Never slower than the incumbent the
    /// search started from; exactly the incumbent when the budget was
    /// exhausted before anything better surfaced.
    pub body: Vec<Tagged>,
    /// Issue latency of `body` on an empty pipe (cycles).
    pub latency: u64,
    /// Issue latency of the list-scheduled incumbent.
    pub list_latency: u64,
    /// Whether `latency` is a proven minimum over all dependence-legal
    /// orders (the search completed within budget).
    pub proven_optimal: bool,
    /// The node budget ran out — or the body exceeded
    /// [`EXACT_MAX_BLOCK`] — and the search was cut short.
    pub budget_exhausted: bool,
    /// Search nodes expanded (issue attempts).
    pub nodes: u64,
    /// Stall queries the search spent ranking the ready candidates of
    /// each state it expanded; a child issues with its candidate's
    /// answer and asks nothing again.
    pub queries: u64,
}

impl ExactOutcome {
    /// Cycles the list schedule left on the table for this block.
    pub fn gap(&self) -> u64 {
        self.list_latency - self.latency
    }
}

/// Issue latency of a body replayed on an empty pipe.
fn latency_of(model: &MachineModel, body: &[Tagged]) -> u64 {
    if body.is_empty() {
        return 0;
    }
    let insns: Vec<Instruction> = body.iter().map(|t| t.insn).collect();
    evaluate_block(model, &insns).issue_latency()
}

/// Branch-and-bound search for a minimum-latency order of `body`.
///
/// `graph` must be the dependence graph of `body` in its given order;
/// `incumbent` must be a dependence-legal schedule of the same
/// instructions (the list scheduler's output). The result is never
/// slower than `incumbent`, and is a proven optimum unless
/// [`ExactOutcome::budget_exhausted`] reports otherwise.
pub fn exact_schedule(
    model: &MachineModel,
    body: &[Tagged],
    graph: &DepGraph,
    incumbent: &[Tagged],
    budget: u64,
) -> ExactOutcome {
    debug_assert_eq!(body.len(), incumbent.len());
    let n = body.len();
    let list_latency = latency_of(model, incumbent);
    if n <= 1 {
        return ExactOutcome {
            body: incumbent.to_vec(),
            latency: list_latency,
            list_latency,
            proven_optimal: true,
            budget_exhausted: false,
            nodes: 0,
            queries: 0,
        };
    }
    if n > EXACT_MAX_BLOCK {
        return ExactOutcome {
            body: incumbent.to_vec(),
            latency: list_latency,
            list_latency,
            proven_optimal: false,
            budget_exhausted: true,
            nodes: 0,
            queries: 0,
        };
    }

    // Predecessor edges per node, for the critical-path bound — with
    // *pipeline-enforced* issue distances, which are not the graph's
    // `min_cycles`. A RAW edge's distance is exactly the scoreboard's
    // hazard bound; a WAW edge is enforced through the producer's
    // availability offset; WAR, memory, and barrier edges only order
    // the sequence (in-order issue makes that distance 0). Using the
    // graph's ordering weights here would overestimate — e.g. a
    // zero-availability `sethi` WAW-followed by an `alu` can legally
    // co-issue — and an inadmissible bound prunes true optima. Edges
    // always point from a lower original index to a higher one, so
    // original order is a topological order of the remaining set.
    let enforced = |e: &crate::dep::DepEdge| -> u32 {
        match e.kind {
            DepKind::Raw(_) => e.min_cycles,
            DepKind::Waw(r) => {
                let class = class_of(r);
                let ai = model
                    .timing(model.group_id_of(&body[e.from].insn))
                    .avail_offset(class);
                let aj = model
                    .timing(model.group_id_of(&body[e.to].insn))
                    .avail_offset(class);
                (ai + 1).saturating_sub(aj)
            }
            DepKind::War(_) | DepKind::Memory | DepKind::Barrier => 0,
        }
    };
    let mut preds: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for e in &graph.edges {
        preds[e.to].push((e.from, enforced(e)));
    }
    // Chain-to-end over the enforced weights (the ordering-weighted
    // `DepGraph::chain_to_end` would overestimate the same way).
    let mut cte = vec![0u32; n];
    for i in (0..n).rev() {
        for e in graph.succ_edges(i) {
            cte[i] = cte[i].max(enforced(e) + cte[e.to]);
        }
    }
    // First-row (issue-cycle) unit demand per instruction, for the
    // resource-height bound.
    let row0: Vec<Vec<(usize, u32)>> = body
        .iter()
        .map(|t| model.usage(&t.insn).first().cloned().unwrap_or_default())
        .collect();

    let mut s = Search {
        model,
        body,
        prepared: body.iter().map(|t| model.prepare(&t.insn)).collect(),
        preds,
        graph,
        cte,
        row0,
        unit_counts: model.unit_counts(),
        best: list_latency,
        best_order: Vec::new(),
        seen: HashMap::new(),
        nodes: 0,
        budget,
        exhausted: false,
        queries: 0,
        issue_at: vec![0; n],
        est: vec![0; n],
        unit_demand: vec![0; model.unit_kinds()],
        key_buf: Vec::new(),
    };

    // The root bound proves most list schedules optimal outright.
    if s.lower_bound(0, 0) < s.best {
        let pipe = PipelineState::new(model);
        let mut ready_preds: Vec<u32> = graph.pred_counts().to_vec();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        s.dfs(&pipe, 0, &mut order, &mut ready_preds);
    }

    let (out, latency) = if s.best_order.is_empty() {
        (incumbent.to_vec(), list_latency)
    } else {
        (s.best_order.iter().map(|&i| body[i]).collect(), s.best)
    };
    debug_assert_eq!(
        latency_of(model, &out),
        latency,
        "search mistimed its own pick"
    );
    ExactOutcome {
        body: out,
        latency,
        list_latency,
        proven_optimal: !s.exhausted,
        budget_exhausted: s.exhausted,
        nodes: s.nodes,
        queries: s.queries,
    }
}

struct Search<'a> {
    model: &'a MachineModel,
    body: &'a [Tagged],
    prepared: Vec<PreparedInsn>,
    /// `(predecessor, min issue distance)` per node.
    preds: Vec<Vec<(usize, u32)>>,
    graph: &'a DepGraph,
    /// Chain-to-end lengths over pipeline-enforced edge distances.
    cte: Vec<u32>,
    /// Issue-cycle `(unit, copies)` demand per node.
    row0: Vec<Vec<(usize, u32)>>,
    unit_counts: Vec<u32>,
    /// Incumbent latency: strictly beat it or die.
    best: u64,
    /// Original indices of the best order found; empty while the
    /// initial (external) incumbent still stands.
    best_order: Vec<usize>,
    /// `[mask, context_key...] -> earliest cycle seen` — the dominance
    /// table. Keys store the full serialized scoreboard, not a hash,
    /// so a collision can never prune a live subtree.
    seen: HashMap<Vec<u32>, u64>,
    nodes: u64,
    budget: u64,
    exhausted: bool,
    queries: u64,
    /// Absolute issue cycle per node on the *current* DFS path; only
    /// entries whose mask bit is set are meaningful.
    issue_at: Vec<u64>,
    /// Scratch: earliest dependence-feasible issue per remaining node.
    est: Vec<u64>,
    /// Scratch: remaining first-row demand per unit.
    unit_demand: Vec<u64>,
    /// Scratch: context-key serialization buffer.
    key_buf: Vec<u32>,
}

impl Search<'_> {
    /// An admissible lower bound on the final issue latency from a
    /// state where `mask` is scheduled and the scoreboard sits at
    /// `cycle`: max of the dependence critical path and the resource
    /// height of the remaining set. Never overestimates — resources
    /// already reserved by the prefix only delay the true optimum
    /// further.
    fn lower_bound(&mut self, mask: u32, cycle: u64) -> u64 {
        let n = self.body.len();
        // Some instruction still has to issue at or after `cycle`.
        let mut lb = cycle + 1;
        for i in 0..n {
            if mask & (1u32 << i) != 0 {
                continue;
            }
            let mut est = cycle;
            for &(p, lat) in &self.preds[i] {
                let at = if mask & (1u32 << p) != 0 {
                    self.issue_at[p]
                } else {
                    self.est[p]
                };
                est = est.max(at + u64::from(lat));
            }
            self.est[i] = est;
            lb = lb.max(est + u64::from(self.cte[i]) + 1);
        }
        for d in self.unit_demand.iter_mut() {
            *d = 0;
        }
        for i in 0..n {
            if mask & (1u32 << i) != 0 {
                continue;
            }
            for &(u, c) in &self.row0[i] {
                self.unit_demand[u] += u64::from(c);
            }
        }
        for (u, &d) in self.unit_demand.iter().enumerate() {
            let cap = u64::from(self.unit_counts[u]);
            if d > 0 && cap > 0 {
                // Issue-cycle demand lands exactly at issue cycles, at
                // most `cap` copies per cycle, all at or after `cycle`:
                // the last such cycle is `cycle + ceil(d / cap) - 1`.
                lb = lb.max(cycle + d.div_ceil(cap));
            }
        }
        lb
    }

    fn dfs(
        &mut self,
        pipe: &PipelineState,
        mask: u32,
        order: &mut Vec<usize>,
        ready_preds: &mut Vec<u32>,
    ) {
        let n = self.body.len();
        if order.len() == n {
            let latency = pipe.cycle() + 1;
            if latency < self.best {
                self.best = latency;
                self.best_order = order.clone();
            }
            return;
        }
        // Expand ready instructions in the list heuristic's order
        // (fewest stalls, longest chain, original index) so strong
        // incumbents surface before the bounds are tested against
        // weaker ones.
        let mut cands: Vec<(u64, std::cmp::Reverse<u32>, usize)> = Vec::new();
        for (i, &preds) in ready_preds.iter().enumerate().take(n) {
            if mask & (1u32 << i) != 0 || preds != 0 {
                continue;
            }
            let stalls = pipe.stalls_prepared(self.model, &self.body[i].insn, &self.prepared[i]);
            self.queries += 1;
            cands.push((stalls, std::cmp::Reverse(self.cte[i]), i));
        }
        cands.sort_unstable();
        for (stalls, _, i) in cands {
            if self.exhausted {
                return;
            }
            if self.nodes >= self.budget {
                self.exhausted = true;
                return;
            }
            self.nodes += 1;
            // The candidate loop's query on this same state is the
            // child's stall count; issuing asks nothing again.
            let mut child = pipe.clone();
            let info =
                child.issue_queried(self.model, &self.body[i].insn, &self.prepared[i], stalls);
            self.issue_at[i] = info.cycle;
            let child_mask = mask | (1u32 << i);
            if (child_mask.count_ones() as usize) < n {
                if self.lower_bound(child_mask, child.cycle()) >= self.best {
                    continue;
                }
                // Dominance: same scheduled set + same relative
                // scoreboard evolve identically, so only the visit
                // that got here earliest can still find something new.
                child.context_key(&mut self.key_buf);
                let mut key = Vec::with_capacity(self.key_buf.len() + 1);
                key.push(child_mask);
                key.extend_from_slice(&self.key_buf);
                match self.seen.entry(key) {
                    Entry::Occupied(mut e) => {
                        if *e.get() <= child.cycle() {
                            continue;
                        }
                        e.insert(child.cycle());
                    }
                    Entry::Vacant(e) => {
                        e.insert(child.cycle());
                    }
                }
            } else if child.cycle() + 1 >= self.best {
                // A completing issue that fails to improve needs no
                // recursion to say so.
                continue;
            }
            order.push(i);
            for e in self.graph.succ_edges(i) {
                ready_preds[e.to] -= 1;
            }
            self.dfs(&child, child_mask, order, ready_preds);
            for e in self.graph.succ_edges(i) {
                ready_preds[e.to] += 1;
            }
            order.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_pipeline::MachineModel;
    use eel_sparc::{Address, AluOp, Instruction, IntReg, MemWidth, Operand};

    fn orig(i: Instruction) -> Tagged {
        Tagged::original(i)
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

    fn run(model: &MachineModel, body: Vec<Tagged>, budget: u64) -> ExactOutcome {
        let graph = DepGraph::build(model, &body, true);
        exact_schedule(model, &body, &graph, &body, budget)
    }

    /// Two independent load-use pairs: back to back each pair stalls,
    /// interleaved the loads' shadows hide both uses.
    fn two_pairs() -> Vec<Tagged> {
        vec![
            orig(ld(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O1, IntReg::O2)),
            orig(ld(IntReg::O3, IntReg::O4)),
            orig(add(IntReg::O4, IntReg::O5)),
        ]
    }

    #[test]
    fn interleavable_pairs_are_solved_optimally() {
        let model = MachineModel::ultrasparc();
        let body = two_pairs();
        let unscheduled = latency_of(&model, &body);
        let out = run(&model, body, 1 << 16);
        assert!(out.proven_optimal);
        assert!(!out.budget_exhausted);
        assert!(
            out.latency < unscheduled,
            "{} !< {unscheduled}",
            out.latency
        );
        assert_eq!(out.latency, latency_of(&model, &out.body));
    }

    #[test]
    fn zero_budget_returns_the_incumbent() {
        let model = MachineModel::ultrasparc();
        let body = two_pairs();
        let out = run(&model, body.clone(), 0);
        // This block's root bound cannot prove the unscheduled order
        // optimal, so the search must start — and die instantly.
        assert!(out.budget_exhausted);
        assert!(!out.proven_optimal);
        assert_eq!(out.body, body);
        assert_eq!(out.latency, out.list_latency);
    }

    #[test]
    fn oversized_blocks_fall_back_to_the_incumbent() {
        let model = MachineModel::ultrasparc();
        let body: Vec<Tagged> = (0..EXACT_MAX_BLOCK + 1)
            .map(|_| orig(add(IntReg::O0, IntReg::O1)))
            .collect();
        let out = run(&model, body.clone(), 1 << 16);
        assert!(out.budget_exhausted);
        assert!(!out.proven_optimal);
        assert_eq!(out.nodes, 0);
        assert_eq!(out.body, body);
    }

    #[test]
    fn children_issue_at_the_count_their_candidate_query_returned() {
        // (queries, nodes) recorded while every child issue asked its
        // stall count again: one query per node is gone, and the search
        // itself (nodes, latency) is unchanged.
        let model = MachineModel::ultrasparc();
        let out = run(&model, two_pairs(), 1 << 16);
        assert_eq!((out.latency, out.list_latency), (4, 5));
        assert_eq!((out.queries, out.nodes), (18 - 9, 9));

        let model = MachineModel::hypersparc();
        let mut body = two_pairs();
        body.extend([
            orig(ld(IntReg::O2, IntReg::L3)),
            orig(add(IntReg::L3, IntReg::O7)),
            orig(add(IntReg::O5, IntReg::L0)),
            orig(ld(IntReg::L1, IntReg::L2)),
        ]);
        let out = run(&model, body, 1 << 16);
        assert!(out.proven_optimal);
        assert_eq!((out.latency, out.list_latency), (5, 5));
        assert_eq!((out.queries, out.nodes), (90 - 45, 45));
    }

    #[test]
    fn root_bound_proves_dependence_chains_without_search() {
        // A pure serial chain has exactly one legal order; the
        // critical-path bound at the root should settle it node-free.
        let model = MachineModel::ultrasparc();
        let body = vec![
            orig(add(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O1, IntReg::O2)),
            orig(add(IntReg::O2, IntReg::O3)),
        ];
        let out = run(&model, body, 1 << 16);
        assert!(out.proven_optimal);
        assert_eq!(out.gap(), 0);
        assert_eq!(out.nodes, 0, "root bound should close a serial chain");
    }
}
