//! The stand-in for Sun's optimizing compiler back end (`-xO4
//! -xchip=…`): schedules each generated block body for the target
//! machine, then improves it further with a steady-state local search.
//!
//! The paper's Table 1 depends on the original binaries being *better
//! scheduled than EEL can manage*: Sun's compiler scheduled the SPECfp
//! loops so well that EEL's one-shot local list scheduling loses
//! ground when it reschedules them. To reproduce that gap this pass
//! goes beyond `eel-core`'s scheduler: after list scheduling it
//! improves the order against the *steady-state* cost of the block —
//! the issue latency of three back-to-back repetitions, modeling a
//! loop body running iteration after iteration. EEL's per-block
//! scheduler starts from an empty pipeline every time and cannot see
//! that context, so rescheduling such code tends to hurt (the paper's
//! "de-scheduling").
//!
//! # Cost
//!
//! This search is most of the time a build takes. It tries every legal
//! slide of an instruction by up to six places, for up to four rounds,
//! and keeps only the few slides that lower the cost. Each try is
//! costed exactly but incrementally. The current order's 3x run is
//! recorded once, as one cycle and one [`PipelineState::context_key`]
//! per position. A slide changes only its own span of positions in
//! each copy. So each copy resumes from the recorded key where the
//! span starts, and once the pipe matches the record again
//! ([`PipelineState::matches_context`], which stops at the first
//! difference), the rest of that copy is the recorded run shifted by a
//! fixed number of cycles. The pipe is compared right after the span
//! and then every [`CHECK_STRIDE`] positions, not at every one. Where
//! the record repeats from one copy's span to the next, a copy that
//! entered from the record repeats its predecessor too, so it is not
//! issued at all. Bodies shorter than [`INCREMENTAL_MIN_LEN`] are
//! replayed whole instead, since there the checks cost about what they
//! save. Both ways give the cost of timing the whole 3x body from an
//! empty pipe, so the chosen order is the same. The search also stops
//! once the cost meets [`lower_bound`], which no legal order beats.
//! DESIGN.md §3.10 has the argument and the measurements.

use eel_core::{DepGraph, Scheduler};
use eel_edit::{BlockCode, Tagged};
use eel_pipeline::{MachineModel, PipelineState, PreparedInsn};
use eel_sparc::{Instruction, Resource};

/// Back-to-back copies of the body the steady-state cost times
/// (approximating a loop's repeating context).
const COPIES: usize = 3;

/// The shortest body whose slides are costed incrementally; shorter
/// ones are replayed whole. Picked by timing SPEC95 and corpus builds
/// (DESIGN.md §3.10).
const INCREMENTAL_MIN_LEN: usize = 16;

/// After a slide's span, how many positions apart the pipe's key is
/// compared with the record (starting right after the span). Picked
/// with [`INCREMENTAL_MIN_LEN`]; the first match is usually 4 to 20
/// positions out.
const CHECK_STRIDE: usize = 8;

/// How far the local search slides an instruction per move.
const MOVE_WINDOW: usize = 6;
const MAX_ROUNDS: usize = 4;

/// Pairwise dependence matrix over the body, row-major `n × n`: a
/// reordering is legal iff every dependent pair keeps its relative
/// order. Whether two instructions depend does not depend on their
/// positions, and [`DepGraph`] records one edge per dependent pair, so
/// one graph gives the whole matrix.
fn conflict_matrix(model: &MachineModel, body: &[Tagged]) -> Vec<bool> {
    let n = body.len();
    let mut m = vec![false; n * n];
    for e in DepGraph::build(model, body, true).edges {
        m[e.from * n + e.to] = true;
        m[e.to * n + e.from] = true;
    }
    m
}

/// A cost no legal order of `body` beats: every order that keeps each
/// dependent pair's relative order times at least this many cycles
/// for [`COPIES`] copies. It is the larger of two bounds.
///
/// * Units. Every issue lies in `0..cost`, so a unit's held cycles lie
///   in `first..cost + last`, its first and last held rows over the
///   body. Its copy-cycles over the copies must fit there.
/// * Registers. Each instruction issues no earlier than the RAW, WAW
///   and WAR rules of `PipelineState::register_ready` allow, applied
///   to bounds on its predecessors, and no copy issues before the one
///   ahead of it has issued its last. Every pair that shares a written
///   register is a [`DepGraph`] edge, so which instructions an
///   instruction's rules see does not depend on the order. After each
///   copy's latest issue the remaining copies still need their units.
fn lower_bound(model: &MachineModel, body: &[Instruction]) -> u64 {
    let counts = model.unit_counts();
    let kinds = counts.len();
    // Per unit: copy-cycles one copy holds, and the first and last
    // rows any instruction holds it in.
    let mut held = vec![0u64; kinds];
    let mut first = vec![u64::MAX; kinds];
    let mut last = vec![0u64; kinds];
    for insn in body {
        for (row, cells) in model.usage(insn).iter().enumerate() {
            for &(u, n) in cells {
                held[u] += u64::from(n);
                first[u] = first[u].min(row as u64);
                last[u] = last[u].max(row as u64);
            }
        }
    }
    let units = |copies: u64| -> u64 {
        (0..kinds)
            .filter(|&u| held[u] > 0)
            .map(|u| {
                (copies * held[u])
                    .div_ceil(u64::from(counts[u]))
                    .saturating_sub(last[u] - first[u])
            })
            .max()
            .unwrap_or(0)
    };

    let prepared: Vec<PreparedInsn> = body.iter().map(|insn| model.prepare(insn)).collect();
    let mut write_avail = [0u64; Resource::COUNT];
    let mut last_read = [0u64; Resource::COUNT];
    let mut bound = units(COPIES as u64);
    let mut start = 0;
    for copy in 1..=COPIES as u64 {
        let mut latest = start;
        for p in &prepared {
            let mut t = start;
            for &(r, rc) in p.reads() {
                t = t.max(write_avail[usize::from(r)].saturating_sub(u64::from(rc)));
            }
            for &(r, off) in p.writes() {
                let off = u64::from(off);
                t = t.max((write_avail[usize::from(r)] + 1).saturating_sub(off));
                t = t.max(last_read[usize::from(r)].saturating_sub(off));
            }
            for &(r, rc) in p.reads() {
                let lr = &mut last_read[usize::from(r)];
                *lr = (*lr).max(t + u64::from(rc));
            }
            for &(r, off) in p.writes() {
                let wa = &mut write_avail[usize::from(r)];
                *wa = (*wa).max(t + u64::from(off));
            }
            latest = latest.max(t);
        }
        start = latest;
        bound = bound.max(latest + units(COPIES as u64 - copy).max(1));
    }
    bound
}

/// The steady-state cost of orders of one body: the issue latency of
/// [`COPIES`] back-to-back copies, timed from an empty pipe. An order
/// is a permutation of body indices.
struct SteadyCost<'a> {
    model: &'a MachineModel,
    body: &'a [Instruction],
    prepared: Vec<PreparedInsn>,
    pipe: PipelineState,
    /// Whether [`Self::slide`] resumes from the recorded run (long
    /// bodies) or replays from an empty pipe (short ones).
    incremental: bool,
    /// The recorded order's run: `cycles[p]` is the pipe's cycle after
    /// `p` issues, for `p` in `0..=COPIES * n` ...
    cycles: Vec<u64>,
    /// ... and `keys[bounds[p]..bounds[p + 1]]` its context key after
    /// `p` issues, for `p` in `0..COPIES * n` ...
    keys: Vec<u32>,
    bounds: Vec<usize>,
    /// ... and `repeats[p]`, whether that key equals the one `n`
    /// issues earlier (always false in the first copy).
    repeats: Vec<bool>,
    scratch: Vec<u32>,
}

impl<'a> SteadyCost<'a> {
    fn new(model: &'a MachineModel, body: &'a [Instruction]) -> SteadyCost<'a> {
        SteadyCost {
            model,
            body,
            prepared: body.iter().map(|insn| model.prepare(insn)).collect(),
            pipe: PipelineState::new(model),
            incremental: body.len() >= INCREMENTAL_MIN_LEN,
            cycles: Vec::new(),
            keys: Vec::new(),
            bounds: Vec::new(),
            repeats: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Issues position `pos` of the repeated `order`.
    fn issue(&mut self, order: &[usize], pos: usize) {
        let k = order[pos % order.len()];
        self.pipe
            .issue_prepared(self.model, &self.body[k], &self.prepared[k]);
    }

    /// Times `order` from an empty pipe. For an incremental body this
    /// also records the run that [`Self::slide`] resumes from.
    fn run(&mut self, order: &[usize]) -> u64 {
        self.pipe.reset();
        self.cycles.clear();
        self.keys.clear();
        self.bounds.clear();
        for pos in 0..COPIES * order.len() {
            if self.incremental {
                self.cycles.push(self.pipe.cycle());
                self.bounds.push(self.keys.len());
                self.pipe.context_key(&mut self.scratch);
                self.keys.extend_from_slice(&self.scratch);
            }
            self.issue(order, pos);
        }
        if self.incremental {
            self.cycles.push(self.pipe.cycle());
            self.bounds.push(self.keys.len());
            let n = order.len();
            let key = |p: usize| &self.keys[self.bounds[p]..self.bounds[p + 1]];
            self.repeats.clear();
            self.repeats.resize(n, false);
            for p in n..COPIES * n {
                self.repeats.push(key(p) == key(p - n));
            }
        }
        self.pipe.cycle() + 1
    }

    /// Restores the recorded pipe after `pos` issues, `shift` cycles
    /// later (two's complement, so a run that gained cycles shifts
    /// back).
    fn resume(&mut self, pos: usize, shift: u64) {
        let key = &self.keys[self.bounds[pos]..self.bounds[pos + 1]];
        self.pipe
            .restore_context(key, self.cycles[pos].wrapping_add(shift));
    }

    /// Whether the pipe's context equals the record's after `pos`
    /// issues.
    fn matches_record(&self, pos: usize) -> bool {
        self.pipe
            .matches_context(&self.keys[self.bounds[pos]..self.bounds[pos + 1]])
    }

    /// The cost of `order`, which differs from the recorded order only
    /// at body positions `lo..=hi`.
    ///
    /// Each copy issues its changed span from where the record left
    /// off, then the unchanged positions until the pipe's key equals
    /// the record's. From a matching key on, the two runs are one run
    /// `shift` cycles apart until the next copy's span, so the next
    /// copy resumes from the record; after the last copy the recorded
    /// cost plus `shift` is the answer. Which positions are compared
    /// changes only how soon a match is seen, never the cost.
    ///
    /// A copy that entered from the record at `start` and matched it
    /// again at `q`, `d` cycles further apart, is repeated by the next
    /// copy when the record's key at `start + n` equals the one at
    /// `start`: both orders repeat with period `n` from there, so equal
    /// keys issue the same instructions to equal keys at `q + n`, with
    /// the same relative cycles. That copy is skipped, `d` cycles added.
    /// A copy that ran on from its predecessor without matching entered
    /// from no recorded key, so it hands the next copy nothing.
    fn slide(&mut self, order: &[usize], lo: usize, hi: usize) -> u64 {
        if !self.incremental {
            return self.run(order);
        }
        let n = order.len();
        let end = COPIES * n;
        // The pipe's cycle minus the record's where the current copy
        // enters the record ...
        let mut shift = 0u64;
        // ... unless it runs on from the previous copy's pipe instead ...
        let mut running = false;
        // ... and where the previous copy, if it entered the record,
        // matched it again and how many cycles it added.
        let mut repeat: Option<(usize, u64)> = None;
        let mut pos = lo;
        for copy in 0..COPIES {
            let start = copy * n + lo;
            let entered = !running;
            if entered {
                if let Some((q, d)) = repeat.filter(|&(q, _)| self.repeats[start] && q + n <= end) {
                    shift = shift.wrapping_add(d);
                    if copy + 1 == COPIES {
                        return self.cycles[end].wrapping_add(shift) + 1;
                    }
                    repeat = Some((q + n, d));
                    continue;
                }
                self.resume(start, shift);
                pos = start;
            }
            repeat = None;
            while pos <= copy * n + hi {
                self.issue(order, pos);
                pos += 1;
            }
            let next = if copy + 1 < COPIES { start + n } else { end };
            let span_end = pos;
            running = true;
            while pos < next {
                if (pos - span_end).is_multiple_of(CHECK_STRIDE) && self.matches_record(pos) {
                    let matched = self.pipe.cycle().wrapping_sub(self.cycles[pos]);
                    if next == end {
                        return self.cycles[end].wrapping_add(matched) + 1;
                    }
                    if entered {
                        repeat = Some((pos, matched.wrapping_sub(shift)));
                    }
                    shift = matched;
                    running = false;
                    break;
                }
                self.issue(order, pos);
                pos += 1;
            }
        }
        self.pipe.cycle() + 1
    }
}

/// Ordinary list scheduling, everything tagged as original code: the
/// order the local search starts from.
fn list_scheduled(model: &MachineModel, body: Vec<Instruction>) -> Vec<Tagged> {
    Scheduler::new(model.clone())
        .schedule_block(BlockCode {
            body: body.into_iter().map(Tagged::original).collect(),
            tail: vec![],
        })
        .body
}

/// Schedules and then locally improves a block body for `model`.
pub fn optimize_block(model: &MachineModel, body: Vec<Instruction>) -> Vec<Instruction> {
    if body.len() <= 1 {
        return body;
    }
    let scheduled = list_scheduled(model, body);
    let insns: Vec<Instruction> = scheduled.iter().map(|t| t.insn).collect();

    let n = insns.len();
    if n <= 2 {
        return insns;
    }
    // Local search over permutations, tracked by original index so
    // legality checks stay valid after moves.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut steady = SteadyCost::new(model, &insns);
    let mut cost = steady.run(&perm);
    // The search keeps only strictly cheaper orders, so at the bound
    // nothing it could still try would be kept.
    let floor = lower_bound(model, &insns);
    debug_assert!(floor <= cost, "lower bound {floor} above the cost {cost}");
    if cost == floor {
        return insns;
    }
    let conflicts = conflict_matrix(model, &scheduled);

    let legal_slide = |perm: &[usize], from: usize, to: usize| -> bool {
        // Slide the element at `from` to position `to`, shifting the
        // in-between elements; legal iff it conflicts with none of them.
        let x = perm[from];
        let (lo, hi) = if from < to {
            (from + 1, to)
        } else {
            (to, from - 1)
        };
        perm[lo..=hi].iter().all(|&y| !conflicts[x * n + y])
    };

    let mut improved = true;
    let mut rounds = 0;
    let mut last_kept: Option<(usize, usize)> = None;
    'search: while improved && rounds < MAX_ROUNDS {
        improved = false;
        rounds += 1;
        // The previous round costed every slide after its last kept one
        // against the order it ended with, and rejected them all. Until
        // this round keeps a slide, its order and record are that order
        // and its record, so past that point it would only repeat those
        // rejections.
        let previous = last_kept;
        for from in 0..n {
            let lo = from.saturating_sub(MOVE_WINDOW);
            let hi = (from + MOVE_WINDOW).min(n - 1);
            for to in lo..=hi {
                if !improved && previous.is_some_and(|kept| (from, to) > kept) {
                    break 'search;
                }
                if to == from || !legal_slide(&perm, from, to) {
                    continue;
                }
                let x = perm.remove(from);
                perm.insert(to, x);
                let c = steady.slide(&perm, from.min(to), from.max(to));
                if c < cost {
                    // Re-record the accepted order for the next slides.
                    cost = steady.run(&perm);
                    debug_assert_eq!(cost, c, "incremental cost diverged from replay");
                    if cost == floor {
                        break 'search;
                    }
                    improved = true;
                    last_kept = Some((from, to));
                } else {
                    let x = perm.remove(to);
                    perm.insert(from, x);
                }
            }
        }
    }
    perm.iter().map(|&k| insns[k]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Gen;
    use crate::{cfp95, BuildOptions, GenShape};
    use eel_edit::Cfg;
    use eel_pipeline::evaluate_block;
    use eel_sparc::{Address, AluOp, FpOp, FpReg, IntReg, MemWidth, Operand};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The steady-state cost by definition: the 3x body timed from an
    /// empty pipe.
    fn steady_cost(model: &MachineModel, body: &[Instruction]) -> u64 {
        let mut repeated = Vec::with_capacity(body.len() * COPIES);
        for _ in 0..COPIES {
            repeated.extend_from_slice(body);
        }
        evaluate_block(model, &repeated).issue_latency()
    }

    /// The search as it was before slides were costed incrementally,
    /// kept as the differential oracle: one two-instruction
    /// `DepGraph` per pair for the conflicts, and every candidate
    /// order timed whole by [`steady_cost`].
    fn oracle(model: &MachineModel, body: Vec<Instruction>) -> Vec<Instruction> {
        if body.len() <= 1 {
            return body;
        }
        let insns: Vec<Instruction> = list_scheduled(model, body).iter().map(|t| t.insn).collect();
        let n = insns.len();
        if n <= 2 {
            return insns;
        }
        let mut conflicts = vec![vec![false; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                let pair = [Tagged::original(insns[i]), Tagged::original(insns[j])];
                if !DepGraph::build(model, &pair, true).edges.is_empty() {
                    conflicts[i][j] = true;
                    conflicts[j][i] = true;
                }
            }
        }
        let mut perm: Vec<usize> = (0..n).collect();
        let current =
            |perm: &[usize]| -> Vec<Instruction> { perm.iter().map(|&k| insns[k]).collect() };
        let mut cost = steady_cost(model, &current(&perm));
        let mut improved = true;
        let mut rounds = 0;
        while improved && rounds < MAX_ROUNDS {
            improved = false;
            rounds += 1;
            for from in 0..n {
                for to in from.saturating_sub(MOVE_WINDOW)..=(from + MOVE_WINDOW).min(n - 1) {
                    if to == from {
                        continue;
                    }
                    let (lo, hi) = if from < to {
                        (from + 1, to)
                    } else {
                        (to, from - 1)
                    };
                    if perm[lo..=hi].iter().any(|&y| conflicts[perm[from]][y]) {
                        continue;
                    }
                    let x = perm.remove(from);
                    perm.insert(to, x);
                    let c = steady_cost(model, &current(&perm));
                    if c < cost {
                        cost = c;
                        improved = true;
                    } else {
                        let x = perm.remove(to);
                        perm.insert(from, x);
                    }
                }
            }
        }
        current(&perm)
    }

    /// The confirming round ends *past* the previous round's last kept
    /// slide, not at it: that slide of the new order was never costed.
    /// On this body, for the bias-2 VLIW, it is kept again, so a search
    /// that stopped there would end with a different order.
    #[test]
    fn confirming_round_retries_the_last_kept_slide() {
        // st %o1, [%l1]; fmuld %f0, %f2, %f4; ldd [%l2 + 520], %f6;
        // ld [%l1 + 656], %o0; ld [%l1 + 368], %o1; std %f8, [%l2 + 784]
        let words = [
            0xd224_6000,
            0x89a0_0942,
            0xcd1c_a208,
            0xd004_6290,
            0xd204_6170,
            0xd13c_a310,
        ];
        let body: Vec<Instruction> = words.into_iter().map(Instruction::decode).collect();
        let model = MachineModel::vliw().with_load_latency_bias(2);
        assert_eq!(optimize_block(&model, body.clone()), oracle(&model, body));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// The incremental search picks exactly the oracle's order, on
        /// generator bodies on both sides of the incremental cutover,
        /// with a few arbitrary decoded words mixed in for the odd
        /// timing groups and barriers.
        #[test]
        fn incremental_search_matches_full_replay(
            seed in any::<u64>(),
            fp in prop::sample::select(vec![0.0, 0.35, 0.7]),
            chain_bias in prop::sample::select(vec![0.5, 0.95]),
            len in 3usize..48,
            words in prop::collection::vec((any::<usize>(), any::<u32>()), 0..3),
        ) {
            let shape = GenShape { chain_bias, ..GenShape::default() };
            let mut gen = Gen::new(seed, fp, shape);
            let mut body: Vec<Instruction> = (0..len).map(|_| gen.body_insn()).collect();
            for (at, word) in words {
                body.insert(at % body.len(), Instruction::decode(word));
            }
            for model in MachineModel::shipped() {
                prop_assert_eq!(
                    optimize_block(&model, body.clone()),
                    oracle(&model, body.clone()),
                    "{} chose a different order for {:?}",
                    model.name(),
                    body
                );
            }
        }

        /// Every slide's incremental cost equals the 3x body timed
        /// whole, kept or not: a wrong cost on a rejected slide need
        /// not change the chosen order. Slides ignore legality, which
        /// costing does not depend on; every other one is kept and
        /// re-recorded, as an accepted slide is.
        #[test]
        fn every_slide_cost_matches_full_replay(
            seed in any::<u64>(),
            fp in prop::sample::select(vec![0.0, 0.35, 0.7]),
            len in INCREMENTAL_MIN_LEN..64,
            slides in prop::collection::vec(
                (any::<usize>(), 1usize..=MOVE_WINDOW, any::<bool>()),
                1..24,
            ),
        ) {
            let mut gen = Gen::new(seed, fp, GenShape::default());
            let body: Vec<Instruction> = (0..len).map(|_| gen.body_insn()).collect();
            for model in MachineModel::shipped() {
                let mut steady = SteadyCost::new(&model, &body);
                let mut perm: Vec<usize> = (0..len).collect();
                steady.run(&perm);
                for (i, &(at, dist, back)) in slides.iter().enumerate() {
                    let from = at % len;
                    let to = if back {
                        from.saturating_sub(dist)
                    } else {
                        (from + dist).min(len - 1)
                    };
                    if to == from {
                        continue;
                    }
                    let x = perm.remove(from);
                    perm.insert(to, x);
                    let order: Vec<Instruction> = perm.iter().map(|&k| body[k]).collect();
                    prop_assert_eq!(
                        steady.slide(&perm, from.min(to), from.max(to)),
                        steady_cost(&model, &order),
                        "{}: slide {} -> {} of {:?}",
                        model.name(),
                        from,
                        to,
                        order
                    );
                    if i % 2 == 0 {
                        steady.run(&perm);
                    } else {
                        let x = perm.remove(to);
                        perm.insert(from, x);
                    }
                }
            }
        }

        /// No legal order beats the lower bound: not the list schedule,
        /// not the search's pick, and not random orders that keep every
        /// dependent pair's relative order, on the shipped machines
        /// and their build variants with two cycles of load bias.
        #[test]
        fn lower_bound_holds_for_legal_orders(
            seed in any::<u64>(),
            fp in prop::sample::select(vec![0.0, 0.35, 0.7]),
            chain_bias in prop::sample::select(vec![0.5, 0.95]),
            len in 3usize..48,
            words in prop::collection::vec((any::<usize>(), any::<u32>()), 0..3),
            reorders in any::<u64>(),
        ) {
            let shape = GenShape { chain_bias, ..GenShape::default() };
            let mut gen = Gen::new(seed, fp, shape);
            let mut body: Vec<Instruction> = (0..len).map(|_| gen.body_insn()).collect();
            for (at, word) in words {
                body.insert(at % body.len(), Instruction::decode(word));
            }
            let mut rng = StdRng::seed_from_u64(reorders);
            for model in MachineModel::shipped().into_iter().flat_map(|m| {
                let biased = m.with_load_latency_bias(2);
                [m, biased]
            }) {
                let scheduled = list_scheduled(&model, body.clone());
                let insns: Vec<Instruction> = scheduled.iter().map(|t| t.insn).collect();
                let floor = lower_bound(&model, &insns);
                let conflicts = conflict_matrix(&model, &scheduled);
                let mut orders = vec![insns.clone(), optimize_block(&model, body.clone())];
                for _ in 0..4 {
                    let perm = random_legal_order(&conflicts, insns.len(), &mut rng);
                    orders.push(perm.iter().map(|&k| insns[k]).collect());
                }
                for order in &orders {
                    let cost = steady_cost(&model, order);
                    prop_assert!(
                        floor <= cost,
                        "{}: bound {} above cost {} of {:?}",
                        model.name(),
                        floor,
                        cost,
                        order
                    );
                }
            }
        }
    }

    /// A uniformly drawn next instruction at each step among those
    /// whose conflicting predecessors are all placed: a random order
    /// the search could reach.
    fn random_legal_order(conflicts: &[bool], n: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut placed = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let ready: Vec<usize> = (0..n)
                .filter(|&i| !placed[i] && (0..i).all(|j| placed[j] || !conflicts[i * n + j]))
                .collect();
            let k = ready[rng.gen_range(0..ready.len())];
            placed[k] = true;
            order.push(k);
        }
        order
    }

    /// Every block body of [`INCREMENTAL_MIN_LEN`] to 64 instructions
    /// of the CFP stand-ins, in generated order: loop bodies a build
    /// hands the compiler and costs incrementally.
    fn cfp_bodies() -> Vec<Vec<Instruction>> {
        let mut bodies = Vec::new();
        for bench in cfp95() {
            let exe = bench.build(&BuildOptions {
                iterations: Some(1),
                optimize: None,
            });
            let cfg = Cfg::build(&exe).expect("generated code analyzes");
            for block in cfg.routines.iter().flat_map(|r| &r.blocks) {
                if (INCREMENTAL_MIN_LEN..=64).contains(&block.body_len()) {
                    let words = &exe.text()[block.start..block.start + block.body_len()];
                    bodies.push(words.iter().map(|&w| Instruction::decode(w)).collect());
                }
            }
        }
        bodies
    }

    /// The search's own slide sequence on real loop bodies: every legal
    /// slide in the window, kept exactly when the search keeps one,
    /// each costed incrementally and checked against the 3x body timed
    /// whole. It runs on past the lower bound, so every round that
    /// could keep a slide is tried. Random bodies rarely repeat from
    /// copy to copy; these do, so this is where a copy is skipped.
    #[test]
    fn search_slides_match_full_replay() {
        let bodies = cfp_bodies();
        for model in MachineModel::shipped() {
            for body in &bodies {
                let scheduled = list_scheduled(&model, body.clone());
                let insns: Vec<Instruction> = scheduled.iter().map(|t| t.insn).collect();
                let n = insns.len();
                let conflicts = conflict_matrix(&model, &scheduled);
                let mut steady = SteadyCost::new(&model, &insns);
                let mut perm: Vec<usize> = (0..n).collect();
                let mut cost = steady.run(&perm);
                let mut improved = true;
                let mut rounds = 0;
                while improved && rounds < MAX_ROUNDS {
                    improved = false;
                    rounds += 1;
                    for from in 0..n {
                        for to in from.saturating_sub(MOVE_WINDOW)..=(from + MOVE_WINDOW).min(n - 1)
                        {
                            if to == from {
                                continue;
                            }
                            let (lo, hi) = if from < to {
                                (from + 1, to)
                            } else {
                                (to, from - 1)
                            };
                            if perm[lo..=hi].iter().any(|&y| conflicts[perm[from] * n + y]) {
                                continue;
                            }
                            let x = perm.remove(from);
                            perm.insert(to, x);
                            let order: Vec<Instruction> = perm.iter().map(|&k| insns[k]).collect();
                            let c = steady.slide(&perm, from.min(to), from.max(to));
                            assert_eq!(
                                c,
                                steady_cost(&model, &order),
                                "{}: slide {from} -> {to} of {order:?}",
                                model.name()
                            );
                            if c < cost {
                                cost = steady.run(&perm);
                                improved = true;
                            } else {
                                let x = perm.remove(to);
                                perm.insert(from, x);
                            }
                        }
                    }
                }
            }
        }
    }

    fn add(rs1: IntReg, rd: IntReg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            rs1,
            src2: Operand::imm(1),
            rd,
        }
    }

    fn ld(off: i32, rd: IntReg) -> Instruction {
        Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(IntReg::L1, off),
            rd,
        }
    }

    fn faddd(a: u8, b: u8, d: u8) -> Instruction {
        Instruction::Fp {
            op: FpOp::FAddD,
            rs1: FpReg::new(a),
            rs2: FpReg::new(b),
            rd: FpReg::new(d),
        }
    }

    #[test]
    fn optimization_never_regresses_steady_cost() {
        let model = MachineModel::ultrasparc();
        let body = vec![
            ld(0, IntReg::O0),
            add(IntReg::O0, IntReg::O1),
            ld(4, IntReg::O2),
            add(IntReg::O2, IntReg::O3),
            add(IntReg::O4, IntReg::O5),
        ];
        let before = steady_cost(&model, &body);
        let out = optimize_block(&model, body.clone());
        let after = steady_cost(&model, &out);
        assert!(after <= before, "{after} > {before}");
        assert_eq!(out.len(), body.len());
    }

    #[test]
    fn optimization_preserves_the_multiset() {
        let model = MachineModel::supersparc();
        let body = vec![
            ld(0, IntReg::O0),
            add(IntReg::O0, IntReg::O1),
            faddd(0, 2, 4),
            add(IntReg::O3, IntReg::O4),
            faddd(4, 6, 8),
            ld(8, IntReg::O5),
        ];
        let mut expect = body.clone();
        let mut out = optimize_block(&model, body);
        expect.sort_by_key(|i| i.encode());
        out.sort_by_key(|i| i.encode());
        assert_eq!(out, expect);
    }

    #[test]
    fn dependent_chain_keeps_order() {
        let model = MachineModel::ultrasparc();
        let body = vec![
            add(IntReg::O0, IntReg::O1),
            add(IntReg::O1, IntReg::O2),
            add(IntReg::O2, IntReg::O3),
        ];
        let out = optimize_block(&model, body.clone());
        assert_eq!(out, body, "a pure chain admits no reordering");
    }

    #[test]
    fn dependences_respected_after_moves() {
        let model = MachineModel::ultrasparc();
        let body = vec![
            ld(0, IntReg::O0),
            add(IntReg::O0, IntReg::O1),
            faddd(0, 2, 4),
            ld(4, IntReg::O2),
            add(IntReg::O2, IntReg::O3),
            faddd(4, 6, 8),
            add(IntReg::O1, IntReg::O4),
        ];
        let out = optimize_block(&model, body.clone());
        // Every dependent pair of the original keeps its order.
        let tagged: Vec<Tagged> = body.iter().copied().map(Tagged::original).collect();
        let graph = DepGraph::build(&model, &tagged, true);
        let pos = |i: Instruction| out.iter().position(|&o| o == i).unwrap();
        for e in &graph.edges {
            if body[e.from] != body[e.to] {
                assert!(pos(body[e.from]) < pos(body[e.to]), "violated {:?}", e);
            }
        }
    }

    /// Seeded generator bodies of 3 to 140 instructions: the default
    /// integer and FP mixes, the deep-chain shape, and huge FP blocks.
    fn pinned_bodies() -> Vec<Vec<Instruction>> {
        let deep = GenShape {
            chain_bias: 0.95,
            ..GenShape::default()
        };
        let sets: [(f64, GenShape, &[usize]); 4] = [
            (0.0, GenShape::default(), &[3, 5, 8, 13, 20]),
            (0.6, GenShape::default(), &[4, 9, 16, 27]),
            (0.0, deep, &[6, 11, 24]),
            (0.65, GenShape::default(), &[70, 140]),
        ];
        let mut bodies = Vec::new();
        for (k, (fp, shape, lens)) in sets.into_iter().enumerate() {
            let mut gen = Gen::new(0x5eed + k as u64, fp, shape);
            for &len in lens {
                bodies.push((0..len).map(|_| gen.body_insn()).collect());
            }
        }
        bodies
    }

    #[test]
    fn optimize_block_digests_are_pinned() {
        // FNV-1a over every optimized body's encoding, one digest per
        // shipped machine. The constants were recorded with the
        // original search, which re-timed the whole 3x body from an
        // empty pipe for every candidate slide; any change to the
        // chosen orders moves them.
        let pinned = [
            ("hyperSPARC", 0xb0f4_8b47_4073_bd00),
            ("SuperSPARC", 0x4574_5413_8ca4_e6ee),
            ("UltraSPARC", 0x0eb7_6875_d43e_36aa),
            ("microSPARC", 0x4f94_a3c4_6050_6092),
            ("VLIW", 0xe42c_7978_ab62_1b8c),
            ("DeepSPARC", 0x4214_15e8_fae6_c08a),
        ];
        let shipped = MachineModel::shipped();
        let names: Vec<&str> = shipped.iter().map(MachineModel::name).collect();
        assert_eq!(
            names,
            pinned.map(|(name, _)| name),
            "one digest per machine"
        );
        let bodies = pinned_bodies();
        for (model, (_, want)) in shipped.iter().zip(pinned) {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for body in &bodies {
                for insn in optimize_block(model, body.clone()) {
                    h = (h ^ u64::from(insn.encode())).wrapping_mul(0x0000_0100_0000_01b3);
                }
                h = (h ^ u64::MAX).wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(
                h,
                want,
                "{}: optimized bodies changed ({h:#018x})",
                model.name()
            );
        }
    }

    #[test]
    fn tiny_bodies_pass_through() {
        let model = MachineModel::hypersparc();
        assert!(optimize_block(&model, vec![]).is_empty());
        let one = vec![add(IntReg::O0, IntReg::O1)];
        assert_eq!(optimize_block(&model, one.clone()), one);
    }
}
