//! Correctness pins for the branch-and-bound oracle (`core::exact`).
//!
//! The oracle is the ground truth every scheduling change is
//! differentially tested against, so it gets its own ground truth
//! here: a pruning-free exhaustive enumeration of every
//! dependence-legal order. On blocks small enough to enumerate
//! (≤ 8 instructions), the oracle must agree exactly, on every
//! shipped machine. Larger blocks keep the weaker — but universal —
//! guarantees: never worse than the list incumbent, and an honest
//! `budget_exhausted` flag instead of a hang when the search is cut.
//!
//! The proptest differential honors `PROPTEST_CASES`; nightly CI
//! deepens it to 96 cases.

use eel_core::{DepGraph, Priority, SchedOptions, Scheduler};
use eel_edit::{BlockCode, BlockInfo, Tagged};
use eel_pipeline::{evaluate_block, MachineModel, PipelineState, PreparedInsn};
use eel_sparc::{Address, AluOp, FpOp, FpReg, Instruction, IntReg, MemWidth, Operand};
use proptest::prelude::*;

/// A compact generator spec for one instruction — same shape as the
/// `sched_props` generator, so the oracle sees the block population
/// the list-scheduler properties are pinned on.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: u8,
    r1: u8,
    r2: u8,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (0u8..6, 0u8..8, 0u8..8).prop_map(|(kind, r1, r2)| Spec { kind, r1, r2 })
}

/// `%o0..%o5, %l0, %l1` — a small pool keeps random bodies dense with
/// RAW/WAR/WAW dependences.
fn reg(r: u8) -> IntReg {
    if r < 6 {
        IntReg::new(8 + r)
    } else {
        IntReg::new(16 + (r - 6))
    }
}

fn expand(i: usize, s: Spec) -> Instruction {
    let imm = Operand::imm(i as i32 + 1);
    match s.kind {
        0 => Instruction::Alu {
            op: AluOp::Add,
            rs1: reg(s.r1),
            src2: imm,
            rd: reg(s.r2),
        },
        1 => Instruction::Alu {
            op: AluOp::Sub,
            rs1: reg(s.r1),
            src2: imm,
            rd: reg((s.r1 + s.r2) % 8),
        },
        2 => Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(reg(s.r1), 4 * i as i32),
            rd: reg(s.r2),
        },
        3 => Instruction::Store {
            width: MemWidth::Word,
            src: reg(s.r1),
            addr: Address::base_imm(IntReg::SP, 4 * i as i32),
        },
        4 => Instruction::Sethi {
            imm22: 0x1000 + i as u32,
            rd: reg(s.r2),
        },
        _ => Instruction::Fp {
            op: FpOp::FAddS,
            rs1: FpReg::new(s.r1),
            rs2: FpReg::new(s.r2),
            rd: FpReg::new(16 + (i as u8 % 16)),
        },
    }
}

fn body_of(insns: &[Instruction]) -> Vec<Tagged> {
    insns.iter().map(|&i| Tagged::original(i)).collect()
}

/// A deterministic xorshift stream for fixed corpora.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// Pruning-free exhaustive enumeration: the minimum issue latency over
/// every dependence-legal order of `body`, sharing scoreboard state
/// across common prefixes. Returns `None` if more than `cap` prefixes
/// would be visited (so a pathological block skips instead of stalling
/// the suite).
fn brute_force_min(model: &MachineModel, body: &[Tagged], cap: u64) -> Option<u64> {
    struct Brute<'a> {
        model: &'a MachineModel,
        body: &'a [Tagged],
        prepared: Vec<PreparedInsn>,
        graph: &'a DepGraph,
        nodes: u64,
        cap: u64,
        best: u64,
    }
    impl Brute<'_> {
        fn go(
            &mut self,
            pipe: &PipelineState,
            used: &mut [bool],
            preds: &mut [u32],
            left: usize,
        ) -> bool {
            if left == 0 {
                self.best = self.best.min(pipe.cycle() + 1);
                return true;
            }
            for i in 0..self.body.len() {
                if used[i] || preds[i] != 0 {
                    continue;
                }
                self.nodes += 1;
                if self.nodes > self.cap {
                    return false;
                }
                let mut child = pipe.clone();
                child.issue_prepared(self.model, &self.body[i].insn, &self.prepared[i]);
                used[i] = true;
                for e in self.graph.succ_edges(i) {
                    preds[e.to] -= 1;
                }
                let ok = self.go(&child, used, preds, left - 1);
                for e in self.graph.succ_edges(i) {
                    preds[e.to] += 1;
                }
                used[i] = false;
                if !ok {
                    return false;
                }
            }
            true
        }
    }
    let n = body.len();
    let graph = DepGraph::build(model, body, true);
    let mut b = Brute {
        model,
        body,
        prepared: body.iter().map(|t| model.prepare(&t.insn)).collect(),
        graph: &graph,
        nodes: 0,
        cap,
        best: u64::MAX,
    };
    let mut used = vec![false; n];
    let mut preds = graph.pred_counts().to_vec();
    b.go(&PipelineState::new(model), &mut used, &mut preds, n)
        .then_some(b.best)
}

/// The oracle agrees exactly with exhaustive enumeration on a fixed
/// corpus of small blocks, on every shipped machine — the pin of the
/// oracle's own correctness (bounds admissible, dominance sound).
#[test]
fn oracle_matches_exhaustive_enumeration_on_small_blocks() {
    let mut rnd = xorshift(0xA076_1D64_78BD_642F);
    let models = MachineModel::shipped();
    let mut checked = 0u64;
    let mut skipped = 0u64;
    for _ in 0..48 {
        let n = 2 + (rnd() % 7) as usize; // 2..=8 instructions
        let insns: Vec<Instruction> = (0..n)
            .map(|i| {
                expand(
                    i,
                    Spec {
                        kind: (rnd() % 6) as u8,
                        r1: (rnd() % 8) as u8,
                        r2: (rnd() % 8) as u8,
                    },
                )
            })
            .collect();
        let body = body_of(&insns);
        for model in &models {
            let Some(brute) = brute_force_min(model, &body, 200_000) else {
                skipped += 1;
                continue;
            };
            let code = BlockCode {
                body: body.clone(),
                tail: vec![],
            };
            let out = Scheduler::new(model.clone()).exact_block(&code);
            assert!(
                out.proven_optimal && !out.budget_exhausted,
                "budget exhausted on an enumerable block ({}): {:?}",
                model.name(),
                insns
            );
            assert_eq!(
                out.latency,
                brute,
                "oracle missed the optimum on {}: {} != {} for {:?}",
                model.name(),
                out.latency,
                brute,
                insns
            );
            let scheduled: Vec<Instruction> = out.body.iter().map(|t| t.insn).collect();
            assert_eq!(
                evaluate_block(model, &scheduled).issue_latency(),
                out.latency,
                "oracle mistimed its own schedule on {}",
                model.name()
            );
            assert!(out.latency <= out.list_latency);
            checked += 1;
        }
    }
    assert!(
        checked > 10 * skipped,
        "enumeration skipped too often: {checked} checked vs {skipped} skipped"
    );
}

proptest! {
    /// Random-block differential, deepened by `PROPTEST_CASES` in
    /// nightly CI: oracle == exhaustive optimum on every machine.
    #[test]
    fn oracle_is_optimal_on_random_small_blocks(
        specs in prop::collection::vec(arb_spec(), 2..7),
    ) {
        let insns: Vec<Instruction> = specs
            .iter()
            .enumerate()
            .map(|(i, &s)| expand(i, s))
            .collect();
        let body = body_of(&insns);
        for model in MachineModel::shipped() {
            let Some(brute) = brute_force_min(&model, &body, 100_000) else {
                continue;
            };
            let code = BlockCode { body: body.clone(), tail: vec![] };
            let out = Scheduler::new(model.clone()).exact_block(&code);
            prop_assert!(out.proven_optimal);
            prop_assert_eq!(
                out.latency, brute,
                "oracle missed the optimum on {}: {:?}", model.name(), insns
            );
        }
    }
}

/// Blocks that blow the node budget must come back as the incumbent
/// list schedule — bit-identical — with the `exact_budget_exhausted`
/// counter raised, and the telemetry must account for every exact
/// block as either proven optimal or cut short.
#[test]
fn budget_exhaustion_falls_back_to_the_list_schedule() {
    let model = MachineModel::ultrasparc();
    // A one-node budget can never complete a schedule (a leaf needs n
    // issues), so any block whose root bound fails to close the search
    // must fall back to the incumbent.
    let starved = Scheduler::with_options(
        model.clone(),
        SchedOptions {
            priority: Priority::Exact,
            exact_budget: 1,
            ..SchedOptions::default()
        },
    );
    let list = Scheduler::new(model.clone());
    let reg = eel_telemetry::Registry::new();
    let mut exact = starved.transform_with(&reg);
    let info = BlockInfo {
        routine: "corpus",
        routine_index: 0,
        block_index: 0,
        addr: 0x10000,
    };
    let mut rnd = xorshift(0x9E37_79B9_7F4A_7C15);
    for _ in 0..100 {
        let n = 4 + (rnd() % 9) as usize;
        let insns: Vec<Instruction> = (0..n)
            .map(|i| {
                expand(
                    i,
                    Spec {
                        kind: (rnd() % 6) as u8,
                        r1: (rnd() % 8) as u8,
                        r2: (rnd() % 8) as u8,
                    },
                )
            })
            .collect();
        let code = BlockCode {
            body: body_of(&insns),
            tail: vec![],
        };
        let exact_out = exact(info, code.clone());
        let list_out = list.schedule_block(code);
        assert_eq!(
            exact_out, list_out,
            "a starved oracle must keep the list incumbent: {insns:?}"
        );
    }
    let snap = reg.snapshot();
    let exhausted = snap.counters["sched.exact_budget_exhausted"];
    assert!(
        exhausted > 0,
        "no block in the corpus even started the search"
    );
    // The incumbent stood everywhere, so no cycles were won…
    assert_eq!(snap.counters["sched.gap_cycles"], 0);
    // …and every exact block resolved to exactly one of the two fates.
    assert_eq!(
        snap.counters["sched.optimal_blocks"] + exhausted,
        snap.counters["sched.exact_blocks"]
    );
}

/// At any size — including past `EXACT_MAX_BLOCK`, where the search
/// refuses to start — the oracle never returns a schedule slower than
/// the list incumbent.
#[test]
fn oracle_never_worse_than_the_list_at_any_size() {
    let mut rnd = xorshift(0xD1B5_4A32_D192_ED03);
    let models = MachineModel::shipped();
    for round in 0..24 {
        let n = 10 + (rnd() % 31) as usize; // 10..=40: spans the cap
        let insns: Vec<Instruction> = (0..n)
            .map(|i| {
                expand(
                    i,
                    Spec {
                        kind: (rnd() % 6) as u8,
                        r1: (rnd() % 8) as u8,
                        r2: (rnd() % 8) as u8,
                    },
                )
            })
            .collect();
        let model = &models[round % models.len()];
        let code = BlockCode {
            body: body_of(&insns),
            tail: vec![],
        };
        let out = Scheduler::new(model.clone()).exact_block(&code);
        assert!(
            out.latency <= out.list_latency,
            "oracle returned a slower schedule on {}: {} > {}",
            model.name(),
            out.latency,
            out.list_latency
        );
        let scheduled: Vec<Instruction> = out.body.iter().map(|t| t.insn).collect();
        assert_eq!(
            evaluate_block(model, &scheduled).issue_latency(),
            out.latency
        );
        if n > eel_core::EXACT_MAX_BLOCK {
            assert!(out.budget_exhausted, "oversized block must report a cut");
            assert_eq!(out.gap(), 0, "oversized block keeps the incumbent");
        }
    }
}
