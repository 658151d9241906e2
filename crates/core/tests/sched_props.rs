//! Scheduler property tests: on random dependence DAGs and all six
//! shipped machine models, the two-pass list scheduler must
//! (a) emit a permutation of the input body,
//! (b) respect every `DepGraph` edge, and
//! (c) stay within a *proven* distance of the optimum: the
//!     branch-and-bound oracle (`core::exact`, itself pinned against
//!     exhaustive enumeration in `exact_oracle.rs`) supplies the true
//!     minimum issue latency, and the paper's fewest-stalls-first rule
//!     must land within [`GREEDY_GAP_TO_OPTIMUM_MAX`] cycles of it.
//!     Greedy list scheduling is not optimal — on ~1% of random blocks
//!     it delays a critical instruction by a cycle or two; that is a
//!     property of the paper's §4 algorithm itself, so the tests bound
//!     it against ground truth instead of pretending it away. Every
//!     alternative policy is also checked to never beat the oracle
//!     (which would mean the oracle, not the policy, is broken).

use eel_core::{DepGraph, Priority, SchedOptions, Scheduler};
use eel_edit::{BlockCode, Tagged};
use eel_pipeline::{evaluate_block, MachineModel};
use eel_sparc::{Address, AluOp, FpOp, FpReg, Instruction, IntReg, MemWidth, Operand};
use proptest::prelude::*;

/// A compact generator spec for one instruction. The test expands it
/// with the instruction's body position mixed into immediates and FP
/// destinations, so every generated instruction in a body is
/// distinct — which makes "where did instruction `k` go" well-defined
/// when checking edge order on the scheduled permutation.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: u8,
    r1: u8,
    r2: u8,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (0u8..6, 0u8..8, 0u8..8).prop_map(|(kind, r1, r2)| Spec { kind, r1, r2 })
}

/// `%o0..%o5, %l0, %l1` — a small register pool so random bodies are
/// dense with RAW/WAR/WAW dependences.
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
            // Position-unique destination keeps FP specs distinct.
            rd: FpReg::new(16 + (i as u8 % 16)),
        },
    }
}

proptest! {
    #[test]
    fn schedule_respects_deps_and_never_slows_the_block(
        specs in prop::collection::vec(arb_spec(), 2..16),
    ) {
        // Distinct by construction (position-unique immediates /
        // offsets / destinations) — the permutation check relies on it.
        let insns: Vec<Instruction> = specs
            .iter()
            .enumerate()
            .map(|(i, &s)| expand(i, s))
            .collect();
        for a in 0..insns.len() {
            for b in a + 1..insns.len() {
                prop_assert_ne!(insns[a], insns[b]);
            }
        }
        for model in MachineModel::shipped() {
            let body: Vec<Tagged> = insns.iter().map(|&i| Tagged::original(i)).collect();
            let graph = DepGraph::build(&model, &body, true);
            // One oracle run per model×block serves every policy
            // below; `proven_optimal` gates the optimality assertions
            // (a budget-exhausted search only knows `latency ≤ list`,
            // not `latency ≤ every policy`). Blocks past 12
            // instructions are left to the permutation/edge checks —
            // at the trimmed property budget they mostly exhaust, and
            // they dominate the suite's runtime.
            let exact = (insns.len() <= 12).then(|| {
                Scheduler::with_options(
                    model.clone(),
                    SchedOptions {
                        exact_budget: PROPERTY_EXACT_BUDGET,
                        ..SchedOptions::default()
                    },
                )
                .exact_block(&BlockCode {
                    body: body.clone(),
                    tail: vec![],
                })
            });
            for priority in Priority::ALL {
                let sched = Scheduler::with_options(
                    model.clone(),
                    SchedOptions {
                        priority,
                        ..SchedOptions::default()
                    },
                );
                let out = sched.schedule_block(BlockCode {
                    body: body.clone(),
                    tail: vec![],
                });

                // (a) A permutation of the input body, under every
                // policy.
                prop_assert_eq!(out.body.len(), body.len());
                let pos: Vec<usize> = insns
                    .iter()
                    .map(|insn| {
                        out.body
                            .iter()
                            .position(|t| &t.insn == insn)
                            .expect("scheduled body is a permutation of the input")
                    })
                    .collect();
                {
                    let mut sorted = pos.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(sorted, (0..body.len()).collect::<Vec<_>>());
                }

                // (b) Every dependence edge holds in the new order,
                // under every policy.
                for from in 0..graph.len() {
                    for e in graph.succ_edges(from) {
                        prop_assert!(
                            pos[e.from] < pos[e.to],
                            "edge {:?} violated on {} ({}): `{}` scheduled at {} after `{}` at {}",
                            e, model.name(), priority,
                            insns[e.from], pos[e.from], insns[e.to], pos[e.to]
                        );
                    }
                }

                // (c) No policy may beat the proven optimum — and the
                // paper's default rule must land within the bounded
                // greedy anomaly of it. The aggregate gap rate is
                // pinned by `list_gap_to_the_optimum_stays_tiny`
                // below. (The alternative policies intentionally trade
                // the tight bound away — ChainFirst ignores stalls
                // entirely — but even they can never go below the
                // oracle.)
                let scheduled: Vec<Instruction> =
                    out.body.iter().map(|t| t.insn).collect();
                let after = evaluate_block(&model, &scheduled).issue_latency();
                if let Some(ex) = exact.as_ref().filter(|ex| ex.proven_optimal) {
                    prop_assert!(
                        ex.latency <= after,
                        "{} beat the proven optimum on {}: {} < {} cycles\n{:?}",
                        priority, model.name(), after, ex.latency, insns
                    );
                }
                if priority == Priority::StallsFirst {
                    if let Some(ex) = exact.as_ref().filter(|ex| ex.proven_optimal) {
                        prop_assert!(
                            after <= ex.latency + GREEDY_GAP_TO_OPTIMUM_MAX,
                            "greedy gap above the proven bound on {}: {} vs optimal {}\n{:?}",
                            model.name(), after, ex.latency, insns
                        );
                    }
                    // Budget-exhausted or not, scheduling must never
                    // slow the block past the greedy anomaly.
                    let before = evaluate_block(&model, &insns).issue_latency();
                    prop_assert!(
                        after <= before + GREEDY_ANOMALY_MAX_EXCESS,
                        "schedule slowed the block on {} past the greedy bound: {} -> {} cycles\n{:?}",
                        model.name(), before, after, insns
                    );
                }
            }
        }
    }
}

/// Node budget for the oracle runs inside the property tests: big
/// enough to prove >98% of random ≤15-insn blocks optimal, small
/// enough that the suite stays inside the tier-1 time budget. The
/// dedicated `exact_oracle` suite exercises the full default budget.
const PROPERTY_EXACT_BUDGET: u32 = 16_384;

/// The most cycles the greedy fewest-stalls-first rule has ever been
/// observed to *slow a block down* relative to the unscheduled
/// sequence — the original empirical pin, retained because it is the
/// user-visible regression bound ("scheduling never hurts much").
const GREEDY_ANOMALY_MAX_EXCESS: u64 = 2;

/// The most cycles the greedy rule may leave on the table versus the
/// branch-and-bound optimum. Measured at 4 over ~17 500 proven
/// model×block samples (gaps of 3–4 hit ~0.07% of blocks, all on the
/// deeper pipelines); the old ≤2 figure only ever held against the
/// *unscheduled* baseline, which is itself suboptimal. A scheduler bug
/// that mis-orders or mis-prices instructions blows far past this.
const GREEDY_GAP_TO_OPTIMUM_MAX: u64 = 4;

/// Aggregate optimality-gap pin: across a deterministic corpus of
/// random blocks on every shipped machine, the paper's default
/// schedule must stay within [`GREEDY_GAP_TO_OPTIMUM_MAX`] cycles of
/// the branch-and-bound optimum, suboptimal blocks must stay uncommon
/// (≤ 10% of model×block cases — vs the *optimum*, not the weaker
/// unscheduled baseline), and no alternative policy may dip below the
/// oracle.
#[test]
fn list_gap_to_the_optimum_stays_tiny() {
    // A fixed xorshift corpus keeps the measured gap rate exact and
    // reproducible run to run.
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let models = MachineModel::shipped();
    let mut total = 0u64;
    let mut suboptimal = 0u64;
    let mut unproven = 0u64;
    for _ in 0..300 {
        let n = 2 + (rnd() % 11) as usize;
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
        for model in &models {
            let body: Vec<Tagged> = insns.iter().map(|&i| Tagged::original(i)).collect();
            let code = BlockCode { body, tail: vec![] };
            let exact = Scheduler::with_options(
                model.clone(),
                SchedOptions {
                    exact_budget: PROPERTY_EXACT_BUDGET,
                    ..SchedOptions::default()
                },
            )
            .exact_block(&code);
            total += 1;
            if !exact.proven_optimal {
                unproven += 1;
                continue;
            }
            let gap = exact.gap();
            if gap > 0 {
                suboptimal += 1;
                assert!(
                    gap <= GREEDY_GAP_TO_OPTIMUM_MAX,
                    "greedy gap of {} cycles on {}: {:?}",
                    gap,
                    model.name(),
                    insns
                );
            }
            // Every policy's schedule sits at or above the optimum —
            // a policy "beating" the oracle means the oracle is wrong.
            for priority in Priority::ALL {
                let sched = Scheduler::with_options(
                    model.clone(),
                    SchedOptions {
                        priority,
                        ..SchedOptions::default()
                    },
                );
                let out = sched.schedule_block(code.clone());
                let scheduled: Vec<Instruction> = out.body.iter().map(|t| t.insn).collect();
                let after = evaluate_block(model, &scheduled).issue_latency();
                assert!(
                    exact.latency <= after,
                    "{} beat the proven optimum on {}: {} < {}\n{:?}",
                    priority,
                    model.name(),
                    after,
                    exact.latency,
                    insns
                );
            }
        }
    }
    // The oracle must actually prove the corpus: random ≤12-insn
    // blocks are well inside its comfort zone even at the trimmed
    // property budget.
    assert!(
        unproven * 20 <= total,
        "oracle budget exhausted too often: {unproven}/{total}"
    );
    assert!(
        suboptimal * 10 <= total,
        "greedy anomalies no longer rare: {suboptimal}/{total} blocks suboptimal"
    );
}
