//! Differential property test: the flat-scoreboard [`PipelineState`]
//! must agree *exactly* with the retained interpretive
//! [`ReferencePipeline`] — same stall counts, same issue placements,
//! same completion cycles, **and the same per-cycle stall
//! attribution** (cause kind, contended unit, hazard register) — on
//! randomized instruction streams, on every shipped model, across
//! issue / advance / result-latency / reset interleavings.

use eel_pipeline::{MachineModel, PipelineState, ReferencePipeline};
use eel_sparc::Instruction;
use proptest::prelude::*;

/// One step of a random pipeline workload.
#[derive(Debug, Clone)]
enum Step {
    /// Issue the instruction decoded from this word, optionally
    /// stretching its result latency (the cache-miss hook).
    Issue { word: u32, extra_latency: u64 },
    /// Move the issue point forward (block boundary).
    Advance(u64),
    /// Drop all pipeline history.
    Reset,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Weight issues heavily: they are the interesting transitions.
        (any::<u32>(), 0u64..4).prop_map(|(word, extra_latency)| Step::Issue {
            word,
            extra_latency
        }),
        (any::<u32>(), 0u64..4).prop_map(|(word, extra_latency)| Step::Issue {
            word,
            extra_latency
        }),
        (any::<u32>(), 0u64..4).prop_map(|(word, extra_latency)| Step::Issue {
            word,
            extra_latency
        }),
        (1u64..30).prop_map(Step::Advance),
        Just(Step::Reset),
    ]
}

proptest! {
    #[test]
    fn flat_state_matches_reference(steps in prop::collection::vec(arb_step(), 1..60)) {
        for model in MachineModel::shipped() {
            let mut flat = PipelineState::new(&model);
            let mut reference = ReferencePipeline::new(&model);
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Step::Issue { word, extra_latency } => {
                        // `decode` is total: every word times as *some*
                        // instruction (unknown ops use the fallback
                        // group), so raw u32s explore the group space.
                        let insn = Instruction::decode(word);
                        let p = model.prepare(&insn);
                        // Attribution agreement: the same stall count
                        // (the lists' length), and each stalled cycle
                        // classified identically — same cause kind,
                        // same unit id, same register. Both pipes sit
                        // at the same cycle (asserted after every
                        // step), so the lists line up cycle by cycle.
                        prop_assert_eq!(
                            flat.stall_causes(&model, &insn, &p),
                            reference.stall_causes(&model, &insn),
                            "stall causes diverged at step {} (`{}`) on {}",
                            i, insn, model.name()
                        );
                        prop_assert_eq!(
                            flat.issue(&model, &insn),
                            reference.issue(&model, &insn),
                            "issue diverged at step {} (`{}`) on {}",
                            i, insn, model.name()
                        );
                        if extra_latency > 0 {
                            flat.add_result_latency(&insn, extra_latency);
                            reference.add_result_latency(&insn, extra_latency);
                        }
                    }
                    Step::Advance(cycles) => {
                        flat.advance(cycles);
                        reference.advance(cycles);
                    }
                    Step::Reset => {
                        flat.reset();
                        reference.reset();
                    }
                }
                prop_assert_eq!(flat.cycle(), reference.cycle());
            }
        }
    }
}
