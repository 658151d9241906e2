//! Property tests: [`PipelineState::restore_context`] is the inverse of
//! [`PipelineState::context_key`]. A state restored from a key, at any
//! cycle and over any unrelated history, reads back the same key, and
//! a random suffix issued on it lands at exactly the original's cycles
//! shifted by the difference of the two anchor cycles — on every
//! shipped model. And [`PipelineState::matches_context`] answers
//! exactly whether the state's key equals a given one.

use eel_pipeline::{MachineModel, PipelineState};
use eel_sparc::Instruction;
use proptest::prelude::*;

/// One step of a random pipeline history.
#[derive(Debug, Clone)]
enum Step {
    /// Issue the instruction decoded from this word, then stretch its
    /// result latency (the cache-miss hook) by the second field.
    Issue(u32, u64),
    /// Move the issue point forward (block boundary).
    Advance(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u32>(), 0u64..4).prop_map(|(word, extra)| Step::Issue(word, extra)),
        (any::<u32>(), 0u64..4).prop_map(|(word, extra)| Step::Issue(word, extra)),
        (any::<u32>(), 0u64..4).prop_map(|(word, extra)| Step::Issue(word, extra)),
        (1u64..30).prop_map(Step::Advance),
    ]
}

fn apply(model: &MachineModel, state: &mut PipelineState, steps: &[Step]) {
    for step in steps {
        match *step {
            Step::Issue(word, extra) => {
                let insn = Instruction::decode(word);
                state.issue(model, &insn);
                state.add_result_latency(&insn, extra);
            }
            Step::Advance(cycles) => state.advance(cycles),
        }
    }
}

fn key(state: &PipelineState) -> Vec<u32> {
    let mut k = Vec::new();
    state.context_key(&mut k);
    k
}

proptest! {
    #[test]
    fn restored_context_round_trips_and_evolves_shifted(
        prefix in prop::collection::vec(arb_step(), 0..40),
        other in prop::collection::vec(arb_step(), 0..20),
        suffix in prop::collection::vec(arb_step(), 1..40),
        delta in -20i64..40,
    ) {
        for model in MachineModel::shipped() {
            let mut original = PipelineState::new(&model);
            apply(&model, &mut original, &prefix);
            let k = key(&original);
            let from = original.cycle();
            // Any anchor works except moving a later key to cycle 0,
            // where every register entry of an empty pipe is live.
            let at = if from == 0 {
                delta.unsigned_abs()
            } else {
                (from as i64 + delta).max(1) as u64
            };

            let mut restored = PipelineState::new(&model);
            apply(&model, &mut restored, &other);
            restored.restore_context(&k, at);
            prop_assert_eq!(restored.cycle(), at);
            prop_assert_eq!(&key(&restored), &k, "key did not round-trip on {}", model.name());

            for (i, step) in suffix.iter().enumerate() {
                match *step {
                    Step::Issue(word, extra) => {
                        let insn = Instruction::decode(word);
                        let a = original.issue(&model, &insn);
                        let b = restored.issue(&model, &insn);
                        original.add_result_latency(&insn, extra);
                        restored.add_result_latency(&insn, extra);
                        prop_assert_eq!(a.stalls, b.stalls, "stalls diverged at step {} on {}", i, model.name());
                        prop_assert_eq!(
                            (a.cycle - from, a.completes - from),
                            (b.cycle - at, b.completes - at),
                            "`{}` landed off the shift at step {} on {}",
                            insn, i, model.name()
                        );
                    }
                    Step::Advance(cycles) => {
                        original.advance(cycles);
                        restored.advance(cycles);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every state along a random history against every key taken
    /// along it: `matches_context` holds exactly where the keys are
    /// equal. A state's own key cut short by one word, or with one more
    /// ring cell, never matches.
    #[test]
    fn matches_context_agrees_with_key_equality(
        steps in prop::collection::vec(arb_step(), 1..50),
        cell in (0u32..8, 0u32..4, 1u32..3),
    ) {
        for model in MachineModel::shipped() {
            let mut state = PipelineState::new(&model);
            let mut states = vec![(state.clone(), key(&state))];
            for step in &steps {
                apply(&model, &mut state, std::slice::from_ref(step));
                states.push((state.clone(), key(&state)));
            }
            for (i, (s, own)) in states.iter().enumerate() {
                for (j, (_, other)) in states.iter().enumerate() {
                    prop_assert_eq!(
                        s.matches_context(other),
                        own == other,
                        "state {} against key {} on {}",
                        i, j, model.name()
                    );
                }
                prop_assert!(!s.matches_context(&own[..own.len() - 1]), "truncated key matched");
                let mut longer = own.clone();
                longer.extend([cell.0, cell.1, cell.2]);
                prop_assert!(!s.matches_context(&longer), "key with an extra cell matched");
            }
        }
    }
}
