//! The interpretive reference simulator: the original per-instruction
//! fetch → decode → issue → execute loop, kept as the test oracle the
//! block-replay engine behind [`crate::run`] (`crate::block`) is
//! pinned to. No production path calls it.

use eel_edit::Executable;
use eel_pipeline::{MachineModel, PipelineState, StallProfile};
use eel_sparc::Instruction;

use crate::cpu::{Cpu, Step};
use crate::error::SimError;
use crate::icache::{ICache, ICacheConfig};
use crate::memory::Memory;
use crate::run::{RunConfig, RunResult};

/// The interpretive simulator: executes one instruction at a time,
/// issuing each through the pipeline model as it retires.
///
/// This is the slow, obviously-correct formulation. The block-level
/// replay engine behind [`crate::run`] must agree with it exactly —
/// cycle counts, per-word profiles, cache counters,
/// stall attribution, and faults — which the differential property
/// test `tests/block_vs_reference.rs` pins on random programs across
/// all shipped machines.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceCpu;

impl ReferenceCpu {
    /// Runs `exe` to completion on the per-instruction path.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] fault, like [`crate::run`].
    pub fn run(
        exe: &Executable,
        model: Option<&MachineModel>,
        config: &RunConfig,
    ) -> Result<RunResult, SimError> {
        let mut mem = Memory::load(exe);
        let mut cpu = Cpu::new(exe.entry());
        let mut pc_counts = vec![0u64; exe.text_len()];
        let mut taken_counts = vec![0u64; exe.text_len()];

        let timing = config.timing.as_ref().zip(model);
        let mut pipe = model.map(PipelineState::new);
        let mut icache = timing.and_then(|(t, _)| t.icache).map(ICache::new);
        let mut dcache = timing.and_then(|(t, _)| t.dcache).map(|c| {
            ICache::new(ICacheConfig {
                size: c.size,
                line: c.line,
                miss_penalty: c.miss_penalty,
            })
        });

        let mut profile = (config.attribute_stalls && timing.is_some()).then(StallProfile::default);
        let mut instructions = 0u64;
        let mut taken_branches = 0u64;
        let mut mem_ops = 0u64;
        let mut last_complete = 0u64;

        loop {
            if instructions >= config.max_instructions {
                return Err(SimError::InstructionLimit {
                    limit: config.max_instructions,
                    retired: instructions,
                });
            }
            let pc = cpu.pc;
            let word = mem.fetch(pc)?;
            let word_idx = ((pc - exe.text_base()) / 4) as usize;
            pc_counts[word_idx] += 1;
            let insn = Instruction::decode(word);

            if let (Some((_, model)), Some(pipe)) = (timing, pipe.as_mut()) {
                if let Some(cache) = icache.as_mut() {
                    if !cache.access(pc) {
                        pipe.advance(u64::from(cache.penalty()));
                    }
                }
                let p = model.prepare(&insn);
                let info = match profile.as_mut() {
                    Some(profile) => profile.issue(pipe, model, &insn, &p),
                    None => pipe.issue_prepared(model, &insn, &p),
                };
                last_complete = last_complete.max(info.completes);
                if let (Some(cache), Some(addr)) = (dcache.as_mut(), insn.mem_address()) {
                    // The access address is computable before the step:
                    // registers still hold their pre-execution values.
                    if !cache.access(cpu.ea(addr)) && insn.is_load() {
                        pipe.add_result_latency(&insn, u64::from(cache.penalty()));
                    }
                }
            }

            if insn.is_mem() {
                mem_ops += 1;
            }
            let step = cpu.step_decoded(&mut mem, &insn)?;
            instructions += 1;
            match step {
                Step::Continue { taken_cti } => {
                    if taken_cti {
                        taken_branches += 1;
                        taken_counts[word_idx] += 1;
                        if let (Some((tc, _)), Some(pipe)) = (timing, pipe.as_mut()) {
                            if tc.taken_branch_penalty > 0 {
                                pipe.advance(u64::from(tc.taken_branch_penalty));
                            }
                        }
                    }
                }
                Step::Exit(code) => {
                    return Ok(RunResult {
                        instructions,
                        cycles: if timing.is_some() {
                            last_complete + 1
                        } else {
                            0
                        },
                        exit_code: code,
                        pc_counts,
                        icache_misses: icache.map(|c| c.misses()).unwrap_or(0),
                        dcache_misses: dcache.map(|c| c.misses()).unwrap_or(0),
                        taken_branches,
                        mem_ops,
                        taken_counts,
                        memory: mem,
                        stall_profile: profile,
                    });
                }
            }
        }
    }
}
