//! The top-level simulator: functional execution optionally coupled to
//! the pipeline timing model and caches.
//!
//! Every [`run`] executes on the block-replay engine (`crate::block`),
//! which caches the decode/`prepare`/timing walk per basic block and
//! entry pipeline context. The differential property test
//! `tests/block_vs_reference.rs` pins it to exact agreement with the
//! interpretive [`crate::ReferenceCpu`] on every counter, cycle,
//! profile, and fault.

use eel_edit::{Executable, LeaderMap};
use eel_pipeline::{MachineModel, StallProfile};
use eel_telemetry::Registry;

use crate::error::SimError;
use crate::icache::{DCacheConfig, ICacheConfig};
use crate::memory::Memory;
use crate::path::{Execute, Path, Record, Walk};

/// How to time a run.
#[derive(Debug, Clone, Default)]
pub struct TimingConfig {
    /// Extra cycles charged for each *taken* control transfer (fetch
    /// redirect). The scheduler's model omits this, like the paper's;
    /// the measured machine may include it.
    pub taken_branch_penalty: u32,
    /// Optional instruction-cache model.
    pub icache: Option<ICacheConfig>,
    /// Optional data-cache model: load misses extend the load's result
    /// latency (a memory-system effect the SADL descriptions omit).
    pub dcache: Option<DCacheConfig>,
}

/// Limits and options for a run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Fault with [`SimError::InstructionLimit`] past this many
    /// instructions (runaway guard).
    pub max_instructions: u64,
    /// Timing configuration; `None` runs functionally only.
    pub timing: Option<TimingConfig>,
    /// Classify every pipeline stall cycle by cause (structural unit,
    /// or RAW/WAR/WAW hazard and the register behind it) and return
    /// the aggregate in [`RunResult::stall_profile`]. Requires
    /// `timing`; classifies each stalled cycle and bypasses the timing
    /// memo, so it defaults to off and the hot path is untouched.
    pub attribute_stalls: bool,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            max_instructions: 500_000_000,
            timing: None,
            attribute_stalls: false,
        }
    }
}

/// The outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Total simulated cycles (0 for functional-only runs).
    pub cycles: u64,
    /// The program's exit code (`%o0` at `ta 0`).
    pub exit_code: u32,
    /// Per-text-word execution counts, indexed like the text segment.
    pub pc_counts: Vec<u64>,
    /// Instruction-cache misses (0 when no cache was modeled).
    pub icache_misses: u64,
    /// Data-cache misses (0 when no cache was modeled).
    pub dcache_misses: u64,
    /// Number of taken control transfers.
    pub taken_branches: u64,
    /// Number of executed loads and stores.
    pub mem_ops: u64,
    /// The final data memory, for reading back counter tables. A walk
    /// ([`walk`]) executes nothing and leaves the initial image.
    pub memory: Memory,
    /// Aggregate stall attribution over the whole run, present only
    /// when [`RunConfig::attribute_stalls`] was set on a timed run.
    pub stall_profile: Option<StallProfile>,
}

impl RunResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.instructions as f64
    }

    /// Simulated seconds at `clock_mhz`.
    pub fn seconds(&self, clock_mhz: u32) -> f64 {
        self.cycles as f64 / (f64::from(clock_mhz) * 1e6)
    }
}

/// Runs an executable to completion.
///
/// With `model == None` (or `config.timing == None`) the run is purely
/// functional; otherwise each retired instruction is issued through
/// the machine's pipeline state to accumulate cycles, with optional
/// taken-branch and I-cache penalties on top.
///
/// # Errors
///
/// Propagates any [`SimError`] fault, including the instruction-limit
/// guard.
///
/// ```
/// use eel_sim::{run, RunConfig};
/// use eel_sparc::{Assembler, IntReg, Operand};
///
/// let mut a = Assembler::new();
/// a.mov(Operand::imm(9), IntReg::O0);
/// a.ta(0);
/// let exe = eel_edit::Executable::from_words(
///     0x10000,
///     a.finish().unwrap().iter().map(|i| i.encode()).collect(),
/// );
/// let result = run(&exe, None, &RunConfig::default())?;
/// assert_eq!(result.exit_code, 9);
/// assert_eq!(result.instructions, 2);
/// # Ok::<(), eel_sim::SimError>(())
/// ```
pub fn run(
    exe: &Executable,
    model: Option<&MachineModel>,
    config: &RunConfig,
) -> Result<RunResult, SimError> {
    crate::block::run_blocks(exe, model, config, None, &mut Execute)
}

/// [`run`] observed through a telemetry registry.
///
/// Every *completed* run flushes one batch of counters (`sim.runs`,
/// `sim.instructions`, `sim.cycles`, `sim.mem_ops`,
/// `sim.taken_branches`, `sim.block_builds`, `sim.block_slot_fused`,
/// `sim.block_ctx_hits` and `sim.block_ctx_misses`). Totals are
/// accumulated in locals and flushed once at exit, so the retire loop
/// performs no atomic operations. When `telemetry` carries a tracer
/// ([`Registry::with_tracer`]), the run also records a `sim/run`
/// span, a `sim/block_build` instant per built block, and
/// `sim/block_cache` and `sim/block_totals` summary instants.
pub fn run_with(
    exe: &Executable,
    model: Option<&MachineModel>,
    config: &RunConfig,
    telemetry: &Registry,
) -> Result<RunResult, SimError> {
    crate::block::run_blocks(exe, model, config, Some(telemetry), &mut Execute)
}

/// [`run`], also recording the run's control [`Path`], along which
/// [`walk`] times edits of `exe`. Counts in `telemetry` as [`run_with`].
///
/// # Errors
///
/// As [`run`].
pub fn record(
    exe: &Executable,
    model: Option<&MachineModel>,
    config: &RunConfig,
    telemetry: Option<&Registry>,
) -> Result<(RunResult, Path), SimError> {
    let mut mode = Record::default();
    let result = crate::block::run_blocks(exe, model, config, telemetry, &mut mode)?;
    Ok((result, mode.path))
}

/// Times `exe`, an edit of the executable `path` was recorded on, by
/// walking it along that path instead of executing it: what [`run`]
/// would return for `exe`, when the edit keeps the original's control
/// flow — it only inserts straight-line code and reorders code within
/// blocks, as QPT2 and EEL's scheduler do — and its straight-line code
/// computes what the original's does wherever a control transfer
/// reads it. `leaders` is the edit's [`LeaderMap`], which carries the
/// path's jump targets over to `exe`.
///
/// A walk executes no op, so it reports the path's exit code and
/// leaves [`RunResult::memory`] as loaded; everything else (cycles,
/// counts, profiles, cache misses, attribution) is the walked
/// executable's own. Counts in `telemetry` as [`run_with`] does, plus
/// `sim.walks`, and traces a `sim/walk` span instead of `sim/run`.
///
/// # Errors
///
/// [`SimError::WalkWithDCache`] when `config` models a data cache;
/// [`SimError::OffPath`] when `exe` does not follow `path`; and the
/// faults a run of `exe` would raise from its text alone (a bad
/// program counter, an undecodable word, the instruction limit).
pub fn walk(
    exe: &Executable,
    path: &Path,
    leaders: &LeaderMap,
    model: Option<&MachineModel>,
    config: &RunConfig,
    telemetry: Option<&Registry>,
) -> Result<RunResult, SimError> {
    if config.timing.as_ref().is_some_and(|t| t.dcache.is_some()) {
        return Err(SimError::WalkWithDCache);
    }
    crate::block::run_blocks(exe, model, config, telemetry, &mut Walk::new(path, leaders))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::{Assembler, Cond, IntReg, Operand};

    fn loop_program(n: i32) -> Executable {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.mov(Operand::imm(n), IntReg::O1);
        a.mov(Operand::imm(0), IntReg::O0);
        a.bind(top);
        a.add(IntReg::O0, Operand::imm(1), IntReg::O0);
        a.subcc(IntReg::O1, Operand::imm(1), IntReg::O1);
        a.b(Cond::Ne, top);
        a.nop();
        a.ta(0);
        Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        )
    }

    #[test]
    fn functional_run_counts_instructions() {
        let exe = loop_program(10);
        let r = run(&exe, None, &RunConfig::default()).unwrap();
        assert_eq!(r.exit_code, 10);
        assert_eq!(r.instructions, 2 + 10 * 4 + 1);
        assert_eq!(r.cycles, 0, "functional runs have no cycles");
    }

    #[test]
    fn pc_counts_track_block_executions() {
        let exe = loop_program(5);
        let r = run(&exe, None, &RunConfig::default()).unwrap();
        // Loop body words (indices 2..6) execute 5 times each.
        for w in 2..6 {
            assert_eq!(r.pc_counts[w], 5, "word {w}");
        }
        assert_eq!(r.pc_counts[0], 1);
        assert_eq!(r.pc_counts[6], 1, "exit trap once");
    }

    #[test]
    fn timed_run_accumulates_cycles() {
        let exe = loop_program(100);
        let model = MachineModel::ultrasparc();
        let r = run(
            &exe,
            Some(&model),
            &RunConfig {
                timing: Some(TimingConfig::default()),
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert!(r.cycles > 0);
        assert!(
            r.cycles < r.instructions * 4,
            "4-way machine should not average 4 cycles per instruction here"
        );
        assert!(r.cpi() > 0.25, "cannot beat the issue width");
    }

    #[test]
    fn wider_machine_is_not_slower() {
        let exe = loop_program(200);
        let cfg = RunConfig {
            timing: Some(TimingConfig::default()),
            ..RunConfig::default()
        };
        let hyper = run(&exe, Some(&MachineModel::hypersparc()), &cfg).unwrap();
        let ultra = run(&exe, Some(&MachineModel::ultrasparc()), &cfg).unwrap();
        assert!(ultra.cycles <= hyper.cycles);
    }

    #[test]
    fn branch_penalty_adds_cycles() {
        let exe = loop_program(100);
        let model = MachineModel::ultrasparc();
        let base = run(
            &exe,
            Some(&model),
            &RunConfig {
                timing: Some(TimingConfig::default()),
                ..RunConfig::default()
            },
        )
        .unwrap();
        let penalized = run(
            &exe,
            Some(&model),
            &RunConfig {
                timing: Some(TimingConfig {
                    taken_branch_penalty: 3,
                    ..TimingConfig::default()
                }),
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(penalized.taken_branches, 99, "99 taken back edges");
        assert!(penalized.cycles >= base.cycles + 3 * 99);
    }

    #[test]
    fn icache_misses_counted() {
        let exe = loop_program(50);
        let model = MachineModel::ultrasparc();
        let r = run(
            &exe,
            Some(&model),
            &RunConfig {
                timing: Some(TimingConfig {
                    icache: Some(ICacheConfig::default()),
                    ..TimingConfig::default()
                }),
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert!(r.icache_misses >= 1, "at least the cold miss");
        assert!(r.icache_misses <= 2, "tiny loop fits in the cache");
    }

    #[test]
    fn instruction_limit_guards_runaways() {
        // An infinite loop.
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        a.ba(top);
        a.nop();
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let err = run(
            &exe,
            None,
            &RunConfig {
                max_instructions: 1000,
                ..RunConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::InstructionLimit {
                limit: 1000,
                retired: 1000
            }
        ));
    }

    #[test]
    fn attribution_profiles_a_timed_run() {
        // The dcache test's load-use pattern, shrunk: every iteration
        // stalls on the load's result, so a RAW profile must appear.
        let mut a = Assembler::new();
        let top = a.new_label();
        a.set(Executable::DEFAULT_DATA_BASE, IntReg::O0);
        a.set(64, IntReg::O1);
        a.bind(top);
        a.ld(eel_sparc::Address::base_imm(IntReg::O0, 0), IntReg::O3);
        a.add(IntReg::O3, Operand::imm(1), IntReg::O4); // load-use RAW
        a.subcc(IntReg::O1, Operand::imm(1), IntReg::O1);
        a.b(Cond::Ne, top);
        a.nop();
        a.ta(0);
        let insns = a.finish().unwrap();
        let mut exe = Executable::from_words(0x10000, insns.iter().map(|i| i.encode()).collect());
        exe.reserve_bss(64);
        let model = MachineModel::ultrasparc();
        let cfg = RunConfig {
            timing: Some(TimingConfig::default()),
            attribute_stalls: true,
            ..RunConfig::default()
        };
        let r = run(&exe, Some(&model), &cfg).unwrap();
        let profile = r.stall_profile.expect("attribution was requested");
        assert!(profile.raw_total() > 0, "load-use loop must stall on RAW");

        // Identical run without attribution: same timing, no profile.
        let plain = run(
            &exe,
            Some(&model),
            &RunConfig {
                timing: Some(TimingConfig::default()),
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert!(plain.stall_profile.is_none());
        assert_eq!(plain.cycles, r.cycles, "attribution must not change timing");
    }

    #[test]
    fn dcache_misses_slow_loads() {
        // A loop striding a 64 KiB array through a 1 KiB cache misses
        // every other line and runs measurably slower than with no
        // cache model.
        let mut a = Assembler::new();
        let top = a.new_label();
        a.set(Executable::DEFAULT_DATA_BASE, IntReg::O0);
        a.set(0x10000, IntReg::O1); // byte counter
        a.bind(top);
        a.ld(
            eel_sparc::Address::base_reg(IntReg::O0, IntReg::O2),
            IntReg::O3,
        );
        a.add(IntReg::O3, Operand::imm(1), IntReg::O4); // load-use
        a.add(IntReg::O2, Operand::imm(32), IntReg::O2);
        a.subcc(IntReg::O1, Operand::imm(32), IntReg::O1);
        a.b(Cond::Ne, top);
        a.nop();
        a.ta(0);
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        let mut exe = Executable::from_words(0x10000, words);
        exe.reserve_bss(0x10000 + 64);
        let model = MachineModel::ultrasparc();
        let base = run(
            &exe,
            Some(&model),
            &RunConfig {
                timing: Some(TimingConfig::default()),
                ..RunConfig::default()
            },
        )
        .unwrap();
        let with_dcache = run(
            &exe,
            Some(&model),
            &RunConfig {
                timing: Some(TimingConfig {
                    dcache: Some(DCacheConfig {
                        size: 1024,
                        line: 32,
                        miss_penalty: 10,
                    }),
                    ..TimingConfig::default()
                }),
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(base.dcache_misses, 0);
        assert!(
            with_dcache.dcache_misses >= 2048,
            "{}",
            with_dcache.dcache_misses
        );
        assert!(
            with_dcache.cycles > base.cycles + 5 * with_dcache.dcache_misses,
            "misses must cost load-use time: {} vs {}",
            with_dcache.cycles,
            base.cycles
        );
    }

    #[test]
    fn hot_working_set_hits() {
        let exe = loop_program(200);
        let model = MachineModel::ultrasparc();
        let r = run(
            &exe,
            Some(&model),
            &RunConfig {
                timing: Some(TimingConfig {
                    dcache: Some(DCacheConfig::default()),
                    ..TimingConfig::default()
                }),
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.dcache_misses, 0, "the loop touches no memory");
    }

    #[test]
    fn taken_branches_track_branch_outcomes() {
        let exe = loop_program(5);
        let r = run(&exe, None, &RunConfig::default()).unwrap();
        // The back edge at word 4 runs 5 times and is taken 4 times
        // (untaken once); nothing else transfers control.
        assert_eq!(r.pc_counts[4], 5);
        assert_eq!(r.taken_branches, 4);
    }

    #[test]
    fn telemetry_sink_observes_a_run_without_changing_it() {
        let exe = loop_program(10);
        let model = MachineModel::ultrasparc();
        let cfg = RunConfig {
            timing: Some(TimingConfig::default()),
            ..RunConfig::default()
        };
        let reg = eel_telemetry::Registry::new();
        let observed = run_with(&exe, Some(&model), &cfg, &reg).unwrap();
        let plain = run(&exe, Some(&model), &cfg).unwrap();
        assert_eq!(observed.instructions, plain.instructions);
        assert_eq!(observed.cycles, plain.cycles);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["sim.runs"], 1);
        assert_eq!(snap.counters["sim.instructions"], plain.instructions);
        assert_eq!(snap.counters["sim.cycles"], plain.cycles);
        assert_eq!(snap.counters["sim.taken_branches"], plain.taken_branches);
        // The loop's two blocks
        // (entry + back-edge target) and the exit trap build once each,
        // and the steady-state iterations replay memoized timing.
        assert_eq!(snap.counters["sim.block_builds"], 3);
        assert!(snap.counters["sim.block_ctx_hits"] > 0);
        assert!(snap.counters["sim.block_ctx_misses"] >= 3);

        // A registry carrying a tracer runs the same, counts the same,
        // and records one `sim/run` span, one `sim/block_build` instant
        // per built block, and the memo's hit and miss totals as one
        // `sim/block_cache` instant.
        let tracer = std::sync::Arc::new(eel_telemetry::Tracer::new(64));
        let traced = Registry::with_tracer(std::sync::Arc::clone(&tracer));
        let r = run_with(&exe, Some(&model), &cfg, &traced).unwrap();
        assert_eq!(observables(&r), observables(&plain));
        assert_eq!(r.dcache_misses, plain.dcache_misses);
        assert!(r.memory == plain.memory, "same final memory");
        assert!(r.stall_profile.is_none() && plain.stall_profile.is_none());
        let counters = traced.snapshot().counters;
        assert_eq!(counters, snap.counters, "same counters");
        let events = tracer.events();
        let named = |name: &str| -> Vec<_> {
            events
                .iter()
                .filter(|e| e.cat == "sim" && e.name == name)
                .collect()
        };
        assert_eq!(named("run").len(), 1);
        assert_eq!(
            named("block_build").len() as u64,
            counters["sim.block_builds"]
        );
        let cache = named("block_cache");
        assert_eq!(cache.len(), 1);
        assert_eq!(
            (cache[0].a0, cache[0].a1),
            (
                counters["sim.block_ctx_hits"],
                counters["sim.block_ctx_misses"]
            )
        );
    }

    /// Every observable a run produces, for cross-engine equality
    /// checks (the memory image is compared via the counter words the
    /// programs under test write).
    fn observables(r: &RunResult) -> (u64, u64, u32, Vec<u64>, u64, u64, u64) {
        (
            r.instructions,
            r.cycles,
            r.exit_code,
            r.pc_counts.clone(),
            r.icache_misses,
            r.taken_branches,
            r.mem_ops,
        )
    }

    #[test]
    fn batched_icache_counts_match_reference_on_crafted_trace() {
        // A two-level loop: the inner branch alternates taken/untaken,
        // the outer back edge stays taken, and a tiny I-cache forces conflict
        // misses on every pass over the loop body. The batched
        // per-block probes and the reference's per-instruction probes
        // must count identically.
        let mut a = Assembler::new();
        let outer = a.new_label();
        let skip = a.new_label();
        a.mov(Operand::imm(40), IntReg::O1);
        a.mov(Operand::imm(0), IntReg::O0);
        a.bind(outer);
        a.alu(
            eel_sparc::AluOp::AndCc,
            IntReg::O1,
            Operand::imm(1),
            IntReg::O2,
        );
        a.b(Cond::E, skip);
        a.nop();
        a.add(IntReg::O0, Operand::imm(3), IntReg::O0);
        a.bind(skip);
        a.add(IntReg::O0, Operand::imm(1), IntReg::O0);
        a.subcc(IntReg::O1, Operand::imm(1), IntReg::O1);
        a.b(Cond::Ne, outer);
        a.nop();
        a.ta(0);
        let exe = Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        );
        let model = MachineModel::ultrasparc();
        let cfg = RunConfig {
            timing: Some(TimingConfig {
                taken_branch_penalty: 1,
                icache: Some(ICacheConfig {
                    size: 32,
                    line: 16,
                    miss_penalty: 6,
                }),
                dcache: None,
            }),
            ..RunConfig::default()
        };
        let fast = run(&exe, Some(&model), &cfg).unwrap();
        let reference = crate::ReferenceCpu::run(&exe, Some(&model), &cfg).unwrap();
        assert!(fast.icache_misses > 2, "{}", fast.icache_misses);
        assert_eq!(observables(&fast), observables(&reference));
    }

    #[test]
    fn batched_flush_counts_match_reference_on_random_traces() {
        // Pseudo-random straight-line bodies inside a branchy loop
        // skeleton, replayed under a small I-cache.
        // An LCG drives instruction selection so the test is
        // deterministic without an RNG dependency.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u32| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as u32) % bound
        };
        for case in 0..8 {
            let mut a = Assembler::new();
            let top = a.new_label();
            let skip = a.new_label();
            a.set(Executable::DEFAULT_DATA_BASE, IntReg::O5);
            a.mov(Operand::imm(20 + case), IntReg::O1);
            a.bind(top);
            for _ in 0..next(12) + 2 {
                let rd = [IntReg::O0, IntReg::O2, IntReg::O3, IntReg::O4][next(4) as usize];
                match next(4) {
                    0 => a.add(IntReg::O0, Operand::imm(i32::from(next(64) as u16)), rd),
                    1 => a.sethi(next(1 << 22), rd),
                    2 => a.ld(eel_sparc::Address::base_imm(IntReg::O5, 0), rd),
                    _ => a.st(rd, eel_sparc::Address::base_imm(IntReg::O5, 4)),
                };
            }
            a.alu(
                eel_sparc::AluOp::AndCc,
                IntReg::O1,
                Operand::imm(i32::from(next(3) as u16 + 1)),
                IntReg::O2,
            );
            a.b(Cond::E, skip);
            a.nop();
            a.add(IntReg::O0, Operand::imm(1), IntReg::O0);
            a.bind(skip);
            a.subcc(IntReg::O1, Operand::imm(1), IntReg::O1);
            a.b(Cond::Ne, top);
            a.nop();
            a.ta(0);
            let mut exe = Executable::from_words(
                0x10000,
                a.finish().unwrap().iter().map(|i| i.encode()).collect(),
            );
            exe.reserve_bss(64);
            let cfg = RunConfig {
                timing: Some(TimingConfig {
                    taken_branch_penalty: next(3),
                    icache: Some(ICacheConfig {
                        size: 64,
                        line: 16,
                        miss_penalty: 1 + next(8),
                    }),
                    dcache: None,
                }),
                ..RunConfig::default()
            };
            for model in [MachineModel::ultrasparc(), MachineModel::supersparc()] {
                let fast = run(&exe, Some(&model), &cfg).unwrap();
                let reference = crate::ReferenceCpu::run(&exe, Some(&model), &cfg).unwrap();
                assert_eq!(
                    observables(&fast),
                    observables(&reference),
                    "case {case}, machine {}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn seconds_conversion() {
        let exe = loop_program(10);
        let model = MachineModel::supersparc();
        let r = run(
            &exe,
            Some(&model),
            &RunConfig {
                timing: Some(TimingConfig::default()),
                ..RunConfig::default()
            },
        )
        .unwrap();
        let s = r.seconds(model.clock_mhz());
        assert!(s > 0.0 && s < 1.0);
    }
}
