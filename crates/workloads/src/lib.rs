//! Synthetic SPEC95 workloads for the EEL scheduling reproduction.
//!
//! The paper evaluates on the SPEC95 suites compiled by Sun's 4.0
//! compilers and run with `ref` inputs — neither of which exists in
//! this environment. This crate substitutes deterministic synthetic
//! SPARC programs, one per SPEC95 benchmark, calibrated to the
//! per-benchmark *dynamic average basic-block size* the paper reports
//! (Table 1's `Avg. BB Size` column) and to the integer/floating-point
//! character of each suite, because those two properties drive how
//! much instrumentation overhead scheduling can hide.
//!
//! ```
//! use eel_workloads::{spec95, BuildOptions};
//!
//! let benchmarks = spec95();
//! assert_eq!(benchmarks.len(), 18);
//! let li = benchmarks.iter().find(|b| b.name == "130.li").unwrap();
//! let exe = li.build(&BuildOptions { iterations: Some(3), ..BuildOptions::default() });
//! assert!(exe.text_len() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod corpus;
mod gen;

use eel_edit::Executable;
use eel_pipeline::MachineModel;

pub use compile::optimize_block;
pub use corpus::{
    corpus_by_name, full_corpus, golden_corpus, intern_name, load_corpus, parse_manifest,
    CorpusError, CORPUS_SCHEMA, FULL_MANIFEST, MAX_GEN_COUNT,
};

/// Which SPEC95 suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// CINT95 — integer codes with short blocks.
    Cint,
    /// CFP95 — floating-point codes with long, well-scheduled blocks.
    Cfp,
}

/// Generator shape knobs beyond block size and instruction mix.
///
/// The defaults reproduce the original generator's output
/// byte-for-byte (same RNG draw sequence, same emitted code), so the
/// SPEC95 suite and every golden snapshot are unaffected by the
/// knobs' existence. Non-default shapes drive the stress tiers of the
/// full corpus: deep dependence chains, register-pressure extremes,
/// and randomized (block-skipping) CFGs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenShape {
    /// Probability that an instruction's source is the most recent
    /// definition (dependence-chain density). 0.5 matches compiled
    /// code; ~0.95 makes nearly serial chains.
    pub chain_bias: f64,
    /// Size of the recently-defined register window sources draw
    /// from. Larger windows keep more values live at once
    /// (register-pressure stress); 4 matches the original generator.
    pub live_window: usize,
    /// Probability that a conditional chain branch targets the block
    /// *after* next instead of the next block, so the taken path
    /// skips a block. 0.0 keeps the original straight-chain CFG where
    /// every block executes once per iteration.
    pub skip_prob: f64,
}

impl Default for GenShape {
    fn default() -> GenShape {
        GenShape {
            chain_bias: 0.5,
            live_window: 4,
            skip_prob: 0.0,
        }
    }
}

/// One synthetic benchmark, mirroring a SPEC95 program's profile.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The SPEC95 name (e.g. `"126.gcc"`).
    pub name: &'static str,
    /// Its suite.
    pub suite: Suite,
    /// The paper's dynamic average basic-block size (instructions).
    pub target_block_size: f64,
    /// Fraction of body instructions that are floating-point.
    pub fp_fraction: f64,
    /// Basic blocks in the main loop body.
    pub chain_blocks: usize,
    /// Outer-loop iterations at the default scale.
    pub iterations: u32,
    /// Leaf routines called once per iteration (integer codes are
    /// call-heavy; FP inner loops call little).
    pub leaf_calls: usize,
    /// Generation seed (derived from the name; deterministic).
    pub seed: u64,
    /// Generator shape knobs (defaults reproduce the original
    /// generator exactly; stress corpus entries override them).
    pub shape: GenShape,
}

/// Options for building a benchmark.
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Override the outer-loop iteration count (e.g. for quick tests).
    pub iterations: Option<u32>,
    /// Schedule each generated block for this machine, imitating Sun's
    /// `-xO4 -xchip=…` back end. `None` leaves blocks in naive order
    /// (unoptimized code).
    pub optimize: Option<MachineModel>,
}

impl Benchmark {
    /// Builds the benchmark into an executable image.
    pub fn build(&self, opts: &BuildOptions) -> Executable {
        gen::build(self, opts)
    }

    /// The expected instructions per outer-loop iteration.
    pub fn per_iteration(&self) -> f64 {
        self.target_block_size * (self.chain_blocks + 1 + self.leaf_calls) as f64
    }
}

pub(crate) fn seed_of(name: &str) -> u64 {
    // FNV-1a: stable across runs and platforms.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn bench(name: &'static str, suite: Suite, target_block_size: f64, fp_fraction: f64) -> Benchmark {
    // Aim for ~600 static instructions of loop body and ~400k dynamic
    // instructions at the default scale.
    let chain_blocks = ((600.0 / target_block_size).round() as usize).clamp(6, 320);
    let leaf_calls = if suite == Suite::Cint { 3 } else { 1 };
    let per_iter = target_block_size * (chain_blocks + 1 + leaf_calls) as f64;
    let iterations = ((400_000.0 / per_iter).round() as u32).max(50);
    Benchmark {
        name,
        suite,
        target_block_size,
        fp_fraction,
        chain_blocks,
        iterations,
        leaf_calls,
        seed: seed_of(name),
        shape: GenShape::default(),
    }
}

/// The CINT95 benchmarks with the paper's dynamic block sizes.
pub fn cint95() -> Vec<Benchmark> {
    vec![
        bench("099.go", Suite::Cint, 2.9, 0.0),
        bench("124.m88ksim", Suite::Cint, 2.2, 0.0),
        bench("126.gcc", Suite::Cint, 2.2, 0.0),
        bench("129.compress", Suite::Cint, 3.0, 0.0),
        bench("130.li", Suite::Cint, 2.0, 0.0),
        bench("132.ijpeg", Suite::Cint, 6.2, 0.0),
        bench("134.perl", Suite::Cint, 2.4, 0.0),
        bench("147.vortex", Suite::Cint, 2.1, 0.0),
    ]
}

/// The CFP95 benchmarks with the paper's dynamic block sizes.
pub fn cfp95() -> Vec<Benchmark> {
    vec![
        bench("101.tomcatv", Suite::Cfp, 13.8, 0.70),
        bench("102.swim", Suite::Cfp, 49.0, 0.80),
        bench("103.su2cor", Suite::Cfp, 10.2, 0.65),
        bench("104.hydro2d", Suite::Cfp, 4.7, 0.55),
        bench("107.mgrid", Suite::Cfp, 32.4, 0.80),
        bench("110.applu", Suite::Cfp, 12.5, 0.70),
        bench("125.turb3d", Suite::Cfp, 6.1, 0.55),
        bench("141.apsi", Suite::Cfp, 10.4, 0.65),
        bench("145.fpppp", Suite::Cfp, 33.9, 0.85),
        bench("146.wave5", Suite::Cfp, 10.9, 0.65),
    ]
}

/// All eighteen SPEC95 benchmarks, CINT then CFP.
pub fn spec95() -> Vec<Benchmark> {
    let mut v = cint95();
    v.extend(cfp95());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_edit::{Cfg, EditSession};

    fn tiny(b: &Benchmark, optimize: bool) -> Executable {
        b.build(&BuildOptions {
            iterations: Some(2),
            optimize: optimize.then(MachineModel::ultrasparc),
        })
    }

    #[test]
    fn all_benchmarks_build_and_analyze() {
        for b in spec95() {
            let exe = tiny(&b, false);
            let cfg = Cfg::build(&exe).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(cfg.block_count() >= b.chain_blocks, "{}", b.name);
        }
    }

    #[test]
    fn deterministic_generation() {
        let b = &cint95()[0];
        let x = tiny(b, false);
        let y = tiny(b, false);
        assert_eq!(x.text(), y.text());
    }

    #[test]
    fn different_benchmarks_differ() {
        let a = tiny(&cint95()[0], false);
        let b = tiny(&cint95()[1], false);
        assert_ne!(a.text(), b.text());
    }

    #[test]
    fn static_block_sizes_near_target() {
        for b in spec95() {
            let exe = tiny(&b, false);
            let cfg = Cfg::build(&exe).unwrap();
            let mean = cfg.mean_block_len();
            let target = b.target_block_size;
            assert!(
                (mean - target).abs() / target < 0.35,
                "{}: static mean {mean:.1} vs target {target:.1}",
                b.name
            );
        }
    }

    #[test]
    fn suites_have_the_right_character() {
        for b in cint95() {
            assert_eq!(b.fp_fraction, 0.0, "{}", b.name);
        }
        for b in cfp95() {
            assert!(b.fp_fraction > 0.4, "{}", b.name);
            assert!(b.target_block_size > 4.0, "{}", b.name);
        }
    }

    #[test]
    fn benchmarks_are_editable() {
        // The whole point: EEL must be able to instrument these.
        for b in [&cint95()[4], &cfp95()[1]] {
            let exe = tiny(b, false);
            let mut session = EditSession::new(&exe).unwrap();
            for (r, blk) in session.all_blocks() {
                session.insert_at_block_head(r, blk, vec![eel_sparc::Instruction::nop()]);
            }
            session
                .emit_unscheduled()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    #[test]
    fn optimized_build_differs_but_same_size() {
        let b = &cfp95()[0];
        let plain = tiny(b, false);
        let opt = tiny(b, true);
        // Delay-slot filling may add/remove the odd nop, so sizes can
        // drift slightly, but not meaningfully.
        let delta = plain.text_len().abs_diff(opt.text_len());
        assert!(delta < 10, "sizes drifted by {delta}");
        assert_ne!(plain.text(), opt.text(), "optimization reorders something");
    }

    #[test]
    fn iterations_scale_total_work() {
        let b = &cint95()[3];
        let small = b.build(&BuildOptions {
            iterations: Some(2),
            optimize: None,
        });
        let big = b.build(&BuildOptions {
            iterations: Some(100),
            optimize: None,
        });
        // Same text; iteration count is data in the prologue.
        assert_eq!(small.text_len(), big.text_len());
    }

    #[test]
    fn instruction_mix_matches_suite_character() {
        // FP benchmarks contain FP work; integer benchmarks none.
        for (b, want_fp) in [(&cfp95()[1], true), (&cint95()[2], false)] {
            let exe = tiny(b, false);
            let fp = exe.decode_text().iter().filter(|i| i.is_fp()).count();
            assert_eq!(fp > 0, want_fp, "{}: {fp} fp instructions", b.name);
        }
    }

    #[test]
    fn memory_traffic_is_substantial() {
        // Real codes move data; the generator must too (the single
        // load/store unit is a key scheduling constraint). Tiny-block
        // integer codes are branch-dominated, so their whole-text
        // fraction sits just under 10%.
        for b in [&cint95()[0], &cfp95()[0]] {
            let exe = tiny(b, false);
            let mem = exe.decode_text().iter().filter(|i| i.is_mem()).count();
            let frac = mem as f64 / exe.text_len() as f64;
            assert!(
                (0.09..0.55).contains(&frac),
                "{}: memory fraction {frac:.3}",
                b.name
            );
        }
    }

    #[test]
    fn leaf_routines_present_and_called() {
        let b = &cint95()[0];
        let exe = tiny(b, false);
        assert_eq!(exe.symbols().len(), 1 + b.leaf_calls, "main + leaves");
        let calls = exe
            .decode_text()
            .iter()
            .filter(|i| matches!(i, eel_sparc::Instruction::Call { .. }))
            .count();
        assert_eq!(calls, b.leaf_calls);
    }

    #[test]
    fn generated_code_has_no_unknown_words() {
        for b in spec95().iter().step_by(4) {
            let exe = tiny(b, false);
            for i in exe.decode_text() {
                assert!(
                    !matches!(i, eel_sparc::Instruction::Unknown(_)),
                    "{}: {i}",
                    b.name
                );
            }
        }
    }

    #[test]
    fn delay_slots_are_filled() {
        // The generator models -xO4 output: no nops in delay slots.
        let b = &cint95()[3];
        let exe = tiny(b, true);
        let insns = exe.decode_text();
        let mut nop_slots = 0;
        let mut slots = 0;
        for (k, i) in insns.iter().enumerate() {
            if i.is_cti() && k + 1 < insns.len() {
                slots += 1;
                if insns[k + 1].is_nop() {
                    nop_slots += 1;
                }
            }
        }
        // Only the loop-control branch keeps a nop.
        assert!(slots > 20);
        assert!(nop_slots <= 2, "{nop_slots} nop delay slots of {slots}");
    }

    #[test]
    fn seed_is_stable() {
        assert_eq!(seed_of("130.li"), seed_of("130.li"));
        assert_ne!(seed_of("130.li"), seed_of("126.gcc"));
    }
}
