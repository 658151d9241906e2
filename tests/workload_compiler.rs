//! The workload compiler on real builds: every block of one CINT and
//! one CFP SPEC95 stand-in and of the first `huge-blocks` and
//! `deep-chains` entries of the full corpus, optimized for each
//! shipped machine at the tables' two cycles of load bias. The text
//! of each build is pinned by an FNV-1a digest recorded with the
//! search as it was before copy reuse, early-exit key compares and the
//! lower-bound stop, so any change to a chosen order fails here. A
//! debug build also runs the compiler's own check that every accepted
//! slide's incremental cost equals the order re-timed whole.

use eel_repro::pipeline::MachineModel;
use eel_repro::workloads::{full_corpus, spec95, Benchmark, BuildOptions};

/// Enough iterations to build every block; the compiler sees the same
/// bodies at any count.
const ITERATIONS: u32 = 10;

/// The tables' build model's load bias.
const BIAS: u32 = 2;

fn fnv1a(words: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        h = (h ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The four programs, in the order of the digest rows below.
fn programs() -> Vec<Benchmark> {
    let spec = spec95();
    let full = full_corpus();
    let named = |list: &[Benchmark], name: &str| -> Benchmark {
        list.iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("{name} is built in"))
            .clone()
    };
    let first = |prefix: &str| -> Benchmark {
        full.iter()
            .find(|b| b.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("the full corpus has a {prefix} entry"))
            .clone()
    };
    vec![
        named(&spec, "130.li"),
        named(&spec, "102.swim"),
        first("gen.huge-blocks."),
        first("gen.deep-chains."),
    ]
}

/// One row per program, one digest per machine in [`MachineModel::shipped`] order.
/// 130.li's blocks are about two instructions long, which leaves every
/// machine the same order.
const PINNED: [[u64; 6]; 4] = [
    [
        0x90fb_2d4b_4d3f_074f,
        0x90fb_2d4b_4d3f_074f,
        0x90fb_2d4b_4d3f_074f,
        0x90fb_2d4b_4d3f_074f,
        0x90fb_2d4b_4d3f_074f,
        0x90fb_2d4b_4d3f_074f,
    ],
    [
        0xa9c3_276f_fda7_52a7,
        0x43cc_f278_36e7_6577,
        0xc889_d003_3873_5a4b,
        0x7719_cee7_6cdf_43cd,
        0x2576_b71b_d130_2357,
        0x7eae_a4a3_059e_bb1f,
    ],
    [
        0xca54_477e_e19f_f185,
        0x00c1_b85e_d6ba_8ea3,
        0x81a3_6158_8648_17cd,
        0xa2b2_c9aa_f877_f1ed,
        0xf44a_e127_f7a4_686f,
        0x694b_dca2_6d51_5125,
    ],
    [
        0x6e4d_f40d_2edb_cc45,
        0x8e4b_b94b_be12_7d41,
        0x8e4b_b94b_be12_7d41,
        0x5058_8c87_0d78_0e61,
        0x6011_2d66_4462_3c39,
        0xf4a3_0f27_ca50_72e3,
    ],
];

#[test]
fn optimized_builds_are_pinned() {
    let mut got = [[0u64; 6]; 4];
    for (row, bench) in programs().iter().enumerate() {
        for (col, model) in MachineModel::shipped().iter().enumerate() {
            let exe = bench.build(&BuildOptions {
                iterations: Some(ITERATIONS),
                optimize: Some(model.with_load_latency_bias(BIAS)),
            });
            got[row][col] = fnv1a(exe.text());
        }
    }
    for (row, bench) in programs().iter().enumerate() {
        for (col, model) in MachineModel::shipped().iter().enumerate() {
            assert_eq!(
                got[row][col],
                PINNED[row][col],
                "{} for {}: optimized text changed; all digests: {got:#018x?}",
                bench.name,
                model.name()
            );
        }
    }
}
