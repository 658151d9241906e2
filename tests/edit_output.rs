//! The editor's output bytes on real inputs: the 18 SPEC95 stand-ins,
//! built optimized for UltraSPARC at the tables' two cycles of load
//! bias, and the first `random-cfg` and `huge-blocks` entries of the
//! full corpus (skip edges and large blocks). Each input is analysed,
//! QPT-instrumented and emitted unscheduled and scheduled by every
//! list policy on every shipped machine. One FNV-1a digest per
//! (machine, policy) covers every input's counter base and both
//! emitted executables: text, data, entry, bss size and symbols. The
//! digests were recorded before the editor kept its decoded words,
//! stored insertions per block and mapped leaders densely, so any
//! change to an emitted byte fails here.

use eel_repro::core::{Priority, SchedOptions, Scheduler};
use eel_repro::edit::{EditSession, Executable};
use eel_repro::pipeline::MachineModel;
use eel_repro::qpt::{ProfileOptions, Profiler};
use eel_repro::workloads::{full_corpus, spec95, Benchmark, BuildOptions};

/// Enough iterations to build every block; the editor sees the same
/// blocks at any count.
const ITERATIONS: u32 = 10;

/// The tables' build model's load bias.
const BIAS: u32 = 2;

/// A running FNV-1a digest over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }

    fn exe(&mut self, exe: &Executable) {
        self.word(exe.text_len() as u32);
        for &w in exe.text() {
            self.word(w);
        }
        self.word(exe.data().len() as u32);
        self.bytes(exe.data());
        self.word(exe.entry());
        self.word(exe.bss_size());
        for s in exe.symbols() {
            self.bytes(s.name.as_bytes());
            self.word(s.addr);
        }
    }
}

/// The 20 inputs, built as the benchmark's `edit` workload builds them.
fn inputs() -> Vec<(&'static str, Executable)> {
    let full = full_corpus();
    let first = |prefix: &str| -> Benchmark {
        full.iter()
            .find(|b| b.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("the full corpus has a {prefix} entry"))
            .clone()
    };
    let mut benches = spec95();
    benches.push(first("gen.random-cfg."));
    benches.push(first("gen.huge-blocks."));
    let opts = BuildOptions {
        iterations: Some(ITERATIONS),
        optimize: Some(MachineModel::ultrasparc().with_load_latency_bias(BIAS)),
    };
    benches.iter().map(|b| (b.name, b.build(&opts))).collect()
}

/// One row per machine in [`MachineModel::shipped`] order, one digest per policy in
/// [`Priority::ALL`] order.
const PINNED: [[u64; 4]; 6] = [
    [
        0x2f95_ef29_609d_7f87,
        0xd6cc_cf27_697b_7817,
        0x10ab_7772_45cd_6af7,
        0x5b91_db97_ba5d_6067,
    ],
    [
        0xee2a_563e_f18a_3827,
        0xa978_5b16_cbbf_8b03,
        0xdad0_76d4_fdf9_a59b,
        0xd7f3_3f05_c82b_64df,
    ],
    [
        0x265a_7bbf_d062_013f,
        0x581a_4b38_ac02_65bb,
        0xebb8_83bc_1721_201f,
        0xcf3a_5c27_1e11_8c3b,
    ],
    [
        0x7336_e2ee_3595_8e37,
        0x4bd4_71b7_cce5_ffcf,
        0xda0d_0a13_e71b_a04f,
        0xc530_4b70_317c_e8e7,
    ],
    [
        0x131e_7068_fb71_82b3,
        0x13bf_ceb9_3c8b_3a03,
        0xb2ff_2a77_b1f1_639b,
        0x57a4_ce8d_79af_2917,
    ],
    [
        0xea9c_7726_d41b_bca3,
        0x2f14_b7fa_f885_1ee7,
        0x1b2f_797d_57b6_36eb,
        0x74ae_3f3e_3641_c807,
    ],
];

#[test]
fn emitted_bytes_are_pinned() {
    let scheds: Vec<Vec<Scheduler>> = MachineModel::shipped()
        .iter()
        .map(|m| {
            Priority::ALL
                .map(|priority| {
                    Scheduler::with_options(
                        m.clone(),
                        SchedOptions {
                            priority,
                            ..SchedOptions::default()
                        },
                    )
                })
                .to_vec()
        })
        .collect();
    let mut digests: Vec<Vec<Fnv>> = scheds
        .iter()
        .map(|row| row.iter().map(|_| Fnv::new()).collect())
        .collect();
    for (name, input) in inputs() {
        let mut session = EditSession::new(&input).unwrap_or_else(|e| panic!("{name}: {e}"));
        let profiler = Profiler::instrument(&mut session, ProfileOptions::default());
        let unscheduled = session
            .emit_unscheduled()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for (row, sched_row) in scheds.iter().enumerate() {
            for (col, sched) in sched_row.iter().enumerate() {
                let scheduled = session
                    .emit(sched.transform())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let d = &mut digests[row][col];
                d.word(profiler.counter_base());
                d.exe(&unscheduled);
                d.exe(&scheduled);
            }
        }
    }
    let got: Vec<Vec<u64>> = digests
        .iter()
        .map(|row| row.iter().map(|d| d.0).collect())
        .collect();
    for (row, model) in MachineModel::shipped().iter().enumerate() {
        for (col, priority) in Priority::ALL.iter().enumerate() {
            assert_eq!(
                got[row][col],
                PINNED[row][col],
                "{} with {priority}: emitted bytes changed; all digests: {got:#018x?}",
                model.name()
            );
        }
    }
}
