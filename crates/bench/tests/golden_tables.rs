//! Golden-file tests for the Table 1/2/3 pipelines: each table is run
//! hermetically (in-process memoization only — the `EEL_NO_CACHE=1`
//! path of `eel results table1|2|3`) on the two smallest deterministic
//! workloads, and the rendered table is diffed byte-for-byte against a
//! checked-in snapshot. Any drift in workload generation,
//! instrumentation, scheduling, simulation, or table formatting fails
//! here with a readable diff. Table 1's run also pins its engine's
//! work counters (simulator runs, retired instructions, cycles, stall
//! queries, block-memo builds, hits and misses) in
//! `table1_counters.txt`: they count work, not time, so they are equal
//! in debug and release and on every host.
//!
//! To regenerate the snapshots after an *intentional* change:
//!
//! ```text
//! EEL_UPDATE_GOLDEN=1 cargo test -p eel-bench --test golden_tables
//! ```

use std::path::PathBuf;

use eel_bench::engine::Engine;
use eel_bench::experiment::{format_table, ExperimentConfig};
use eel_bench::gap::{format_gap_report, gap_table};
use eel_core::{Priority, SchedOptions, Scheduler};
use eel_edit::{BlockCode, BlockInfo, Tagged};
use eel_pipeline::MachineModel;
use eel_sparc::{Address, AluOp, FpOp, FpReg, Instruction, IntReg, MemWidth, Operand};
use eel_telemetry::Registry;
use eel_workloads::{cfp95, cint95, Benchmark};

/// The two smallest deterministic workloads: 130.li (smallest CINT
/// block sizes) and 104.hydro2d (smallest CFP), at their default
/// iteration counts.
fn golden_benchmarks() -> Vec<Benchmark> {
    vec![cint95()[4].clone(), cfp95()[3].clone()]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Diffs `actual` against the checked-in snapshot, or rewrites the
/// snapshot when `EEL_UPDATE_GOLDEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("EEL_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             EEL_UPDATE_GOLDEN=1 cargo test -p eel-bench --test golden_tables",
            path.display()
        )
    });
    if expected != actual {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| format!("line {}:\n  expected: {e}\n  actual:   {a}", i + 1))
            .collect();
        panic!(
            "{name} drifted from its snapshot ({} differing line{}, \
             {} vs {} lines total):\n{}\nIf the change is intentional, regenerate with \
             EEL_UPDATE_GOLDEN=1 cargo test -p eel-bench --test golden_tables",
            diff.len(),
            if diff.len() == 1 { "" } else { "s" },
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

/// Checks one table against its snapshot and returns the engine that
/// measured it.
fn run_golden(name: &str, model: &MachineModel, title: &str, reschedule_first: bool) -> Engine {
    // `Engine::new` has no disk cache: this is exactly the
    // `EEL_NO_CACHE=1` path of `eel results`, so a stale artifact cache can
    // never mask drift.
    let engine = Engine::new(model, &ExperimentConfig::default());
    let rows = engine.run_table(&golden_benchmarks(), reschedule_first, 2);
    let text = format_table(title, model, &rows, reschedule_first);
    check_golden(name, &text);
    engine
}

/// The published full-suite tables under `results/` must agree with
/// the golden subset on the benchmarks they share: a snapshot update
/// without a `results/` regeneration (or vice versa) fails here.
#[test]
fn published_results_tables_agree_with_golden_rows() {
    let results = eel_bench::results_dir();
    for name in ["table1.txt", "table2.txt", "table3.txt"] {
        let golden = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        let published = std::fs::read_to_string(results.join(name))
            .unwrap_or_else(|e| panic!("missing results/{name}: {e}"));
        for bench in ["130.li", "104.hydro2d"] {
            let g = golden
                .lines()
                .find(|l| l.starts_with(bench))
                .unwrap_or_else(|| panic!("no {bench} row in golden {name}"));
            let p = published
                .lines()
                .find(|l| l.starts_with(bench))
                .unwrap_or_else(|| panic!("no {bench} row in results/{name}"));
            assert_eq!(
                g, p,
                "results/{name} is stale on {bench}: regenerate it with \
                 `eel results NAME > results/NAME.txt`"
            );
        }
    }
}

/// `eel results gap_report`'s output — the branch-and-bound
/// oracle vs the list scheduler over the golden pair's instrumented
/// blocks, on the UltraSPARC and the hyperSPARC — pinned byte-for-byte.
/// Any change to the oracle's search, bounds, or fallback semantics
/// that alters a single block's proven gap fails here.
#[test]
fn gap_report_matches_golden_snapshot() {
    let mut text = String::new();
    for (k, model) in [MachineModel::ultrasparc(), MachineModel::hypersparc()]
        .iter()
        .enumerate()
    {
        let rows = gap_table(model, &golden_benchmarks(), 2);
        if k > 0 {
            text.push('\n');
        }
        text.push_str(&format_gap_report(
            &format!(
                "Optimality gap (golden subset): exact oracle vs the list scheduler on the {}",
                model.name()
            ),
            &rows,
        ));
    }
    check_golden("gap_report.txt", &text);
    // The published copy is the same subset: it must match exactly.
    let published = eel_bench::results_dir().join("gap_report.txt");
    if std::env::var_os("EEL_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&published, &text).unwrap();
    } else {
        let on_disk = std::fs::read_to_string(&published)
            .unwrap_or_else(|e| panic!("missing results/gap_report.txt: {e}"));
        assert_eq!(
            on_disk, text,
            "results/gap_report.txt is stale: regenerate with \
             EEL_UPDATE_GOLDEN=1 cargo test -p eel-bench --test golden_tables"
        );
    }
}

/// A deterministic synthetic corpus of basic blocks, mixing original
/// and instrumentation-tagged instructions over a small register pool
/// so RAW/WAR/WAW hazards and memory edges are dense.
fn digest_corpus() -> Vec<BlockCode> {
    let mut x: u64 = 0xD1B5_4A32_D192_ED03;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let reg = |r: u64| -> IntReg {
        let r = (r % 8) as u8;
        if r < 6 {
            IntReg::new(8 + r)
        } else {
            IntReg::new(16 + (r - 6))
        }
    };
    (0..300)
        .map(|_| {
            let n = 2 + (rnd() % 14) as usize;
            let body: Vec<Tagged> = (0..n)
                .map(|i| {
                    let insn = match rnd() % 6 {
                        0 => Instruction::Alu {
                            op: AluOp::Add,
                            rs1: reg(rnd()),
                            src2: Operand::imm(i as i32 + 1),
                            rd: reg(rnd()),
                        },
                        1 => Instruction::Alu {
                            op: AluOp::Sub,
                            rs1: reg(rnd()),
                            src2: Operand::imm(i as i32 + 1),
                            rd: reg(rnd()),
                        },
                        2 => Instruction::Load {
                            width: MemWidth::Word,
                            addr: Address::base_imm(reg(rnd()), 4 * i as i32),
                            rd: reg(rnd()),
                        },
                        3 => Instruction::Store {
                            width: MemWidth::Word,
                            src: reg(rnd()),
                            addr: Address::base_imm(IntReg::SP, 4 * i as i32),
                        },
                        4 => Instruction::Sethi {
                            imm22: 0x1000 + i as u32,
                            rd: reg(rnd()),
                        },
                        _ => Instruction::Fp {
                            op: FpOp::FAddS,
                            rs1: FpReg::new((rnd() % 8) as u8),
                            rs2: FpReg::new((rnd() % 8) as u8),
                            rd: FpReg::new(16 + (i as u8 % 16)),
                        },
                    };
                    if rnd() % 3 == 0 {
                        Tagged::instrumentation(insn)
                    } else {
                        Tagged::original(insn)
                    }
                })
                .collect();
            BlockCode { body, tail: vec![] }
        })
        .collect()
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Pins every list policy's schedules on all six shipped machines
/// byte-for-byte: any change to the candidate loop that alters a
/// single pick fails here against the checked-in snapshot. `queries=`
/// is the `sched.queries` total, so a change in the number of stall
/// queries issued shows too and must be re-baselined deliberately.
#[test]
fn list_schedule_digests_are_pinned() {
    let corpus = digest_corpus();
    let mut text = String::new();
    for priority in Priority::ALL {
        for model in MachineModel::shipped() {
            let sched = Scheduler::with_options(
                model.clone(),
                SchedOptions {
                    priority,
                    ..SchedOptions::default()
                },
            );
            let reg = Registry::new();
            let mut schedule = sched.transform_with(&reg);
            let info = BlockInfo {
                routine: "digest",
                routine_index: 0,
                block_index: 0,
                addr: 0x10000,
            };
            let mut digest: u64 = 0xCBF2_9CE4_8422_2325;
            for block in &corpus {
                let out = schedule(info, block.clone());
                for t in &out.body {
                    fnv1a(
                        &mut digest,
                        format!("{:?}|{}\n", t.origin, t.insn).as_bytes(),
                    );
                }
                fnv1a(&mut digest, b"--\n");
            }
            text.push_str(&format!(
                "{:<13} {:<12} digest={digest:016x} queries={}\n",
                priority.to_string(),
                model.name(),
                reg.snapshot().counters["sched.queries"]
            ));
        }
    }
    check_golden("sched_digest.txt", &text);
}

#[test]
fn table1_matches_golden_snapshot() {
    let engine = run_golden(
        "table1.txt",
        &MachineModel::ultrasparc(),
        "Table 1 (golden subset): slow profiling on the UltraSPARC",
        false,
    );
    let counters: String = engine
        .telemetry()
        .snapshot()
        .counters
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect();
    check_golden("table1_counters.txt", &counters);
}

#[test]
fn table2_matches_golden_snapshot() {
    run_golden(
        "table2.txt",
        &MachineModel::ultrasparc(),
        "Table 2 (golden subset): slow profiling on the UltraSPARC, originals rescheduled",
        true,
    );
}

#[test]
fn table3_matches_golden_snapshot() {
    run_golden(
        "table3.txt",
        &MachineModel::supersparc(),
        "Table 3 (golden subset): slow profiling on the SuperSPARC",
        false,
    );
}

// The two machines beyond the paper's four get their own golden
// columns under the same Table 1 protocol.

#[test]
fn vliw_table_matches_golden_snapshot() {
    run_golden(
        "table_vliw.txt",
        &MachineModel::vliw(),
        "Extension (golden subset): slow profiling on the VLIW",
        false,
    );
}

#[test]
fn deepsparc_table_matches_golden_snapshot() {
    run_golden(
        "table_deepsparc.txt",
        &MachineModel::deepsparc(),
        "Extension (golden subset): slow profiling on the DeepSPARC",
        false,
    );
}
