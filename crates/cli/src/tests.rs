use std::collections::BTreeSet;

use eel_bench::experiment::{ExperimentConfig, Measurement};
use eel_bench::{results_dir, workspace_root};
use eel_telemetry::json::Json;

use super::*;

fn call(args: &[&str]) -> Result<String, CliError> {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    dispatch(&v)
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("eel-cli-test-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn help_lists_commands() {
    let out = call(&["help"]).unwrap();
    assert!(out.contains("instrument"));
    assert!(out.contains("profile"));
}

#[test]
fn list_benchmarks_and_machines() {
    let out = call(&["list-benchmarks"]).unwrap();
    assert!(out.contains("130.li"));
    assert_eq!(out.lines().count(), 18);
    let out = call(&["machines"]).unwrap();
    assert!(out.contains("UltraSPARC"));
    assert!(out.contains("4-way"));
    assert!(out.contains("VLIW"), "{out}");
    assert!(out.contains("6-way"), "{out}");
    assert!(out.contains("DeepSPARC"), "{out}");
    assert_eq!(out.lines().count(), 6);
}

#[test]
fn new_machines_run_and_schedule() {
    let f = tmp("li-new-machines.eelx");
    call(&["gen", "130.li", "-o", &f, "--iterations", "2"]).unwrap();
    let r = call(&["run", &f, "--machine", "vliw"]).unwrap();
    assert!(r.contains("cycles on VLIW"), "{r}");
    let r = call(&["run", &f, "--machine", "deepsparc"]).unwrap();
    assert!(r.contains("cycles on DeepSPARC"), "{r}");
    let e = call(&["run", &f, "--machine", "z80"])
        .unwrap_err()
        .to_string();
    assert!(e.contains("deepsparc"), "error lists the machines: {e}");
    std::fs::remove_file(&f).ok();
}

#[test]
fn gen_optimize_writes_the_engines_build() {
    // The tables compile every original for the measured machine (the
    // nominal model with the experiments' load bias); `gen --optimize`
    // must write that same image, not the nominal-model build.
    let f = tmp("tomcatv-opt.eelx");
    call(&[
        "gen",
        "101.tomcatv",
        "-o",
        &f,
        "--optimize",
        "ultrasparc",
        "--iterations",
        "2",
    ])
    .unwrap();
    let bench = eel_workloads::spec95()
        .into_iter()
        .find(|b| b.name == "101.tomcatv")
        .unwrap();
    let cfg = ExperimentConfig {
        iterations: Some(2),
        ..ExperimentConfig::default()
    };
    let measured = bench.build(&Measurement::new(&MachineModel::ultrasparc(), &cfg).build);
    let written = load(&f).unwrap();
    assert!(
        written.text() == measured.text() && written.data() == measured.data(),
        "gen --optimize wrote another image than the tables build"
    );
    let nominal = bench.build(&eel_workloads::BuildOptions {
        iterations: Some(2),
        optimize: Some(MachineModel::ultrasparc()),
    });
    assert!(
        written.text() != nominal.text(),
        "tomcatv compiles differently for the nominal model"
    );
    let bias = cfg.mem_bias;
    assert!(
        USAGE.contains(&format!("loads {bias} cycles")),
        "usage names the bias"
    );
    std::fs::remove_file(&f).ok();
}

#[test]
fn explain_accepts_every_policy() {
    let f = tmp("li-policy.eelx");
    call(&["gen", "130.li", "-o", &f, "--iterations", "2"]).unwrap();
    for policy in ["stalls-first", "chain-first", "load-delay", "lookahead:2"] {
        let out = call(&["explain", &f, "--policy", policy]).unwrap();
        assert!(out.contains(&format!("({policy})")), "{policy}: {out}");
        assert!(out.contains("after:"), "{policy}: {out}");
    }
    let e = call(&["explain", &f, "--policy", "random"])
        .unwrap_err()
        .to_string();
    assert!(e.contains("unknown policy"), "{e}");
    assert!(e.contains("exact"), "error lists the oracle too: {e}");
    std::fs::remove_file(&f).ok();
}

#[test]
fn explain_exact_renders_the_gap() {
    let f = tmp("li-exact.eelx");
    call(&["gen", "130.li", "-o", &f, "--iterations", "2"]).unwrap();
    // `--exact` adds an oracle line with each block's optimality
    // gap; small benchmark blocks are well inside the budget.
    let out = call(&["explain", &f, "--exact"]).unwrap();
    assert!(out.contains("exact:"), "{out}");
    assert!(out.contains("gap"), "{out}");
    assert!(out.contains("proven optimal"), "{out}");
    // `--policy exact` schedules with the oracle and implies the
    // gap rendering.
    let out = call(&["explain", &f, "--policy", "exact"]).unwrap();
    assert!(out.contains("(exact)"), "{out}");
    assert!(out.contains("exact:"), "{out}");
    // A starved search still exits cleanly: it reports the cut and
    // keeps the list schedule, so no gap is ever won. (130.li's
    // blocks are small enough that the root bound proves them all
    // without searching, so the starvation needs a denser FP
    // benchmark.)
    let g = tmp("hydro2d-exact.eelx");
    call(&["gen", "104.hydro2d", "-o", &g, "--iterations", "2"]).unwrap();
    let out = call(&["explain", &g, "--exact", "--exact-budget", "1"]).unwrap();
    assert!(out.contains("budget exhausted"), "{out}");
    assert!(out.contains("list schedule kept"), "{out}");
    assert!(
        !out.contains("gap   1"),
        "starved oracle can't win cycles: {out}"
    );
    let e = call(&["explain", &f, "--exact-budget", "9"])
        .unwrap_err()
        .to_string();
    assert!(e.contains("--exact"), "{e}");
    std::fs::remove_file(&f).ok();
    std::fs::remove_file(&g).ok();
}

#[test]
fn gen_disasm_cfg_run_roundtrip() {
    let f = tmp("li.eelx");
    let out = call(&["gen", "130.li", "-o", &f, "--iterations", "3"]).unwrap();
    assert!(out.contains("wrote"));
    let image = std::fs::read(&f).unwrap();
    let d = call(&["disasm", &f]).unwrap();
    assert!(d.starts_with("main:"));
    let c = call(&["cfg", &f]).unwrap();
    assert!(c.contains("routine 0 `main`"));
    let r = call(&["run", &f, "--machine", "ultrasparc"]).unwrap();
    assert!(r.contains("cycles on UltraSPARC"), "{r}");
    // Flags may come before the positional argument: neither a flag
    // nor its value is taken for the file or benchmark name.
    assert_eq!(call(&["run", "--machine", "ultrasparc", &f]).unwrap(), r);
    let e = call(&["explain", &f, "--machine", "hypersparc"]).unwrap();
    assert_eq!(
        call(&["explain", "--machine", "hypersparc", &f]).unwrap(),
        e
    );
    assert_eq!(
        call(&["gen", "-o", &f, "--iterations", "3", "130.li"]).unwrap(),
        out
    );
    assert_eq!(std::fs::read(&f).unwrap(), image);
    std::fs::remove_file(&f).ok();
}

#[test]
fn instrument_modes_and_schedule() {
    let f = tmp("go.eelx");
    let g = tmp("go-inst.eelx");
    call(&["gen", "099.go", "-o", &f, "--iterations", "2"]).unwrap();
    for mode in ["slow", "fast", "trace"] {
        let out = call(&[
            "instrument",
            &f,
            "-o",
            &g,
            "--mode",
            mode,
            "--schedule",
            "ultrasparc",
        ])
        .unwrap();
        assert!(out.contains("scheduled for UltraSPARC"), "{mode}: {out}");
        let r = call(&["run", &g]).unwrap();
        assert!(r.contains("exit code"), "{mode}");
    }
    std::fs::remove_file(&f).ok();
    std::fs::remove_file(&g).ok();
}

#[test]
fn profile_reports_counts() {
    let f = tmp("compress.eelx");
    call(&["gen", "129.compress", "-o", &f, "--iterations", "2"]).unwrap();
    for mode in ["slow", "fast"] {
        let out = call(&["profile", &f, "--mode", mode]).unwrap();
        assert!(out.contains("executions"), "{mode}: {out}");
        assert!(out.lines().count() > 50, "{mode}");
    }
    std::fs::remove_file(&f).ok();
}

#[test]
fn explain_attributes_block_stalls() {
    let f = tmp("li-explain.eelx");
    call(&["gen", "130.li", "-o", &f, "--iterations", "2"]).unwrap();
    let out = call(&["explain", &f]).unwrap();
    assert!(out.contains("stall attribution on UltraSPARC"), "{out}");
    assert!(out.contains("before:"), "{out}");
    assert!(out.contains("after:"), "{out}");

    // Single-block mode adds tables, traces, and a Chrome trace.
    let j = tmp("explain.json");
    let out = call(&[
        "explain",
        &f,
        "--machine",
        "supersparc",
        "--block",
        "0",
        "--chrome",
        &j,
    ])
    .unwrap();
    assert!(out.contains("before scheduling:"), "{out}");
    assert!(out.contains("after scheduling:"), "{out}");
    assert!(out.contains("cycle"), "{out}");
    let json = std::fs::read_to_string(&j).unwrap();
    assert!(json.contains("\"traceEvents\""), "{json}");

    // --chrome is one block per trace.
    let e = call(&["explain", &f, "--chrome", &j])
        .unwrap_err()
        .to_string();
    assert!(e.contains("--block"), "{e}");
    let e = call(&["explain", &f, "--routine", "99"])
        .unwrap_err()
        .to_string();
    assert!(e.contains("no routine"), "{e}");

    // A block's per-cycle issue trace, unscheduled, opens the
    // "before scheduling:" section.
    let g = tmp("ijpeg-explain.eelx");
    call(&["gen", "132.ijpeg", "-o", &g, "--iterations", "2"]).unwrap();
    let out = call(&[
        "explain",
        &g,
        "--machine",
        "supersparc",
        "--routine",
        "0",
        "--block",
        "1",
    ])
    .unwrap();
    let exe = load(&g).unwrap();
    let blk = &eel_edit::Cfg::build(&exe).unwrap().routines[0].blocks[1];
    let insns: Vec<_> = exe.text()[blk.start..blk.start + blk.len]
        .iter()
        .map(|&w| eel_sparc::Instruction::decode(w))
        .collect();
    let trace = eel_pipeline::render_issue_trace(&MachineModel::supersparc(), &insns);
    assert!(trace.contains("cycle"), "{trace}");
    let indented: String = trace.lines().map(|l| format!("  {l}\n")).collect();
    assert!(
        out.contains(&format!("before scheduling:\n{indented}")),
        "{out}"
    );
    std::fs::remove_file(&f).ok();
    std::fs::remove_file(&g).ok();
    std::fs::remove_file(&j).ok();
}

#[test]
fn sadl_command_validates_descriptions() {
    let f = tmp("machine.sadl");
    std::fs::write(&f, eel_sadl::descriptions::HYPERSPARC).unwrap();
    let out = call(&["sadl", &f]).unwrap();
    assert!(out.contains("hyperSPARC: 2-way issue"), "{out}");
    assert!(out.contains("every instruction covered"));
    let out = call(&["sadl", &f, "--groups"]).unwrap();
    assert!(out.contains("add"), "{out}");
    // A broken description reports the error, not a panic.
    std::fs::write(&f, "machine broken 1 1\nsem add is AR Bogus, D 1").unwrap();
    let e = call(&["sadl", &f]).unwrap_err().to_string();
    assert!(e.contains("undeclared unit"), "{e}");
    std::fs::remove_file(&f).ok();
}

#[test]
fn experiment_runs_one_benchmark_with_stats() {
    let out = call(&[
        "experiment",
        "--benchmark",
        "130.li",
        "--iterations",
        "40",
        "--jobs",
        "2",
        "--no-cache",
    ])
    .unwrap();
    assert!(out.contains("130.li"), "{out}");
    assert!(out.contains("engine: 3 simulator invocations"), "{out}");
    let csv = call(&[
        "experiment",
        "--benchmark",
        "130.li",
        "--iterations",
        "40",
        "--no-cache",
        "--csv",
    ])
    .unwrap();
    assert!(csv.starts_with("benchmark,suite,"), "{csv}");
}

#[test]
fn experiment_policy_flag_changes_the_title_not_the_protocol() {
    let out = call(&[
        "experiment",
        "--benchmark",
        "130.li",
        "--iterations",
        "40",
        "--jobs",
        "2",
        "--no-cache",
        "--policy",
        "chain-first",
    ])
    .unwrap();
    assert!(out.contains("chain-first policy"), "{out}");
    assert!(out.contains("130.li"), "{out}");
    assert!(out.contains("engine: 3 simulator invocations"), "{out}");
    // The default policy keeps the published title untouched.
    let out = call(&[
        "experiment",
        "--benchmark",
        "130.li",
        "--iterations",
        "40",
        "--jobs",
        "2",
        "--no-cache",
        "--policy",
        "stalls-first",
    ])
    .unwrap();
    assert!(!out.contains("policy"), "{out}");
    let e = call(&["experiment", "--policy", "bogus"])
        .unwrap_err()
        .to_string();
    assert!(e.contains("unknown policy"), "{e}");
}

#[test]
fn experiment_exact_policy_runs_the_oracle() {
    // A tiny node budget keeps the oracle cheap: most blocks fall
    // back to the list incumbent, but the protocol and table shape
    // are identical to every other policy.
    let out = call(&[
        "experiment",
        "--benchmark",
        "130.li",
        "--iterations",
        "40",
        "--jobs",
        "2",
        "--no-cache",
        "--policy",
        "exact",
        "--exact-budget",
        "256",
    ])
    .unwrap();
    assert!(out.contains("exact policy"), "{out}");
    assert!(out.contains("130.li"), "{out}");
    let e = call(&["experiment", "--exact-budget", "256"])
        .unwrap_err()
        .to_string();
    assert!(e.contains("--policy exact"), "{e}");
}

#[test]
fn experiment_trace_records_renders_and_checks() {
    let t = tmp("trace-run.jsonl");
    let out = call(&[
        "experiment",
        "--benchmark",
        "130.li",
        "--iterations",
        "40",
        "--jobs",
        "2",
        "--no-cache",
        "--trace",
        &t,
    ])
    .unwrap();
    assert!(out.contains(&format!("wrote trace {t} (")), "{out}");
    // `--trace` takes the path; there is no second trace flag.
    let e = call(&["experiment", "--trace-out", &t])
        .unwrap_err()
        .to_string();
    assert!(e.contains("unexpected argument `--trace-out`"), "{e}");
    let rendered = call(&["trace", &t]).unwrap();
    assert!(rendered.starts_with("trace:"), "{rendered}");
    assert!(rendered.contains("timeline"), "{rendered}");
    assert!(rendered.contains("self time by category"), "{rendered}");
    assert!(rendered.contains("engine"), "{rendered}");
    // The flag may come before the file.
    let limited = call(&["trace", &t, "--limit", "5"]).unwrap();
    assert_ne!(limited, rendered, "--limit caps the timeline");
    assert_eq!(call(&["trace", "--limit", "5", &t]).unwrap(), limited);
    // Every instrumented layer recorded: engine stages, cell
    // decisions, scheduler passes, simulator runs.
    let checked = call(&["trace", &t, "--check", "engine,cell,sched,sim"]).unwrap();
    assert!(checked.contains("check engine:"), "{checked}");
    assert!(checked.contains("check chrome:"), "{checked}");
    // A category with no events fails the check: no layer records
    // `lock` events.
    let e = call(&["trace", &t, "--check", "lock"])
        .unwrap_err()
        .to_string();
    assert!(e.contains("`lock` recorded no events"), "{e}");
    // The Chrome export parses and carries the trace events.
    let j = tmp("trace-run-chrome.json");
    let out = call(&["trace", &t, "--chrome", &j]).unwrap();
    assert!(out.contains("perfetto"), "{out}");
    let chrome = std::fs::read_to_string(&j).unwrap();
    let parsed = Json::parse(&chrome).expect("valid chrome JSON");
    match parsed.get("traceEvents") {
        Some(Json::Arr(events)) => assert!(!events.is_empty()),
        other => panic!("no traceEvents: {other:?}"),
    }
    assert!(chrome.contains("engine/baseline"), "{chrome}");
    std::fs::remove_file(&t).ok();
    std::fs::remove_file(&j).ok();
}

#[test]
fn report_renders_and_diffs() {
    let p = tmp("report.json");
    call(&[
        "experiment",
        "--benchmark",
        "130.li",
        "--iterations",
        "40",
        "--jobs",
        "1",
        "--no-cache",
        "--report",
        &p,
    ])
    .unwrap();
    let out = call(&["report", &p]).unwrap();
    assert!(out.contains("counters:"), "{out}");
    assert!(out.contains("sim.instructions"), "{out}");
    assert!(out.contains("sched.blocks"), "{out}");
    let json = call(&["report", &p, "--json"]).unwrap();
    assert!(json.contains("\"schema\": \"eel-run-report\""), "{json}");
    // A report diffed against itself has only zero deltas.
    let diff = call(&["report", "--diff", &p, &p]).unwrap();
    assert!(diff.contains("reports are identical"), "{diff}");
    assert!(!diff.contains("one-sided"), "{diff}");
    let dj = call(&["report", "--diff", &p, &p, "--json"]).unwrap();
    assert!(dj.contains("\"eel-report-diff\""), "{dj}");
    std::fs::remove_file(&p).ok();
}

#[test]
fn report_errors_are_typed_not_panics() {
    let e = call(&["report", "/nonexistent-report.json"])
        .unwrap_err()
        .to_string();
    assert!(e.contains("nonexistent-report"), "{e}");

    let p = tmp("bad-report.json");
    std::fs::write(&p, "{ not json").unwrap();
    let e = call(&["report", &p]).unwrap_err().to_string();
    assert!(e.contains("invalid JSON"), "{e}");

    std::fs::write(&p, "{\"schema\": \"something-else\", \"version\": 1}").unwrap();
    let e = call(&["report", &p]).unwrap_err().to_string();
    assert!(e.contains("not a run report"), "{e}");

    std::fs::write(&p, "{\"schema\": \"eel-run-report\", \"version\": 99}").unwrap();
    let e = call(&["report", &p]).unwrap_err().to_string();
    assert!(e.contains("unsupported run report version 99"), "{e}");

    let e = call(&["report", "--diff", &p]).unwrap_err().to_string();
    assert!(e.contains("OLD NEW"), "{e}");
    std::fs::remove_file(&p).ok();
}

#[test]
fn errors_are_user_facing() {
    assert!(call(&["frobnicate"])
        .unwrap_err()
        .to_string()
        .contains("unknown command"));
    // One process computes every table: there is no shard flag and no
    // merge command.
    assert!(call(&["merge", "a.json"])
        .unwrap_err()
        .to_string()
        .contains("unknown command `merge`"));
    assert!(call(&["experiment", "--shard", "1/2"])
        .unwrap_err()
        .to_string()
        .contains("unexpected argument `--shard`"));
    assert!(call(&["experiment", "--corpus", "bogus-corpus"])
        .unwrap_err()
        .to_string()
        .contains("neither a built-in corpus"));
    assert!(call(&["gen", "nope", "-o", "x"])
        .unwrap_err()
        .to_string()
        .contains("unknown benchmark"));
    assert!(call(&["run", "/nonexistent.eelx"])
        .unwrap_err()
        .to_string()
        .contains("nonexistent"));
    assert!(call(&["gen", "130.li"])
        .unwrap_err()
        .to_string()
        .contains("-o"));
    assert!(call(&["instrument", "x", "-o", "y", "--mode", "weird"])
        .unwrap_err()
        .to_string()
        .contains("x"));
    // Huge cycle counts are one-line errors, not allocation aborts.
    let f = tmp("huge-bias.eelx");
    call(&["gen", "130.li", "-o", &f, "--iterations", "1"]).unwrap();
    for bias in ["4000000000", "4294967295"] {
        let e = call(&["run", &f, "--machine", "ultrasparc", "--load-bias", bias])
            .unwrap_err()
            .to_string();
        assert!(e.contains(&format!("--load-bias {bias} is above")), "{e}");
    }
    std::fs::remove_file(&f).ok();
    let s = tmp("huge-delay.sadl");
    std::fs::write(&s, "machine m 1 1\nsem x is D 4000000000\n").unwrap();
    let e = call(&["sadl", &s]).unwrap_err().to_string();
    assert!(e.contains("sem `x`"), "{e}");
    std::fs::remove_file(&s).ok();
    // So is a unit held more than u32::MAX times at once.
    let s = tmp("overheld.sadl");
    let src = eel_sadl::descriptions::MICROSPARC.replacen(
        "(\\op. single, D 1, s1 := R[rs1], s2 := src2,",
        "(\\op. A ALU 3000000000, D 1, A ALU 3000000000, D 1, R ALU 3000000000, \
         D 1, R ALU 3000000000, single, D 1, s1 := R[rs1], s2 := src2,",
        1,
    );
    std::fs::write(&s, src).unwrap();
    let e = call(&["sadl", &s]).unwrap_err().to_string();
    assert!(
        e.contains("holds unit `ALU` more than 4294967295 times"),
        "{e}"
    );
    std::fs::remove_file(&s).ok();
}

/// A two-program generated corpus: small enough to run the full table
/// protocol at default iterations in a unit test.
fn tiny_corpus(name: &str) -> String {
    let manifest = tmp(name);
    std::fs::write(&manifest, "# eel-corpus-v1\ngen small 2 7\n").unwrap();
    manifest
}

#[test]
fn results_table1_and_experiment_share_one_table_driver() {
    let manifest = tiny_corpus("results-vs-experiment.txt");
    // `results table1` reads through the shared artifact cache, whose
    // cells are content-keyed, so its rows must equal a `--no-cache`
    // experiment's; the experiment appends engine stats after them.
    let results = call(&["results", "table1", "--corpus", &manifest, "--csv"]).unwrap();
    let experiment = call(&["experiment", "--corpus", &manifest, "--no-cache", "--csv"]).unwrap();
    assert_eq!(results.lines().count(), 3, "{results}");
    assert!(
        experiment.starts_with(&results),
        "{results}\n---\n{experiment}"
    );
    // The rendered table differs only in its fixed title and the
    // trailing newline the published file carries.
    let text = call(&["results", "table1", "--corpus", &manifest]).unwrap();
    let title = "Table 1: Slow profiling instrumentation on the UltraSPARC\n";
    let body = text.strip_prefix(title).expect("Table 1 title");
    let experiment = call(&["experiment", "--corpus", &manifest, "--no-cache"]).unwrap();
    let exp_body = experiment.split_once('\n').unwrap().1;
    assert!(
        exp_body.starts_with(body.strip_suffix('\n').unwrap()),
        "{text}\n---\n{experiment}"
    );
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn results_names_are_the_published_files() {
    // `results/` holds exactly one `NAME.txt` per published result and
    // nothing else: no command writes anything there.
    let names: BTreeSet<String> = results::RESULTS
        .iter()
        .map(|(n, _)| format!("{n}.txt"))
        .collect();
    let published: BTreeSet<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names, published);
}

#[test]
fn results_without_a_known_name_lists_the_names() {
    for argv in [&["results"][..], &["results", "table4"]] {
        let e = call(argv).unwrap_err().to_string();
        for (name, _) in results::RESULTS {
            assert!(e.contains(name), "{argv:?}: {e}");
        }
    }
    let e = call(&["results", "table4"]).unwrap_err().to_string();
    assert!(e.starts_with("unknown result `table4`"), "{e}");
}

#[test]
fn results_regenerate_the_published_files() {
    for name in ["figure2", "gap_report"] {
        let published = std::fs::read_to_string(results_dir().join(format!("{name}.txt"))).unwrap();
        assert_eq!(call(&["results", name]).unwrap(), published, "{name}");
    }
}

#[test]
fn bad_flags_are_one_line_errors_not_fallbacks() {
    // Each must fail before any work: ignoring the typo would run the
    // full table, a fallback would pick the wrong worker count, and a
    // panic is not a diagnostic.
    for (argv, want) in [
        (
            &["results", "table1", "--shrad", "1/2"][..],
            "unexpected argument `--shrad`",
        ),
        (&["results", "table1", "--jobs", "abc"], "bad --jobs `abc`"),
        (&["experiment", "--jobs", "abc"], "bad --jobs `abc`"),
        (&["results", "summary", "--jobs"], "--jobs needs a value"),
        // The ablations always run the published configuration.
        (
            &["results", "ablations", "--iterations", "2"],
            "unexpected argument `--iterations`",
        ),
        (
            &["results", "gap_report", "--budget", "lots"],
            "bad --budget `lots`",
        ),
        (
            &["results", "gap_report", "--machine", "z80"],
            "unknown machine `z80`",
        ),
        (
            &["results", "figure2", "--csv"],
            "unexpected argument `--csv`",
        ),
        // `results` hands its flags to the generator NAME picks, so
        // NAME must come first; a flag's value is never taken for it.
        (
            &["results", "--jobs", "2", "table1"],
            "results needs NAME before its flags",
        ),
        // A flag this command does not know is never its positional.
        (&["run", "-x", "li.eelx"], "unexpected argument `-x`"),
    ] {
        let msg = call(argv).unwrap_err().to_string();
        assert!(msg.contains(want), "{argv:?}: {msg}");
        assert!(!msg.contains('\n'), "{argv:?}: one line: {msg}");
    }
}

#[test]
fn runs_publish_nothing_without_report() {
    let runs = || -> BTreeSet<String> {
        std::fs::read_dir(results_dir())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("RUN_"))
            .collect()
    };
    let trajectories =
        || [workspace_root(), results_dir()].map(|d| d.join("BENCH_engine.json").exists());
    let before = runs();
    let manifest = tiny_corpus("publish-nothing.txt");
    call(&["results", "table3", "--corpus", &manifest]).unwrap();
    call(&["experiment", "--corpus", &manifest, "--no-cache"]).unwrap();
    assert_eq!(runs(), before, "no results/RUN_*.json written");
    assert_eq!(trajectories(), [false, false], "no BENCH_engine.json");
    std::fs::remove_file(&manifest).ok();
}
