//! `eel sadl FILE` on a description the pipeline model cannot compile
//! runs the real binary: the error is one `eel: ...` line on stderr,
//! the exit status is 1, and nothing panics or overflows its stack.

use std::process::Command;

/// Runs `eel sadl` on `src` and returns its stderr, after checking the
/// one-line error contract.
fn sadl_error(name: &str, src: &str) -> String {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "eel-sadl-errors-{name}-{}.sadl",
        std::process::id()
    ));
    std::fs::write(&path, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_eel"))
        .arg("sadl")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    stderr
}

#[test]
fn unpackable_unit_lanes_are_a_one_line_error() {
    // Five units whose widest count needs 12 bits: five 13-bit lanes,
    // one bit more than a packed reservation row holds.
    let src = eel_sadl::descriptions::MICROSPARC.replacen("unit Group 1", "unit Group 4000", 1);
    assert_ne!(src, eel_sadl::descriptions::MICROSPARC);
    let stderr = sadl_error("lanes", &src);
    assert!(
        stderr.starts_with("eel: unsupported description: machine `microSPARC`"),
        "{stderr}"
    );
    assert!(stderr.contains("65 bits"), "{stderr}");
    assert!(stderr.contains("Group 4000, ALU 1"), "{stderr}");
}

#[test]
fn endless_and_deep_recursion_are_one_line_errors() {
    // A self-application evaluates forever; 200,000 brackets nest far
    // past the parser's bound. Each used to overflow the stack.
    let endless = "machine m 1 1\nunit U 1\nsem s is (\\x. x x) (\\x. x x)\n";
    let deep = format!(
        "machine m 1 1\nunit U 1\nsem s is {}D 1{}\n",
        "(".repeat(200_000),
        ")".repeat(200_000)
    );
    for (name, src) in [("endless", endless), ("deep", deep.as_str())] {
        let stderr = sadl_error(name, src);
        assert!(stderr.starts_with("eel: SADL error: 3:"), "{stderr}");
        assert!(stderr.contains("in sem `s`"), "{stderr}");
        let bound = format!("deeper than {} levels", eel_sadl::MAX_NESTING);
        assert!(stderr.contains(&bound), "{stderr}");
    }
}

#[test]
fn an_error_inside_a_sem_names_its_position_once() {
    let src = "machine m 1 1\nunit U 1\nsem s is A W\n";
    let stderr = sadl_error("undeclared", src);
    assert_eq!(
        stderr.trim_end(),
        "eel: SADL error: 3:1: in sem `s`: undeclared unit `W`"
    );
}

#[test]
fn repeated_vals_are_a_one_line_error() {
    // Each `val` repeats the one before 1,000 times: 12 KB that would
    // expand `v0` 10^9 times at only a few levels deep.
    let mut src = String::from("machine m 1 1\nunit U 1\nval v0 is ()\n");
    for n in 1..=3 {
        let copies = vec![format!("v{}", n - 1); 1_000];
        src.push_str(&format!("val v{n} is {}\n", copies.join(", ")));
    }
    src.push_str("sem s is v3\n");
    let stderr = sadl_error("repeated", &src);
    assert!(stderr.starts_with("eel: SADL error: 7:"), "{stderr}");
    assert!(stderr.contains("in sem `s`"), "{stderr}");
    let bound = format!("more than {} steps", eel_sadl::MAX_EVALUATIONS);
    assert!(stderr.contains(&bound), "{stderr}");
}
