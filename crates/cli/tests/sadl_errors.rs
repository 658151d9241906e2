//! `eel sadl FILE` on a description the pipeline model cannot compile
//! runs the real binary: the error is one `eel: ...` line on stderr,
//! the exit status is 1, and nothing panics.

use std::process::Command;

#[test]
fn unpackable_unit_lanes_are_a_one_line_error() {
    // Five units whose widest count needs 12 bits: five 13-bit lanes,
    // one bit more than a packed reservation row holds.
    let src = eel_sadl::descriptions::MICROSPARC.replacen("unit Group 1", "unit Group 4000", 1);
    assert_ne!(src, eel_sadl::descriptions::MICROSPARC);
    let mut path = std::env::temp_dir();
    path.push(format!("eel-sadl-errors-{}.sadl", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_eel"))
        .arg("sadl")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("eel: unsupported description: machine `microSPARC`"),
        "{stderr}"
    );
    assert!(stderr.contains("65 bits"), "{stderr}");
    assert!(stderr.contains("Group 4000, ALU 1"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
