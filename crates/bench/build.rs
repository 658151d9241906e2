//! Digests the sources a cached cell's value depends on, so the
//! engine's disk cells name the code that computed them.
//!
//! The digest is FNV-1a over every file under [`SOURCES`], in sorted
//! order of its path relative to the workspace root, folding in the
//! path and then the file's bytes. Cargo reruns this script when any
//! of those files changes, and the engine `include!`s the result from
//! `$OUT_DIR/code_digest.rs`.

use std::fs;
use std::path::{Path, PathBuf};

/// Workspace-relative directories (walked recursively) and files whose
/// contents determine a cell: the generator and workload compiler, the
/// machine descriptions and pipeline model, the editor, scheduler and
/// profiler, the simulator, and the engine's own measurement code.
const SOURCES: &[&str] = &[
    "crates/sparc/src",
    "crates/sadl/src",
    "crates/pipeline/src",
    "crates/eel/src",
    "crates/core/src",
    "crates/qpt/src",
    "crates/sim/src",
    "crates/workloads/src",
    "crates/bench/src/engine.rs",
    "crates/bench/src/experiment.rs",
];

fn collect(root: &Path, rel: &str, out: &mut Vec<String>) {
    let path = root.join(rel);
    if path.is_dir() {
        let entries = fs::read_dir(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for entry in entries {
            let name = entry.expect("directory entry").file_name();
            let name = name.to_str().expect("source paths are UTF-8");
            collect(root, &format!("{rel}/{name}"), out);
        }
    } else {
        out.push(rel.to_string());
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.join("../..");
    let mut files = Vec::new();
    for rel in SOURCES {
        println!("cargo:rerun-if-changed={}", root.join(rel).display());
        collect(&root, rel, &mut files);
    }
    files.sort();

    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for rel in &files {
        let bytes = fs::read(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        fold(rel.as_bytes());
        fold(&[0]);
        fold(&bytes);
        fold(&[0]);
    }

    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    let text = format!(
        "/// FNV-1a of the sources `build.rs` lists.\n\
         const CODE_DIGEST: u64 = {h:#018x};\n\
         /// The workspace-relative sources [`CODE_DIGEST`] covers.\n\
         #[cfg(test)]\n\
         const CODE_SOURCES: &[&str] = &{SOURCES:?};\n"
    );
    fs::write(out.join("code_digest.rs"), text).expect("write the code digest");
}
