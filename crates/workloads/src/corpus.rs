//! Corpus manifests: named, reproducible benchmark sets.
//!
//! A corpus is a list of [`Benchmark`]s selected by a small text
//! manifest (schema [`CORPUS_SCHEMA`]). Two corpora are built in:
//!
//! * `golden` — the 18-benchmark synthetic SPEC95 suite the paper's
//!   tables run on;
//! * `full` — [`FULL_MANIFEST`], a seeded 20x corpus (360 entries)
//!   adding size tiers (small/medium/large), stress shapes (huge
//!   blocks, deep dependence chains, register-pressure extremes), and
//!   randomized block-skipping CFGs. Nightly CI runs it in one
//!   uncached process.
//!
//! The manifest grammar is line-oriented:
//!
//! ```text
//! # eel-corpus-v1
//! include spec95          # or cint95 / cfp95
//! gen small 90 101        # gen KIND COUNT SEED
//! ```
//!
//! COUNT is at most [`MAX_GEN_COUNT`].
//!
//! Generation is a pure function of `(KIND, COUNT, SEED)`: every
//! entry's name, seed, and shape derive deterministically, so two
//! processes loading the same manifest always agree on every entry
//! and on the cell keys that measure it.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{cfp95, cint95, seed_of, spec95, Benchmark, GenShape, Suite};

/// The header line every corpus manifest must start with.
pub const CORPUS_SCHEMA: &str = "# eel-corpus-v1";

/// The built-in 20x corpus: the SPEC95 suite plus 342 generated
/// entries across the size and stress tiers (360 total, 20x the
/// golden corpus).
pub const FULL_MANIFEST: &str = "\
# eel-corpus-v1
# The nightly corpus: 18 SPEC95 entries + 342 generated = 360 (20x golden).
include spec95
gen small 90 101
gen medium 70 202
gen large 40 303
gen huge-blocks 35 404
gen deep-chains 40 505
gen reg-pressure 35 606
gen random-cfg 32 707
";

/// The largest COUNT one `gen` line may ask for: far above any real
/// corpus (the built-in `full` asks for at most 90), and small enough
/// that a corrupt or hostile count is a typed error rather than an
/// allocation the process cannot survive.
pub const MAX_GEN_COUNT: usize = 10_000;

/// Why a corpus manifest failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The manifest does not start with [`CORPUS_SCHEMA`].
    MissingHeader,
    /// A line that is neither a comment nor a known directive.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// An `include` of an unknown suite name.
    UnknownSuite {
        /// 1-based line number.
        line: usize,
        /// The unknown name.
        name: String,
    },
    /// A `gen` directive with an unknown kind.
    UnknownKind {
        /// 1-based line number.
        line: usize,
        /// The unknown kind.
        name: String,
    },
    /// The manifest file could not be read.
    Io(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::MissingHeader => {
                write!(f, "corpus manifest must start with `{CORPUS_SCHEMA}`")
            }
            CorpusError::Malformed { line, what } => {
                write!(f, "corpus manifest line {line}: {what}")
            }
            CorpusError::UnknownSuite { line, name } => write!(
                f,
                "corpus manifest line {line}: unknown suite `{name}` \
                 (try: spec95, cint95, cfp95)"
            ),
            CorpusError::UnknownKind { line, name } => write!(
                f,
                "corpus manifest line {line}: unknown gen kind `{name}` (try: {})",
                GEN_KINDS.join(", ")
            ),
            CorpusError::Io(what) => write!(f, "corpus manifest: {what}"),
        }
    }
}

impl std::error::Error for CorpusError {}

/// The generator kinds `gen` directives accept.
pub(crate) const GEN_KINDS: &[&str] = &[
    "small",
    "medium",
    "large",
    "huge-blocks",
    "deep-chains",
    "reg-pressure",
    "random-cfg",
];

/// Interns `name` as a `&'static str` (benchmark names are static so
/// table rows can carry them without lifetimes). Repeated loads of
/// the same corpus reuse the same interned string.
pub fn intern_name(name: &str) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = NAMES.lock().expect("name intern lock");
    if let Some(&existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Builds one generated corpus entry. Everything derives from the
/// entry's own RNG, which derives from `(kind, seed, index)` — order
/// of construction never matters.
fn gen_bench(kind: &str, index: usize, manifest_seed: u64) -> Benchmark {
    let name = intern_name(&format!("gen.{kind}.{index:03}"));
    let mut rng = StdRng::seed_from_u64(
        seed_of(kind) ^ manifest_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index as u64,
    );
    // Per-kind profile: block size, FP mix, shape knobs, and a
    // dynamic-instruction budget that keeps the full corpus cheap
    // enough for a nightly run.
    let (tbs, fp, shape, static_budget, target_dyn) = match kind {
        "small" => (
            rng.gen_range(1.8..3.4),
            0.0,
            GenShape::default(),
            240.0,
            60_000.0,
        ),
        "medium" => {
            let fp = if rng.gen_bool(0.5) {
                rng.gen_range(0.4..0.7)
            } else {
                0.0
            };
            (
                rng.gen_range(4.0..12.0),
                fp,
                GenShape::default(),
                360.0,
                100_000.0,
            )
        }
        "large" => {
            let fp = if rng.gen_bool(0.5) {
                rng.gen_range(0.4..0.75)
            } else {
                0.0
            };
            (
                rng.gen_range(6.0..18.0),
                fp,
                GenShape::default(),
                900.0,
                220_000.0,
            )
        }
        "huge-blocks" => (
            rng.gen_range(60.0..140.0),
            rng.gen_range(0.5..0.8),
            GenShape::default(),
            520.0,
            180_000.0,
        ),
        "deep-chains" => (
            rng.gen_range(3.0..8.0),
            0.0,
            GenShape {
                chain_bias: rng.gen_range(0.90..0.98),
                ..GenShape::default()
            },
            240.0,
            90_000.0,
        ),
        "reg-pressure" => (
            rng.gen_range(4.0..10.0),
            0.0,
            GenShape {
                chain_bias: rng.gen_range(0.10..0.25),
                live_window: rng.gen_range(10..15),
                ..GenShape::default()
            },
            300.0,
            90_000.0,
        ),
        "random-cfg" => (
            rng.gen_range(2.2..6.0),
            0.0,
            GenShape {
                skip_prob: rng.gen_range(0.2..0.5),
                ..GenShape::default()
            },
            300.0,
            90_000.0,
        ),
        other => unreachable!("gen kind `{other}` validated at parse time"),
    };
    let suite = if fp > 0.3 { Suite::Cfp } else { Suite::Cint };
    let chain_blocks = ((static_budget / tbs).round() as usize).clamp(3, 320);
    let leaf_calls = if kind == "huge-blocks" {
        1
    } else if suite == Suite::Cint {
        3
    } else {
        1
    };
    let per_iter = tbs * (chain_blocks + 1 + leaf_calls) as f64;
    let iterations = ((target_dyn / per_iter).round() as u32).max(20);
    Benchmark {
        name,
        suite,
        target_block_size: tbs,
        fp_fraction: fp,
        chain_blocks,
        iterations,
        leaf_calls,
        seed: seed_of(name),
        shape,
    }
}

/// Parses a corpus manifest into its benchmark list.
///
/// # Errors
///
/// A typed [`CorpusError`] naming the offending line.
pub fn parse_manifest(text: &str) -> Result<Vec<Benchmark>, CorpusError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim() == CORPUS_SCHEMA => {}
        _ => return Err(CorpusError::MissingHeader),
    }
    let mut out = Vec::new();
    for (i, raw) in lines {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("include") => {
                let name = words.next().ok_or_else(|| CorpusError::Malformed {
                    line: line_no,
                    what: "include needs a suite name".to_string(),
                })?;
                match name {
                    "spec95" => out.extend(spec95()),
                    "cint95" => out.extend(cint95()),
                    "cfp95" => out.extend(cfp95()),
                    other => {
                        return Err(CorpusError::UnknownSuite {
                            line: line_no,
                            name: other.to_string(),
                        })
                    }
                }
            }
            Some("gen") => {
                let mut field = |what: &str| {
                    words
                        .next()
                        .map(str::to_string)
                        .ok_or(CorpusError::Malformed {
                            line: line_no,
                            what: format!("gen needs KIND COUNT SEED (missing {what})"),
                        })
                };
                let kind = field("KIND")?;
                let count = field("COUNT")?;
                let seed = field("SEED")?;
                if !GEN_KINDS.contains(&kind.as_str()) {
                    return Err(CorpusError::UnknownKind {
                        line: line_no,
                        name: kind,
                    });
                }
                let count: usize = count.parse().map_err(|_| CorpusError::Malformed {
                    line: line_no,
                    what: format!("gen COUNT `{count}` is not a number"),
                })?;
                if count > MAX_GEN_COUNT {
                    return Err(CorpusError::Malformed {
                        line: line_no,
                        what: format!("gen COUNT {count} is above the limit of {MAX_GEN_COUNT}"),
                    });
                }
                let seed: u64 = seed.parse().map_err(|_| CorpusError::Malformed {
                    line: line_no,
                    what: format!("gen SEED `{seed}` is not a number"),
                })?;
                out.extend((0..count).map(|k| gen_bench(&kind, k, seed)));
            }
            Some(other) => {
                return Err(CorpusError::Malformed {
                    line: line_no,
                    what: format!("unknown directive `{other}` (try: include, gen)"),
                })
            }
            None => unreachable!("empty lines are skipped"),
        }
        if words.next().is_some() {
            return Err(CorpusError::Malformed {
                line: line_no,
                what: "trailing words after directive".to_string(),
            });
        }
    }
    Ok(out)
}

/// The golden corpus: the synthetic SPEC95 suite (what the paper's
/// tables run on).
pub fn golden_corpus() -> Vec<Benchmark> {
    spec95()
}

/// The built-in 20x corpus ([`FULL_MANIFEST`]).
pub fn full_corpus() -> Vec<Benchmark> {
    parse_manifest(FULL_MANIFEST).expect("built-in manifest parses")
}

/// The built-in corpus named `name` (`golden` or `full`), if any.
pub fn corpus_by_name(name: &str) -> Option<Vec<Benchmark>> {
    match name {
        "golden" => Some(golden_corpus()),
        "full" => Some(full_corpus()),
        _ => None,
    }
}

/// Loads a corpus: a built-in name (`golden`, `full`) or a manifest
/// file path.
///
/// # Errors
///
/// [`CorpusError::Io`] when `spec` is neither built-in nor readable,
/// or any parse error from the manifest.
pub fn load_corpus(spec: &str) -> Result<Vec<Benchmark>, CorpusError> {
    if let Some(corpus) = corpus_by_name(spec) {
        return Ok(corpus);
    }
    let text = std::fs::read_to_string(spec).map_err(|e| {
        CorpusError::Io(format!(
            "`{spec}` is neither a built-in corpus nor a readable manifest: {e}"
        ))
    })?;
    parse_manifest(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuildOptions;

    #[test]
    fn full_corpus_is_20x_golden_and_deterministic() {
        let full = full_corpus();
        let golden = golden_corpus();
        assert_eq!(golden.len(), 18);
        assert_eq!(full.len(), 20 * golden.len(), "full corpus is exactly 20x");
        // Names are unique, so every table row names one entry.
        let names: BTreeSet<&str> = full.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), full.len(), "duplicate corpus entry names");
        // Loading twice yields identical descriptions.
        let again = full_corpus();
        for (a, b) in full.iter().zip(&again) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn every_stress_kind_is_present_and_builds() {
        let full = full_corpus();
        for kind in GEN_KINDS {
            let entry = full
                .iter()
                .find(|b| b.name.starts_with(&format!("gen.{kind}.")))
                .unwrap_or_else(|| panic!("no {kind} entries in the full corpus"));
            let exe = entry.build(&BuildOptions {
                iterations: Some(2),
                ..BuildOptions::default()
            });
            assert!(exe.text_len() > 20, "{}", entry.name);
            let cfg = eel_edit::Cfg::build(&exe).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert!(cfg.block_count() >= entry.chain_blocks, "{}", entry.name);
        }
    }

    #[test]
    fn stress_shapes_have_their_character() {
        let full = full_corpus();
        let by_kind = |kind: &str| -> Vec<&Benchmark> {
            full.iter()
                .filter(|b| b.name.starts_with(&format!("gen.{kind}.")))
                .collect()
        };
        for b in by_kind("huge-blocks") {
            assert!(b.target_block_size >= 60.0, "{}", b.name);
        }
        for b in by_kind("deep-chains") {
            assert!(b.shape.chain_bias >= 0.9, "{}", b.name);
        }
        for b in by_kind("reg-pressure") {
            assert!(b.shape.live_window >= 10, "{}", b.name);
        }
        for b in by_kind("random-cfg") {
            assert!(b.shape.skip_prob >= 0.2, "{}", b.name);
        }
        // Default-shape entries really do carry the default shape, so
        // they share generator behavior with the SPEC95 suite.
        for b in by_kind("small") {
            assert_eq!(b.shape, GenShape::default(), "{}", b.name);
        }
    }

    #[test]
    fn skip_cfg_workloads_have_skip_edges() {
        // A random-cfg entry must actually diverge from the straight
        // chain: some conditional branch targets a block *past* the
        // fall-through successor (a skip edge). Straight-chain
        // workloads only ever branch to the next block or back to the
        // loop head.
        let full = full_corpus();
        let b = full
            .iter()
            .find(|b| b.name.starts_with("gen.random-cfg."))
            .expect("random-cfg entries exist");
        let exe = b.build(&BuildOptions {
            iterations: Some(3),
            ..BuildOptions::default()
        });
        let cfg = eel_edit::Cfg::build(&exe).expect("analyzable");
        let mut skip_edges = 0usize;
        for r in &cfg.routines {
            for (j, blk) in r.blocks.iter().enumerate() {
                for e in &blk.succs {
                    if let eel_edit::Edge::Taken(t) = e {
                        if *t > j + 1 {
                            skip_edges += 1;
                        }
                    }
                }
            }
        }
        assert!(skip_edges > 0, "{}: no skip edges generated", b.name);
    }

    #[test]
    fn manifest_errors_are_typed() {
        assert_eq!(
            parse_manifest("gen small 3 1").unwrap_err(),
            CorpusError::MissingHeader
        );
        let e = parse_manifest("# eel-corpus-v1\ninclude spec2000\n").unwrap_err();
        assert!(
            matches!(e, CorpusError::UnknownSuite { line: 2, .. }),
            "{e}"
        );
        let e = parse_manifest("# eel-corpus-v1\ngen colossal 3 1\n").unwrap_err();
        assert!(matches!(e, CorpusError::UnknownKind { line: 2, .. }), "{e}");
        let e = parse_manifest("# eel-corpus-v1\ngen small many 1\n").unwrap_err();
        assert!(matches!(e, CorpusError::Malformed { line: 2, .. }), "{e}");
        let e = parse_manifest("# eel-corpus-v1\nfrobnicate\n").unwrap_err();
        assert!(matches!(e, CorpusError::Malformed { line: 2, .. }), "{e}");
        // A huge COUNT is refused before anything is generated (this
        // one once aborted on an 8.8 TB allocation).
        let e = parse_manifest("# eel-corpus-v1\ngen huge-blocks 99999999999 1\n").unwrap_err();
        assert!(matches!(e, CorpusError::Malformed { line: 2, .. }), "{e}");
        assert!(e.to_string().contains("limit"), "{e}");
        let limit = format!("# eel-corpus-v1\ngen small {} 1\n", MAX_GEN_COUNT + 1);
        assert!(matches!(
            parse_manifest(&limit),
            Err(CorpusError::Malformed { line: 2, .. })
        ));
        // Comments and blank lines are fine; trailing comments too.
        let ok = parse_manifest("# eel-corpus-v1\n\n# note\ninclude cint95 # the int suite\n")
            .expect("comments parse");
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn builtin_corpora_resolve_by_name() {
        assert_eq!(corpus_by_name("golden").unwrap().len(), 18);
        assert_eq!(corpus_by_name("full").unwrap().len(), 360);
        assert!(corpus_by_name("huge").is_none());
        assert!(load_corpus("golden").is_ok());
        assert!(matches!(
            load_corpus("/nonexistent-corpus.txt"),
            Err(CorpusError::Io(_))
        ));
    }

    #[test]
    fn interned_names_are_stable() {
        let a = intern_name("gen.test.000");
        let b = intern_name("gen.test.000");
        assert!(std::ptr::eq(a, b), "same name, same interned pointer");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const WORDS: &str =
            "include gen spec95 cfp95 spec2000 small huge-blocks # \n -1 99999999999 \
                             18446744073709551616";

        proptest! {
            /// `parse_manifest` never panics, and an error about a line
            /// names one the text has past the header: on manifest-shaped
            /// words, and on the built-in manifest with flipped bytes and
            /// a cut tail. Flips insert no bytes, so a count grows only by
            /// merging with the seed after it, which puts it past the limit.
            #[test]
            fn manifests_never_panic(
                header in any::<bool>(),
                words in prop::collection::vec(
                    prop_oneof![
                        prop::sample::select(WORDS.split(' ').map(str::to_string).collect()),
                        (0u32..24).prop_map(|n| n.to_string()),
                        "[-a-z0-9]{1,6}",
                    ],
                    0..24,
                ),
                flips in prop::collection::vec(
                    (any::<usize>(), prop::sample::select(b"0123456789 \n#-abcegilmnrsu".to_vec())),
                    0..6,
                ),
                cut in any::<usize>(),
            ) {
                let mut damaged = FULL_MANIFEST.as_bytes().to_vec();
                for (at, b) in flips {
                    let i = at % damaged.len();
                    damaged[i] = b;
                }
                damaged.truncate(cut % (2 * damaged.len()));
                let header = if header { CORPUS_SCHEMA } else { "" };
                let text = format!("{header}\n{}", words.join(" "));
                for text in [text, String::from_utf8_lossy(&damaged).into_owned()] {
                    match parse_manifest(&text) {
                        Ok(_) | Err(CorpusError::MissingHeader) => {}
                        Err(
                            CorpusError::Malformed { line, .. }
                            | CorpusError::UnknownSuite { line, .. }
                            | CorpusError::UnknownKind { line, .. },
                        ) => prop_assert!((2..=text.lines().count()).contains(&line), "{text}"),
                        Err(CorpusError::Io(e)) => panic!("I/O error from a parse: {e}"),
                    }
                }
            }
        }
    }
}
