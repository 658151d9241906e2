//! Property tests for the SADL front end: the lexer, parser, and
//! compiler must never panic, whatever the input — they return errors.

use eel_sadl::{parse, ArchDescription, MAX_EVALUATIONS};
use proptest::prelude::*;

/// Characters from SADL's alphabet plus noise.
fn arb_sadl_text() -> impl Strategy<Value = String> {
    let frag = prop_oneof![
        Just("machine ".to_string()),
        Just("unit ".to_string()),
        Just("val ".to_string()),
        Just("sem ".to_string()),
        Just("register ".to_string()),
        Just("alias ".to_string()),
        Just("is ".to_string()),
        Just("AR ".to_string()),
        Just("A ".to_string()),
        Just("R ".to_string()),
        Just("D ".to_string()),
        Just("ALU ".to_string()),
        Just("R[rs1] ".to_string()),
        Just(":= ".to_string()),
        Just("? ".to_string()),
        Just(": ".to_string()),
        Just(", ".to_string()),
        Just("( ".to_string()),
        Just(") ".to_string()),
        Just("[ ".to_string()),
        Just("] ".to_string()),
        Just("{ ".to_string()),
        Just("} ".to_string()),
        Just("\\x. ".to_string()),
        Just("(\\x. x x) (\\x. x x) ".to_string()),
        Just("#simm13 ".to_string()),
        Just("@ ".to_string()),
        Just("+ ".to_string()),
        Just("<< ".to_string()),
        Just("42 ".to_string()),
        Just("0x1F ".to_string()),
        Just("4000000000 ".to_string()),
        Just("4294967295 ".to_string()),
        Just("// comment\n".to_string()),
        Just("\n".to_string()),
        "[a-zA-Z0-9_]{1,8} ".prop_map(|s| s),
    ];
    prop::collection::vec(frag, 0..40).prop_map(|v| v.concat())
}

/// Shapes that nest one level per repetition, as `(opener, closer)`:
/// brackets, lambdas, conditionals, applications and self-application.
const NESTINGS: [(&str, &str); 6] = [
    ("(", ")"),
    ("R[", "]"),
    ("\\x. ", ""),
    ("1 = 1 ? D 1 : ", ""),
    ("f (", ")"),
    ("(\\x. x x) ", ""),
];

proptest! {
    /// The parser is total: any string produces Ok or Err, never a panic.
    #[test]
    fn parser_never_panics(src in arb_sadl_text()) {
        let _ = parse(&src);
    }

    /// The whole compiler is total too.
    #[test]
    fn compiler_never_panics(src in arb_sadl_text()) {
        let _ = ArchDescription::compile(&src);
    }

    /// Nesting of any depth, closed or not, is an error rather than a
    /// stack overflow, and so is self-application, which never ends.
    #[test]
    fn deep_nesting_and_self_application_never_overflow(
        shape in 0usize..NESTINGS.len(),
        depth in 0usize..20_000,
        closed in any::<bool>(),
    ) {
        let (opener, closer) = NESTINGS[shape];
        let closers = if closed { closer.repeat(depth) } else { String::new() };
        let src = format!(
            "machine m 1 1\nregister untyped{{32}} R[32]\nval f is \\x. x\n\
             sem s is {}D 1{closers}",
            opener.repeat(depth)
        );
        let _ = ArchDescription::compile(&src);
    }

    /// Arbitrary unicode (not just SADL-ish text) cannot panic the lexer.
    #[test]
    fn lexer_total_on_arbitrary_strings(src in ".{0,200}") {
        let _ = parse(&src);
    }

    /// Valid-looking unit declarations with random counts either
    /// compile or produce a diagnostic mentioning the problem.
    #[test]
    fn unit_declarations_roundtrip(count in 1u32..64) {
        let src = format!(
            "machine m 1 1\nunit U {count}\nsem unknown is AR U, D 1"
        );
        let desc = ArchDescription::compile(&src).expect("well-formed description");
        let id = desc.unit_id("U").expect("declared");
        assert_eq!(desc.units[id].count, count);
    }

    /// Delay amounts translate directly into group length.
    #[test]
    fn delay_drives_group_cycles(d in 1u32..40) {
        let src = format!("machine m 1 1\nsem x is D {d}");
        let desc = ArchDescription::compile(&src).expect("compiles");
        assert_eq!(desc.group_for("x").expect("bound").cycles, d);
    }
}

proptest! {
    // A draw past the bound spends its million evaluations, about 0.2 s
    // in a debug build, so this property draws fewer cases.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `val`s that each repeat the one before `k` times cost Spawn two
    /// evaluations per expansion, `k^n` expansions of `v0` at level
    /// `n`: a `sem` within [`MAX_EVALUATIONS`] compiles, and one past
    /// it is an error naming the `sem` after at most that many steps.
    #[test]
    fn repeated_vals_stop_at_the_evaluation_bound(levels in 1u32..5, k in 1u64..200) {
        let mut src = String::from("machine m 1 1\nval v0 is ()\n");
        for n in 1..=levels {
            let copies = vec![format!("v{}", n - 1); k as usize];
            src.push_str(&format!("val v{n} is {}\n", copies.join(", ")));
        }
        src.push_str(&format!("sem s is v{levels}\n"));
        let evaluations: u64 = (0..=levels).map(|n| 2 * k.pow(n)).sum();
        match ArchDescription::compile(&src) {
            Ok(desc) => {
                assert!(evaluations <= u64::from(MAX_EVALUATIONS), "{levels} x {k}");
                assert!(desc.group_for("s").is_some());
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(evaluations > u64::from(MAX_EVALUATIONS), "{levels} x {k}: {msg}");
                assert!(msg.contains("in sem `s`"), "{msg}");
                assert!(msg.contains(&format!("more than {MAX_EVALUATIONS} steps")), "{msg}");
            }
        }
    }
}
