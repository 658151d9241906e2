//! The headline numbers the documents quote are the code's: every
//! bold number in README's one-paragraph summary and in
//! EXPERIMENTS.md's *Headline*, *Table 1–3*, *§4.1*, *Ablations* and
//! *Extension experiments* sections must read, at its printed
//! precision, what the named row and column of its `results/` file
//! says. Each of those places carries one source note,
//! an HTML comment listing `FILE | ROW | COLUMN` for its bold numbers
//! in order. A bold number without a source line, or a source line
//! that names no cell, fails.

use std::path::Path;

/// `(document, section heading)`: the places whose bold numbers are
/// checked. A section runs to the next `## ` heading.
const PLACES: &[(&str, &str)] = &[
    ("README.md", "## Reproduced results, in one paragraph"),
    ("EXPERIMENTS.md", "## Headline (abstract / §1)"),
    (
        "EXPERIMENTS.md",
        "## Table 1 — slow profiling on the UltraSPARC",
    ),
    (
        "EXPERIMENTS.md",
        "## Table 2 — UltraSPARC, originals first rescheduled by EEL",
    ),
    (
        "EXPERIMENTS.md",
        "## Table 3 — slow profiling on the SuperSPARC",
    ),
    (
        "EXPERIMENTS.md",
        "## §4.1 — block sizes and the cache effect",
    ),
    ("EXPERIMENTS.md", "## Ablations (DESIGN.md §5)"),
    (
        "EXPERIMENTS.md",
        "## Extension experiments (beyond the paper)",
    ),
];

const NOTE_START: &str = "<!-- source:";

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The section of `doc` under `heading`, up to the next `## ` heading.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc
        .find(&format!("\n{heading}\n"))
        .unwrap_or_else(|| panic!("no section `{heading}`"))
        + 1;
    let body = &doc[start + heading.len()..];
    let end = body
        .find("\n## ")
        .map_or(doc.len(), |i| start + heading.len() + i);
    &doc[start..end]
}

/// A number as printed: its value text with an ASCII sign, and its
/// count of decimals.
#[derive(Debug, PartialEq)]
struct Printed {
    text: String,
    decimals: usize,
}

/// Every number in `text`: digits with an optional fraction, and a
/// leading `-` or `−` as its sign.
fn numbers(text: &str) -> Vec<Printed> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !chars[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let negative = i > 0 && matches!(chars[i - 1], '-' | '−');
        let start = i;
        while i < chars.len() && chars[i].is_ascii_digit() {
            i += 1;
        }
        let mut decimals = 0;
        if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
            i += 1;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
                decimals += 1;
            }
        }
        let digits: String = chars[start..i].iter().collect();
        let text = if negative {
            format!("-{digits}")
        } else {
            digits
        };
        out.push(Printed { text, decimals });
    }
    out
}

/// The numbers inside `**…**` spans, in order; bold text without a
/// number is not a measurement.
fn bold_numbers(text: &str) -> Vec<Printed> {
    text.split("**")
        .skip(1)
        .step_by(2)
        .flat_map(numbers)
        .collect()
}

/// The `(file, row, column)` lines of the place's one source note.
fn source_note(text: &str, place: &str) -> Vec<(String, String, String)> {
    let notes: Vec<&str> = text.split(NOTE_START).skip(1).collect();
    assert_eq!(notes.len(), 1, "{place}: expected one source note");
    let note = &notes[0][..notes[0].find("-->").expect("closed source note")];
    note.lines()
        .skip(1)
        .map(|line| {
            let fields: Vec<&str> = line.split('|').map(str::trim).collect();
            assert_eq!(
                fields.len(),
                3,
                "{place}: `{line}` is not FILE | ROW | COLUMN"
            );
            (fields[0].into(), fields[1].into(), fields[2].into())
        })
        .collect()
}

/// Splits a results line into fields separated by two or more spaces,
/// each with the byte offset where it ends.
fn fields(line: &str) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    let mut rest = line.trim_end();
    let mut offset = 0;
    while !rest.is_empty() {
        let lead = rest.len() - rest.trim_start().len();
        let body = &rest[lead..];
        let len = body.find("  ").unwrap_or(body.len());
        out.push((&body[..len], offset + lead + len));
        offset += lead + len;
        rest = &body[len..];
    }
    out
}

/// The printed cell of `file` at (`row`, `column`).
///
/// A `column` of `#N` is the `N`-th number (from 1) after the row's
/// name on the line it names: the first line whose first field is
/// `row`, or which starts with `row:` once runs of spaces are
/// collapsed. This reads lines that hold one or more values, such as
/// `SPECFP  average hidden:  22.9%` or `tracing overhead hidden: CINT
/// 35.4%, CFP 27.5%`.
///
/// Otherwise the file has a header line naming `column` (fields are
/// separated by two or more spaces, as in `Benchmark  …  %Hidden` or
/// `configuration  %hidden`). The row is the first line below it
/// whose first field is `row`, the column is the header field whose
/// right edge the cell's right edge meets, and the cell is that
/// field's first number.
fn cell(file: &str, row: &str, column: &str) -> Option<Printed> {
    let lines: Vec<&str> = file.lines().collect();
    if let Some(n) = column.strip_prefix('#') {
        let after_row = lines.iter().find_map(|line| {
            if fields(line).first().is_some_and(|f| f.0 == row) {
                return Some(line.trim_start()[row.len()..].to_string());
            }
            let collapsed = line.split_whitespace().collect::<Vec<_>>().join(" ");
            let rest = collapsed.strip_prefix(row)?;
            rest.starts_with(':').then(|| rest.to_string())
        })?;
        let n: usize = n.parse().ok()?;
        return numbers(&after_row).into_iter().nth(n.checked_sub(1)?);
    }
    let h = lines
        .iter()
        .position(|l| fields(l).iter().any(|f| f.0 == column))?;
    let end = fields(lines[h]).into_iter().find(|f| f.0 == column)?.1;
    let line = lines[h + 1..]
        .iter()
        .find(|l| fields(l).first().is_some_and(|f| f.0 == row))?;
    let (text, _) = fields(line).into_iter().find(|f| f.1 == end)?;
    numbers(text).into_iter().next()
}

/// Whether `quoted` is `file_value` printed at the quote's precision.
fn reads_as(quoted: &Printed, file_value: &Printed) -> bool {
    if quoted.decimals > file_value.decimals {
        return false;
    }
    let v: f64 = file_value.text.parse().expect("a number");
    format!("{v:.*}", quoted.decimals) == quoted.text
}

#[test]
fn quoted_numbers_match_the_results_files() {
    let mut checked = 0;
    for &(doc_name, heading) in PLACES {
        let doc = read(doc_name);
        let text = section(&doc, heading);
        let place = format!("{doc_name} `{heading}`");
        // Everything but the note, whose lines hold no bold text.
        let (before, note) = text.split_once(NOTE_START).unwrap_or((text, ""));
        let after = note.split_once("-->").map_or("", |(_, rest)| rest);
        let quoted = bold_numbers(&format!("{before}{after}"));
        let sources = source_note(text, &place);
        assert_eq!(
            quoted.len(),
            sources.len(),
            "{place}: {} bold numbers, {} source lines",
            quoted.len(),
            sources.len()
        );
        for (q, (file, row, column)) in quoted.iter().zip(&sources) {
            let value = cell(&read(file), row, column)
                .unwrap_or_else(|| panic!("{place}: no cell `{row}` / `{column}` in {file}"));
            assert!(
                reads_as(q, &value),
                "{place}: quotes {} where {file} `{row}` / `{column}` reads {}",
                q.text,
                value.text
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} numbers checked");
}

#[test]
fn cells_resolve_by_row_and_column() {
    let table = "\
Benchmark       Avg.BB      Uninst.              Inst.   %Hidden
102.swim          49.1        0.001       0.001 (1.14)    -41.0%
CFP95 Average                                     1.47     26.9%
";
    let pick = |row, column| cell(table, row, column).map(|p| p.text);
    assert_eq!(pick("102.swim", "%Hidden").as_deref(), Some("-41.0"));
    assert_eq!(pick("102.swim", "Inst.").as_deref(), Some("0.001"));
    assert_eq!(pick("CFP95 Average", "Inst.").as_deref(), Some("1.47"));
    assert_eq!(pick("CFP95 Average", "Uninst."), None);
    assert_eq!(pick("103.su2cor", "%Hidden"), None);

    let ablations = "\
configuration                 %hidden
baseline (paper's options)      17.7%
mismatch: hyperSPARC model     -91.8%

machine      stalls-first  chain-first
UltraSPARC          15.8%        12.9%
";
    let pick = |row, column| cell(ablations, row, column).map(|p| p.text);
    assert_eq!(
        pick("baseline (paper's options)", "%hidden").as_deref(),
        Some("17.7")
    );
    assert_eq!(
        pick("mismatch: hyperSPARC model", "%hidden").as_deref(),
        Some("-91.8")
    );
    assert_eq!(pick("UltraSPARC", "chain-first").as_deref(), Some("12.9"));
    assert_eq!(pick("mismatch", "%hidden"), None, "a row is a whole name");

    let lines = "\
UltraSPARC   SPECINT hidden:  12.3%   SPECFP hidden:  26.9%
  SPECFP  average hidden:  22.9%
text: 665 -> 1769 words (x2.66; the paper reports 2-3x)
    1024B        25501        67201        67201      2.6x      4.3x
";
    let pick = |row, column| cell(lines, row, column).map(|p| p.text);
    assert_eq!(pick("UltraSPARC", "#2").as_deref(), Some("26.9"));
    assert_eq!(pick("SPECFP average hidden", "#1").as_deref(), Some("22.9"));
    assert_eq!(pick("text", "#3").as_deref(), Some("2.66"));
    assert_eq!(
        pick("1024B", "#1").as_deref(),
        Some("25501"),
        "after the name"
    );
    assert_eq!(pick("1024B", "#5").as_deref(), Some("4.3"));
    assert_eq!(pick("UltraSPARC", "#3"), None);
    assert_eq!(pick("UltraSPARC", "#0"), None);
    assert_eq!(pick("SPECFP average", "#1"), None, "a row is a whole name");
    assert_eq!(pick("SuperSPARC", "#1"), None);

    let q = |text: &str, decimals| Printed {
        text: text.into(),
        decimals,
    };
    assert!(reads_as(&q("-41", 0), &q("-41.0", 1)));
    assert!(
        !reads_as(&q("-41.0", 1), &q("-41", 0)),
        "more precision than printed"
    );
    assert!(!reads_as(&q("12.8", 1), &q("12.7", 1)));
    assert_eq!(
        bold_numbers("**12.7 %** and **×4.95**, swim (**−41.0 %**), not 13 %"),
        vec![q("12.7", 1), q("4.95", 2), q("-41.0", 1)]
    );
}
