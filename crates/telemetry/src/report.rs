//! Versioned machine-readable run reports.
//!
//! Every harness run distills its counters ([`crate::Snapshot`]), its
//! stage wall times and free-form metadata into a [`RunReport`],
//! serialized as JSON under schema `eel-run-report`, version
//! [`RUN_REPORT_VERSION`].
//! Reports parse back losslessly, render as human-readable text, and
//! [`diff`](RunReport::diff) against each other — the diff is what
//! `eel report --diff` prints.
//!
//! Parsing is strict about identity and lenient about content: the
//! schema string and version must match exactly (a future version is a
//! typed [`ReportError::Version`], not a crash), while unknown extra
//! members are ignored so version-1 readers tolerate additive change
//! (and older reports that still carry a `histograms` member load).

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{Json, JsonError};
use crate::{fmt_ns, Snapshot};

/// The `schema` member every run report carries.
pub const RUN_REPORT_SCHEMA: &str = "eel-run-report";

/// The report format version this crate reads and writes.
pub const RUN_REPORT_VERSION: u64 = 1;

/// A complete, self-describing record of one harness run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Free-form string metadata: label, machine model, jobs, model
    /// hashes, cargo profile — anything that identifies the run.
    pub meta: BTreeMap<String, String>,
    /// Wall time per named engine stage, in nanoseconds.
    pub stages: BTreeMap<String, u64>,
    /// Final counter values by site name.
    pub counters: BTreeMap<String, u64>,
}

/// Why a run report failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The text was not valid JSON.
    Parse(JsonError),
    /// The JSON parsed but is not an `eel-run-report` document.
    Schema(String),
    /// The report's version is not [`RUN_REPORT_VERSION`].
    Version(u64),
    /// The document is the right schema and version but a member has
    /// the wrong shape.
    Malformed(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Parse(e) => write!(f, "invalid JSON: {e}"),
            ReportError::Schema(found) => write!(
                f,
                "not a run report: expected schema `{RUN_REPORT_SCHEMA}`, found {found}"
            ),
            ReportError::Version(v) => write!(
                f,
                "unsupported run report version {v} (this build reads version {RUN_REPORT_VERSION})"
            ),
            ReportError::Malformed(what) => write!(f, "malformed run report: {what}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::Parse(e)
    }
}

impl RunReport {
    /// Builds a report from a counter snapshot plus metadata and stage
    /// timings.
    pub fn new(
        meta: BTreeMap<String, String>,
        stages: BTreeMap<String, u64>,
        snapshot: &Snapshot,
    ) -> Self {
        RunReport {
            meta,
            stages,
            counters: snapshot.counters.clone(),
        }
    }

    /// Serializes to pretty-printed JSON (deterministic: all maps are
    /// ordered).
    pub fn to_json(&self) -> String {
        let mut root = vec![
            ("schema".to_string(), Json::Str(RUN_REPORT_SCHEMA.into())),
            ("version".to_string(), Json::Num(RUN_REPORT_VERSION as f64)),
        ];
        root.push((
            "meta".to_string(),
            Json::Obj(
                self.meta
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
        root.push((
            "stages".to_string(),
            Json::Obj(
                self.stages
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ));
        root.push((
            "counters".to_string(),
            Json::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ));
        Json::Obj(root).to_pretty()
    }

    /// Parses a report previously written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// [`ReportError::Parse`] for broken JSON, [`ReportError::Schema`]
    /// / [`ReportError::Version`] for foreign or future documents, and
    /// [`ReportError::Malformed`] for shape mismatches.
    pub fn from_json(text: &str) -> Result<Self, ReportError> {
        let root = Json::parse(text)?;
        if root.members().is_none() {
            return Err(ReportError::Schema("a non-object document".into()));
        }
        match root.get("schema").and_then(Json::as_str) {
            Some(RUN_REPORT_SCHEMA) => {}
            Some(other) => return Err(ReportError::Schema(format!("`{other}`"))),
            None => return Err(ReportError::Schema("no schema member".into())),
        }
        let version = root
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ReportError::Malformed("missing or non-integer `version`".into()))?;
        if version != RUN_REPORT_VERSION {
            return Err(ReportError::Version(version));
        }

        let mut report = RunReport::default();
        for (key, value) in string_map(&root, "meta")? {
            report.meta.insert(key, value);
        }
        report.stages = u64_map(&root, "stages")?;
        report.counters = u64_map(&root, "counters")?;
        Ok(report)
    }

    /// Renders a human-readable summary (meta, stages, counters). The
    /// stage total saturates at `u64::MAX` rather than wrap: a report
    /// admits stage times up to 2^53 each.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if !self.meta.is_empty() {
            let _ = writeln!(out, "meta:");
            for (k, v) in &self.meta {
                let _ = writeln!(out, "  {k:<24} {v}");
            }
        }
        if !self.stages.is_empty() {
            let total = self
                .stages
                .values()
                .fold(0u64, |sum, &ns| sum.saturating_add(ns));
            let _ = writeln!(out, "stages:");
            for (k, ns) in &self.stages {
                let pct = if total > 0 {
                    *ns as f64 * 100.0 / total as f64
                } else {
                    0.0
                };
                let _ = writeln!(out, "  {k:<24} {:>12} ({pct:5.1}%)", fmt_ns(*ns));
            }
            let _ = writeln!(out, "  {:<24} {:>12}", "total", fmt_ns(total));
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<32} {v:>14}");
            }
        }
        out
    }

    /// Compares two reports metric by metric.
    ///
    /// Every stage time and counter present in either report becomes a
    /// [`DiffRow`]; metrics missing on one side are treated as zero
    /// there and flagged.
    pub fn diff(&self, new: &RunReport) -> ReportDiff {
        let mut rows = Vec::new();
        collect_diff(&mut rows, "stage", &self.stages, &new.stages);
        collect_diff(&mut rows, "counter", &self.counters, &new.counters);
        ReportDiff { rows }
    }
}

fn collect_diff(
    rows: &mut Vec<DiffRow>,
    kind: &str,
    old: &BTreeMap<String, u64>,
    new: &BTreeMap<String, u64>,
) {
    let names: std::collections::BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    for name in names {
        let (o, n) = (old.get(name), new.get(name));
        rows.push(DiffRow {
            kind: kind.to_string(),
            name: name.clone(),
            old: o.copied().unwrap_or(0),
            new: n.copied().unwrap_or(0),
            one_sided: o.is_none() || n.is_none(),
        });
    }
}

/// One metric compared across two reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// `stage` or `counter`.
    pub kind: String,
    /// Metric name: a stage (`runs`) or a counter site (`engine.sims`).
    pub name: String,
    /// Value in the old report (0 if absent there).
    pub old: u64,
    /// Value in the new report (0 if absent there).
    pub new: u64,
    /// True when the metric exists in only one of the two reports.
    pub one_sided: bool,
}

impl DiffRow {
    /// Relative change in percent: positive means the metric grew.
    /// Zero→zero is 0%; zero→nonzero is +100%.
    pub fn delta_pct(&self) -> f64 {
        if self.old == 0 {
            if self.new == 0 {
                0.0
            } else {
                100.0
            }
        } else {
            (self.new as f64 - self.old as f64) * 100.0 / self.old as f64
        }
    }
}

/// The result of [`RunReport::diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// All compared metrics, stages then counters, alphabetical within
    /// each group.
    pub rows: Vec<DiffRow>,
}

impl ReportDiff {
    /// True when every metric is byte-identical across the two reports.
    pub fn all_zero(&self) -> bool {
        self.rows.iter().all(|r| r.old == r.new && !r.one_sided)
    }

    /// Renders a table of the diff. `changed_only` hides rows with no
    /// delta.
    pub fn render(&self, changed_only: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<36} {:>14} {:>14} {:>9}",
            "kind", "metric", "old", "new", "delta"
        );
        let mut shown = 0usize;
        for row in &self.rows {
            if changed_only && row.old == row.new && !row.one_sided {
                continue;
            }
            shown += 1;
            let note = if row.one_sided { " (one-sided)" } else { "" };
            let _ = writeln!(
                out,
                "{:<10} {:<36} {:>14} {:>14} {:>+8.1}%{note}",
                row.kind,
                row.name,
                row.old,
                row.new,
                row.delta_pct()
            );
        }
        if shown == 0 {
            let _ = writeln!(out, "(no differences)");
        }
        out
    }

    /// Serializes the diff as JSON for machine consumers.
    pub fn to_json(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("kind".into(), Json::Str(r.kind.clone())),
                    ("name".into(), Json::Str(r.name.clone())),
                    ("old".into(), Json::Num(r.old as f64)),
                    ("new".into(), Json::Num(r.new as f64)),
                    ("delta_pct".into(), Json::Num(r.delta_pct())),
                    ("one_sided".into(), Json::Bool(r.one_sided)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("eel-report-diff".into())),
            ("version".into(), Json::Num(1.0)),
            ("rows".into(), Json::Arr(rows)),
        ])
        .to_pretty()
    }
}

fn string_map(root: &Json, key: &str) -> Result<Vec<(String, String)>, ReportError> {
    let Some(v) = root.get(key) else {
        return Ok(Vec::new());
    };
    let members = v
        .members()
        .ok_or_else(|| ReportError::Malformed(format!("`{key}` is not an object")))?;
    members
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.clone(), s.to_string()))
                .ok_or_else(|| ReportError::Malformed(format!("`{key}.{k}` is not a string")))
        })
        .collect()
}

fn u64_map(root: &Json, key: &str) -> Result<BTreeMap<String, u64>, ReportError> {
    let Some(v) = root.get(key) else {
        return Ok(BTreeMap::new());
    };
    let members = v
        .members()
        .ok_or_else(|| ReportError::Malformed(format!("`{key}` is not an object")))?;
    members
        .iter()
        .map(|(k, v)| {
            v.as_u64()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| ReportError::Malformed(format!("`{key}.{k}` is not an integer")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> RunReport {
        let reg = Registry::new();
        reg.add("engine.sims", 12);
        reg.add("sched.queries", 4096);
        let mut meta = BTreeMap::new();
        meta.insert("label".to_string(), "unit-test".to_string());
        meta.insert("machine".to_string(), "ultrasparc".to_string());
        let mut stages = BTreeMap::new();
        stages.insert("build".to_string(), 5_000_000);
        stages.insert("runs".to_string(), 125_000_000);
        RunReport::new(meta, stages, &reg.snapshot())
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample();
        let text = report.to_json();
        let back = RunReport::from_json(&text).expect("parse back");
        assert_eq!(back, report);
        // And the re-serialization is byte-identical (determinism).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn diff_of_report_with_itself_is_all_zero() {
        let report = sample();
        let diff = report.diff(&report);
        assert!(diff.all_zero());
        assert!(!diff.rows.is_empty());
        assert!(diff.render(true).contains("no differences"));
        for row in &diff.rows {
            assert_eq!(row.delta_pct(), 0.0, "{}", row.name);
        }
    }

    #[test]
    fn diff_reports_deltas_and_one_sided_metrics() {
        let old = sample();
        let mut new = sample();
        *new.counters.get_mut("engine.sims").unwrap() = 18;
        new.counters.insert("engine.cells.computed".to_string(), 7);
        let diff = old.diff(&new);
        assert!(!diff.all_zero());
        let sims = diff
            .rows
            .iter()
            .find(|r| r.name == "engine.sims")
            .expect("engine.sims row");
        assert_eq!((sims.old, sims.new), (12, 18));
        assert!((sims.delta_pct() - 50.0).abs() < 1e-9);
        let added = diff
            .rows
            .iter()
            .find(|r| r.name == "engine.cells.computed")
            .expect("new counter row");
        assert!(added.one_sided);
        let table = diff.render(true);
        assert!(table.contains("engine.sims"), "{table}");
        assert!(!table.contains("sched.queries"), "{table}");
    }

    #[test]
    fn foreign_and_future_documents_are_typed_errors() {
        assert!(matches!(
            RunReport::from_json("not json at all"),
            Err(ReportError::Parse(_))
        ));
        assert!(matches!(
            RunReport::from_json("[1,2,3]"),
            Err(ReportError::Schema(_))
        ));
        assert!(matches!(
            RunReport::from_json(r#"{"schema":"something-else","version":1}"#),
            Err(ReportError::Schema(_))
        ));
        assert!(matches!(
            RunReport::from_json(r#"{"schema":"eel-run-report","version":2}"#),
            Err(ReportError::Version(2))
        ));
        assert!(matches!(
            RunReport::from_json(r#"{"schema":"eel-run-report","version":1,"counters":{"x":"y"}}"#),
            Err(ReportError::Malformed(_))
        ));
    }

    /// Unknown members are skipped, among them the `histograms` section
    /// that version-1 reports used to carry.
    #[test]
    fn unknown_members_are_ignored() {
        let text = r#"{"schema":"eel-run-report","version":1,"future_field":[1,2],"counters":{"a":3},
            "histograms":{"sim.run_ns":{"count":1,"sum":9,"min":9,"max":9,"buckets":{"4":1}}}}"#;
        let report = RunReport::from_json(text).expect("lenient parse");
        assert_eq!(report.counters["a"], 3);
        assert!(!report.to_json().contains("histograms"));
        assert!(report.diff(&sample()).render(false).contains("engine.sims"));
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample().render();
        for needle in [
            "meta:",
            "stages:",
            "counters:",
            "engine.sims",
            "ultrasparc",
            "total",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    /// A report admits stage times up to 2^53 each, so 2,100 of them
    /// sum past `u64::MAX`: the total saturates instead of overflowing
    /// (a panic in debug builds, a wrong total in release).
    #[test]
    fn stage_total_saturates_instead_of_overflowing() {
        let stages: Vec<String> = (0..2_100)
            .map(|i| format!(r#""s{i}":9007199254740992"#))
            .collect();
        let text = format!(
            r#"{{"schema":"eel-run-report","version":1,"stages":{{{}}}}}"#,
            stages.join(",")
        );
        let report = RunReport::from_json(&text).expect("every stage is in range");
        let rendered = report.render();
        let total = rendered
            .lines()
            .find(|l| l.trim_start().starts_with("total"))
            .expect("a total line");
        assert!(total.ends_with(&fmt_ns(u64::MAX)), "{total}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// What `eel experiment --benchmark 130.li --no-cache --report`
        /// wrote.
        const REAL: &str = include_str!("../testdata/experiment_report.json");

        /// A JSON string.
        fn string() -> impl Strategy<Value = String> {
            "[a-z0-9 λ]{0,8}".prop_map(|s| format!("\"{s}\""))
        }

        /// An integer `from_json` admits as a stage time or a counter:
        /// up to 2^53, often at that edge.
        fn admitted() -> impl Strategy<Value = String> {
            prop_oneof![0u64..=1 << 53, (1u64 << 53) - 2..=1 << 53].prop_map(|n| n.to_string())
        }

        /// Any member value: integers over all of `u64` and the other
        /// kinds of JSON value.
        fn value() -> impl Strategy<Value = String> {
            prop_oneof![
                any::<u64>().prop_map(|n| n.to_string()),
                ((1u64 << 53) + 1..(1 << 53) + 3).prop_map(|n| n.to_string()),
                admitted(),
                string(),
                prop::sample::select(vec![
                    "-1",
                    "0.5",
                    "-0",
                    "1e300",
                    "null",
                    "true",
                    "[]",
                    "{}",
                    "[1,2]",
                    "{\"a\":1}",
                ])
                .prop_map(String::from),
            ]
        }

        /// An object of drawn members.
        fn object(value: impl Strategy<Value = String>) -> impl Strategy<Value = String> {
            prop::collection::vec(("[a-z._]{0,10}", value), 0..6).prop_map(|members| {
                let members: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                format!("{{{}}}", members.join(","))
            })
        }

        /// One report section: half the time every member is `valid`
        /// there, half the time any value.
        fn section(
            valid: impl Strategy<Value = String> + 'static,
        ) -> impl Strategy<Value = String> {
            prop_oneof![object(valid), object(value())]
        }

        /// Loads `text` and, when it loads, renders it and diffs it
        /// against the real report both ways.
        fn exercise(text: &str) {
            let Ok(report) = RunReport::from_json(text) else {
                return;
            };
            let real = RunReport::from_json(REAL).expect("the real report loads");
            let _ = report.render();
            for diff in [report.diff(&real), real.diff(&report)] {
                let _ = diff.render(false);
                let _ = diff.render(true);
                let _ = diff.to_json();
            }
        }

        proptest! {
            /// Whatever a report file holds, loading it fails with a
            /// typed error or yields a report that renders and diffs
            /// without panicking: drawn `meta`, `stages` and `counters`
            /// members, and bit-flipped and truncated copies of a real
            /// report.
            #[test]
            fn reports_never_panic(
                meta in section(string()),
                stages in section(admitted()),
                counters in section(admitted()),
                flips in prop::collection::vec((any::<usize>(), 0u32..8), 0..4),
                cut in any::<usize>(),
            ) {
                exercise(&format!(
                    r#"{{"schema":"eel-run-report","version":1,"meta":{meta},"stages":{stages},"counters":{counters}}}"#
                ));
                let mut bytes = REAL.as_bytes().to_vec();
                for (at, bit) in flips {
                    let i = at % bytes.len();
                    bytes[i] ^= 1 << bit;
                }
                exercise(&String::from_utf8_lossy(&bytes));
                bytes.truncate(cut % (bytes.len() + 1));
                exercise(&String::from_utf8_lossy(&bytes));
            }
        }
    }
}
