//! Versioned machine-readable run reports.
//!
//! Every harness run distills its [`crate::Snapshot`] plus stage wall
//! times and free-form metadata into a [`RunReport`], serialized as
//! JSON under schema `eel-run-report`, version [`RUN_REPORT_VERSION`].
//! Reports parse back losslessly, render as human-readable text, and
//! [`diff`](RunReport::diff) against each other — the diff is what
//! `eel report --diff` prints.
//!
//! Parsing is strict about identity and lenient about content: the
//! schema string and version must match exactly (a future version is a
//! typed [`ReportError::Version`], not a crash), while unknown extra
//! members are ignored so version-1 readers tolerate additive change.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{Json, JsonError};
use crate::{fmt_ns, HistogramSnapshot, Snapshot};

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
    /// Final histogram snapshots by site name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
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
    /// Builds a report from a metric snapshot plus metadata and stage
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
            histograms: snapshot.histograms.clone(),
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
        root.push((
            "histograms".to_string(),
            Json::Obj(
                self.histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), histogram_to_json(h)))
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
        if let Some(hists) = root.get("histograms") {
            let members = hists
                .members()
                .ok_or_else(|| ReportError::Malformed("`histograms` is not an object".into()))?;
            for (name, value) in members {
                report
                    .histograms
                    .insert(name.clone(), histogram_from_json(name, value)?);
            }
        }
        Ok(report)
    }

    /// Renders a human-readable summary (stages, counters, histogram
    /// quantiles).
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
            let total: u64 = self.stages.values().sum();
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
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "site", "count", "p50", "p90", "p99", "max"
            );
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.max,
                );
            }
        }
        out
    }

    /// Compares two reports metric by metric.
    ///
    /// Every counter, stage time, and histogram summary statistic
    /// present in either report becomes a [`DiffRow`]; metrics missing
    /// on one side are treated as zero there and flagged.
    pub fn diff(&self, new: &RunReport) -> ReportDiff {
        let mut rows = Vec::new();
        collect_diff(&mut rows, "stage", &self.stages, &new.stages);
        collect_diff(&mut rows, "counter", &self.counters, &new.counters);
        let mut old_h: BTreeMap<String, u64> = BTreeMap::new();
        let mut new_h: BTreeMap<String, u64> = BTreeMap::new();
        for (map, src) in [
            (&mut old_h, &self.histograms),
            (&mut new_h, &new.histograms),
        ] {
            for (name, h) in src.iter() {
                map.insert(format!("{name}.count"), h.count);
                map.insert(format!("{name}.p50"), h.quantile(0.50));
                map.insert(format!("{name}.p99"), h.quantile(0.99));
                map.insert(format!("{name}.mean"), h.mean().round() as u64);
            }
        }
        collect_diff(&mut rows, "histogram", &old_h, &new_h);
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
    /// `stage`, `counter`, or `histogram`.
    pub kind: String,
    /// Metric name (histogram rows are suffixed `.count` / `.p50` /
    /// `.p99` / `.mean`).
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
    /// All compared metrics, grouped stages → counters → histograms,
    /// alphabetical within each group.
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

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    let buckets = h
        .buckets
        .iter()
        .map(|(idx, n)| (idx.to_string(), Json::Num(*n as f64)))
        .collect();
    Json::Obj(vec![
        ("count".into(), Json::Num(h.count as f64)),
        ("sum".into(), Json::Num(h.sum as f64)),
        ("min".into(), Json::Num(h.min as f64)),
        ("max".into(), Json::Num(h.max as f64)),
        ("buckets".into(), Json::Obj(buckets)),
    ])
}

fn histogram_from_json(name: &str, v: &Json) -> Result<HistogramSnapshot, ReportError> {
    let field = |key: &str| {
        v.get(key).and_then(Json::as_u64).ok_or_else(|| {
            ReportError::Malformed(format!("histogram `{name}`: bad or missing `{key}`"))
        })
    };
    let mut buckets = Vec::new();
    if let Some(members) = v.get("buckets").and_then(Json::members) {
        for (idx, count) in members {
            let idx: u8 = idx.parse().map_err(|_| {
                ReportError::Malformed(format!("histogram `{name}`: bucket index `{idx}`"))
            })?;
            if usize::from(idx) >= crate::metrics::BUCKETS {
                return Err(ReportError::Malformed(format!(
                    "histogram `{name}`: bucket index {idx} out of range"
                )));
            }
            let count = count.as_u64().ok_or_else(|| {
                ReportError::Malformed(format!("histogram `{name}`: non-integer bucket count"))
            })?;
            buckets.push((idx, count));
        }
    } else {
        return Err(ReportError::Malformed(format!(
            "histogram `{name}`: missing `buckets` object"
        )));
    }
    buckets.sort_unstable();
    let h = HistogramSnapshot {
        count: field("count")?,
        sum: field("sum")?,
        min: field("min")?,
        max: field("max")?,
        buckets,
    };
    // Quantiles clamp to `[min, max]`, which must be a range.
    if h.count > 0 && h.min > h.max {
        return Err(ReportError::Malformed(format!(
            "histogram `{name}`: min {} exceeds max {}",
            h.min, h.max
        )));
    }
    Ok(h)
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
        for v in [3u64, 64, 65, 1000, 1001, 40_000] {
            reg.record("sched.block_ns", v);
        }
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

    #[test]
    fn unknown_members_are_ignored() {
        let text =
            r#"{"schema":"eel-run-report","version":1,"future_field":[1,2],"counters":{"a":3}}"#;
        let report = RunReport::from_json(text).expect("lenient parse");
        assert_eq!(report.counters["a"], 3);
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample().render();
        for needle in [
            "meta:",
            "stages:",
            "counters:",
            "histograms:",
            "engine.sims",
            "sched.block_ns",
            "ultrasparc",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    /// Quantiles clamp to `[min, max]`, so a histogram whose `min`
    /// exceeds its `max` must not load: `eel report` and `eel report
    /// --diff` would panic on it.
    #[test]
    fn inverted_histogram_range_is_a_typed_error() {
        let text = r#"{"schema":"eel-run-report","version":1,"histograms":{"h":
            {"count": 3, "sum": 10, "min": 500, "max": 1, "buckets": {"1": 1, "5": 1, "9": 1}}}}"#;
        match RunReport::from_json(text) {
            Err(ReportError::Malformed(what)) => assert!(what.contains("min 500"), "{what}"),
            other => panic!("expected a malformed-report error, got {other:?}"),
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Whatever histogram a report file holds, loading it either
            /// fails with a typed error or yields a report that renders
            /// and diffs without panicking.
            #[test]
            fn any_histogram_loads_renders_and_diffs_without_panics(
                hists in prop::collection::vec(
                    (
                        (0u64..1_000, 0u64..(1 << 40), 0u64..(1 << 40), 0u64..(1 << 40)),
                        prop::collection::vec((0u8..65, 0u64..1_000), 0..7),
                    ),
                    1..4,
                ),
            ) {
                let mut report = sample();
                for (i, ((count, sum, min, max), buckets)) in hists.into_iter().enumerate() {
                    report.histograms.insert(
                        format!("fuzz.h{i}"),
                        HistogramSnapshot { count, sum, min, max, buckets },
                    );
                }
                if let Ok(loaded) = RunReport::from_json(&report.to_json()) {
                    let _ = loaded.render();
                    let _ = loaded.diff(&sample()).render(false);
                    let _ = sample().diff(&loaded).to_json();
                }
            }
        }
    }
}
