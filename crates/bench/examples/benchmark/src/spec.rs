//! The benchmark's definition, read from the repository's
//! `BENCHMARK.json` at build time so the binary and the file can never
//! name different workloads, metrics, units or bounds.

use std::sync::OnceLock;

use eel_telemetry::json::Json;

/// `BENCHMARK.json`, five directories up from this file.
const SPEC_TEXT: &str = include_str!("../../../../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed definition.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The definition this binary was built with.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(SPEC_TEXT).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<&[Json], String> {
        match doc.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("`{key}` is not a list")),
        }
    };
    let text_of = |j: &Json, key: &str| -> Result<String, String> {
        j.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry lacks a string `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    better: match text_of(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("unknown direction `{other}`")),
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("`run_seconds` is not a whole number")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
