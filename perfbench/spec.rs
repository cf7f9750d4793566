//! The benchmark definition in `BENCHMARK.json` at the repository root:
//! run length, workload names and every metric with its unit, direction
//! and (for end-to-end metrics) regression bound. Compiled in, so the
//! binary, its tests and `compare` read one definition.

use crate::json::{self, Json};

/// `BENCHMARK.json` as built into this binary.
pub const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{key} must be an array"))?;
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{key}: metric without string {k}"))
            };
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{key}: bad direction {other:?}")),
            };
            Ok(MetricDef {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl BenchSpec {
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("workloads must be an array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("run_seconds must be a number")? as u64,
            workloads,
            end_to_end: metric_defs(&doc, "end_to_end")?,
            per_layer: metric_defs(&doc, "per_layer")?,
        })
    }

    /// The definition compiled into this binary.
    pub fn embedded() -> BenchSpec {
        BenchSpec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }
}
