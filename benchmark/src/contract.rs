//! `BENCHMARK.json`, compiled in: the one place workload and metric
//! names, units, directions and bounds are written down.

use serde_json::Value;

/// The contract file as committed at the repo root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric of the contract. `bound` is present on end-to-end
/// metrics only.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: u64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The member `key` of a JSON object; `None` for a missing key or a
/// value that is no object.
pub fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(map) => map.get(key),
        _ => None,
    }
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    get(v, key).unwrap_or_else(|| panic!("BENCHMARK.json: missing key `{key}`"))
}

fn text(v: &Value, key: &str) -> String {
    match field(v, key) {
        Value::Str(s) => s.clone(),
        other => panic!("BENCHMARK.json: `{key}` must be a string, got {other:?}"),
    }
}

fn list<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match field(v, key) {
        Value::Array(items) => items,
        other => panic!("BENCHMARK.json: `{key}` must be an array, got {other:?}"),
    }
}

fn metric(v: &Value, bounded: bool) -> MetricDef {
    MetricDef {
        name: text(v, "name"),
        unit: text(v, "unit"),
        better: match text(v, "better").as_str() {
            "higher" => Better::Higher,
            "lower" => Better::Lower,
            other => panic!("BENCHMARK.json: `better` must be higher or lower, got {other}"),
        },
        bound: bounded.then(|| {
            field(v, "bound")
                .as_f64()
                .expect("BENCHMARK.json: `bound` must be a number")
        }),
    }
}

impl Contract {
    /// Parse the compiled-in contract. The file is part of this
    /// package's source, so a malformed one is a build defect: panic.
    pub fn load() -> Contract {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Contract {
            run_seconds: field(&doc, "run_seconds")
                .as_u64()
                .expect("BENCHMARK.json: `run_seconds` must be a whole number"),
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: list(&doc, "end_to_end")
                .iter()
                .map(|m| metric(m, true))
                .collect(),
            per_layer: list(&doc, "per_layer")
                .iter()
                .map(|m| metric(m, false))
                .collect(),
        }
    }

    /// The definition of an end-to-end or per-layer metric by name.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
