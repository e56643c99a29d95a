//! `btstat diff`: cross-run comparison with regression attribution.
//!
//! Two layers. [`diff_runs`] compares every shared-or-one-sided metric
//! (counters, gauges, histogram p50/p95/p99) between a baseline run A
//! and a candidate run B, as `(value, baseline, delta %)` rows.
//! [`attribute`] then answers the question a headline delta raises:
//! *which code paid for it* — per-span self-time deltas from the two
//! profiles, ranked by absolute contribution to the total shift, each
//! with its share of that shift. The collapsed-stack exports
//! ([`Profile::to_collapsed`]) drop straight into inferno or
//! speedscope for the visual version of the same answer.

use std::collections::{BTreeMap, BTreeSet};

use bt_obs::registry::Entry;
use bt_obs::series::json_f64;
use bt_obs::{metric_key, Profile, Snapshot};

use crate::artifacts::push_json_str;

/// One metric's before/after row.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    /// Metric key (`name`, `name{label}`, or `name/pNN` for histogram
    /// quantiles).
    pub key: String,
    /// Baseline (run A) value.
    pub baseline: f64,
    /// Candidate (run B) value.
    pub value: f64,
    /// `value - baseline` as a percentage of the baseline (`None` when
    /// the baseline is zero and the delta is not).
    pub pct: Option<f64>,
}

impl MetricDelta {
    fn new(key: String, baseline: f64, value: f64) -> MetricDelta {
        let pct = if baseline != 0.0 {
            Some((value - baseline) / baseline * 100.0)
        } else if value == 0.0 {
            Some(0.0)
        } else {
            None
        };
        MetricDelta {
            key,
            baseline,
            value,
            pct,
        }
    }

    fn to_json(&self) -> String {
        let pct = self
            .pct
            .map(|p| json_f64((p * 100.0).round() / 100.0))
            .unwrap_or_else(|| "null".to_string());
        let mut out = String::from("{\"key\":");
        push_json_str(&mut out, &self.key);
        out.push_str(&format!(
            ",\"baseline\":{},\"value\":{},\"pct\":{pct}}}",
            json_f64(self.baseline),
            json_f64(self.value)
        ));
        out
    }
}

/// One span's contribution to the fleet's self-time shift.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanDelta {
    /// `/`-joined span path.
    pub path: String,
    /// Baseline (run A) self time, µs.
    pub baseline_self_us: u64,
    /// Candidate (run B) self time, µs.
    pub value_self_us: u64,
    /// Signed self-time delta, µs.
    pub delta_us: i64,
    /// `|delta|` as a percentage of the total absolute shift across
    /// all spans (so the table reads "this span explains N% of the
    /// change").
    pub share_pct: f64,
}

impl SpanDelta {
    fn to_json(&self) -> String {
        let mut out = String::from("{\"path\":");
        push_json_str(&mut out, &self.path);
        out.push_str(&format!(
            ",\"baseline_self_us\":{},\"value_self_us\":{},\"delta_us\":{},\"share_pct\":{}}}",
            self.baseline_self_us,
            self.value_self_us,
            self.delta_us,
            json_f64((self.share_pct * 100.0).round() / 100.0)
        ));
        out
    }
}

/// A full A-vs-B comparison, ready to render.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunDiff {
    /// Per-metric rows, sorted by key.
    pub metrics: Vec<MetricDelta>,
    /// Per-span attribution, ranked by `|delta_us|` descending.
    pub spans: Vec<SpanDelta>,
}

impl RunDiff {
    /// Render as one JSON document (deterministic).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":\"btstat-diff-v1\",\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&m.to_json());
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Render the human table (metric rows, then span attribution).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>14} {:>14} {:>9}\n",
            "metric", "baseline", "value", "delta"
        ));
        for m in &self.metrics {
            let pct = m
                .pct
                .map(|p| format!("{p:+.1}%"))
                .unwrap_or_else(|| "new".to_string());
            out.push_str(&format!(
                "{:<44} {:>14} {:>14} {:>9}\n",
                m.key,
                trim_f64(m.baseline),
                trim_f64(m.value),
                pct
            ));
        }
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "\n{:<44} {:>12} {:>12} {:>10} {:>7}\n",
                "span (self µs)", "baseline", "value", "delta", "share"
            ));
            for s in &self.spans {
                out.push_str(&format!(
                    "{:<44} {:>12} {:>12} {:>+10} {:>6.1}%\n",
                    s.path, s.baseline_self_us, s.value_self_us, s.delta_us, s.share_pct
                ));
            }
        }
        out
    }
}

fn trim_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// One row per key either side has, the absent side reading as zero.
fn push_deltas<V>(
    rows: &mut Vec<MetricDelta>,
    a: &[Entry<V>],
    b: &[Entry<V>],
    suffix: &str,
    value: impl Fn(&V) -> f64,
) {
    let keyed = |side: &[Entry<V>]| -> BTreeMap<String, f64> {
        side.iter()
            .map(|(name, label, v)| (metric_key(name, label) + suffix, value(v)))
            .collect()
    };
    let (a, b) = (keyed(a), keyed(b));
    for key in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
        let side = |m: &BTreeMap<String, f64>| m.get(key).copied().unwrap_or(0.0);
        rows.push(MetricDelta::new(key.clone(), side(&a), side(&b)));
    }
}

/// Compare two runs' final metrics snapshots (histograms by the
/// p50/p95/p99 each run wrote). Keys present in only one run appear
/// with a zero on the other side.
pub fn diff_runs(a: &Snapshot, b: &Snapshot) -> RunDiff {
    let mut metrics = Vec::new();
    push_deltas(&mut metrics, &a.counters, &b.counters, "", |&v| v as f64);
    push_deltas(&mut metrics, &a.gauges, &b.gauges, "", |&v| v as f64);
    push_deltas(&mut metrics, &a.histograms, &b.histograms, "/p50", |h| {
        h.p50 as f64
    });
    push_deltas(&mut metrics, &a.histograms, &b.histograms, "/p95", |h| {
        h.p95 as f64
    });
    push_deltas(&mut metrics, &a.histograms, &b.histograms, "/p99", |h| {
        h.p99 as f64
    });
    metrics.sort_by(|x, y| x.key.cmp(&y.key));
    RunDiff {
        metrics,
        spans: Vec::new(),
    }
}

/// Rank every span path by its contribution to the total self-time
/// shift between two profiles. Paths in only one profile count from
/// zero; unchanged spans are dropped. `top` caps the table (0 = all).
pub fn attribute(a: &Profile, b: &Profile, top: usize) -> Vec<SpanDelta> {
    let paths: BTreeSet<_> = a.spans.keys().chain(b.spans.keys()).collect();
    let mut deltas = Vec::new();
    let mut total_shift = 0u64;
    for path in paths {
        let base = a.spans.get(path).map(|s| s.self_us).unwrap_or(0);
        let val = b.spans.get(path).map(|s| s.self_us).unwrap_or(0);
        if base == val {
            continue;
        }
        let delta = val as i64 - base as i64;
        total_shift += delta.unsigned_abs();
        deltas.push(SpanDelta {
            path: path.join("/"),
            baseline_self_us: base,
            value_self_us: val,
            delta_us: delta,
            share_pct: 0.0,
        });
    }
    for d in &mut deltas {
        d.share_pct = if total_shift == 0 {
            0.0
        } else {
            d.delta_us.unsigned_abs() as f64 / total_shift as f64 * 100.0
        };
    }
    deltas.sort_by(|x, y| {
        y.delta_us
            .unsigned_abs()
            .cmp(&x.delta_us.unsigned_abs())
            .then_with(|| x.path.cmp(&y.path))
    });
    if top > 0 {
        deltas.truncate(top);
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_obs::{HistogramSnapshot, SpanStat};
    use serde_json::Value;

    fn metrics(n: u64, bound: u64) -> Snapshot {
        Snapshot {
            at_micros: 0,
            counters: vec![("sim.events".into(), String::new(), n)],
            gauges: vec![("sim.live_peers".into(), String::new(), n as i64)],
            histograms: vec![(
                "lat".into(),
                String::new(),
                HistogramSnapshot {
                    count: 10,
                    sum: bound * 10,
                    p50: bound,
                    p95: bound,
                    p99: bound,
                    buckets: vec![(bound, 10)],
                    overflow: 0,
                },
            )],
        }
    }

    fn profile(pairs: &[(&str, u64)]) -> Profile {
        let mut profile = Profile::default();
        for &(path, self_us) in pairs {
            profile.spans.insert(
                path.split('/').map(|n| n.to_string().into()).collect(),
                SpanStat {
                    count: 1,
                    total_us: self_us,
                    self_us,
                    ..SpanStat::default()
                },
            );
        }
        profile
    }

    #[test]
    fn diff_covers_both_sides_and_quantiles() {
        let mut a = metrics(100, 10);
        a.counters.insert(0, ("only.a".into(), "x".to_string(), 7));
        let b = metrics(150, 100);
        let diff = diff_runs(&a, &b);
        let by_key = |k: &str| diff.metrics.iter().find(|m| m.key == k).unwrap().clone();
        assert_eq!(by_key("sim.events").pct, Some(50.0));
        let only_a = by_key("only.a{x}");
        assert_eq!((only_a.baseline, only_a.value), (7.0, 0.0));
        assert_eq!(only_a.pct, Some(-100.0));
        assert_eq!(by_key("lat/p95").baseline, 10.0);
        assert_eq!(by_key("lat/p95").value, 100.0);
        // Sorted by key, render stable.
        let keys: Vec<_> = diff.metrics.iter().map(|m| m.key.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert!(diff.render().contains("+50.0%"));
    }

    #[test]
    fn attribution_ranks_by_contribution() {
        let a = profile(&[("tick", 100), ("tick/choke", 50), ("tick/pick", 30)]);
        let b = profile(&[
            ("tick", 100),
            ("tick/choke", 350),
            ("tick/pick", 10),
            ("io", 80),
        ]);
        let deltas = attribute(&a, &b, 0);
        assert_eq!(deltas[0].path, "tick/choke");
        assert_eq!(deltas[0].delta_us, 300);
        assert_eq!(deltas[1].path, "io");
        assert_eq!(deltas[2].path, "tick/pick");
        let total: f64 = deltas.iter().map(|d| d.share_pct).sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert!((deltas[0].share_pct - 75.0).abs() < 1e-9);
        // `tick` unchanged: not listed.
        assert!(deltas.iter().all(|d| d.path != "tick"));
        assert_eq!(attribute(&a, &b, 2).len(), 2);
    }

    #[test]
    fn diff_json_is_valid_and_deterministic() {
        let a = metrics(100, 10);
        let b = metrics(150, 100);
        let mut diff = diff_runs(&a, &b);
        diff.spans = attribute(&profile(&[("tick", 10)]), &profile(&[("tick", 30)]), 0);
        let json = diff.to_json();
        assert_eq!(json, diff.to_json());
        let parsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("btstat-diff-v1")
        );
        assert!(!parsed.get("spans").unwrap().as_array().unwrap().is_empty());
    }
}
