//! Fleet-level paper-claim verdicts over merged offline artifacts.
//!
//! [`live`](crate::live) watches *one* swarm as it runs; this module
//! re-asserts the same §III claims (entropy ≈ 1, reciprocation, no
//! starvation) across a whole fleet of finished runs, using the merged
//! snapshot and per-run series that `btstat merge` reads back from each
//! run's on-disk artifacts. Verdicts are deterministic functions of the merged data,
//! so a fleet report is byte-identical regardless of the order runs
//! were merged in.
//!
//! A claim with no supporting data (a run emitted no `series.json`, say)
//! is reported healthy-but-vacuous, with the gap named in `detail` —
//! a silent pass and a missing instrument must not look alike.

use std::collections::BTreeMap;

use bt_obs::{SeriesView, Snapshot};

use crate::live::Thresholds;

/// One fleet-level claim verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetVerdict {
    /// Claim name (`entropy`, `reciprocation`, `starvation`).
    pub name: &'static str,
    /// Did the fleet satisfy the claim (vacuously true when no run
    /// recorded the underlying signal)?
    pub healthy: bool,
    /// The fleet-wide statistic the verdict is based on, when one was
    /// recorded.
    pub value: Option<f64>,
    /// The threshold compared against, when the claim has one.
    pub threshold: Option<f64>,
    /// Human-readable evidence (worst run, missing data, ...).
    pub detail: String,
}

impl FleetVerdict {
    /// Render as a JSON object (sorted fixed keys, deterministic).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"healthy\":{},\"value\":",
            self.name, self.healthy
        ));
        match self.value {
            Some(v) => out.push_str(&bt_obs::series::json_f64(v)),
            None => out.push_str("null"),
        }
        out.push_str(",\"threshold\":");
        match self.threshold {
            Some(v) => out.push_str(&bt_obs::series::json_f64(v)),
            None => out.push_str("null"),
        }
        out.push_str(",\"detail\":\"");
        bt_obs::export::escape_json_into(&mut out, &self.detail);
        out.push_str("\"}");
        out
    }
}

/// Minimum over every run's *final* sample of a float series, with the
/// run key that attains it.
fn min_last<'a>(
    series_by_run: &'a BTreeMap<String, Vec<SeriesView>>,
    name: &str,
) -> Option<(&'a str, f64)> {
    let mut worst: Option<(&str, f64)> = None;
    for (run, views) in series_by_run {
        let series = views.iter().find(|s| s.name == name);
        if let Some(&(_, v)) = series.and_then(|s| s.points.last()) {
            if worst.is_none_or(|(_, w)| v < w) {
                worst = Some((run.as_str(), v));
            }
        }
    }
    worst
}

/// Re-assert the paper's live-health claims over merged fleet data.
///
/// * `entropy` — the worst run's final `live.entropy` sample must stay
///   at or above [`Thresholds::min_entropy`].
/// * `reciprocation` — likewise for `live.reciprocation` against
///   [`Thresholds::min_reciprocation`].
/// * `starvation` — the merged `live.starved_peers` gauge (summed
///   across runs) must be zero.
///
/// `series_by_run` maps a run key (e.g. `flash_crowd_1k-s42`) to that
/// run's series; `metrics` is the fleet-merged snapshot.
pub fn fleet_verdicts(
    metrics: &Snapshot,
    series_by_run: &BTreeMap<String, Vec<SeriesView>>,
    thresholds: &Thresholds,
) -> Vec<FleetVerdict> {
    let mut out = Vec::with_capacity(3);

    for (name, series, threshold) in [
        ("entropy", "live.entropy", thresholds.min_entropy),
        (
            "reciprocation",
            "live.reciprocation",
            thresholds.min_reciprocation,
        ),
    ] {
        match min_last(series_by_run, series) {
            Some((run, v)) => out.push(FleetVerdict {
                name,
                healthy: v >= threshold,
                value: Some(v),
                threshold: Some(threshold),
                detail: format!("worst final {series} {v:.3} in run {run}"),
            }),
            None => out.push(FleetVerdict {
                name,
                healthy: true,
                value: None,
                threshold: Some(threshold),
                detail: format!("no run recorded {series}; claim not exercised"),
            }),
        }
    }

    match metrics.gauge("live.starved_peers", "") {
        Some(starved) => out.push(FleetVerdict {
            name: "starvation",
            healthy: starved == 0,
            value: Some(starved as f64),
            threshold: Some(0.0),
            detail: format!("{starved} starved peer(s) summed across the fleet"),
        }),
        None => out.push(FleetVerdict {
            name: "starvation",
            healthy: true,
            value: None,
            threshold: Some(0.0),
            detail: "no run recorded live.starved_peers; claim not exercised".to_string(),
        }),
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(&str, f64)]) -> Vec<SeriesView> {
        points
            .iter()
            .map(|&(name, v)| SeriesView {
                name: name.to_string(),
                stride: 1,
                points: vec![(0, v / 2.0), (10, v)],
            })
            .collect()
    }

    #[test]
    fn worst_run_drives_the_verdict() {
        let mut by_run = BTreeMap::new();
        by_run.insert(
            "a-s42".to_string(),
            series(&[("live.entropy", 0.95), ("live.reciprocation", 0.6)]),
        );
        by_run.insert(
            "b-s43".to_string(),
            series(&[("live.entropy", 0.55), ("live.reciprocation", 0.5)]),
        );
        let mut metrics = Snapshot::default();
        metrics
            .gauges
            .push(("live.starved_peers".into(), String::new(), 0));

        let verdicts = fleet_verdicts(&metrics, &by_run, &Thresholds::default());
        assert_eq!(verdicts.len(), 3);
        let entropy = &verdicts[0];
        assert_eq!(entropy.name, "entropy");
        assert!(!entropy.healthy, "0.55 < 0.7 must fail");
        assert_eq!(entropy.value, Some(0.55));
        assert!(entropy.detail.contains("b-s43"));
        assert!(verdicts[1].healthy, "0.5 >= 0.2");
        assert!(verdicts[2].healthy);
        assert_eq!(verdicts[2].value, Some(0.0));
    }

    #[test]
    fn missing_signals_are_vacuously_healthy_and_say_so() {
        let verdicts = fleet_verdicts(
            &Snapshot::default(),
            &BTreeMap::new(),
            &Thresholds::default(),
        );
        assert!(verdicts.iter().all(|v| v.healthy));
        assert!(verdicts.iter().all(|v| v.value.is_none()));
        assert!(verdicts.iter().all(|v| v.detail.contains("not exercised")));
    }

    #[test]
    fn verdict_json_is_deterministic() {
        let v = FleetVerdict {
            name: "entropy",
            healthy: true,
            value: Some(0.75),
            threshold: Some(0.7),
            detail: "worst final live.entropy 0.750 in run a-s42".to_string(),
        };
        assert_eq!(
            v.to_json(),
            "{\"name\":\"entropy\",\"healthy\":true,\"value\":0.75,\"threshold\":0.7,\
             \"detail\":\"worst final live.entropy 0.750 in run a-s42\"}"
        );
        let parsed: serde_json::Value = serde_json::from_str(&v.to_json()).unwrap();
        assert_eq!(parsed.get("value").and_then(|v| v.as_f64()), Some(0.75));
    }

    #[test]
    fn verdict_detail_is_escaped() {
        let v = FleetVerdict {
            name: "entropy",
            healthy: false,
            value: None,
            threshold: None,
            detail: "run a\"b\nc-s1".to_string(),
        };
        let parsed: serde_json::Value = serde_json::from_str(&v.to_json()).unwrap();
        assert_eq!(
            parsed.get("detail").and_then(|d| d.as_str()),
            Some("run a\"b\nc-s1")
        );
    }
}
