//! `btstat merge`: commutative fleet-wide aggregation.
//!
//! A [`FleetReport`] folds N runs into one document: the run manifests
//! sorted by `(key, digest)`, one merged [`Snapshot`] (counters and
//! gauges summed, histograms bucket-merged so fleet-wide p50/p95/p99
//! are exact, not averages of averages), one merged [`Profile`]
//! call tree, the per-run series kept side by side for overlay, and
//! the paper-claim verdicts re-asserted over the merged data.
//!
//! Order insensitivity is structural, not incidental: runs are sorted
//! on ingest and every merged structure is a sorted collection fed by
//! commutative `+`, so `to_json()` / `to_html()` are byte-identical
//! for any permutation of the same inputs (pinned by a proptest in
//! `tests/fleet_stat.rs`).

use std::collections::BTreeMap;

use bt_analysis::fleet::fleet_verdicts;
use bt_analysis::live::Thresholds;
use bt_obs::{views_to_json, Profile, SeriesView, Snapshot, SPARKLINE_JS};

use crate::artifacts::{push_json_str, series_by_run, RunArtifacts};

/// A merged fleet of runs, ready to render.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Ingested runs, sorted by `(key, digest)`.
    pub runs: Vec<RunArtifacts>,
    /// Fleet-merged registry snapshot.
    pub metrics: Snapshot,
    /// Fleet-merged span profile.
    pub profile: Profile,
    /// Per-run series, keyed by run key, for overlaying.
    pub series: BTreeMap<String, Vec<SeriesView>>,
}

impl FleetReport {
    /// Build a report from run artifacts, in any order.
    pub fn merge(mut runs: Vec<RunArtifacts>) -> FleetReport {
        runs.sort_by(|a, b| (a.key(), &a.digest).cmp(&(b.key(), &b.digest)));
        let mut metrics = Snapshot::default();
        let mut profile = Profile::default();
        for run in &runs {
            if let Some(m) = &run.metrics {
                metrics.merge(m);
            }
            if let Some(p) = &run.profile {
                profile.merge(p);
            }
        }
        let series = series_by_run(&runs);
        FleetReport {
            runs,
            metrics,
            profile,
            series,
        }
    }

    /// Paper-claim verdicts over the merged fleet.
    pub fn verdicts(&self) -> Vec<bt_analysis::FleetVerdict> {
        fleet_verdicts(&self.metrics, &self.series, &Thresholds::default())
    }

    /// True when every fleet verdict passed.
    pub fn healthy(&self) -> bool {
        self.verdicts().iter().all(|v| v.healthy)
    }

    /// The fleet report as one JSON document. Deterministic: the same
    /// set of runs yields the same bytes in any merge order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"btstat-fleet-v1\",\"runs\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&run.summary_json());
        }
        out.push_str("],\"metrics\":");
        out.push_str(&self.metrics.to_jsonl_line());
        out.push_str(",\"profile\":");
        out.push_str(&self.profile.to_json());
        out.push_str(",\"series\":{");
        self.push_series(&mut out);
        out.push_str("},\"verdicts\":[");
        for (i, v) in self.verdicts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_json());
        }
        out.push_str("],\"healthy\":");
        out.push_str(if self.healthy() { "true" } else { "false" });
        out.push('}');
        out
    }

    /// `"run key":{series document}` members, comma-separated.
    fn push_series(&self, out: &mut String) {
        for (i, (key, views)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, key);
            out.push(':');
            out.push_str(&views_to_json(views));
        }
    }

    /// The fleet report as a self-contained static HTML page: verdict
    /// banner, run table, top spans, and one sparkline per (run,
    /// series) drawn by the observatory's canvas renderer — no server,
    /// no assets, just the file.
    pub fn to_html(&self) -> String {
        let mut html = String::with_capacity(8192);
        html.push_str(FLEET_HTML_HEAD);

        let verdicts = self.verdicts();
        let healthy = verdicts.iter().all(|v| v.healthy);
        html.push_str(&format!(
            "<div id=\"health\"{}>",
            if healthy { "" } else { " class=\"bad\"" }
        ));
        for v in &verdicts {
            let (class, word) = if v.healthy {
                ("ok", "ok")
            } else {
                ("warn", "WARN")
            };
            let value = v
                .value
                .map(|x| format!("{x:.3}"))
                .unwrap_or_else(|| "n/a".to_string());
            html.push_str(&format!(
                "<span class=\"mon\" title=\"{}\">{} <span class=\"{}\">{} {}</span></span>",
                escape_html(&v.detail),
                v.name,
                class,
                value,
                word
            ));
        }
        html.push_str(&format!(
            "<span class=\"mon\">({} runs)</span></div>\n",
            self.runs.len()
        ));

        html.push_str(
            "<table><tr><th>run</th><th>peers</th><th>pieces</th><th>events</th>\
             <th>completed</th><th>digest</th></tr>\n",
        );
        for run in &self.runs {
            html.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td><code>{}</code></td></tr>\n",
                escape_html(&run.key()),
                run.peers,
                run.pieces,
                run.events_processed,
                run.completed_peers,
                escape_html(&run.digest)
            ));
        }
        html.push_str("</table>\n");

        let spans = self.profile.top_self(12);
        if !spans.is_empty() {
            html.push_str(
                "<h2>top spans (fleet self time)</h2><table>\
                 <tr><th>span</th><th>count</th><th>self µs</th><th>total µs</th></tr>\n",
            );
            for (name, stat) in &spans {
                html.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                    escape_html(name),
                    stat.count,
                    stat.self_us,
                    stat.total_us
                ));
            }
            html.push_str("</table>\n");
        }

        html.push_str("<h2>series overlay</h2><div id=\"charts\"></div>\n");
        // Embed the per-run series as one JSON blob the inline script
        // renders; the blob is the deterministic part of this page.
        html.push_str("<script>const FLEET={");
        self.push_series(&mut html);
        html.push_str("};\n");
        html.push_str(SPARKLINE_JS);
        html.push_str(FLEET_HTML_SCRIPT);
        html
    }
}

fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Static page head: same palette and layout as the live observatory
/// dashboard (`ObsServer`'s `/`), minus the polling.
const FLEET_HTML_HEAD: &str = r##"<!doctype html>
<html><head><meta charset="utf-8"><title>btstat fleet report</title>
<style>
 body{font:13px/1.4 monospace;background:#10141a;color:#cdd6e0;margin:16px}
 h1{font-size:16px;margin:0 0 8px}
 h2{font-size:14px;margin:16px 0 6px;color:#8fa3bd}
 #health{margin:6px 0 14px;padding:6px 10px;border-radius:4px;background:#1c2430}
 #health.bad{background:#3a1d1d}
 .mon{margin-right:14px}
 .ok{color:#7fd487}.warn{color:#ff8f8f;font-weight:bold}
 table{border-collapse:collapse;margin:4px 0}
 th,td{padding:2px 10px 2px 0;text-align:left;border-bottom:1px solid #1c2430}
 th{color:#8fa3bd}
 #charts{display:flex;flex-wrap:wrap;gap:12px}
 .chart{background:#161c26;border-radius:4px;padding:8px}
 .chart .name{color:#8fa3bd;margin-bottom:2px;max-width:220px;
              overflow:hidden;text-overflow:ellipsis;white-space:nowrap}
 .chart .val{color:#e8eef5}
 canvas{display:block;background:#10141a;border-radius:2px}
</style></head><body>
<h1>btstat fleet report</h1>
"##;

/// Static renderer after [`SPARKLINE_JS`]: the observatory's
/// sparklines, fed from the embedded `FLEET` blob instead of a polled
/// `/series`.
const FLEET_HTML_SCRIPT: &str = r##"const charts=document.getElementById("charts");
for(const[run,doc]of Object.entries(FLEET)){
  for(const s of doc.series){
    const el=document.createElement("div");el.className="chart";
    const label=run+" · "+s.name;
    el.innerHTML=`<div class="name" title="${label}">${label}</div>`+
      `<canvas width="220" height="56"></canvas><div class="val"></div>`;
    charts.appendChild(el);
    spark(el.querySelector("canvas"),s.points);
    const last=s.points[s.points.length-1];
    el.querySelector(".val").textContent=last?fmt(last[1]):"no data";
  }
}
</script></body></html>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use bt_obs::HistogramSnapshot;
    use serde_json::Value;

    pub(crate) fn run(scenario: &str, seed: u64, bound: u64, n: u64) -> RunArtifacts {
        let metrics = Snapshot {
            at_micros: seed,
            counters: vec![("sim.events".into(), String::new(), n)],
            gauges: vec![("live.starved_peers".into(), String::new(), 0)],
            histograms: vec![(
                "core.choke_round_us".into(),
                String::new(),
                HistogramSnapshot {
                    count: n,
                    sum: bound * n,
                    p50: bound,
                    p95: bound,
                    p99: bound,
                    buckets: vec![(bound, n)],
                    overflow: 0,
                },
            )],
        };
        let series = vec![SeriesView {
            name: "live.entropy".to_string(),
            stride: 1,
            points: vec![(0, 0.5), (10, 0.9)],
        }];
        RunArtifacts {
            scenario: scenario.to_string(),
            seed,
            peers: 10,
            pieces: 8,
            events_processed: n,
            completed_peers: 10,
            digest: format!("{:016x}", seed * 7),
            metrics: Some(metrics),
            series: Some(series),
            profile: None,
            trace_jsonl: None,
        }
    }

    #[test]
    fn merge_is_order_insensitive() {
        let a = run("flash", 1, 10, 90);
        let b = run("flash", 2, 100_000, 10);
        let c = run("crowd", 3, 1_000, 5);
        let fwd = FleetReport::merge(vec![a.clone(), b.clone(), c.clone()]);
        let rev = FleetReport::merge(vec![c, b, a]);
        assert_eq!(fwd.to_json(), rev.to_json());
        assert_eq!(fwd.to_html(), rev.to_html());
        // Exact fleet quantiles, not an average of per-run quantiles.
        let h = fwd.metrics.histogram("core.choke_round_us", "").unwrap();
        assert_eq!(h.count, 105);
        assert_eq!(h.p95, 100_000);
    }

    #[test]
    fn report_json_parses_and_carries_verdicts() {
        let report = FleetReport::merge(vec![run("flash", 1, 10, 4), run("flash", 2, 10, 6)]);
        let parsed: Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("btstat-fleet-v1")
        );
        assert_eq!(parsed.get("runs").unwrap().as_array().unwrap().len(), 2);
        let verdicts = parsed.get("verdicts").unwrap().as_array().unwrap();
        assert_eq!(verdicts.len(), 3);
        assert!(report.healthy());
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("sim.events"))
                .and_then(Value::as_u64),
            Some(10)
        );
    }

    #[test]
    fn a_fleet_of_one_reports_that_runs_own_documents() {
        let one = run("flash", 1, 10, 4);
        let report = FleetReport::merge(vec![one.clone()]);
        assert_eq!(report.metrics, one.metrics.unwrap());
        assert_eq!(report.series["flash-s1"], one.series.unwrap());
    }

    #[test]
    fn html_is_self_contained() {
        let report = FleetReport::merge(vec![run("flash", 1, 10, 4)]);
        let html = report.to_html();
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("function spark"));
        assert!(html.contains("flash-s1"));
        assert!(html.contains("live.entropy"));
        assert!(!html.contains("fetch("), "static page must not poll");
    }
}
