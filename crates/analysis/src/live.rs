//! Online swarm-health monitors — the paper's invariants, watched live.
//!
//! The classic pipeline in this crate scores *finished* traces; this
//! module scores a swarm **while it runs**. A [`HealthMonitor`] is fed
//! one [`LiveSample`] per sampling round (the simulator does this on
//! its metrics `Sample` event; a live engine can do it per choke
//! round) and maintains four verdicts, one per paper claim:
//!
//! | monitor | observable | paper anchor |
//! |---|---|---|
//! | `entropy` | normalized availability entropy | §IV: rarest-first keeps piece availability ≈ uniform |
//! | `replication` | min/max piece replication | §IV-B: the rarest set never empties (no missing piece) |
//! | `reciprocation` | reciprocated ÷ leecher unchokes | §V: choke algorithm's tit-for-tat clusters |
//! | `starvation` | max seconds any leecher has gone blockless | §IV-A.2: flash-crowd service rate |
//!
//! Each observable is published as `live.*` gauges (and float series
//! when a [`SeriesStore`] is attached), so a healthy→unhealthy
//! transition and a recovery are both visible in the exported metrics
//! and series; the driver watches [`HealthReport::healthy`] for the
//! edge. All state is derived from the fed samples alone — no clocks,
//! no RNG — so under a manual time source the monitor is deterministic
//! and safe to run inside the reproducibility-pinned simulator.

use std::sync::{Arc, Mutex};

use bt_obs::series::json_f64;
use bt_obs::{Gauge, Registry, SeriesStore};

/// Normalized Shannon entropy of a piece-replication vector, in
/// `[0, 1]`: `1.0` when every piece has the same number of copies,
/// lower the more lopsided replication gets.
///
/// Degenerate inputs (zero or one piece, or no copies at all anywhere)
/// are vacuously uniform and return `1.0`.
pub fn availability_entropy(counts: &[u32]) -> f64 {
    if counts.len() <= 1 {
        return 1.0;
    }
    let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    if total == 0 {
        return 1.0;
    }
    let mut h = 0.0f64;
    for &c in counts {
        if c == 0 {
            continue;
        }
        let p = f64::from(c) / total as f64;
        h -= p * p.ln();
    }
    (h / (counts.len() as f64).ln()).clamp(0.0, 1.0)
}

/// Warning thresholds for the four monitors; see the
/// [module docs](self) for what each one watches.
#[derive(Clone, Debug)]
pub struct Thresholds {
    /// `entropy` warns below this normalized entropy.
    pub min_entropy: f64,
    /// `reciprocation` warns below this reciprocated fraction.
    pub min_reciprocation: f64,
    /// `starvation` warns when a leecher has gone this many seconds
    /// without receiving a block.
    pub max_starvation_secs: u64,
    /// `replication` warns when `max/min` replication exceeds this
    /// ratio (`None` = only warn on a missing piece, `min == 0`).
    pub max_spread_ratio: Option<f64>,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            min_entropy: 0.7,
            min_reciprocation: 0.2,
            max_starvation_secs: 900,
            max_spread_ratio: None,
        }
    }
}

/// One round of ground-truth observations, fed to
/// [`HealthMonitor::observe`]. All slices describe the *current* swarm
/// state; the monitor copies what it keeps.
#[derive(Clone, Copy, Debug)]
pub struct LiveSample<'a> {
    /// Copies of each piece across live peers (the availability index).
    pub counts: &'a [u32],
    /// Directed unchokes held by *leechers* this round (seed unchokes
    /// are altruistic by design and excluded from reciprocity).
    pub leecher_unchokes: u64,
    /// How many of those unchokes the counterpart reciprocates.
    pub reciprocated: u64,
    /// Seconds since each live leecher last received a block (or
    /// joined); seeds and departed peers are not included.
    pub starvation_secs: &'a [u64],
}

/// Verdict of a single monitor at the latest observed round.
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorVerdict {
    /// Monitor name: `entropy`, `replication`, `reciprocation` or
    /// `starvation`.
    pub name: &'static str,
    /// Whether the observable is on the healthy side of its threshold.
    pub healthy: bool,
    /// The observable's current value.
    pub value: f64,
    /// The threshold it is judged against.
    pub threshold: f64,
}

/// Point-in-time health report: every monitor's verdict plus overall
/// status. `monitors` is empty (and [`healthy`](Self::healthy) is
/// vacuously true) until the first sample arrives.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct HealthReport {
    /// Clock reading (µs) of the latest observed sample.
    pub at_micros: u64,
    /// Number of samples observed so far.
    pub samples: u64,
    /// Per-monitor verdicts, in fixed order.
    pub monitors: Vec<MonitorVerdict>,
}

impl HealthReport {
    /// True when every monitor is healthy (or none has reported yet).
    pub fn healthy(&self) -> bool {
        self.monitors.iter().all(|m| m.healthy)
    }

    /// Serialize as a self-contained JSON object (deterministic for
    /// identical reports):
    ///
    /// ```json
    /// {"healthy":true,"samples":12,"at_micros":360000000,
    ///  "monitors":[{"name":"entropy","healthy":true,
    ///               "value":0.98,"threshold":0.7}, ...]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.monitors.len() * 96);
        out.push_str(&format!(
            "{{\"healthy\":{},\"samples\":{},\"at_micros\":{},\"monitors\":[",
            self.healthy(),
            self.samples,
            self.at_micros
        ));
        for (i, m) in self.monitors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"healthy\":{},\"value\":{},\"threshold\":{}}}",
                m.name,
                m.healthy,
                json_f64(m.value),
                json_f64(m.threshold)
            ));
        }
        out.push_str("]}");
        out
    }

    /// One-line human summary for end-of-run printouts.
    pub fn summary_line(&self) -> String {
        if self.monitors.is_empty() {
            return "no samples".to_string();
        }
        let parts: Vec<String> = self
            .monitors
            .iter()
            .map(|m| {
                format!(
                    "{}={:.3} {}",
                    m.name,
                    m.value,
                    if m.healthy { "ok" } else { "WARN" }
                )
            })
            .collect();
        format!("{} ({} samples)", parts.join(", "), self.samples)
    }
}

struct Gauges {
    entropy_milli: Gauge,
    replication_min: Gauge,
    replication_max: Gauge,
    reciprocation_milli: Gauge,
    starved_peers: Gauge,
    max_starvation_secs: Gauge,
}

struct MonitorInner {
    thresholds: Thresholds,
    series: Mutex<Option<SeriesStore>>,
    gauges: Gauges,
    state: Mutex<HealthReport>,
}

/// Incremental health monitor; see the [module docs](self).
///
/// Cloning is cheap; all clones share state, so another thread can
/// render [`report`](Self::report) while the swarm thread feeds
/// [`observe`](Self::observe).
#[derive(Clone)]
pub struct HealthMonitor {
    inner: Arc<MonitorInner>,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("thresholds", &self.inner.thresholds)
            .finish_non_exhaustive()
    }
}

impl HealthMonitor {
    /// New monitor publishing `live.*` gauges into `registry`.
    pub fn new(registry: &Registry, thresholds: Thresholds) -> HealthMonitor {
        let gauges = Gauges {
            entropy_milli: registry.gauge("live.entropy_milli"),
            replication_min: registry.gauge("live.replication_min"),
            replication_max: registry.gauge("live.replication_max"),
            reciprocation_milli: registry.gauge("live.reciprocation_milli"),
            starved_peers: registry.gauge("live.starved_peers"),
            max_starvation_secs: registry.gauge("live.max_starvation_secs"),
        };
        HealthMonitor {
            inner: Arc::new(MonitorInner {
                thresholds,
                series: Mutex::new(None),
                gauges,
                state: Mutex::new(HealthReport::default()),
            }),
        }
    }

    /// Also record `live.entropy` / `live.reciprocation` float series
    /// into `store` on every observation.
    pub fn set_series(&self, store: SeriesStore) {
        *self.inner.series.lock().unwrap() = Some(store);
    }

    /// The monitor's thresholds.
    pub fn thresholds(&self) -> &Thresholds {
        &self.inner.thresholds
    }

    /// Feed one sampling round; updates gauges and series and
    /// refreshes [`report`](Self::report).
    pub fn observe(&self, now_micros: u64, sample: &LiveSample<'_>) {
        let t = &self.inner.thresholds;
        let g = &self.inner.gauges;

        let entropy = availability_entropy(sample.counts);
        let min = sample.counts.iter().copied().min().unwrap_or(0);
        let max = sample.counts.iter().copied().max().unwrap_or(0);
        let spread_ratio = if min > 0 {
            f64::from(max) / f64::from(min)
        } else {
            f64::INFINITY
        };
        // An empty piece vector (or empty swarm) judges vacuously.
        let replication_ok = sample.counts.is_empty()
            || (min > 0 && t.max_spread_ratio.is_none_or(|r| spread_ratio <= r));
        let reciprocation = if sample.leecher_unchokes == 0 {
            1.0
        } else {
            sample.reciprocated as f64 / sample.leecher_unchokes as f64
        };
        let max_starvation = sample.starvation_secs.iter().copied().max().unwrap_or(0);
        let starved = sample
            .starvation_secs
            .iter()
            .filter(|&&s| s > t.max_starvation_secs)
            .count();

        g.entropy_milli.set((entropy * 1000.0).round() as i64);
        g.replication_min.set(i64::from(min));
        g.replication_max.set(i64::from(max));
        g.reciprocation_milli
            .set((reciprocation * 1000.0).round() as i64);
        g.starved_peers.set(starved as i64);
        g.max_starvation_secs.set(max_starvation as i64);

        if let Some(store) = self.inner.series.lock().unwrap().as_ref() {
            store.record_at("live.entropy", now_micros, entropy);
            store.record_at("live.reciprocation", now_micros, reciprocation);
        }

        let verdicts = vec![
            MonitorVerdict {
                name: "entropy",
                healthy: entropy >= t.min_entropy,
                value: entropy,
                threshold: t.min_entropy,
            },
            MonitorVerdict {
                name: "replication",
                healthy: replication_ok,
                value: if spread_ratio.is_finite() {
                    spread_ratio
                } else {
                    0.0
                },
                threshold: t.max_spread_ratio.unwrap_or(0.0),
            },
            MonitorVerdict {
                name: "reciprocation",
                healthy: reciprocation >= t.min_reciprocation,
                value: reciprocation,
                threshold: t.min_reciprocation,
            },
            MonitorVerdict {
                name: "starvation",
                healthy: max_starvation <= t.max_starvation_secs,
                value: max_starvation as f64,
                threshold: t.max_starvation_secs as f64,
            },
        ];

        let mut state = self.inner.state.lock().unwrap();
        state.at_micros = now_micros;
        state.samples += 1;
        state.monitors = verdicts;
    }

    /// The latest [`HealthReport`] (empty before the first sample).
    pub fn report(&self) -> HealthReport {
        self.inner.state.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_obs::TimeSource;

    #[test]
    fn entropy_of_uniform_counts_is_one() {
        assert_eq!(availability_entropy(&[3, 3, 3, 3]), 1.0);
        assert_eq!(availability_entropy(&[]), 1.0);
        assert_eq!(availability_entropy(&[7]), 1.0);
        assert_eq!(availability_entropy(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn entropy_drops_as_replication_skews() {
        let uniform = availability_entropy(&[5, 5, 5, 5]);
        let skewed = availability_entropy(&[17, 1, 1, 1]);
        let degenerate = availability_entropy(&[20, 0, 0, 0]);
        assert!(skewed < uniform, "{skewed} !< {uniform}");
        assert!(degenerate < skewed, "{degenerate} !< {skewed}");
        assert_eq!(degenerate, 0.0);
    }

    fn healthy_sample() -> LiveSample<'static> {
        LiveSample {
            counts: &[4, 4, 5, 4],
            leecher_unchokes: 10,
            reciprocated: 8,
            starvation_secs: &[5, 30, 0],
        }
    }

    #[test]
    fn healthy_swarm_reports_all_ok() {
        let reg = Registry::new(TimeSource::manual());
        let mon = HealthMonitor::new(&reg, Thresholds::default());
        assert!(mon.report().healthy());
        assert_eq!(mon.report().monitors.len(), 0);

        mon.observe(1_000_000, &healthy_sample());
        let report = mon.report();
        assert!(report.healthy());
        assert_eq!(report.samples, 1);
        assert_eq!(report.at_micros, 1_000_000);
        assert_eq!(report.monitors.len(), 4);

        let snap = reg.snapshot();
        assert_eq!(snap.gauge("live.entropy_milli", ""), Some(996));
        assert_eq!(snap.gauge("live.replication_min", ""), Some(4));
        assert_eq!(snap.gauge("live.replication_max", ""), Some(5));
        assert_eq!(snap.gauge("live.reciprocation_milli", ""), Some(800));
        assert_eq!(snap.gauge("live.starved_peers", ""), Some(0));
    }

    #[test]
    fn missing_piece_trips_replication_monitor() {
        let reg = Registry::new(TimeSource::manual());
        let mon = HealthMonitor::new(&reg, Thresholds::default());
        mon.observe(
            0,
            &LiveSample {
                counts: &[0, 9, 9, 9],
                leecher_unchokes: 0,
                reciprocated: 0,
                starvation_secs: &[],
            },
        );
        let report = mon.report();
        assert!(!report.healthy());
        let rep = report
            .monitors
            .iter()
            .find(|m| m.name == "replication")
            .unwrap();
        assert!(!rep.healthy);
        assert_eq!(reg.snapshot().gauge("live.replication_min", ""), Some(0));

        // The piece reappears: the next sample reports recovery.
        mon.observe(1, &healthy_sample());
        let report = mon.report();
        assert!(report.healthy(), "{}", report.summary_line());
        assert_eq!((report.samples, report.at_micros), (2, 1));
        assert_eq!(reg.snapshot().gauge("live.replication_min", ""), Some(4));
    }

    #[test]
    fn report_json_is_wellformed_and_deterministic() {
        let reg = Registry::new(TimeSource::manual());
        let mon = HealthMonitor::new(&reg, Thresholds::default());
        assert_eq!(
            mon.report().to_json(),
            "{\"healthy\":true,\"samples\":0,\"at_micros\":0,\"monitors\":[]}"
        );
        mon.observe(5, &healthy_sample());
        let json = mon.report().to_json();
        assert_eq!(json, mon.report().to_json());
        assert!(json.starts_with("{\"healthy\":true,\"samples\":1,\"at_micros\":5,"));
        assert!(json.contains("{\"name\":\"entropy\",\"healthy\":true,"));
        assert!(json.contains("\"threshold\":0.7}"));
    }

    #[test]
    fn vacuous_rounds_stay_healthy() {
        let reg = Registry::new(TimeSource::manual());
        let mon = HealthMonitor::new(&reg, Thresholds::default());
        mon.observe(
            0,
            &LiveSample {
                counts: &[],
                leecher_unchokes: 0,
                reciprocated: 0,
                starvation_secs: &[],
            },
        );
        assert!(mon.report().healthy());
    }

    #[test]
    fn entropy_series_recorded_when_store_attached() {
        let reg = Registry::new(TimeSource::manual());
        let store = SeriesStore::new(&reg);
        let mon = HealthMonitor::new(&reg, Thresholds::default());
        mon.set_series(store.clone());
        mon.observe(7, &healthy_sample());
        let pts = store.get("live.entropy").unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].0, 7);
        assert!(pts[0].1 > 0.9);
        assert_eq!(store.get("live.reciprocation").unwrap()[0].1, 0.8);
    }
}
