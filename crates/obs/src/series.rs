//! Streaming time-series on top of the metrics registry.
//!
//! A [`SeriesStore`] keeps one fixed-capacity ring of `(t_micros, f64)`
//! points per series name. Points arrive two ways:
//!
//! * [`SeriesStore::sample_registry`] / [`SeriesStore::append_snapshot`]
//!   append the current value of every counter and gauge (histograms
//!   are skipped — their quantiles already live in snapshots);
//! * [`SeriesStore::record`] appends a single float point directly, for
//!   derived observables (entropy, ratios) that are not integer
//!   instruments.
//!
//! When a ring fills it is *decimated*: every other point is dropped
//! and the series' stride doubles, so only every stride-th subsequent
//! append is kept. The retained points are therefore a pure function of
//! the append sequence — under a manual [`TimeSource`](crate::TimeSource)
//! the serialized store is byte-identical run to run, which is what the
//! series determinism tests pin. Wall-clock stores trade that for
//! liveness but keep the same bounded memory.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::export::escape_json_into;
use crate::registry::{metric_key, Registry, Snapshot};

/// Default per-series ring capacity (points kept before decimation).
pub const DEFAULT_CAPACITY: usize = 512;

#[derive(Debug)]
struct Ring {
    /// Keep one append in `stride`; always a power of two.
    stride: u64,
    /// Total appends offered to this ring (kept or not).
    offered: u64,
    points: VecDeque<(u64, f64)>,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            stride: 1,
            offered: 0,
            points: VecDeque::new(),
        }
    }

    fn push(&mut self, capacity: usize, t_micros: u64, value: f64) {
        let keep = self.offered.is_multiple_of(self.stride);
        self.offered += 1;
        if !keep {
            return;
        }
        if self.points.len() == capacity {
            // Decimate: keep even positions, double the stride. Kept
            // points sat at multiples of the old stride, so the
            // survivors sit at multiples of the new one and the
            // `offered % stride` gate above stays aligned.
            let mut i = 0;
            self.points.retain(|_| {
                let keep = i % 2 == 0;
                i += 1;
                keep
            });
            self.stride *= 2;
            if !(self.offered - 1).is_multiple_of(self.stride) {
                return;
            }
        }
        self.points.push_back((t_micros, value));
    }
}

#[derive(Debug)]
struct Inner {
    capacity: usize,
    series: Mutex<BTreeMap<String, Ring>>,
}

/// Bounded multi-series store; see the [module docs](self).
///
/// Cloning is cheap and all clones share the same rings, so a sim
/// thread can append while an HTTP server thread serializes.
#[derive(Clone, Debug)]
pub struct SeriesStore {
    registry: Registry,
    inner: Arc<Inner>,
}

/// One exported series: retained points plus the stride they survived.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesView {
    /// Series name (metric name, `name{label}` for labeled metrics).
    pub name: String,
    /// Current keep-one-in-`stride` decimation factor.
    pub stride: u64,
    /// Retained `(t_micros, value)` points, oldest first.
    pub points: Vec<(u64, f64)>,
}

impl SeriesStore {
    /// New store sampling `registry`, with [`DEFAULT_CAPACITY`] points
    /// per series.
    pub fn new(registry: &Registry) -> SeriesStore {
        SeriesStore::with_capacity(registry, DEFAULT_CAPACITY)
    }

    /// New store with an explicit per-series ring capacity (min 2).
    pub fn with_capacity(registry: &Registry, capacity: usize) -> SeriesStore {
        SeriesStore {
            registry: registry.clone(),
            inner: Arc::new(Inner {
                capacity: capacity.max(2),
                series: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The registry this store samples and reads time from.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Append one point to `name` at the registry clock's current time.
    ///
    /// Non-finite values are dropped (JSON has no NaN/Inf).
    pub fn record(&self, name: &str, value: f64) {
        self.record_at(name, self.registry.now_micros(), value);
    }

    /// Append one point to `name` at an explicit timestamp.
    pub fn record_at(&self, name: &str, t_micros: u64, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut map = self.inner.series.lock().unwrap();
        map.entry(name.to_string()).or_insert_with(Ring::new).push(
            self.inner.capacity,
            t_micros,
            value,
        );
    }

    /// Snapshot the registry and append every counter and gauge.
    pub fn sample_registry(&self) {
        self.append_snapshot(&self.registry.snapshot());
    }

    /// Append every counter and gauge of an existing snapshot (one
    /// point per instrument, timestamped from the snapshot).
    ///
    /// Labeled instruments become `name{label}` series. Histograms are
    /// skipped: their bucket vectors don't reduce to one float, and the
    /// JSONL snapshot stream already carries them.
    pub fn append_snapshot(&self, snap: &Snapshot) {
        let mut map = self.inner.series.lock().unwrap();
        let capacity = self.inner.capacity;
        let mut push = |name: &str, label: &str, v: f64| {
            map.entry(metric_key(name, label))
                .or_insert_with(Ring::new)
                .push(capacity, snap.at_micros, v);
        };
        for (name, label, v) in &snap.counters {
            push(name, label, *v as f64);
        }
        for (name, label, v) in &snap.gauges {
            push(name, label, *v as f64);
        }
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.inner.series.lock().unwrap().len()
    }

    /// True when no series has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted names of all series.
    pub fn names(&self) -> Vec<String> {
        self.inner.series.lock().unwrap().keys().cloned().collect()
    }

    /// Retained points of one series, oldest first.
    pub fn get(&self, name: &str) -> Option<Vec<(u64, f64)>> {
        self.inner
            .series
            .lock()
            .unwrap()
            .get(name)
            .map(|r| r.points.iter().copied().collect())
    }

    /// All series (optionally restricted to names starting with
    /// `prefix`), sorted by name.
    pub fn views(&self, prefix: Option<&str>) -> Vec<SeriesView> {
        self.inner
            .series
            .lock()
            .unwrap()
            .iter()
            .filter(|(name, _)| prefix.is_none_or(|p| name.starts_with(p)))
            .map(|(name, ring)| SeriesView {
                name: name.clone(),
                stride: ring.stride,
                points: ring.points.iter().copied().collect(),
            })
            .collect()
    }

    /// Serialize as one JSON object, sorted by series name:
    ///
    /// ```json
    /// {"series":[{"name":"sim.live_peers","stride":1,
    ///             "points":[[0,4],[30000000,7]]}]}
    /// ```
    ///
    /// Deterministic whenever the append sequence is: names are sorted,
    /// point order is append order, and floats render via Rust's
    /// shortest-roundtrip `Display` (integral values print bare).
    pub fn to_json(&self, prefix: Option<&str>) -> String {
        views_to_json(&self.views(prefix))
    }
}

/// The series document for `views`, in the order given — what
/// [`SeriesStore::to_json`] writes for a live store, and what a reader
/// of that document writes back.
pub fn views_to_json(views: &[SeriesView]) -> String {
    let mut out = String::with_capacity(64 + views.len() * 128);
    out.push_str("{\"series\":[");
    for (i, view) in views.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json_into(&mut out, &view.name);
        out.push_str(&format!("\",\"stride\":{},\"points\":[", view.stride));
        for (j, (t, v)) in view.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{t},{}]", json_f64(*v)));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The browser half of [`views_to_json`]'s format: `spark(canvas, pts)`
/// draws one series' `[t, v]` points as a `<canvas>` sparkline and
/// `fmt(v)` prints a value. The live dashboard (`bt-net`'s `GET /`)
/// and the fleet report (`btstat merge --html`) both embed it in their
/// own `<script>`.
pub const SPARKLINE_JS: &str = r##"function spark(canvas,pts){
  const ctx=canvas.getContext("2d"),W=canvas.width,H=canvas.height;
  ctx.clearRect(0,0,W,H);
  if(pts.length<2)return;
  let lo=Infinity,hi=-Infinity;
  for(const[,v]of pts){if(v<lo)lo=v;if(v>hi)hi=v;}
  if(hi===lo){hi+=1;lo-=1;}
  const t0=pts[0][0],t1=pts[pts.length-1][0]||1;
  ctx.strokeStyle="#5da9e9";ctx.lineWidth=1.5;ctx.beginPath();
  pts.forEach(([t,v],i)=>{
    const x=(t-t0)/(t1-t0||1)*(W-4)+2;
    const y=H-2-(v-lo)/(hi-lo)*(H-4);
    i?ctx.lineTo(x,y):ctx.moveTo(x,y);
  });
  ctx.stroke();
}
function fmt(v){return Math.abs(v)>=1e6?v.toExponential(2):
  (Number.isInteger(v)?v:v.toFixed(3));}
"##;

/// Render a finite float as valid JSON. Integral values print bare
/// (`4`, not `4.0`) so counter/gauge-sourced points read as the
/// integers they are; everything else uses Rust's shortest-roundtrip
/// `Display`, which is deterministic for identical bits.
pub fn json_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimeSource;

    fn store(capacity: usize) -> SeriesStore {
        let reg = Registry::new(TimeSource::manual());
        SeriesStore::with_capacity(&reg, capacity)
    }

    #[test]
    fn record_appends_points_in_order() {
        let s = store(8);
        s.registry().time().advance_to(10);
        s.record("x", 1.0);
        s.registry().time().advance_to(20);
        s.record("x", 2.5);
        assert_eq!(s.get("x").unwrap(), vec![(10, 1.0), (20, 2.5)]);
        assert_eq!(s.names(), vec!["x".to_string()]);
    }

    #[test]
    fn non_finite_points_are_dropped() {
        let s = store(8);
        s.record("x", f64::NAN);
        s.record("x", f64::INFINITY);
        assert!(s.get("x").is_none());
    }

    #[test]
    fn decimation_keeps_even_spacing() {
        let s = store(4);
        for i in 0..9u64 {
            s.record_at("x", i, i as f64);
        }
        // Appends 0..4 fill the ring; append 4 decimates to {0,2},
        // stride 2, then keeps 4 and 6; append 8 decimates to {0,4},
        // stride 4, then keeps 8.
        let pts: Vec<u64> = s.get("x").unwrap().iter().map(|(t, _)| *t).collect();
        assert_eq!(pts, vec![0, 4, 8]);
        assert_eq!(s.views(None)[0].stride, 4);
    }

    #[test]
    fn decimation_never_exceeds_capacity() {
        let s = store(16);
        for i in 0..10_000u64 {
            s.record_at("x", i, 0.0);
        }
        let pts = s.get("x").unwrap();
        assert!(pts.len() <= 16, "len={}", pts.len());
        // Survivors stay evenly strided.
        let stride = s.views(None)[0].stride;
        for w in pts.windows(2) {
            assert_eq!(w[1].0 - w[0].0, stride);
        }
    }

    #[test]
    fn snapshot_sampling_covers_counters_and_gauges() {
        let reg = Registry::new(TimeSource::manual());
        let s = SeriesStore::new(&reg);
        reg.counter("c.total").add(3);
        reg.counter_with("net.bytes", "p0").add(7);
        reg.gauge("g.depth").set(-2);
        reg.histogram("h.lat", crate::buckets::LATENCY_US)
            .observe(5);
        reg.time().advance_to(1000);
        s.sample_registry();
        assert_eq!(s.get("c.total").unwrap(), vec![(1000, 3.0)]);
        assert_eq!(s.get("net.bytes{p0}").unwrap(), vec![(1000, 7.0)]);
        assert_eq!(s.get("g.depth").unwrap(), vec![(1000, -2.0)]);
        assert!(s.get("h.lat").is_none(), "histograms are not series");
    }

    #[test]
    fn json_export_is_sorted_filtered_and_deterministic() {
        let s = store(8);
        s.record_at("b.second", 5, 2.0);
        s.record_at("a.first", 3, 0.5);
        let all = s.to_json(None);
        assert_eq!(
            all,
            "{\"series\":[\
             {\"name\":\"a.first\",\"stride\":1,\"points\":[[3,0.5]]},\
             {\"name\":\"b.second\",\"stride\":1,\"points\":[[5,2]]}\
             ]}"
        );
        assert_eq!(all, s.to_json(None));
        assert_eq!(
            s.to_json(Some("b.")),
            "{\"series\":[{\"name\":\"b.second\",\"stride\":1,\"points\":[[5,2]]}]}"
        );
        assert_eq!(s.to_json(Some("zzz")), "{\"series\":[]}");
    }

    #[test]
    fn clones_share_rings() {
        let s = store(8);
        let s2 = s.clone();
        s2.record_at("x", 1, 1.0);
        assert_eq!(s.get("x").unwrap().len(), 1);
    }

    #[test]
    fn capacity_one_is_clamped_to_two_and_still_decimates() {
        // A one-point ring cannot decimate (keeping "even positions"
        // of one point never frees a slot), so the constructor clamps
        // to 2; the ring must then behave exactly like `store(2)`.
        let s = store(1);
        for i in 0..64u64 {
            s.record_at("x", i, i as f64);
        }
        let pts = s.get("x").unwrap();
        assert!(!pts.is_empty() && pts.len() <= 2, "len={}", pts.len());
        let view = &s.views(None)[0];
        assert!(view.stride.is_power_of_two());
        // Every survivor sits on the stride grid.
        for (t, _) in &pts {
            assert_eq!(t % view.stride, 0, "t={t} stride={}", view.stride);
        }
    }

    #[test]
    fn constant_series_decimates_like_any_other() {
        // Decimation is positional, not value-based: a flat line must
        // not collapse to one point or dodge the stride doubling.
        let s = store(4);
        for i in 0..33u64 {
            s.record_at("flat", i, 7.0);
        }
        let view = &s.views(None)[0];
        assert_eq!(view.stride, 16);
        let pts: Vec<u64> = view.points.iter().map(|(t, _)| *t).collect();
        assert_eq!(pts, vec![0, 16, 32]);
        assert!(view.points.iter().all(|&(_, v)| v == 7.0));
    }

    #[test]
    fn empty_store_exports_exact_bytes() {
        let s = store(8);
        assert_eq!(s.to_json(None), "{\"series\":[]}");
        assert_eq!(s.to_json(Some("any.")), "{\"series\":[]}");
        // A store whose only offered points were non-finite is still
        // empty on the wire.
        s.record("x", f64::NEG_INFINITY);
        assert_eq!(s.to_json(None), "{\"series\":[]}");
    }
}
