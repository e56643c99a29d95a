//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms.
//!
//! Instruments are registered by a `&'static str` name plus an optional
//! runtime label (e.g. per-peer `"peer3"`); registering the same
//! `(name, label)` twice returns a handle to the *same* underlying
//! instrument, so independent components (and independent engines
//! sharing a swarm-wide registry) aggregate naturally. Handles are
//! `Arc`-backed: clone them freely, increment them from hot paths.
//!
//! [`Registry::snapshot`] walks the instruments in `(name, label)`
//! order, which makes the serialized snapshot deterministic whenever
//! the underlying values are (same inputs + a virtual [`TimeSource`]).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::time::TimeSource;

/// Preset histogram bucket boundaries (inclusive upper bounds).
///
/// Values above the last bound land in an implicit overflow bucket.
pub mod buckets {
    /// Latency in microseconds: 1 µs … 10 s.
    pub const LATENCY_US: &[u64] = &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

    /// Queue/buffer depths (items or frames).
    pub const DEPTH: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1024];

    /// Sizes in bytes: 64 B … 16 MiB.
    pub const BYTES: &[u64] = &[
        64,
        1 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
        16 << 20,
    ];
}

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds; `counts` has one extra overflow slot.
    bounds: &'static [u64],
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram with deterministic integer quantiles.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        core.counts[idx].fetch_add(1, Ordering::Relaxed);
        core.total.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.0;
        let counts: Vec<u64> = core
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let finite = || core.bounds.iter().copied().zip(counts.iter().copied());
        HistogramSnapshot {
            count: total,
            sum: core.sum.load(Ordering::Relaxed),
            p50: bucket_quantile(total, finite(), 50, 100),
            p95: bucket_quantile(total, finite(), 95, 100),
            p99: bucket_quantile(total, finite(), 99, 100),
            buckets: finite().filter(|&(_, c)| c > 0).collect(),
            overflow: counts[core.bounds.len()],
        }
    }
}

/// The bucket-quantile walk every histogram in this crate shares:
/// the upper bound of the finite bucket holding the rank-`q` sample
/// among `count` observations (rank 1-based, rounded up), 0 when
/// `count` is 0. `buckets` are the finite `(upper_bound, count)` pairs
/// in ascending order; a rank past them — the sample sits in the
/// overflow slot — clamps to the largest bound listed. A live
/// instrument lists every configured bound, empty or not; a merge of
/// parsed snapshots only knows the bounds some run recorded.
pub fn bucket_quantile(
    count: u64,
    buckets: impl IntoIterator<Item = (u64, u64)>,
    q_num: u64,
    q_den: u64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (count * q_num).div_ceil(q_den).max(1);
    let mut seen = 0u64;
    let mut largest = 0u64;
    for (bound, c) in buckets {
        seen += c;
        if seen >= rank {
            return bound;
        }
        largest = bound;
    }
    largest
}

/// Point-in-time view of one [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Median, as the upper bound of the bucket holding the p50 sample.
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Non-empty finite buckets as `(upper_bound, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
    /// Observations above the last finite bound.
    pub overflow: u64,
}

impl HistogramSnapshot {
    /// Fold `other` in: bucket counts merge by bound, count, sum and
    /// overflow add, and p50/p95/p99 are recomputed from the pooled
    /// buckets ([`bucket_quantile`]). Commutative and associative.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.overflow += other.overflow;
        let mut pooled: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(bound, c) in &other.buckets {
            *pooled.entry(bound).or_default() += c;
        }
        self.buckets = pooled.into_iter().collect();
        let q = |q_num| bucket_quantile(self.count, self.buckets.iter().copied(), q_num, 100);
        (self.p50, self.p95, self.p99) = (q(50), q(95), q(99));
    }
}

#[derive(Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Registration key: static name + runtime label (usually empty).
type Key = (&'static str, String);

#[derive(Debug)]
struct Inner {
    time: TimeSource,
    instruments: Mutex<BTreeMap<Key, Instrument>>,
}

/// The shared registry; see the [module docs](self). Cloning is cheap
/// and all clones share the same instruments and clock.
#[derive(Clone, Debug)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// New empty registry reading time from `time`.
    pub fn new(time: TimeSource) -> Registry {
        Registry {
            inner: Arc::new(Inner {
                time,
                instruments: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Convenience: registry on a wall clock.
    pub fn new_wall() -> Registry {
        Registry::new(TimeSource::wall())
    }

    /// Convenience: registry on a virtual (manually advanced) clock.
    pub fn new_manual() -> Registry {
        Registry::new(TimeSource::manual())
    }

    /// The registry's clock.
    pub fn time(&self) -> &TimeSource {
        &self.inner.time
    }

    /// Current clock reading in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.inner.time.now_micros()
    }

    /// Get-or-create an unlabeled counter.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, "")
    }

    /// Get-or-create a labeled counter (e.g. per-peer).
    pub fn counter_with(&self, name: &'static str, label: &str) -> Counter {
        let mut map = self.inner.instruments.lock().unwrap();
        match map
            .entry((name, label.to_string()))
            .or_insert_with(|| Instrument::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} registered as a non-counter"),
        }
    }

    /// Get-or-create an unlabeled gauge.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.gauge_with(name, "")
    }

    /// Get-or-create a labeled gauge.
    pub fn gauge_with(&self, name: &'static str, label: &str) -> Gauge {
        let mut map = self.inner.instruments.lock().unwrap();
        match map
            .entry((name, label.to_string()))
            .or_insert_with(|| Instrument::Gauge(Gauge(Arc::new(AtomicI64::new(0)))))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} registered as a non-gauge"),
        }
    }

    /// Get-or-create an unlabeled histogram over `bounds` (see
    /// [`buckets`] for presets).
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind
    /// or with different bounds.
    pub fn histogram(&self, name: &'static str, bounds: &'static [u64]) -> Histogram {
        self.histogram_with(name, "", bounds)
    }

    /// Get-or-create a labeled histogram.
    pub fn histogram_with(
        &self,
        name: &'static str,
        label: &str,
        bounds: &'static [u64],
    ) -> Histogram {
        assert!(
            !bounds.is_empty(),
            "histogram {name:?} needs at least one bucket"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds must be strictly increasing"
        );
        let mut map = self.inner.instruments.lock().unwrap();
        match map.entry((name, label.to_string())).or_insert_with(|| {
            let counts: Box<[AtomicU64]> = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Instrument::Histogram(Histogram(Arc::new(HistogramCore {
                bounds,
                counts,
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        }) {
            Instrument::Histogram(h) => {
                assert!(
                    std::ptr::eq(h.0.bounds, bounds),
                    "metric {name:?} re-registered with different bounds"
                );
                h.clone()
            }
            _ => panic!("metric {name:?} registered as a non-histogram"),
        }
    }

    /// Point-in-time snapshot of every instrument, sorted by
    /// `(name, label)`, timestamped from the registry clock.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.instruments.lock().unwrap();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for ((name, label), inst) in map.iter() {
            let name = Cow::Borrowed(*name);
            match inst {
                Instrument::Counter(c) => counters.push((name, label.clone(), c.get())),
                Instrument::Gauge(g) => gauges.push((name, label.clone(), g.get())),
                Instrument::Histogram(h) => histograms.push((name, label.clone(), h.snapshot())),
            }
        }
        Snapshot {
            at_micros: self.now_micros(),
            counters,
            gauges,
            histograms,
        }
    }
}

/// One snapshot entry: `(name, label, value)`. A live registry borrows
/// its instruments' static names; a snapshot read back from a file owns
/// them.
pub type Entry<V> = (Cow<'static, str>, String, V);

/// A point-in-time, serialization-ready view of a [`Registry`] — or of
/// several, once [`merge`](Snapshot::merge)d.
///
/// Entries are sorted by `(name, label)`; serializers render `name`
/// alone when the label is empty and `name{label}` otherwise
/// ([`metric_key`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Clock reading (µs) when the snapshot was taken.
    pub at_micros: u64,
    /// All counters.
    pub counters: Vec<Entry<u64>>,
    /// All gauges.
    pub gauges: Vec<Entry<i64>>,
    /// All histograms.
    pub histograms: Vec<Entry<HistogramSnapshot>>,
}

/// The exported key of an instrument: `name`, or `name{label}` when
/// labeled.
pub fn metric_key(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{label}}}")
    }
}

/// Fold `from` into the sorted entry list `into`: an entry only `from`
/// has is copied as it stands, one both have is combined by `add`.
fn merge_entries<V: Clone>(into: &mut Vec<Entry<V>>, from: &[Entry<V>], add: impl Fn(&mut V, &V)) {
    for (name, label, v) in from {
        let at =
            into.binary_search_by(|(n, l, _)| (&**n, l.as_str()).cmp(&(&**name, label.as_str())));
        match at {
            Ok(i) => add(&mut into[i].2, v),
            Err(i) => into.insert(i, (name.clone(), label.clone(), v.clone())),
        }
    }
}

impl Snapshot {
    /// Fold `other` in: counters and gauges sum, histograms
    /// [bucket-merge](HistogramSnapshot::merge), the timestamp keeps
    /// the max. Commutative and associative, with the empty snapshot as
    /// identity — an instrument only one side has keeps the quantiles it
    /// was written with, so a fleet of one run re-emits that run's line.
    pub fn merge(&mut self, other: &Snapshot) {
        self.at_micros = self.at_micros.max(other.at_micros);
        merge_entries(&mut self.counters, &other.counters, |a, b| *a += b);
        merge_entries(&mut self.gauges, &other.gauges, |a, b| *a += b);
        merge_entries(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
    }

    /// Value of the counter `name{label}`, if present.
    pub fn counter(&self, name: &str, label: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, l, _)| *n == name && l == label)
            .map(|(_, _, v)| *v)
    }

    /// Value of the gauge `name{label}`, if present.
    pub fn gauge(&self, name: &str, label: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(n, l, _)| *n == name && l == label)
            .map(|(_, _, v)| *v)
    }

    /// The histogram `name{label}`, if present.
    pub fn histogram(&self, name: &str, label: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, l, _)| *n == name && l == label)
            .map(|(_, _, h)| h)
    }

    /// Sum of a counter across every label (e.g. total bytes over all
    /// per-peer `net.bytes_in` counters).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| *v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::new_manual();
        let c = reg.counter("a.count");
        c.inc();
        c.add(4);
        // Same name → same instrument.
        assert_eq!(reg.counter("a.count").get(), 5);

        let g = reg.gauge("a.depth");
        g.set(7);
        g.add(-2);
        assert_eq!(reg.gauge("a.depth").get(), 5);
    }

    #[test]
    fn labels_separate_instruments() {
        let reg = Registry::new_manual();
        reg.counter_with("bytes", "p0").add(10);
        reg.counter_with("bytes", "p1").add(32);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("bytes", "p0"), Some(10));
        assert_eq!(snap.counter("bytes", "p1"), Some(32));
        assert_eq!(snap.counter_sum("bytes"), 42);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new_manual();
        reg.gauge("x");
        reg.counter("x");
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds() {
        let reg = Registry::new_manual();
        let h = reg.histogram("lat", buckets::LATENCY_US);
        for _ in 0..90 {
            h.observe(5); // ≤ 10 bucket
        }
        for _ in 0..10 {
            h.observe(50_000); // ≤ 100_000 bucket
        }
        let s = reg.snapshot();
        let hs = s.histogram("lat", "").unwrap();
        assert_eq!(hs.count, 100);
        assert_eq!(hs.p50, 10);
        assert_eq!(hs.p95, 100_000);
        assert_eq!(hs.p99, 100_000);
        assert_eq!(hs.buckets, vec![(10, 90), (100_000, 10)]);
        assert_eq!(hs.overflow, 0);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let reg = Registry::new_manual();
        let h = reg.histogram("big", buckets::DEPTH);
        h.observe(u64::MAX);
        h.observe(0);
        let s = reg.snapshot().histogram("big", "").unwrap().clone();
        assert_eq!(s.overflow, 1);
        assert_eq!(s.count, 2);
        // Overflow quantiles clamp to the largest finite bound.
        assert_eq!(s.p99, *buckets::DEPTH.last().unwrap());
    }

    #[test]
    fn quantile_rank_in_overflow_clamps_to_the_largest_listed_bound() {
        // Three of four samples above the last bound: every quantile's
        // rank lands in overflow. The live instrument lists both
        // configured bounds, so it clamps to 100 ...
        const BOUNDS: &[u64] = &[10, 100];
        let reg = Registry::new_manual();
        let h = reg.histogram("lat", BOUNDS);
        for v in [5, 1000, 1000, 1000] {
            h.observe(v);
        }
        let live = reg.snapshot().histogram("lat", "").unwrap().clone();
        assert_eq!((live.p50, live.p95, live.p99), (100, 100, 100));
        assert_eq!((live.buckets.clone(), live.overflow), (vec![(10, 1)], 3));
        // ... while a walk over the recorded buckets alone only knows 10.
        assert_eq!(
            bucket_quantile(4, live.buckets.iter().copied(), 50, 100),
            10
        );
        assert_eq!(bucket_quantile(4, [], 50, 100), 0);
        assert_eq!(bucket_quantile(0, [(10, 0)], 50, 100), 0);
    }

    #[test]
    fn merge_sums_and_pools_histogram_quantiles() {
        // 90 fast observations in one run, 10 slow in another: the
        // merged p95 must land in the slow bucket, like one histogram
        // that saw all 100 — not an average of per-run quantiles.
        let mk = |at: u64, v: u64, n: u64| {
            let reg = Registry::new_manual();
            reg.counter("c").add(n);
            reg.counter_with("c", "x").add(1);
            reg.gauge("g").set(n as i64);
            let h = reg.histogram("h", buckets::LATENCY_US);
            (0..n).for_each(|_| h.observe(v));
            reg.time().advance_to(at);
            reg.snapshot()
        };
        let a = mk(7, 5, 90);
        let mut b = mk(3, 50_000, 10);
        b.counters.push(("only.b".into(), String::new(), 4));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_jsonl_line(), ba.to_jsonl_line());
        assert_eq!(ab.at_micros, 7);
        assert_eq!(ab.counter("c", ""), Some(100));
        assert_eq!(ab.counter("c", "x"), Some(2));
        assert_eq!(ab.counter("only.b", ""), Some(4));
        assert_eq!(ab.gauge("g", ""), Some(100));
        let h = ab.histogram("h", "").unwrap();
        assert_eq!((h.count, h.sum), (100, 90 * 5 + 10 * 50_000));
        assert_eq!(h.buckets, vec![(10, 90), (100_000, 10)]);
        assert_eq!((h.p50, h.p95), (10, 100_000));
        // Entries stay sorted by (name, label) through the merge.
        let keys: Vec<_> = ab
            .counters
            .iter()
            .map(|(n, l, _)| (&**n, l.as_str()))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    }

    #[test]
    fn merging_into_an_empty_snapshot_is_the_identity() {
        const BOUNDS: &[u64] = &[10, 100];
        let reg = Registry::new_manual();
        reg.counter("c").inc();
        let h = reg.histogram("lat", BOUNDS);
        for v in [5, 1000, 1000, 1000] {
            h.observe(v);
        }
        let one = reg.snapshot();
        let mut fleet = Snapshot::default();
        fleet.merge(&one);
        // The overflow-rank quantiles are kept as written, not
        // recomputed from the recorded buckets.
        assert_eq!(fleet, one);
        assert_eq!(fleet.to_jsonl_line(), one.to_jsonl_line());
        // A second run pools: the clamp is then the largest bound
        // either run recorded.
        fleet.merge(&one);
        let pooled = fleet.histogram("lat", "").unwrap();
        assert_eq!((pooled.count, pooled.overflow, pooled.p50), (8, 6, 10));
    }

    #[test]
    fn empty_histogram_snapshot() {
        let reg = Registry::new_manual();
        reg.histogram("none", buckets::LATENCY_US);
        let s = reg.snapshot();
        let hs = s.histogram("none", "").unwrap();
        assert_eq!((hs.count, hs.sum, hs.p50, hs.p95, hs.p99), (0, 0, 0, 0, 0));
        assert!(hs.buckets.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_timestamped() {
        let reg = Registry::new_manual();
        reg.counter("z.last");
        reg.counter("a.first");
        reg.counter_with("m.mid", "b");
        reg.counter_with("m.mid", "a");
        reg.time().advance_to(123);
        let snap = reg.snapshot();
        assert_eq!(snap.at_micros, 123);
        let names: Vec<_> = snap
            .counters
            .iter()
            .map(|(n, l, _)| format!("{n}{{{l}}}"))
            .collect();
        assert_eq!(names, vec!["a.first{}", "m.mid{a}", "m.mid{b}", "z.last{}"]);
    }

    #[test]
    fn clones_share_instruments() {
        let reg = Registry::new_manual();
        let c = reg.counter("shared");
        let reg2 = reg.clone();
        reg2.counter("shared").add(3);
        assert_eq!(c.get(), 3);
    }
}
