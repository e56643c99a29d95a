//! Hierarchical span tracing and a self-profiler.
//!
//! A [`Profiler`] hands out RAII [`SpanGuard`]s (usually via the
//! [`span!`](crate::span) macro). Each thread keeps the call tree it
//! has seen as a tree of nodes: entering a span finds the child of the
//! innermost open span by name, leaving it adds to that node's stats,
//! so nesting is recovered from runtime call structure without any
//! global registration, lock or allocation per span. A thread's stats
//! reach the profiler's shared table in batches: every few thousand
//! root-span exits, on [`Profiler::snapshot`] from that thread, and
//! when the thread exits.
//!
//! The aggregate — a [`Profile`] — keys stats by the full span *path*
//! (e.g. `sim.event / core.handle.message / core.piece_pick`) and
//! records call count, total time, self time (total minus time spent in
//! child spans) and a fixed-bucket duration histogram from which
//! deterministic integer p50/p95/p99 are derived. It can be rendered as
//! a pretty call-tree report, a flat per-name table, or deterministic
//! JSON.
//!
//! Like the metrics [`Registry`](crate::Registry), a profiler reads
//! time from a [`TimeSource`]: under a driver with a virtual clock
//! (`bt-sim`) every duration is derived from simulated time, so the
//! serialized profile is byte-identical run to run and independent of
//! host load or worker count; under a wall clock (`bt-net`,
//! microbenches) it measures real elapsed time.
//!
//! Disabled profilers ([`Profiler::disabled`]) make `span()` a single
//! branch, so instrumented hot paths cost nothing when profiling is
//! off.
//!
//! # Example
//!
//! ```
//! use bt_obs::{span, Profiler, TimeSource};
//!
//! let prof = Profiler::new(TimeSource::manual());
//! let clock = prof.time().unwrap().clone();
//! {
//!     span!(prof, "outer");
//!     clock.advance_to(100);
//!     {
//!         span!(prof, "inner");
//!         clock.advance_to(130);
//!     }
//!     clock.advance_to(135);
//! }
//! let profile = prof.snapshot();
//! let outer = profile.get(&["outer"]).unwrap();
//! assert_eq!((outer.total_us, outer.self_us), (135, 105));
//! ```

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::registry::{bucket_quantile, buckets};
use crate::time::TimeSource;

/// Duration histogram bounds (µs), shared with the metrics registry so
/// span quantiles line up with `*_us` histogram quantiles.
const DUR_BOUNDS: &[u64] = buckets::LATENCY_US;

/// Bucket slots: one per finite bound plus an overflow slot.
const DUR_SLOTS: usize = DUR_BOUNDS.len() + 1;

/// Aggregated statistics for one span path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total elapsed microseconds across all completions.
    pub total_us: u64,
    /// Elapsed microseconds not attributed to child spans.
    pub self_us: u64,
    /// Duration histogram over [`buckets::LATENCY_US`] plus overflow.
    pub dur_buckets: [u64; DUR_SLOTS],
}

impl SpanStat {
    fn record(&mut self, elapsed_us: u64, self_us: u64) {
        self.count += 1;
        self.total_us += elapsed_us;
        self.self_us += self_us;
        let idx = DUR_BOUNDS
            .iter()
            .position(|&b| elapsed_us <= b)
            .unwrap_or(DUR_BOUNDS.len());
        self.dur_buckets[idx] += 1;
    }

    fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.self_us += other.self_us;
        for (a, b) in self.dur_buckets.iter_mut().zip(other.dur_buckets.iter()) {
            *a += b;
        }
    }

    /// Deterministic integer quantile of the duration histogram, by the
    /// registry's rule ([`bucket_quantile`] over every bound of
    /// [`buckets::LATENCY_US`]).
    pub fn quantile(&self, q_num: u64, q_den: u64) -> u64 {
        let finite = DUR_BOUNDS.iter().copied().zip(self.dur_buckets);
        bucket_quantile(self.count, finite, q_num, q_den)
    }

    /// Median duration (bucket upper bound), µs.
    pub fn p50_us(&self) -> u64 {
        self.quantile(50, 100)
    }

    /// 95th-percentile duration (bucket upper bound), µs.
    pub fn p95_us(&self) -> u64 {
        self.quantile(95, 100)
    }

    /// 99th-percentile duration (bucket upper bound), µs.
    pub fn p99_us(&self) -> u64 {
        self.quantile(99, 100)
    }
}

/// Span path: the names of every open ancestor plus the span itself. A
/// live profiler borrows the static names its spans were opened with; a
/// profile read back from a file owns them.
type Path = Vec<Cow<'static, str>>;

#[derive(Debug)]
struct ProfInner {
    /// Distinguishes this profiler's arena among a thread's arenas;
    /// never 0, which a disabled profiler's guards carry.
    id: u64,
    time: TimeSource,
    stats: Mutex<BTreeMap<Path, SpanStat>>,
}

impl ProfInner {
    /// The shared table. Every update is one whole `SpanStat::merge`,
    /// so the table is valid even if a holder of the lock panicked.
    fn table(&self) -> MutexGuard<'_, BTreeMap<Path, SpanStat>> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One open span on a thread's stack.
struct Frame {
    node: usize,
    start_us: u64,
    /// Total microseconds spent in already-closed direct children.
    child_us: u64,
}

/// One position in a thread's call tree: a span name under one chain of
/// ancestors. Node 0 is the nameless parent of every root span.
#[derive(Default)]
struct Node {
    name: &'static str,
    parent: usize,
    children: Vec<usize>,
    /// Completions since the last flush.
    pending: SpanStat,
}

/// Root-span exits between two flushes of a thread's arena: what a
/// snapshot taken from another thread can lag a live thread by.
const FLUSH_ROOTS: u32 = 4096;

/// Per-thread, per-profiler span state: the call tree seen so far, the
/// open-span stack into it, and each node's stats since the last flush.
struct Arena {
    prof: Arc<ProfInner>,
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    roots_closed: u32,
}

impl Arena {
    /// The child of `parent` called `name`, made on first sight. Names
    /// are compared by address: two literals with one spelling may get
    /// two nodes, which `flush` folds back into one path.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        let known = &self.nodes[parent].children;
        if let Some(&at) = known
            .iter()
            .find(|&&c| std::ptr::eq(self.nodes[c].name, name))
        {
            return at;
        }
        let at = self.nodes.len();
        self.nodes[parent].children.push(at);
        self.nodes.push(Node {
            name,
            parent,
            ..Node::default()
        });
        at
    }

    /// Move every node's pending stats into the shared table, keyed by
    /// the node's path. Open spans stay on the stack and record into
    /// their (now empty) nodes when they close.
    fn flush(&mut self) {
        self.roots_closed = 0;
        let mut shared = self.prof.table();
        for i in 1..self.nodes.len() {
            if self.nodes[i].pending.count == 0 {
                continue;
            }
            let mut path = Path::new();
            let mut at = i;
            while at != 0 {
                path.push(Cow::Borrowed(self.nodes[at].name));
                at = self.nodes[at].parent;
            }
            path.reverse();
            let stat = std::mem::take(&mut self.nodes[i].pending);
            shared.entry(path).or_default().merge(&stat);
        }
    }
}

/// A thread that exits hands in what it still holds, so spans closed
/// on a worker are in the profile once the worker has been joined.
impl Drop for Arena {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static ARENAS: RefCell<Vec<Arena>> = const { RefCell::new(Vec::new()) };
}

static NEXT_PROFILER_ID: AtomicU64 = AtomicU64::new(1);

/// Records hierarchical span timings; see the [module docs](self).
/// Cloning is cheap and all clones feed the same profile.
#[derive(Clone, Debug)]
pub struct Profiler {
    inner: Option<Arc<ProfInner>>,
}

impl Profiler {
    /// A new enabled profiler reading durations from `time`.
    pub fn new(time: TimeSource) -> Profiler {
        Profiler {
            inner: Some(Arc::new(ProfInner {
                id: NEXT_PROFILER_ID.fetch_add(1, Ordering::Relaxed),
                time,
                stats: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A permanently disabled profiler: `span()` is a single branch and
    /// records nothing. The default for instrumented components.
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// True when spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The profiler's clock, or `None` when disabled. Virtual-clock
    /// drivers advance this in lock-step with their event time.
    pub fn time(&self) -> Option<&TimeSource> {
        self.inner.as_ref().map(|i| &i.time)
    }

    /// Open a span named `name`, closed when the returned guard drops.
    /// Guards must drop in LIFO order (natural scoping guarantees it).
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { prof_id: 0 };
        };
        let start_us = inner.time.now_micros();
        ARENAS.with(|cell| {
            let mut arenas = cell.borrow_mut();
            let arena = match arenas.iter().position(|a| a.prof.id == inner.id) {
                Some(i) => &mut arenas[i],
                None => {
                    arenas.push(Arena {
                        prof: inner.clone(),
                        nodes: vec![Node::default()],
                        stack: Vec::with_capacity(8),
                        roots_closed: 0,
                    });
                    arenas.last_mut().expect("just pushed")
                }
            };
            let parent = arena.stack.last().map_or(0, |f| f.node);
            let node = arena.child(parent, name);
            arena.stack.push(Frame {
                node,
                start_us,
                child_us: 0,
            });
        });
        SpanGuard { prof_id: inner.id }
    }

    /// Point-in-time aggregate of completed spans: every one closed on
    /// the calling thread or on a thread that has since exited, and,
    /// for other live threads, those up to their arena's last flush
    /// (every 4 096 root-span exits). Spans still open are
    /// not included. Drivers snapshot on the thread that ran the work,
    /// or after joining it, for exact totals.
    pub fn snapshot(&self) -> Profile {
        let Some(inner) = &self.inner else {
            return Profile::default();
        };
        ARENAS.with(|cell| {
            let mut arenas = cell.borrow_mut();
            if let Some(i) = arenas.iter().position(|a| a.prof.id == inner.id) {
                if arenas[i].stack.is_empty() {
                    // Idle: dropping it flushes, and lets go of the
                    // profiler on threads that outlive it.
                    arenas.swap_remove(i);
                } else {
                    arenas[i].flush();
                }
            }
        });
        let spans = inner.table().clone();
        Profile { spans }
    }
}

/// RAII guard for one open span; closing (dropping) records the span's
/// elapsed time into its profiler. Created by [`Profiler::span`].
#[must_use = "a span guard records on drop; binding it to _ closes it immediately"]
pub struct SpanGuard {
    /// 0 for a disabled profiler's guard.
    prof_id: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.prof_id == 0 {
            return;
        }
        ARENAS.with(|cell| {
            let mut arenas = cell.borrow_mut();
            let Some(arena) = arenas.iter_mut().find(|a| a.prof.id == self.prof_id) else {
                debug_assert!(false, "span guard dropped on a thread that never opened it");
                return;
            };
            let end = arena.prof.time.now_micros();
            let Some(frame) = arena.stack.pop() else {
                debug_assert!(false, "span stack underflow");
                return;
            };
            let elapsed = end.saturating_sub(frame.start_us);
            let self_us = elapsed.saturating_sub(frame.child_us);
            arena.nodes[frame.node].pending.record(elapsed, self_us);
            match arena.stack.last_mut() {
                Some(parent) => parent.child_us += elapsed,
                None => {
                    arena.roots_closed += 1;
                    if arena.roots_closed >= FLUSH_ROOTS {
                        arena.flush();
                    }
                }
            }
        });
    }
}

/// An aggregated call-tree profile; see the [module docs](self).
///
/// Keys are full span paths, so the same leaf name reached through
/// different parents stays separate in the tree view and is summed in
/// the [`flat`](Profile::flat) view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per-path stats, sorted by path (preorder DFS of the call tree).
    pub spans: BTreeMap<Path, SpanStat>,
}

impl Profile {
    /// True when no spans completed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Stats for an exact path, if present.
    pub fn get(&self, path: &[&str]) -> Option<&SpanStat> {
        self.spans
            .iter()
            .find(|(have, _)| have.iter().map(|name| &**name).eq(path.iter().copied()))
            .map(|(_, stat)| stat)
    }

    /// Fold `other` into `self` (commutative sums, so merging
    /// per-scenario profiles in a fixed order is deterministic).
    pub fn merge(&mut self, other: &Profile) {
        for (path, stat) in &other.spans {
            self.spans.entry(path.clone()).or_default().merge(stat);
        }
    }

    /// Flat per-name aggregate (summed over every path sharing a leaf
    /// name), sorted by name.
    pub fn flat(&self) -> Vec<(Cow<'static, str>, SpanStat)> {
        let mut by_name: BTreeMap<&Cow<'static, str>, SpanStat> = BTreeMap::new();
        for (path, stat) in &self.spans {
            if let Some(leaf) = path.last() {
                by_name.entry(leaf).or_default().merge(stat);
            }
        }
        by_name
            .into_iter()
            .map(|(name, stat)| (name.clone(), stat))
            .collect()
    }

    /// The `n` span names with the most self time, descending (ties
    /// break by name so the order is deterministic).
    pub fn top_self(&self, n: usize) -> Vec<(Cow<'static, str>, SpanStat)> {
        let mut flat = self.flat();
        flat.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(&b.0)));
        flat.truncate(n);
        flat
    }

    /// Deterministic JSON: span entries in path order, then the flat
    /// per-name table. Durations are µs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"spans\":[");
        for (i, (path, stat)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"path\":\"");
            crate::export::escape_json_into(&mut out, &path.join("/"));
            out.push_str("\",\"depth\":");
            out.push_str(&(path.len().saturating_sub(1)).to_string());
            push_stat_fields(&mut out, stat);
            out.push('}');
        }
        out.push_str("],\"flat\":[");
        for (i, (name, stat)) in self.flat().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            crate::export::escape_json_into(&mut out, name);
            out.push('"');
            push_stat_fields(&mut out, stat);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Collapsed-stack flamegraph export (the format `inferno` and
    /// speedscope ingest): one line per span path, frames joined by
    /// `;`, the sample value is the span's *self* time in µs — so
    /// stacking the lines reconstructs total time exactly, with no
    /// double counting of child spans.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48);
        for (path, stat) in &self.spans {
            out.push_str(&path.join(";"));
            out.push(' ');
            out.push_str(&stat.self_us.to_string());
            out.push('\n');
        }
        out
    }

    /// Human-readable report: the call tree (indented by depth) then
    /// the top self-time spans.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("profile: no spans recorded\n");
            return out;
        }
        out.push_str(&format!(
            "{:>12} {:>12} {:>9} {:>9} {:>9} {:>9}  span\n",
            "total_us", "self_us", "count", "p50_us", "p95_us", "p99_us"
        ));
        for (path, stat) in &self.spans {
            let indent = "  ".repeat(path.len().saturating_sub(1));
            out.push_str(&format!(
                "{:>12} {:>12} {:>9} {:>9} {:>9} {:>9}  {}{}\n",
                stat.total_us,
                stat.self_us,
                stat.count,
                stat.p50_us(),
                stat.p95_us(),
                stat.p99_us(),
                indent,
                path.last().map_or("?", |name| name),
            ));
        }
        out.push_str("\ntop self-time:\n");
        for (name, stat) in self.top_self(10) {
            out.push_str(&format!(
                "{:>12} {:>9}  {}\n",
                stat.self_us, stat.count, name
            ));
        }
        out
    }
}

fn push_stat_fields(out: &mut String, stat: &SpanStat) {
    out.push_str(&format!(
        ",\"count\":{},\"total_us\":{},\"self_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"buckets\":[",
        stat.count,
        stat.total_us,
        stat.self_us,
        stat.p50_us(),
        stat.p95_us(),
        stat.p99_us()
    ));
    let mut first = true;
    for (i, &c) in stat.dur_buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        match DUR_BOUNDS.get(i) {
            Some(b) => out.push_str(&format!("[{b},{c}]")),
            None => out.push_str(&format!("[\"inf\",{c}]")),
        }
    }
    out.push(']');
}

/// Open a span on a [`Profiler`](crate::Profiler) for the rest of the
/// enclosing scope:
///
/// ```
/// use bt_obs::{span, Profiler, TimeSource};
/// let prof = Profiler::new(TimeSource::manual());
/// {
///     span!(prof, "core.piece_pick");
///     // ... work ...
/// }
/// assert_eq!(prof.snapshot().get(&["core.piece_pick"]).unwrap().count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($prof:expr, $name:expr) => {
        let _span_guard = $prof.span($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_prof() -> Profiler {
        Profiler::new(TimeSource::manual())
    }

    #[test]
    fn nesting_attributes_self_and_total_time() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        {
            span!(prof, "a");
            t.advance_to(100);
            {
                span!(prof, "b");
                t.advance_to(130);
            }
            t.advance_to(135);
        }
        let p = prof.snapshot();
        let a = p.get(&["a"]).unwrap();
        assert_eq!((a.count, a.total_us, a.self_us), (1, 135, 105));
        let b = p.get(&["a", "b"]).unwrap();
        assert_eq!((b.count, b.total_us, b.self_us), (1, 30, 30));
    }

    #[test]
    fn sibling_children_sum_into_parent_child_time() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        {
            span!(prof, "root");
            for i in 1..=3u64 {
                span!(prof, "leaf");
                t.advance_to(i * 10);
            }
        }
        let p = prof.snapshot();
        let root = p.get(&["root"]).unwrap();
        // leaves cover [0,10],[10,20],[20,30] → all 30 µs are child time.
        assert_eq!((root.total_us, root.self_us), (30, 0));
        let leaf = p.get(&["root", "leaf"]).unwrap();
        assert_eq!((leaf.count, leaf.total_us), (3, 30));
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let prof = Profiler::disabled();
        assert!(!prof.is_enabled());
        {
            span!(prof, "x");
        }
        assert!(prof.snapshot().is_empty());
        assert_eq!(prof.snapshot().to_json(), "{\"spans\":[],\"flat\":[]}");
    }

    #[test]
    fn merge_is_commutative_and_recomputes_quantiles() {
        let mk = |n_fast: u64, n_slow: u64| {
            let prof = manual_prof();
            let t = prof.time().unwrap().clone();
            let mut now = 0;
            for _ in 0..n_fast {
                span!(prof, "op");
                now += 5;
                t.advance_to(now);
            }
            for _ in 0..n_slow {
                span!(prof, "op");
                now += 50_000;
                t.advance_to(now);
            }
            prof.snapshot()
        };
        let a = mk(90, 0);
        let b = mk(0, 10);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let op = ab.get(&["op"]).unwrap();
        assert_eq!(op.count, 100);
        assert_eq!(op.p50_us(), 10);
        assert_eq!(op.p95_us(), 100_000);
    }

    #[test]
    fn collapsed_stacks_carry_self_time_per_path() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        {
            span!(prof, "outer");
            t.advance_to(100);
            {
                span!(prof, "inner");
                t.advance_to(130);
            }
            t.advance_to(135);
        }
        assert_eq!(
            prof.snapshot().to_collapsed(),
            "outer 105\nouter;inner 30\n"
        );
        assert_eq!(Profile::default().to_collapsed(), "");
    }

    #[test]
    fn quantile_rank_in_overflow_clamps_to_the_last_duration_bound() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        {
            span!(prof, "slow");
            t.advance_to(60_000_000);
        }
        let p = prof.snapshot();
        let slow = p.get(&["slow"]).unwrap();
        assert_eq!(*slow.dur_buckets.last().unwrap(), 1);
        assert_eq!(slow.p50_us(), *DUR_BOUNDS.last().unwrap());
        assert!(p.to_json().contains("\"p50_us\":10000000"));
        assert!(p.to_json().contains("[\"inf\",1]"));
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        {
            span!(prof, "outer");
            {
                span!(prof, "inner");
                t.advance_to(7);
            }
        }
        let p = prof.snapshot();
        assert_eq!(p.to_json(), p.to_json());
        assert!(p.to_json().contains("\"path\":\"outer/inner\""));
        assert!(p.to_json().contains("\"depth\":1"));
        assert!(p.to_json().contains("\"flat\":["));
    }

    #[test]
    fn spans_closed_on_worker_threads_are_visible_after_join() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        t.advance_to(3);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let prof = prof.clone();
                std::thread::spawn(move || {
                    // Far fewer roots than a batch: only the exiting
                    // thread's hand-in can make these visible.
                    for _ in 0..10 {
                        span!(prof, "worker");
                        span!(prof, "step");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let p = prof.snapshot();
        assert_eq!(p.get(&["worker"]).unwrap().count, 40);
        assert_eq!(p.get(&["worker", "step"]).unwrap().count, 40);
    }

    #[test]
    fn spans_under_an_open_root_take_no_lock() {
        let prof = manual_prof();
        let _root = prof.span("root");
        // With the shared table held, anything that wanted it would
        // deadlock here.
        let table = prof.inner.as_ref().unwrap().table();
        for _ in 0..10_000 {
            span!(prof, "outer");
            span!(prof, "inner");
        }
        assert!(
            table.is_empty(),
            "nothing is handed in before the root closes"
        );
    }

    #[test]
    fn a_live_thread_hands_in_a_batch_every_flush_roots_root_exits() {
        let prof = manual_prof();
        let (ready, wait) = std::sync::mpsc::channel();
        let (release, held) = std::sync::mpsc::channel::<()>();
        let worker = {
            let prof = prof.clone();
            std::thread::spawn(move || {
                for _ in 0..FLUSH_ROOTS + 5 {
                    span!(prof, "tick");
                }
                ready.send(()).unwrap();
                held.recv().unwrap();
            })
        };
        wait.recv().unwrap();
        // The worker is alive and idle: one full batch has been handed
        // in, the 5 after it are still in its arena.
        assert_eq!(
            prof.snapshot().get(&["tick"]).unwrap().count,
            u64::from(FLUSH_ROOTS)
        );
        release.send(()).unwrap();
        worker.join().unwrap();
        assert_eq!(
            prof.snapshot().get(&["tick"]).unwrap().count,
            u64::from(FLUSH_ROOTS) + 5
        );
    }

    #[test]
    fn recursion_gets_a_node_per_depth() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        fn descend(prof: &Profiler, t: &TimeSource, depth: u64) {
            span!(prof, "a");
            t.advance_to(t.now_micros() + 1);
            if depth > 1 {
                descend(prof, t, depth - 1);
            }
        }
        descend(&prof, &t, 3);
        descend(&prof, &t, 2);
        let p = prof.snapshot();
        let a1 = p.get(&["a"]).unwrap();
        assert_eq!((a1.count, a1.total_us, a1.self_us), (2, 5, 2));
        let a2 = p.get(&["a", "a"]).unwrap();
        assert_eq!((a2.count, a2.total_us, a2.self_us), (2, 3, 2));
        let a3 = p.get(&["a", "a", "a"]).unwrap();
        assert_eq!((a3.count, a3.total_us, a3.self_us), (1, 1, 1));
        assert_eq!(p.spans.len(), 3);
        assert_eq!(p.flat()[0].1.count, 5);
    }

    #[test]
    fn one_leaf_name_under_two_parents_and_at_the_root_are_three_nodes() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        let mut now = 0;
        let mut work = |us: u64| {
            span!(prof, "work");
            now += us;
            t.advance_to(now);
        };
        for _ in 0..3 {
            {
                span!(prof, "root");
                {
                    span!(prof, "p1");
                    work(1);
                }
                {
                    span!(prof, "p2");
                    work(10);
                    work(10);
                }
            }
            work(100);
        }
        let p = prof.snapshot();
        let stat = |path: &[&'static str]| {
            let s = p.get(path).unwrap();
            (s.count, s.total_us)
        };
        assert_eq!(stat(&["root", "p1", "work"]), (3, 3));
        assert_eq!(stat(&["root", "p2", "work"]), (6, 60));
        assert_eq!(stat(&["work"]), (3, 300));
        assert_eq!(stat(&["root"]), (3, 63));
        assert_eq!(p.get(&["root"]).unwrap().self_us, 0);
        // The flat view sums the three back into one name.
        let flat: BTreeMap<_, _> = p.flat().into_iter().collect();
        assert_eq!((flat["work"].count, flat["work"].total_us), (12, 363));
    }

    #[test]
    fn a_guard_outliving_a_snapshot_records_into_the_flushed_arena() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        let outer = prof.span("outer");
        {
            span!(prof, "inner");
            t.advance_to(10);
        }
        // Flushes this thread's arena while `outer` is still open.
        let mid = prof.snapshot();
        assert_eq!(mid.get(&["outer", "inner"]).unwrap().total_us, 10);
        assert!(mid.get(&["outer"]).is_none(), "open spans are not included");
        {
            span!(prof, "inner");
            t.advance_to(25);
        }
        t.advance_to(30);
        drop(outer);
        let p = prof.snapshot();
        let outer = p.get(&["outer"]).unwrap();
        assert_eq!((outer.count, outer.total_us, outer.self_us), (1, 30, 5));
        let inner = p.get(&["outer", "inner"]).unwrap();
        assert_eq!((inner.count, inner.total_us), (2, 25));
        // Idle now: the snapshot let the arena go, and a fresh one works.
        {
            span!(prof, "outer");
        }
        assert_eq!(prof.snapshot().get(&["outer"]).unwrap().count, 2);
    }

    #[test]
    fn two_profilers_interleaved_on_one_thread_stay_independent() {
        let pa = manual_prof();
        let pb = manual_prof();
        let (ta, tb) = (pa.time().unwrap().clone(), pb.time().unwrap().clone());
        {
            span!(pa, "a");
            span!(pb, "b");
            {
                span!(pa, "a.child");
                span!(pb, "b.child");
                ta.advance_to(7);
                tb.advance_to(70);
            }
            // Snapshotting one must not disturb the other's open spans.
            assert!(pa.snapshot().get(&["a", "a.child"]).is_some());
        }
        let (a, b) = (pa.snapshot(), pb.snapshot());
        assert_eq!(a.spans.len(), 2);
        assert_eq!(b.spans.len(), 2);
        assert_eq!(a.get(&["a"]).unwrap().total_us, 7);
        assert_eq!(b.get(&["b", "b.child"]).unwrap().total_us, 70);
        assert!(a.get(&["b"]).is_none() && b.get(&["a"]).is_none());
    }

    #[test]
    fn top_self_orders_descending_with_name_tiebreak() {
        let prof = manual_prof();
        let t = prof.time().unwrap().clone();
        {
            span!(prof, "cheap");
            t.advance_to(1);
        }
        {
            span!(prof, "dear");
            t.advance_to(101);
        }
        let top = prof.snapshot().top_self(10);
        assert_eq!(top[0].0, "dear");
        assert_eq!(top[1].0, "cheap");
        let report = prof.snapshot().render();
        assert!(report.contains("top self-time:"));
        assert!(report.contains("dear"));
    }

    #[test]
    fn empty_profile_renders_placeholder() {
        let p = Profile::default();
        assert!(p.render().contains("no spans recorded"));
        assert!(p.top_self(3).is_empty());
    }
}
