//! Runtime telemetry for the bt-* stack.
//!
//! Two complementary facilities, both deliberately dependency-free:
//!
//! * a **metrics registry** ([`Registry`]) of named counters, gauges and
//!   fixed-bucket histograms. Handles are `Arc`-backed and cheap to
//!   clone; a hot-path increment is one relaxed atomic op. Snapshots
//!   ([`Snapshot`]) are sorted by `(name, label)` so that under a
//!   virtual clock the serialized form is byte-identical run to run.
//! * a **span tracer / self-profiler** ([`Profiler`]): RAII
//!   [`span!`]-guards record nested enter/exit timings into a
//!   per-thread span arena, aggregated into flat and call-tree
//!   profiles ([`Profile`]) with total/self time, call counts and
//!   deterministic p50/p95/p99 per span.
//! * a **structured event log**: leveled typed records emitted through
//!   the [`obs_debug!`], [`obs_info!`] and [`obs_warn!`] macros to a
//!   pluggable [`EventSink`] — stderr text, a JSONL file, or an
//!   in-memory ring buffer for tests. With no sink installed a log call
//!   costs one relaxed atomic load.
//!
//! This is *runtime* telemetry (where time and bytes go), distinct from
//! `bt-instrument`'s paper-facing §III-C traces (what the protocol did).
//! See DESIGN.md §"Observability" for naming conventions.
//!
//! # Example
//!
//! ```
//! use bt_obs::{buckets, Registry, TimeSource};
//!
//! let reg = Registry::new(TimeSource::manual());
//! let ticks = reg.counter("core.inputs.tick");
//! let lat = reg.histogram("core.choke_round_us", buckets::LATENCY_US);
//! ticks.inc();
//! lat.observe(250);
//! reg.time().advance_to(1_000_000);
//! let snap = reg.snapshot();
//! assert_eq!(snap.at_micros, 1_000_000);
//! assert!(snap.to_jsonl_line().contains("\"core.inputs.tick\":1"));
//! ```

pub mod event;
pub mod export;
pub mod registry;
pub mod series;
pub mod span;
pub mod time;
pub mod trace;

pub use event::{
    EventSink, FieldValue, JsonlSink, Level, OwnedRecord, Record, RingSink, StderrSink,
};
pub use export::{summary_text, to_prometheus};
pub use registry::{
    bucket_quantile, buckets, metric_key, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    Snapshot,
};
pub use series::{views_to_json, SeriesStore, SeriesView};
pub use span::{Profile, Profiler, SpanGuard, SpanStat};
pub use time::TimeSource;
pub use trace::{DumpContext, FlightGuard, FlightRecorder, TraceCat, TraceEvent, Tracer};

/// Emit a structured event at an explicit [`Level`].
///
/// The field list is `"key" = value` pairs; values may be unsigned or
/// signed integers, floats, bools, or `&str`. The whole call compiles
/// to a single atomic load when no sink is installed at that level.
#[macro_export]
macro_rules! obs_event {
    ($reg:expr, $level:expr, $target:expr, $name:expr $(, $k:literal = $v:expr)* $(,)?) => {
        if $reg.log_enabled($level) {
            $reg.log(
                $level,
                $target,
                $name,
                &[$(($k, $crate::event::FieldValue::from($v))),*],
            );
        }
    };
}

/// Emit a [`Level::Debug`] structured event. See [`obs_event!`].
#[macro_export]
macro_rules! obs_debug {
    ($reg:expr, $target:expr, $name:expr $(, $k:literal = $v:expr)* $(,)?) => {
        $crate::obs_event!($reg, $crate::Level::Debug, $target, $name $(, $k = $v)*)
    };
}

/// Emit a [`Level::Info`] structured event. See [`obs_event!`].
#[macro_export]
macro_rules! obs_info {
    ($reg:expr, $target:expr, $name:expr $(, $k:literal = $v:expr)* $(,)?) => {
        $crate::obs_event!($reg, $crate::Level::Info, $target, $name $(, $k = $v)*)
    };
}

/// Emit a [`Level::Warn`] structured event. See [`obs_event!`].
#[macro_export]
macro_rules! obs_warn {
    ($reg:expr, $target:expr, $name:expr $(, $k:literal = $v:expr)* $(,)?) => {
        $crate::obs_event!($reg, $crate::Level::Warn, $target, $name $(, $k = $v)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn macros_emit_to_ring_sink() {
        let reg = Registry::new(TimeSource::manual());
        let ring = Arc::new(RingSink::new(8));
        reg.set_sink(ring.clone(), Level::Info);

        reg.time().advance_to(42);
        obs_debug!(reg, "test", "dropped"); // below min level
        obs_info!(reg, "test", "kept", "n" = 3u64, "ok" = true);
        obs_warn!(reg, "test", "warned", "who" = "peer3");

        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "kept");
        assert_eq!(records[0].at_micros, 42);
        assert_eq!(
            records[0].fields,
            vec![
                ("n".to_string(), "3".to_string()),
                ("ok".to_string(), "true".to_string()),
            ]
        );
        assert_eq!(records[1].level, Level::Warn);
        assert_eq!(records[1].fields[0].1, "peer3");
    }

    #[test]
    fn no_sink_is_cheap_and_silent() {
        let reg = Registry::new(TimeSource::manual());
        assert!(!reg.log_enabled(Level::Warn));
        obs_warn!(reg, "test", "nobody_home", "x" = 1u64);
    }

    #[test]
    fn ring_sink_caps_capacity() {
        let reg = Registry::new(TimeSource::manual());
        let ring = Arc::new(RingSink::new(2));
        reg.set_sink(ring.clone(), Level::Debug);
        for i in 0..5u64 {
            obs_debug!(reg, "t", "e", "i" = i);
        }
        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].fields[0].1, "3");
        assert_eq!(records[1].fields[0].1, "4");
    }
}
