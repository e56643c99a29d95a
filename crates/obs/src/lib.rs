//! Runtime telemetry for the bt-* stack.
//!
//! The instruments a run can export, all deliberately dependency-free:
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
//! * a **time-series store** ([`SeriesStore`]): bounded per-metric
//!   rings sampled from registry snapshots.
//! * a **causal tracer** ([`Tracer`]) with its crash-time
//!   [`FlightRecorder`]; see the [`trace`] module.
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

pub mod export;
pub mod registry;
pub mod series;
pub mod span;
pub mod time;
pub mod trace;

pub use export::{summary_text, to_prometheus};
pub use registry::{
    bucket_quantile, buckets, metric_key, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    Snapshot,
};
pub use series::{views_to_json, SeriesStore, SeriesView, SPARKLINE_JS};
pub use span::{Profile, Profiler, SpanGuard, SpanStat};
pub use time::TimeSource;
pub use trace::{DumpContext, FlightGuard, FlightRecorder, TraceCat, TraceEvent, Tracer};
