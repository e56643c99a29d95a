//! Loading the `--emit-dir` one-directory artifact layout.
//!
//! ```text
//! run_dir/
//!   run.json       manifest: scenario, seed, peers, digest, ...
//!   metrics.jsonl  registry snapshots (last line = final state)
//!   series.json    SeriesStore export
//!   profile.json   span profile
//!   trace.jsonl    causal trace (sorted, deterministic)
//!   trace.json     the same trace as Chrome JSON (not read here)
//!   local.jsonl    the instrumented peer's trace (not read here)
//! ```
//!
//! Only `run.json` is required; every other artifact is optional so a
//! minimal run (or a hand-built directory in a test) still loads. The
//! trace is kept as raw text — bisection compares canonical lines and
//! only parses the handful it reports.
//!
//! Each format has one writer, next to its type in `bt-obs`
//! ([`Snapshot::to_jsonl_line`], [`Profile::to_json`],
//! [`bt_obs::views_to_json`]; [`manifest_json`] here), and one reader,
//! below, into that same type over the workspace's one JSON parser.
//! Reader ∘ writer is the identity on bytes for everything a run
//! emits, which is what lets a merged report stay in the run's format.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use bt_obs::export::escape_json_into;
use bt_obs::registry::Entry;
use bt_obs::{buckets, HistogramSnapshot, Profile, SeriesView, Snapshot, SpanStat};
use serde_json::Value;

/// Fleet-analytics error: which artifact failed and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatError(pub String);

impl StatError {
    pub(crate) fn new(msg: impl Into<String>) -> StatError {
        StatError(msg.into())
    }
}

impl fmt::Display for StatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for StatError {}

impl From<serde_json::Error> for StatError {
    fn from(e: serde_json::Error) -> StatError {
        StatError(e.to_string())
    }
}

fn expected(what: &str, ctx: &str) -> StatError {
    StatError::new(format!("{ctx}: expected {what}"))
}

/// Append `text` as a JSON string literal (quoted, escaped).
pub(crate) fn push_json_str(out: &mut String, text: &str) {
    out.push('"');
    escape_json_into(out, text);
    out.push('"');
}

/// The two members of a `[a, b]` array.
fn pair<'a>(v: &'a Value, ctx: &str) -> Result<(&'a Value, &'a Value), StatError> {
    match v.as_array() {
        Some([a, b]) => Ok((a, b)),
        _ => Err(expected("a two-element array", ctx)),
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or(&[])
}

fn u64_or_zero(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Read one snapshot line (the `metrics.jsonl` format,
/// [`Snapshot::to_jsonl_line`]).
pub fn parse_metrics_line(line: &str) -> Result<Snapshot, StatError> {
    let v: Value = serde_json::from_str(line)?;
    if v.as_object().is_none() {
        return Err(expected("an object", "metrics"));
    }
    Ok(Snapshot {
        at_micros: u64_or_zero(&v, "t"),
        counters: entries(&v, "counters", |c| {
            c.as_u64()
                .ok_or_else(|| expected("a u64 counter", "metrics"))
        })?,
        gauges: entries(&v, "gauges", |g| {
            g.as_i64()
                .ok_or_else(|| expected("an i64 gauge", "metrics"))
        })?,
        histograms: entries(&v, "histograms", parse_histogram)?,
    })
}

/// One `{"name{label}": value, ...}` section of a snapshot line, back
/// in the snapshot's own `(name, label)` order (the JSON object is in
/// key order, which differs once a label follows a dotted name).
fn entries<V>(
    line: &Value,
    section: &str,
    read: impl Fn(&Value) -> Result<V, StatError>,
) -> Result<Vec<Entry<V>>, StatError> {
    let mut out = Vec::new();
    for (key, value) in line
        .get(section)
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
    {
        let (name, label) = match key.split_once('{') {
            Some((name, rest)) if rest.ends_with('}') => (name, &rest[..rest.len() - 1]),
            _ => (key.as_str(), ""),
        };
        out.push((
            Cow::Owned(name.to_string()),
            label.to_string(),
            read(value)?,
        ));
    }
    out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    Ok(out)
}

fn parse_histogram(v: &Value) -> Result<HistogramSnapshot, StatError> {
    if v.as_object().is_none() {
        return Err(expected("an object", "histogram"));
    }
    let mut buckets = Vec::new();
    for bucket in array(v, "buckets") {
        let (bound, count) = pair(bucket, "histogram bucket")?;
        match (bound.as_u64(), count.as_u64()) {
            (Some(bound), Some(count)) => buckets.push((bound, count)),
            _ => return Err(expected("an integer [bound, count]", "histogram bucket")),
        }
    }
    buckets.sort_unstable();
    Ok(HistogramSnapshot {
        count: u64_or_zero(v, "count"),
        sum: u64_or_zero(v, "sum"),
        p50: u64_or_zero(v, "p50"),
        p95: u64_or_zero(v, "p95"),
        p99: u64_or_zero(v, "p99"),
        buckets,
        overflow: u64_or_zero(v, "overflow"),
    })
}

/// Read a span profile (the `profile.json` format, [`Profile::to_json`]).
/// Only the `"spans"` array is read; the `"flat"` table is derived.
pub fn parse_profile(text: &str) -> Result<Profile, StatError> {
    let v: Value = serde_json::from_str(text)?;
    let spans = v
        .get("spans")
        .and_then(Value::as_array)
        .ok_or_else(|| expected("a spans array", "profile"))?;
    let mut profile = Profile::default();
    for span in spans {
        let path = span
            .get("path")
            .and_then(Value::as_str)
            .ok_or_else(|| expected("a path string", "profile span"))?
            .split('/')
            .map(|name| Cow::Owned(name.to_string()))
            .collect();
        let mut stat = SpanStat {
            count: u64_or_zero(span, "count"),
            total_us: u64_or_zero(span, "total_us"),
            self_us: u64_or_zero(span, "self_us"),
            ..SpanStat::default()
        };
        for bucket in array(span, "buckets") {
            let (bound, count) = pair(bucket, "profile bucket")?;
            // Span durations are bucketed over `LATENCY_US`, with
            // `"inf"` naming the overflow slot after the last bound.
            let slot = match (bound.as_str(), bound.as_u64()) {
                (Some("inf"), _) => Some(buckets::LATENCY_US.len()),
                (_, Some(b)) => buckets::LATENCY_US.iter().position(|&le| le == b),
                _ => None,
            };
            match (slot, count.as_u64()) {
                (Some(slot), Some(count)) => stat.dur_buckets[slot] += count,
                _ => {
                    return Err(expected(
                        "[latency bound or \"inf\", count]",
                        "profile bucket",
                    ))
                }
            }
        }
        profile.spans.insert(path, stat);
    }
    Ok(profile)
}

/// Read a series document (the `series.json` format,
/// [`bt_obs::views_to_json`]), in file order.
pub fn parse_series(text: &str) -> Result<Vec<SeriesView>, StatError> {
    let v: Value = serde_json::from_str(text)?;
    let list = v
        .get("series")
        .and_then(Value::as_array)
        .ok_or_else(|| expected("a series array", "series"))?;
    let mut views = Vec::with_capacity(list.len());
    for series in list {
        let name = series
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| expected("a name string", "series"))?;
        let mut points = Vec::new();
        for point in array(series, "points") {
            let (t, value) = pair(point, "series point")?;
            match (t.as_u64(), value.as_f64()) {
                (Some(t), Some(value)) if value.is_finite() => points.push((t, value)),
                _ => return Err(expected("[t_micros, finite value]", "series point")),
            }
        }
        views.push(SeriesView {
            name: name.to_string(),
            stride: series.get("stride").and_then(Value::as_u64).unwrap_or(1),
            points,
        });
    }
    Ok(views)
}

/// One run's artifacts, loaded from an `--emit-dir` directory (or
/// constructed directly in tests).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunArtifacts {
    /// Scenario label from the manifest (e.g. `flash_crowd_1k`).
    pub scenario: String,
    /// Simulation seed.
    pub seed: u64,
    /// Peer count, when the manifest recorded it.
    pub peers: u64,
    /// Piece count, when the manifest recorded it.
    pub pieces: u64,
    /// Events processed by the simulator.
    pub events_processed: u64,
    /// Peers that completed the content.
    pub completed_peers: u64,
    /// `SwarmResult::digest()` as 16 lowercase hex digits.
    pub digest: String,
    /// Final registry snapshot (last `metrics.jsonl` line), if emitted.
    pub metrics: Option<Snapshot>,
    /// Series export, if emitted.
    pub series: Option<Vec<SeriesView>>,
    /// Span profile, if emitted.
    pub profile: Option<Profile>,
    /// Raw causal-trace JSONL, if emitted.
    pub trace_jsonl: Option<String>,
}

/// Read `dir/name`, if it exists, through `parse`; an error names the
/// file.
fn read_artifact<T>(
    dir: &Path,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, StatError>,
) -> Result<Option<T>, StatError> {
    let path = dir.join(name);
    if !path.exists() {
        return Ok(None);
    }
    let in_file = |e: &dyn fmt::Display| StatError::new(format!("{}: {e}", path.display()));
    let text = std::fs::read_to_string(&path).map_err(|e| in_file(&e))?;
    parse(&text).map(Some).map_err(|e| in_file(&e))
}

impl RunArtifacts {
    /// The key this run sorts and labels under in fleet reports:
    /// `scenario-s<seed>`, disambiguated by digest when a fleet holds
    /// repeat runs of one (scenario, seed) pair.
    pub fn key(&self) -> String {
        format!("{}-s{}", self.scenario, self.seed)
    }

    /// Load a run directory written by `swarmrun --emit-dir`.
    pub fn load(dir: &Path) -> Result<RunArtifacts, StatError> {
        let manifest = read_artifact(dir, "run.json", |text| {
            let v: Value = serde_json::from_str(text)?;
            match v.as_object() {
                Some(_) => Ok(v),
                None => Err(expected("an object", "manifest")),
            }
        })?
        .ok_or_else(|| StatError::new(format!("{}: no run.json", dir.display())))?;
        let text = |key: &str, default: &str| {
            let value = manifest.get(key).and_then(Value::as_str);
            value.unwrap_or(default).to_string()
        };
        Ok(RunArtifacts {
            scenario: text("scenario", "unknown"),
            seed: u64_or_zero(&manifest, "seed"),
            peers: u64_or_zero(&manifest, "peers"),
            pieces: u64_or_zero(&manifest, "pieces"),
            events_processed: u64_or_zero(&manifest, "events_processed"),
            completed_peers: u64_or_zero(&manifest, "completed_peers"),
            digest: text("digest", ""),
            // The final state is the last line; earlier samples are
            // not parsed at all.
            metrics: read_artifact(dir, "metrics.jsonl", |text| {
                let last = text.lines().rev().find(|l| !l.trim().is_empty());
                last.map(parse_metrics_line).transpose()
            })?
            .flatten(),
            series: read_artifact(dir, "series.json", parse_series)?,
            profile: read_artifact(dir, "profile.json", parse_profile)?,
            trace_jsonl: read_artifact(dir, "trace.jsonl", |text| Ok(text.to_string()))?,
        })
    }

    /// Render the `run.json` manifest for this run (the writer side of
    /// [`RunArtifacts::load`]; `swarmrun --emit-dir` uses the same
    /// layout).
    pub fn manifest_json(&self) -> String {
        manifest_json(
            &self.scenario,
            self.seed,
            self.peers,
            self.pieces,
            self.events_processed,
            self.completed_peers,
            &self.digest,
        )
    }

    /// Summary row for fleet-report JSON (sorted fixed keys).
    pub(crate) fn summary_json(&self) -> String {
        let mut out = String::from("{\"key\":");
        push_json_str(&mut out, &self.key());
        out.push_str(",\"scenario\":");
        push_json_str(&mut out, &self.scenario);
        out.push_str(&format!(
            ",\"seed\":{},\"peers\":{},\"pieces\":{},\"events_processed\":{},\
             \"completed_peers\":{},\"digest\":",
            self.seed, self.peers, self.pieces, self.events_processed, self.completed_peers
        ));
        push_json_str(&mut out, &self.digest);
        out.push('}');
        out
    }
}

/// Render a `run.json` manifest from parts (shared with `swarmrun`,
/// which has the fields but no [`RunArtifacts`]).
pub fn manifest_json(
    scenario: &str,
    seed: u64,
    peers: u64,
    pieces: u64,
    events_processed: u64,
    completed_peers: u64,
    digest: &str,
) -> String {
    let mut out = String::from("{\"schema\":\"btstat-run-v1\",\"scenario\":");
    push_json_str(&mut out, scenario);
    out.push_str(&format!(
        ",\"seed\":{seed},\"peers\":{peers},\"pieces\":{pieces},\
         \"events_processed\":{events_processed},\"completed_peers\":{completed_peers},\
         \"digest\":"
    ));
    push_json_str(&mut out, digest);
    out.push('}');
    out
}

/// Series keyed by run, as fleet reports overlay them.
pub(crate) fn series_by_run(runs: &[RunArtifacts]) -> BTreeMap<String, Vec<SeriesView>> {
    let mut map = BTreeMap::new();
    for run in runs {
        if let Some(series) = &run.series {
            map.insert(run.key(), series.clone());
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_obs::{span, Profiler, Registry, SeriesStore, TimeSource};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("btstat-art-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_run() -> RunArtifacts {
        RunArtifacts {
            scenario: "flash_crowd_1k".to_string(),
            seed: 42,
            peers: 1000,
            pieces: 8,
            events_processed: 1234,
            completed_peers: 1000,
            digest: "00deadbeef00cafe".to_string(),
            ..RunArtifacts::default()
        }
    }

    #[test]
    fn load_round_trips_a_written_directory() {
        let dir = temp_dir("rt");
        let run = sample_run();
        std::fs::write(dir.join("run.json"), run.manifest_json()).unwrap();
        // Only the last non-empty line is read: the first is not even
        // JSON.
        std::fs::write(
            dir.join("metrics.jsonl"),
            "an earlier sample, never parsed\n\
             {\"t\":2,\"counters\":{\"a\":5},\"gauges\":{},\"histograms\":{}}\n\n",
        )
        .unwrap();
        std::fs::write(dir.join("trace.jsonl"), "{\"t\":0}\n").unwrap();

        let loaded = RunArtifacts::load(&dir).unwrap();
        assert_eq!(loaded.key(), "flash_crowd_1k-s42");
        assert_eq!(loaded.digest, run.digest);
        assert_eq!(loaded.events_processed, 1234);
        let metrics = loaded.metrics.as_ref().unwrap();
        assert_eq!((metrics.at_micros, metrics.counter("a", "")), (2, Some(5)));
        assert!(loaded.series.is_none());
        assert!(loaded.profile.is_none());
        assert_eq!(loaded.trace_jsonl.as_deref(), Some("{\"t\":0}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = temp_dir("missing");
        let err = RunArtifacts::load(&dir).unwrap_err();
        assert!(err.0.contains("run.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_with_quotes_and_newlines_loads_back_equal() {
        let dir = temp_dir("hostile-name");
        let run = RunArtifacts {
            scenario: "a\"b\nc\\d\u{1}".to_string(),
            digest: "\"}".to_string(),
            seed: u64::MAX,
            ..sample_run()
        };
        std::fs::write(dir.join("run.json"), run.manifest_json()).unwrap();
        assert_eq!(RunArtifacts::load(&dir).unwrap(), run);
        let summary: Value = serde_json::from_str(&run.summary_json()).unwrap();
        assert_eq!(
            summary.get("key").and_then(Value::as_str),
            Some(run.key().as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_artifact_file_of_300k_brackets_is_an_error_naming_the_file() {
        let bomb = "[".repeat(300_000);
        for name in ["run.json", "metrics.jsonl", "series.json", "profile.json"] {
            let dir = temp_dir(&format!("bomb-{name}"));
            std::fs::write(dir.join("run.json"), sample_run().manifest_json()).unwrap();
            std::fs::write(dir.join(name), &bomb).unwrap();
            let err = RunArtifacts::load(&dir).unwrap_err();
            assert!(err.0.contains(name) && err.0.contains("nesting"), "{err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Bounds `[10, 100]` fed `5, 1000, 1000, 1000`: every quantile's
    /// rank sits in the overflow slot.
    const OVERFLOWING: &[u64] = &[10, 100];

    fn live_registry() -> Registry {
        let reg = Registry::new(TimeSource::manual());
        reg.counter("core.inputs.tick").add(5);
        // `(name, label)` order and JSON key order disagree here:
        // "net{z}" sorts after "net.bytes_in" as a string, before it
        // as a pair.
        reg.counter_with("net", "z").add(1);
        reg.counter_with("net.bytes_in", "peer0").add(88);
        reg.counter_with("evil", "we\"ird\n{label}").add(2);
        reg.gauge("sim.live_peers").set(-4);
        let h = reg.histogram("core.choke_round_us", buckets::LATENCY_US);
        for v in [5, 5, 60] {
            h.observe(v);
        }
        let over = reg.histogram_with("lat", "p1", OVERFLOWING);
        for v in [5, 1000, 1000, 1000] {
            over.observe(v);
        }
        reg.time().advance_to(1000);
        reg
    }

    #[test]
    fn metrics_line_round_trips_byte_identically() {
        let snap = live_registry().snapshot();
        let line = snap.to_jsonl_line();
        assert!(line.contains("\"lat{p1}\":{\"count\":4,\"sum\":3005,\"p50\":100,\"p95\":100"));
        let read = parse_metrics_line(&line).unwrap();
        assert_eq!(read, snap);
        assert_eq!(read.to_jsonl_line(), line);
        assert_eq!(read.counter("net.bytes_in", "peer0"), Some(88));
        assert_eq!(read.counter("evil", "we\"ird\n{label}"), Some(2));
        assert_eq!(read.gauge("sim.live_peers", ""), Some(-4));
        assert_eq!(read.histogram("core.choke_round_us", "").unwrap().count, 3);
    }

    fn live_profile(us: u64) -> Profile {
        let prof = Profiler::new(TimeSource::manual());
        let t = prof.time().unwrap().clone();
        {
            span!(prof, "outer");
            t.advance_to(100);
            {
                span!(prof, "inner");
                t.advance_to(100 + us);
            }
            t.advance_to(105 + us);
        }
        prof.snapshot()
    }

    #[test]
    fn profile_round_trips_byte_identically_even_from_the_overflow_slot() {
        // 30 µs, and a minute: past the last duration bound, so the
        // quantiles' rank sits in the `"inf"` bucket.
        for us in [30, 60_000_000] {
            let profile = live_profile(us);
            let json = profile.to_json();
            let read = parse_profile(&json).unwrap();
            assert_eq!(read, profile);
            assert_eq!(read.to_json(), json);
            assert_eq!(read.to_collapsed(), profile.to_collapsed());
        }
        assert!(live_profile(60_000_000).to_json().contains("[\"inf\",1]"));
    }

    #[test]
    fn merging_read_profiles_matches_merging_live_ones() {
        let (a, b) = (live_profile(5), live_profile(50_000));
        let mut live = a.clone();
        live.merge(&b);
        let mut read = parse_profile(&a.to_json()).unwrap();
        read.merge(&parse_profile(&b.to_json()).unwrap());
        assert_eq!(read.to_json(), live.to_json());
    }

    #[test]
    fn series_round_trips_byte_identically() {
        let reg = Registry::new(TimeSource::manual());
        let store = SeriesStore::with_capacity(&reg, 8);
        store.record_at("live.entropy", 5, 0.75);
        store.record_at("sim.live_peers", 5, 4.0);
        store.record_at("sim.live_peers", 10, -7.0);
        store.record_at("evil\"name", 1, 1e300);
        let json = store.to_json(None);
        let read = parse_series(&json).unwrap();
        assert_eq!(read, store.views(None));
        assert_eq!(bt_obs::views_to_json(&read), json);
    }

    #[test]
    fn readers_reject_what_no_writer_wrote() {
        assert!(parse_metrics_line("not json").is_err());
        assert!(parse_metrics_line("[1,2]").is_err());
        assert!(parse_metrics_line("{\"counters\":{\"a\":-1}}").is_err());
        assert!(parse_metrics_line("{\"histograms\":{\"h\":{\"buckets\":[[1]]}}}").is_err());
        assert!(parse_profile("{\"nope\":1}").is_err());
        // 7 is not a span duration bound.
        assert!(parse_profile("{\"spans\":[{\"path\":\"a\",\"buckets\":[[7,1]]}]}").is_err());
        assert!(parse_series("{}").is_err());
        assert!(parse_series("{\"series\":[{\"name\":\"x\",\"points\":[[0,null]]}]}").is_err());
    }

    #[test]
    fn readers_keep_u64_exact() {
        let line = "{\"t\":12345678901234567890,\"counters\":{\"c\":18446744073709551615}}";
        let read = parse_metrics_line(line).unwrap();
        assert_eq!(read.at_micros, 12345678901234567890);
        assert_eq!(read.counter("c", ""), Some(u64::MAX));
    }
}
