//! The causal trace layer (DESIGN.md §11) must be a free observer with
//! deterministic exports, in the same discipline as the series tests:
//!
//! 1. **Export determinism** — the sorted JSONL and Chrome trace-event
//!    JSON for a scenario are byte-identical whether the sweep runs on
//!    1, 2, or 8 workers, and across repeated runs (events are sorted
//!    by virtual time, never wall time or thread arrival order).
//! 2. **Non-perturbation** — a traced run's instrumented trace equals
//!    the bare run's, so the golden fingerprints are untouched (the
//!    golden guard in `golden_traces.rs` pins the 10k digest too).
//! 3. **Flight recorder** — a forced invariant violation (tightened
//!    thresholds) dumps a self-contained bundle whose explanation names
//!    the starved peer, and piece lifecycles in the export run from
//!    `injected` to `k_replicated`.

use bt_repro::analysis::live::Thresholds;
use bt_repro::obs::{FlightRecorder, Registry, Tracer};
use bt_repro::sim::Swarm;
use bt_repro::torrents::{run_scenario, run_scenarios_parallel, torrent, RunConfig};

#[test]
fn trace_exports_are_byte_identical_across_job_counts() {
    let cfg = RunConfig {
        trace_sample: Some(2),
        ..RunConfig::quick()
    };
    let specs = [torrent(2), torrent(19), torrent(3)];
    let baseline = run_scenarios_parallel(&cfg, &specs, 1, |_| {});
    for o in &baseline {
        let jsonl = o.trace_jsonl.as_ref().expect("causal trace requested");
        assert!(
            jsonl.contains("\"name\":\"injected\""),
            "torrent {}: no piece lifecycle sampled",
            o.spec.id
        );
        assert!(
            o.trace_chrome
                .as_ref()
                .is_some_and(|c| c.contains("\"traceEvents\"")),
            "torrent {}: no Chrome export",
            o.spec.id
        );
    }
    for jobs in [2, 8] {
        let parallel = run_scenarios_parallel(&cfg, &specs, jobs, |_| {});
        for (seq, par) in baseline.iter().zip(&parallel) {
            assert_eq!(
                seq.trace_jsonl, par.trace_jsonl,
                "jobs={jobs} torrent {}: trace JSONL drifted",
                seq.spec.id
            );
            assert_eq!(
                seq.trace_chrome, par.trace_chrome,
                "jobs={jobs} torrent {}: Chrome JSON drifted",
                seq.spec.id
            );
        }
    }
}

#[test]
fn trace_exports_are_byte_identical_across_runs() {
    let cfg = RunConfig {
        trace_sample: Some(1),
        ..RunConfig::quick()
    };
    let a = run_scenario(&torrent(2), &cfg);
    let b = run_scenario(&torrent(2), &cfg);
    assert_eq!(
        a.trace_jsonl, b.trace_jsonl,
        "JSONL export is not a pure function of the spec"
    );
    assert_eq!(
        a.trace_chrome, b.trace_chrome,
        "Chrome export is not a pure function of the spec"
    );
}

#[test]
fn tracing_at_full_sampling_does_not_perturb_the_run() {
    let bare_cfg = RunConfig::quick();
    let traced_cfg = RunConfig {
        trace_sample: Some(1),
        ..RunConfig::quick()
    };
    let bare = run_scenario(&torrent(3), &bare_cfg);
    let traced = run_scenario(&torrent(3), &traced_cfg);
    assert_eq!(
        bare.trace.events, traced.trace.events,
        "the causal tracer changed the instrumented trace"
    );
    assert_eq!(bare.result.completion, traced.result.completion);
    assert_eq!(bare.result.events_processed, traced.result.events_processed);
}

/// Every sampled piece lifecycle that closes must chain
/// `injected → verified… → k_replicated`, and at least one must close
/// in a completing swarm.
#[test]
fn sampled_lifecycles_run_from_injection_to_k_replication() {
    let cfg = RunConfig {
        trace_sample: Some(1),
        ..RunConfig::quick()
    };
    let outcome = run_scenario(&torrent(2), &cfg);
    let jsonl = outcome.trace_jsonl.expect("causal trace requested");
    let mut complete = 0;
    for line in jsonl
        .lines()
        .filter(|l| l.contains("\"name\":\"k_replicated\""))
    {
        let id = line
            .split("\"id\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .expect("k_replicated line carries an id");
        let opened = jsonl
            .lines()
            .any(|l| l.contains("\"name\":\"injected\"") && l.contains(&format!("\"id\":{id},")));
        assert!(opened, "piece {id} closed without an injected event");
        complete += 1;
    }
    assert!(complete > 0, "no sampled lifecycle reached k_replicated");
    assert!(
        jsonl.contains("\"name\":\"round\"") && jsonl.contains("\"name\":\"audit\""),
        "no full choke-round audit in the export"
    );
}

/// Tightening the live-monitor thresholds until they must trip forces a
/// flight-recorder dump; the bundle is self-contained JSON whose trace
/// slice and explanation name the starved peer.
#[test]
fn forced_invariant_violation_dumps_a_bundle_naming_the_starved_peer() {
    let dir = std::env::temp_dir().join(format!("bt-flightrec-inv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = bt_repro::torrents::PresetOptions {
        seed: 42,
        pieces: 8,
        duration: bt_repro::wire::time::Duration::from_secs(900),
    };
    let spec = bt_repro::torrents::scenarios::mega_flash_crowd(300, &opts);
    let recorder = FlightRecorder::new(&dir, 4096, spec.seed);
    let tracer = Tracer::new(spec.seed, 1).with_flight(recorder.clone());
    let thresholds = Thresholds {
        // A leecher swarm can never reciprocate 200% of its unchokes,
        // and one virtual second without progress is routine: the first
        // health sample after warm-up must trip.
        min_reciprocation: 2.0,
        max_starvation_secs: 1,
        ..Thresholds::default()
    };
    let result = Swarm::new(spec)
        .with_metrics(Registry::new_manual())
        .with_health(thresholds)
        .with_trace(tracer)
        .with_flight_recorder(recorder)
        .run();
    let health = result.health.expect("health monitors attached");
    assert!(!health.healthy(), "tightened thresholds failed to trip");

    let bundle_path = dir.join("flightrec-0.json");
    let bundle = std::fs::read_to_string(&bundle_path)
        .unwrap_or_else(|e| panic!("no bundle at {}: {e}", bundle_path.display()));
    assert!(bundle.contains("\"reason\":\"invariant:"), "{bundle:.200}");
    assert!(
        bundle.contains("worst-starved peer:"),
        "explanation does not name the starved peer"
    );
    assert!(
        bundle.contains("\"seed\":42"),
        "bundle is not self-contained"
    );
    assert!(bundle.contains("\"trace\":["), "bundle has no trace slice");
    let _ = std::fs::remove_dir_all(&dir);
}
