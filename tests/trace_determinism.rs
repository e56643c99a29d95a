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
//!    the starved peer, a sweep given only a flight directory dumps
//!    each unhealthy torrent's bundles under its own label, identically
//!    on any worker count, and piece lifecycles in the export run from
//!    `injected` to `k_replicated`.

use bt_repro::analysis::live::Thresholds;
use bt_repro::obs::{FlightRecorder, ObserverSet, Registry, Tracer};
use bt_repro::sim::Swarm;
use bt_repro::torrents::{
    run_scenario, run_scenarios_parallel, torrent, RunConfig, ScenarioOutcome,
};

fn traced(rate: u64) -> RunConfig {
    RunConfig {
        observe: ObserverSet {
            trace_sample: Some(rate),
            ..ObserverSet::default()
        },
        ..RunConfig::quick()
    }
}

/// The sorted JSONL and the Chrome JSON, as `swarmrun --emit-dir` writes
/// them into each torrent's `trace.jsonl` and `trace.json`.
fn exports(o: &ScenarioOutcome) -> (String, String) {
    let tracer = o.observers.tracer.as_ref();
    let tracer = tracer.expect("causal trace requested");
    (tracer.to_jsonl(), tracer.to_chrome_json())
}

#[test]
fn trace_exports_are_byte_identical_across_job_counts() {
    let cfg = traced(2);
    let specs = [torrent(2), torrent(19), torrent(3)];
    let baseline = run_scenarios_parallel(&cfg, &specs, 1, |_| {});
    for o in &baseline {
        let (jsonl, chrome) = exports(o);
        assert!(
            jsonl.contains("\"name\":\"injected\""),
            "torrent {}: no piece lifecycle sampled",
            o.spec.id
        );
        assert!(
            chrome.contains("\"traceEvents\""),
            "torrent {}: no Chrome export",
            o.spec.id
        );
    }
    for jobs in [2, 8] {
        let parallel = run_scenarios_parallel(&cfg, &specs, jobs, |_| {});
        for (seq, par) in baseline.iter().zip(&parallel) {
            let ((seq_jsonl, seq_chrome), (par_jsonl, par_chrome)) = (exports(seq), exports(par));
            assert_eq!(
                seq_jsonl, par_jsonl,
                "jobs={jobs} torrent {}: trace JSONL drifted",
                seq.spec.id
            );
            assert_eq!(
                seq_chrome, par_chrome,
                "jobs={jobs} torrent {}: Chrome JSON drifted",
                seq.spec.id
            );
        }
    }
}

#[test]
fn trace_exports_are_byte_identical_across_runs() {
    let cfg = traced(1);
    let (a_jsonl, a_chrome) = exports(&run_scenario(&torrent(2), &cfg));
    let (b_jsonl, b_chrome) = exports(&run_scenario(&torrent(2), &cfg));
    assert_eq!(
        a_jsonl, b_jsonl,
        "JSONL export is not a pure function of the spec"
    );
    assert_eq!(
        a_chrome, b_chrome,
        "Chrome export is not a pure function of the spec"
    );
}

#[test]
fn tracing_at_full_sampling_does_not_perturb_the_run() {
    let bare_cfg = RunConfig::quick();
    let bare = run_scenario(&torrent(3), &bare_cfg);
    let traced = run_scenario(&torrent(3), &traced(1));
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
    let outcome = run_scenario(&torrent(2), &traced(1));
    let (jsonl, _) = exports(&outcome);
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
    let tracer = Tracer::new(spec.seed, 1).with_flight(recorder);
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

/// Every bundle under `dir`, keyed by its path below it.
fn bundles_under(dir: &std::path::Path) -> std::collections::BTreeMap<String, String> {
    let mut bundles = std::collections::BTreeMap::new();
    for torrent in std::fs::read_dir(dir).into_iter().flatten() {
        let torrent = torrent.unwrap().path();
        let files = std::fs::read_dir(&torrent)
            .unwrap_or_else(|e| panic!("{}: not a torrent's directory: {e}", torrent.display()));
        for file in files {
            let path = file.unwrap().path();
            let key = path.strip_prefix(dir).unwrap().display().to_string();
            bundles.insert(key, std::fs::read_to_string(&path).unwrap());
        }
    }
    bundles
}

/// A sweep given only a flight directory arms the invariant dumps: each
/// torrent unhealthy at session end has bundles under its own label
/// (every recorder numbers its bundles from 0, so a shared directory
/// would keep whichever torrent wrote last), and names and bytes are the
/// same on one worker and on two.
#[test]
fn sweep_flight_bundles_land_per_torrent_and_match_across_job_counts() {
    let base = std::env::temp_dir().join(format!("bt-flightrec-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let specs = [torrent(2), torrent(19), torrent(3)];
    let mut sweeps = Vec::new();
    for jobs in [1, 2] {
        let dir = base.join(format!("jobs{jobs}"));
        let cfg = RunConfig {
            observe: ObserverSet {
                flight_dir: Some(dir.clone()),
                ..ObserverSet::default()
            },
            ..RunConfig::quick()
        };
        let outcomes = run_scenarios_parallel(&cfg, &specs, jobs, |_| {});
        let bundles = bundles_under(&dir);
        let mut unhealthy = 0;
        for o in &outcomes {
            let health = o
                .result
                .health
                .as_ref()
                .expect("a flight dir arms the monitors");
            let label = format!("{}{}", o.spec.label(), std::path::MAIN_SEPARATOR);
            let dumped = bundles.keys().filter(|k| k.starts_with(&label)).count();
            if !health.healthy() {
                unhealthy += 1;
                assert!(dumped > 0, "jobs={jobs}: unhealthy {label} left no bundle");
            }
        }
        assert!(
            unhealthy > 0,
            "no torrent tripped a monitor: the test is vacuous"
        );
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        for (key, bundle) in &bundles {
            assert!(
                labels.iter().any(|l| key.starts_with(l.as_str())),
                "{key} is not under a torrent label"
            );
            assert!(!bundle.contains("\"trace\":[]"), "{key}: empty trace slice");
        }
        sweeps.push(bundles);
    }
    assert!(
        sweeps[0] == sweeps[1],
        "bundle names or bytes differ between one and two workers"
    );
    let _ = std::fs::remove_dir_all(&base);
}
