//! The time-series store and the live health monitors must be free
//! observers, exactly like the metrics registry they ride on: attaching a `SeriesStore` and the live health
//! monitors to a simulated swarm changes nothing about the run, and the
//! exported time-series JSON is a pure function of the spec and seed.
//!
//! Three contracts, all enforced by CI:
//!
//! 1. **Series determinism** — the `series.json` for a scenario is
//!    byte-identical whether the sweep runs on 1, 2, or 8 workers
//!    (rings fill from virtual-clock sampling events, never wall time).
//! 2. **Non-perturbation** — traces with the observers on equal
//!    traces with it off, so the golden fingerprints are untouched.
//! 3. **Paper invariants hold live** — a flash crowd reaches the end of
//!    its session with every online monitor healthy: availability
//!    entropy near 1 (§III "entropy of the torrent"), no starving
//!    peers, reciprocation above the floor.

use bt_repro::obs::{ObserverSet, Registry, SeriesStore};
use bt_repro::sim::Swarm;
use bt_repro::torrents::{run_scenarios_parallel, torrent, RunConfig, ScenarioOutcome};

/// The quick profile with a registry, its series store and the health
/// monitors on every swarm.
fn observed() -> RunConfig {
    RunConfig {
        observe: ObserverSet {
            metrics: true,
            ..ObserverSet::default()
        },
        ..RunConfig::quick()
    }
}

fn series_json(o: &ScenarioOutcome) -> String {
    let store = o.observers.series.as_ref().expect("series requested");
    store.to_json(None)
}

#[test]
fn series_json_is_byte_identical_across_job_counts() {
    let cfg = observed();
    let specs = [torrent(2), torrent(19), torrent(3)];
    let baseline = run_scenarios_parallel(&cfg, &specs, 1, |_| {});
    for o in &baseline {
        let json = series_json(o);
        assert!(
            json.contains("\"name\":\"live.entropy\""),
            "torrent {}: health series missing",
            o.spec.id
        );
        assert!(json.contains("\"name\":\"sim.live_peers\""));
        assert!(
            o.result.health.is_some(),
            "torrent {}: no health report",
            o.spec.id
        );
    }
    for jobs in [2, 8] {
        let parallel = run_scenarios_parallel(&cfg, &specs, jobs, |_| {});
        for (seq, par) in baseline.iter().zip(&parallel) {
            assert_eq!(
                series_json(seq),
                series_json(par),
                "jobs={jobs} torrent {}: series JSON drifted",
                seq.spec.id
            );
        }
    }
}

#[test]
fn series_and_health_do_not_perturb_scenario_traces() {
    let quick = RunConfig::quick();
    let observed_cfg = observed();
    for id in [2, 3] {
        let bare = bt_repro::torrents::run_scenario(&torrent(id), &quick);
        let observed = bt_repro::torrents::run_scenario(&torrent(id), &observed_cfg);
        assert_eq!(
            bare.trace.events, observed.trace.events,
            "torrent {id}: the observers changed the trace"
        );
        assert_eq!(bare.result.completion, observed.result.completion);
        assert_eq!(
            bare.result.events_processed,
            observed.result.events_processed
        );
    }
}

#[test]
fn flash_crowd_ends_healthy_with_entropy_near_one() {
    let opts = bt_repro::torrents::PresetOptions {
        pieces: 8,
        duration: bt_repro::wire::time::Duration::from_secs(900),
        ..bt_repro::torrents::PresetOptions::default()
    };
    let spec = bt_repro::torrents::scenarios::mega_flash_crowd(300, &opts);
    let bare = Swarm::new(spec.clone()).run();
    let registry = Registry::new_manual();
    let store = SeriesStore::new(&registry);
    let swarm = Swarm::new(spec)
        .with_metrics(registry)
        .with_series(store.clone())
        .with_health(Default::default());
    let result = swarm.run();
    // This preset has no instrumented local peer, so the bare run
    // schedules no `Ev::Sample`: the observers add those events and must
    // change nothing the swarm does.
    assert_eq!(bare.completion, result.completion);
    assert_eq!(bare.tracker_started, result.tracker_started);
    assert_eq!(bare.tracker_completed, result.tracker_completed);
    let health = result.health.expect("health monitors attached");
    assert!(
        health.healthy(),
        "flash crowd ended unhealthy: {}",
        health.summary_line()
    );
    let entropy = health
        .monitors
        .iter()
        .find(|m| m.name == "entropy")
        .expect("entropy monitor present");
    assert!(
        entropy.healthy && entropy.value > 0.9,
        "flash crowd entropy {} below the paper's near-ideal regime",
        entropy.value
    );
    // The main health series exists and is non-trivial.
    let live = store.views(Some("live.entropy"));
    assert!(!live.is_empty() && live[0].points.len() > 5);
}
