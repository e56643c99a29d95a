//! Span profiling must be a free observer, like metrics: attaching a
//! profiler to a simulated swarm changes nothing about the run, and the
//! profile it yields is a pure function of the spec and seed.
//!
//! Two contracts, both enforced by CI:
//!
//! 1. **Profile determinism** — the merged profile JSON for a sweep is
//!    byte-identical whether it runs on 1 or 8 workers. Each scenario
//!    profiles against its own manual clock (advanced in lock-step with
//!    the event queue), and per-scenario profiles merge commutatively
//!    in spec order, so worker count and scheduling cannot leak in.
//! 2. **Non-perturbation** — traces with profiling on equal traces
//!    with profiling off, so the PR 1 golden fingerprints are
//!    untouched by span instrumentation.

use bt_repro::obs::{ObserverSet, Profile};
use bt_repro::torrents::{run_scenarios_parallel, torrent, RunConfig, ScenarioOutcome};

fn profiled() -> RunConfig {
    RunConfig {
        observe: ObserverSet {
            profile: true,
            ..ObserverSet::default()
        },
        ..RunConfig::quick()
    }
}

fn merged_profile_json(outcomes: &[ScenarioOutcome]) -> String {
    let mut merged = Profile::default();
    for o in outcomes {
        merged.merge(o.result.profile.as_ref().expect("profiling was requested"));
    }
    merged.to_json()
}

#[test]
fn merged_profile_json_is_byte_identical_across_job_counts() {
    let cfg = profiled();
    let specs = [torrent(2), torrent(19), torrent(3)];
    let sequential = run_scenarios_parallel(&cfg, &specs, 1, |_| {});
    let parallel = run_scenarios_parallel(&cfg, &specs, 8, |_| {});
    for o in &sequential {
        let profile = o.result.profile.as_ref().unwrap();
        assert!(!profile.is_empty(), "torrent {}: empty profile", o.spec.id);
        assert_eq!(
            profile.get(&["sim.event_pop"]).unwrap().count,
            o.result.events_processed,
            "torrent {}: one event_pop span per processed event",
            o.spec.id
        );
    }
    // Per-scenario profiles are identical run to run ...
    for (seq, par) in sequential.iter().zip(&parallel) {
        assert_eq!(
            seq.result.profile.as_ref().unwrap().to_json(),
            par.result.profile.as_ref().unwrap().to_json(),
            "torrent {}: profile differs across job counts",
            seq.spec.id
        );
    }
    // ... and so is their merge, the profile `btstat merge DIR/*` makes
    // of a `swarmrun --table1 --emit-dir DIR` sweep.
    assert_eq!(
        merged_profile_json(&sequential),
        merged_profile_json(&parallel),
        "merged profile differs across job counts"
    );
}

#[test]
fn profiling_does_not_perturb_traces() {
    let bare_cfg = RunConfig::quick();
    let prof_cfg = profiled();
    let specs = [torrent(2), torrent(3)];
    let bare = run_scenarios_parallel(&bare_cfg, &specs, 2, |_| {});
    let profiled = run_scenarios_parallel(&prof_cfg, &specs, 2, |_| {});
    for (b, p) in bare.iter().zip(&profiled) {
        assert_eq!(
            b.trace.events, p.trace.events,
            "torrent {}: profiling changed the trace",
            b.spec.id
        );
        assert_eq!(b.result.completion, p.result.completion);
        assert_eq!(b.result.events_processed, p.result.events_processed);
    }
}

#[test]
fn profile_call_tree_nests_engine_spans_under_driver_spans() {
    let cfg = profiled();
    let outcome = bt_repro::torrents::run_scenario(&torrent(2), &cfg);
    let profile = outcome.result.profile.as_ref().unwrap();
    for path in [
        &["sim.event", "core.handle.message"][..],
        &["sim.event", "core.handle.tick", "core.choke_round"][..],
        &["sim.event", "core.handle.message", "core.piece_pick"][..],
    ] {
        assert!(
            profile.get(path).is_some_and(|s| s.count > 0),
            "expected span path {path:?} in the profile"
        );
    }
}
