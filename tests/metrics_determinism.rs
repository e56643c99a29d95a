//! Metrics must be free observers: attaching a `bt-obs` registry to a
//! simulated swarm changes nothing about the run, and the snapshots it
//! yields are a pure function of the spec and seed.
//!
//! Two contracts, both enforced by CI:
//!
//! 1. **Snapshot determinism** — the metrics JSONL for a scenario is
//!    byte-identical whether the sweep runs on 1, 2, or 8 workers
//!    (virtual-clock registries advance with the event queue, never
//!    with wall time).
//! 2. **Non-perturbation** — traces with metrics on equal traces with
//!    metrics off, so the PR 1 golden fingerprints are untouched by
//!    instrumentation.

use bt_repro::obs::ObserverSet;
use bt_repro::torrents::{run_scenarios_parallel, torrent, RunConfig, ScenarioOutcome};

fn with_metrics() -> RunConfig {
    RunConfig {
        observe: ObserverSet {
            metrics: true,
            ..ObserverSet::default()
        },
        ..RunConfig::quick()
    }
}

fn metrics_jsonl(outcome: &ScenarioOutcome) -> String {
    outcome
        .result
        .metrics
        .iter()
        .map(|s| s.to_jsonl_line() + "\n")
        .collect()
}

#[test]
fn metrics_jsonl_is_byte_identical_across_job_counts() {
    let cfg = with_metrics();
    let specs = [torrent(2), torrent(19), torrent(3)];
    let baseline = run_scenarios_parallel(&cfg, &specs, 1, |_| {});
    for o in &baseline {
        assert!(
            !o.result.metrics.is_empty(),
            "torrent {}: no metrics snapshots collected",
            o.spec.id
        );
        let last = o.result.metrics.last().unwrap();
        assert!(last.counter_sum("core.inputs.message") > 0);
        assert!(last.counter_sum("sim.events") > 0);
    }
    for jobs in [2, 8] {
        let parallel = run_scenarios_parallel(&cfg, &specs, jobs, |_| {});
        for (seq, par) in baseline.iter().zip(&parallel) {
            assert_eq!(
                metrics_jsonl(seq),
                metrics_jsonl(par),
                "jobs={jobs} torrent {}: metrics JSONL drifted",
                seq.spec.id
            );
        }
    }
}

#[test]
fn metrics_do_not_perturb_scenario_traces() {
    let quick = RunConfig::quick();
    let with_metrics = with_metrics();
    for id in [2, 3] {
        let bare = bt_repro::torrents::run_scenario(&torrent(id), &quick);
        let instrumented = bt_repro::torrents::run_scenario(&torrent(id), &with_metrics);
        assert_eq!(
            bare.trace.events, instrumented.trace.events,
            "torrent {id}: instrumentation changed the trace"
        );
        assert_eq!(bare.result.completion, instrumented.result.completion);
        assert_eq!(
            bare.result.events_processed,
            instrumented.result.events_processed
        );
        assert!(instrumented.result.metrics.len() > bare.result.metrics.len());
    }
}
