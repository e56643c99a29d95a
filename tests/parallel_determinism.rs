//! The parallel sweep runner is a pure scheduling change: for any worker
//! count, `run_table1_parallel` must return outcomes that are
//! byte-identical to the sequential `run_table1`, in Table I order.
//!
//! Every scenario seeds its RNGs from `(cfg.seed, spec.id)` alone, so
//! worker count, work-stealing order, and completion order must not be
//! observable in the results. This test is the contract CI enforces.

use bt_repro::sim::Swarm;
use bt_repro::torrents::{run_table1, run_table1_parallel, RunConfig, ScenarioOutcome};

fn assert_outcomes_identical(seq: &[ScenarioOutcome], par: &[ScenarioOutcome], jobs: usize) {
    assert_eq!(seq.len(), par.len(), "jobs={jobs}: sweep length changed");
    for (s, p) in seq.iter().zip(par) {
        assert_eq!(
            s.spec.id, p.spec.id,
            "jobs={jobs}: outcomes not in Table I order"
        );
        let id = s.spec.id;
        assert_eq!(
            s.scaled, p.scaled,
            "jobs={jobs} torrent {id}: scaling differs"
        );
        assert_eq!(
            s.trace, p.trace,
            "jobs={jobs} torrent {id}: trace differs from sequential"
        );
        assert_eq!(
            s.result.events_processed, p.result.events_processed,
            "jobs={jobs} torrent {id}: event count differs"
        );
        assert_eq!(
            s.result.completion, p.result.completion,
            "jobs={jobs} torrent {id}: completion times differ"
        );
        assert_eq!(
            s.result.completed_peers, p.result.completed_peers,
            "jobs={jobs} torrent {id}: completed peer count differs"
        );
        assert_eq!(
            (s.result.tracker_started, s.result.tracker_completed),
            (p.result.tracker_started, p.result.tracker_completed),
            "jobs={jobs} torrent {id}: tracker stats differ"
        );
    }
}

#[test]
fn parallel_sweep_matches_sequential_for_any_job_count() {
    let cfg = RunConfig::quick();
    let sequential = run_table1(&cfg, |_| {});
    let expected_ids: Vec<u32> = bt_repro::torrents::table1().iter().map(|s| s.id).collect();
    assert_eq!(
        sequential.iter().map(|o| o.spec.id).collect::<Vec<_>>(),
        expected_ids,
        "sequential sweep must itself be in Table I order"
    );
    for jobs in [1, 2, 8] {
        let reported = std::sync::Mutex::new(Vec::new());
        let parallel = run_table1_parallel(&cfg, jobs, |o| {
            reported.lock().unwrap().push(o.spec.id);
        });
        assert_outcomes_identical(&sequential, &parallel, jobs);
        // Progress fires once per torrent (in completion order, so compare
        // as sets).
        let mut reported = reported.into_inner().unwrap();
        reported.sort_unstable();
        assert_eq!(reported, expected_ids, "jobs={jobs}: progress reports");
    }
}

/// The mega-swarm analogue of the sweep contract: a swarm's digest is a
/// pure function of its spec. Running the 10k-peer flash crowd on the
/// main thread ("--jobs 1") and again inside an 8-worker pool alongside
/// sibling swarms ("--jobs 8") must produce bit-identical digests — no
/// thread identity, scheduling, or co-resident swarm may leak into a
/// run. This is the determinism the mega golden fingerprint relies on.
#[test]
fn mega_swarm_digest_is_repeat_and_thread_invariant() {
    use bt_repro::torrents::scenarios::mega_flash_crowd;
    use bt_repro::torrents::PresetOptions;
    use bt_repro::wire::time::Duration;

    let spec_for = |peers: usize, seed: u64| {
        let opts = PresetOptions {
            seed,
            pieces: 8,
            duration: Duration::from_secs(900),
        };
        mega_flash_crowd(peers, &opts)
    };
    // (peers, seed): the golden 10k swarm plus two 1k siblings with
    // different seeds so pool workers run genuinely different swarms.
    let fleet = [(10_000usize, 42u64), (1_000, 43), (1_000, 44)];

    // jobs=1: each swarm sequentially on this thread.
    let sequential: Vec<u64> = fleet
        .iter()
        .map(|&(peers, seed)| Swarm::new(spec_for(peers, seed)).run().digest())
        .collect();

    // jobs=8: the same fleet through a worker pool (more workers than
    // swarms, so spawn order and work stealing are exercised).
    let pooled: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .iter()
            .map(|&(peers, seed)| {
                scope.spawn(move || Swarm::new(spec_for(peers, seed)).run().digest())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        sequential, pooled,
        "mega-swarm digests differ between sequential and pooled execution"
    );
    assert_ne!(
        sequential[1], sequential[2],
        "different seeds must produce different digests (digest is not degenerate)"
    );
}
