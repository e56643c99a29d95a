//! End-to-end tests of the post-paper protocol extensions through the
//! full simulator: Fast Extension bootstrap and PEX peer discovery.

use bt_repro::analysis::ReplicationSeries;
use bt_repro::core::Config;
use bt_repro::instrument::trace::TraceEvent;
use bt_repro::sim::{BehaviorProfile, CapacityClass, Role, Swarm, SwarmSpec};
use bt_repro::torrents::scenarios::{self, PresetOptions};
use bt_repro::wire::peer_id::ClientKind;
use bt_repro::wire::time::Duration;

/// First-block latency of a late joiner, with and without the Fast
/// Extension: the allowed-fast bootstrap must never be slower, and
/// should typically be much faster.
#[test]
fn fast_extension_cuts_first_block_latency() {
    let run = |fast: bool| -> f64 {
        let cfg = Config {
            fast_extension: fast,
            ..Config::default()
        };
        let mut peers = vec![BehaviorProfile::seed(), BehaviorProfile::seed()];
        for i in 0..12 {
            let mut p = BehaviorProfile::leecher(Duration::from_secs(i));
            p.capacity = CapacityClass::Dsl;
            p.prepopulate = true;
            peers.push(p);
        }
        let join = 200u64;
        peers.push(BehaviorProfile {
            role: Role::Leecher,
            client: ClientKind::Mainline402,
            capacity: CapacityClass::Default,
            join_at: Duration::from_secs(join),
            seed_linger: None,
            prepopulate: false,
            restart_after: None,
        });
        let local = peers.len() - 1;
        let spec = SwarmSpec {
            seed: 5,
            total_len: 32 * 256 * 1024,
            piece_len: 256 * 1024,
            duration: Duration::from_secs(3600),
            base_config: cfg,
            peers,
            local: Some(local),
            ..SwarmSpec::default()
        };
        let result = Swarm::new(spec).run();
        let trace = result.trace.unwrap();
        let first = trace
            .iter()
            .find(|(_, e)| matches!(e, TraceEvent::BlockReceived { .. }))
            .map(|(t, _)| t.as_secs_f64() - join as f64)
            .expect("late joiner received at least one block");
        first
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with <= without,
        "fast extension slowed the first block: {with} vs {without}"
    );
}

/// Under a rationing tracker, PEX must grow the late joiner's peer set
/// well beyond what the tracker alone provides.
#[test]
fn pex_recovers_peer_set_under_rationed_tracker() {
    let mean_peer_set = |pex: bool| -> f64 {
        let opts = PresetOptions {
            pieces: 24,
            duration: Duration::from_secs(3600),
            ..PresetOptions::default()
        };
        let mut spec = scenarios::steady_state(2, 20, 120, &opts);
        spec.base_config.pex_enabled = pex;
        spec.tracker_response_cap = Some(2);
        let result = Swarm::new(spec).run();
        let trace = result.trace.unwrap();
        ReplicationSeries::from_trace(&trace)
            .leecher_state(&trace)
            .mean_peer_set()
    };
    let without = mean_peer_set(false);
    let with = mean_peer_set(true);
    assert!(
        with > without * 1.3,
        "pex should grow the peer set substantially: {with} vs {without}"
    );
}

/// With both extensions on, everything still completes and verifies
/// (real-data mode).
#[test]
fn extensions_compose_with_real_data() {
    let mut spec = scenarios::flash_crowd(
        6,
        &PresetOptions {
            pieces: 8,
            duration: Duration::from_secs(6000),
            ..PresetOptions::default()
        },
    );
    spec.base_config = Config {
        fast_extension: true,
        pex_enabled: true,
        ..Config::default()
    };
    spec.real_data = true;
    let result = Swarm::new(spec).run();
    assert_eq!(
        result.completed_peers, 6,
        "every leecher verifies and finishes"
    );
    let trace = result.trace.unwrap();
    assert!(!trace
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::PieceFailed { .. })));
}
