//! The paper's live-swarm claims re-checked over a WAN link model.
//!
//! The IMC 2006 measurements ran on real torrents whose peers sat
//! behind asymmetric DSL and cable links — not on a uniform-latency
//! LAN. The `asymmetric_dsl` topology preset reproduces that mix
//! (per-direction bandwidth, asymmetric one-way delay, a little
//! loss), and the paper's conclusions must survive it:
//!
//! 1. **Entropy stays near ideal** (§III): rarest first keeps piece
//!    availability entropy ≥ 0.7 even when the crowd is split across
//!    link classes with very different upload capacity.
//! 2. **Reciprocation persists** (§IV): the choke algorithm still
//!    fosters reciprocated unchokes when round-trip times and
//!    bandwidth differ per pair.
//! 3. **Determinism is untouched**: full-duplex links draw loss and
//!    jitter from the same master RNG discipline as everything else,
//!    so a WAN swarm's digest is a pure function of spec + seed —
//!    across repeat runs and across worker threads.

use bt_repro::obs::{Registry, SeriesStore};
use bt_repro::sim::Swarm;
use bt_repro::torrents::scenarios::wan_mega_flash_crowd;
use bt_repro::torrents::PresetOptions;

fn wan_opts() -> PresetOptions {
    PresetOptions {
        pieces: 8,
        duration: bt_repro::wire::time::Duration::from_secs(1800),
        ..PresetOptions::default()
    }
}

#[test]
fn dsl_flash_crowd_keeps_entropy_and_reciprocation_healthy() {
    let spec = wan_mega_flash_crowd(400, "asymmetric_dsl", &wan_opts());
    let registry = Registry::new_manual();
    let store = SeriesStore::new(&registry);
    let result = Swarm::new(spec)
        .with_metrics(registry)
        .with_series(store.clone())
        .with_health(Default::default())
        .run();
    assert!(
        result.completed_peers >= 350,
        "DSL crowd stalled: {} / 401 completed",
        result.completed_peers
    );
    let health = result.health.expect("health monitors attached");
    let monitor = |name: &str| {
        health
            .monitors
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} monitor missing"))
    };
    let entropy = monitor("entropy");
    assert!(
        entropy.healthy && entropy.value >= 0.7,
        "entropy {} under the DSL topology breaks the §III claim",
        entropy.value
    );
    let reciprocation = monitor("reciprocation");
    assert!(
        reciprocation.healthy,
        "reciprocation {} under the DSL topology breaks the §IV claim",
        reciprocation.value
    );
    assert!(
        monitor("starvation").healthy,
        "peers starved under the DSL topology"
    );
    // The live health series exist for the WAN run too.
    let live = store.views(Some("live.entropy"));
    assert!(!live.is_empty() && live[0].points.len() > 5);
}

#[test]
fn wan_digest_is_deterministic_across_repeats_and_threads() {
    let spec = wan_mega_flash_crowd(250, "asymmetric_dsl", &wan_opts());
    let sequential = Swarm::new(spec.clone()).run().digest();
    let repeat = Swarm::new(spec.clone()).run().digest();
    assert_eq!(sequential, repeat, "repeat WAN run diverged");
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || Swarm::new(spec).run().digest())
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), sequential, "threaded WAN run diverged");
    }
}
