//! Named scenario presets beyond Table I.
//!
//! The Table I runner reproduces the paper's torrents; these presets
//! package the *situations* the paper reasons about — flash crowds, at
//! any scale and over a WAN topology, and steady-state swarms — as
//! ready-made [`SwarmSpec`]s for `swarmrun`, library users and tests.

use bt_core::Config;
use bt_sim::behavior::{BehaviorProfile, CapacityClass, Role};
use bt_sim::swarm::SwarmSpec;
use bt_sim::{NetModel, TopologySpec};
use bt_wire::peer_id::ClientKind;
use bt_wire::time::Duration;

/// Common knobs for the preset builders.
#[derive(Debug, Clone)]
pub struct PresetOptions {
    /// Master PRNG seed.
    pub seed: u64,
    /// Content size in 256 kB pieces.
    pub pieces: u32,
    /// Session length.
    pub duration: Duration,
}

impl Default for PresetOptions {
    fn default() -> Self {
        PresetOptions {
            seed: 42,
            pieces: 48,
            duration: Duration::from_secs(2 * 3600),
        }
    }
}

fn base_spec(opts: &PresetOptions, peers: Vec<BehaviorProfile>) -> SwarmSpec {
    SwarmSpec {
        seed: opts.seed,
        total_len: u64::from(opts.pieces) * 256 * 1024,
        piece_len: 256 * 1024,
        duration: opts.duration,
        peers,
        ..SwarmSpec::default()
    }
}

fn dsl_leecher(join_secs: u64) -> BehaviorProfile {
    BehaviorProfile {
        role: Role::Leecher,
        client: ClientKind::Mainline402,
        capacity: CapacityClass::Dsl,
        join_at: Duration::from_secs(join_secs),
        seed_linger: Some(Duration::from_secs(900)),
        prepopulate: false,
        restart_after: None,
    }
}

/// A flash crowd: one fresh 20 kB/s initial seed, `leechers` empty peers
/// arriving within the first minute — §IV-A.2.a's transient regime. The
/// first leecher (index 1) is instrumented.
pub fn flash_crowd(leechers: usize, opts: &PresetOptions) -> SwarmSpec {
    let mut peers = vec![BehaviorProfile::seed()];
    for i in 0..leechers {
        peers.push(dsl_leecher(i as u64 % 60));
    }
    let mut spec = base_spec(opts, peers);
    spec.local = Some(1);
    spec.available_fraction = 0.0; // every piece starts rare
    spec
}

/// A mega-swarm flash crowd: one fresh seed and `leechers` empty peers
/// arriving within the first minute, tuned so peer count is the only
/// scale axis. Content is small (`opts.pieces` × 64 kB), per-peer
/// connectivity is capped well below the mainline defaults, the tracker
/// rations its responses and uses the O(num_want) sampling path, peers
/// seed briefly after completing, and nothing is instrumented. This is
/// the shape behind the `flash_crowd_10k` / `flash_crowd_100k` scenarios.
pub fn mega_flash_crowd(leechers: usize, opts: &PresetOptions) -> SwarmSpec {
    let config = Config {
        max_peer_set: 12,
        min_peer_set: 4,
        max_initiated: 6,
        ..Config::default()
    };
    let mut peers = Vec::with_capacity(leechers + 1);
    peers.push(BehaviorProfile::seed());
    for i in 0..leechers {
        let mut p = dsl_leecher(i as u64 % 60);
        p.seed_linger = Some(Duration::from_secs(180));
        peers.push(p);
    }
    SwarmSpec {
        seed: opts.seed,
        total_len: u64::from(opts.pieces) * 64 * 1024,
        piece_len: 64 * 1024,
        duration: opts.duration,
        base_config: config,
        peers,
        available_fraction: 0.0,
        tracker_response_cap: Some(10),
        scalable_tracker: true,
        ..SwarmSpec::default()
    }
}

/// Resolve a topology by built-in preset name, panicking with the
/// valid names on a typo — scenario presets are developer-facing.
fn named_topology(name: &str) -> TopologySpec {
    TopologySpec::preset(name).unwrap_or_else(|| {
        panic!(
            "unknown topology preset `{name}` (expected one of {:?})",
            bt_sim::PRESET_NAMES
        )
    })
}

/// A WAN mega-swarm flash crowd: [`mega_flash_crowd`] over a named
/// topology preset. The shape behind `swarmrun --scenario
/// flash_crowd_10k --topology asymmetric_dsl`.
pub fn wan_mega_flash_crowd(leechers: usize, topology: &str, opts: &PresetOptions) -> SwarmSpec {
    let mut spec = mega_flash_crowd(leechers, opts);
    spec.net = Some(NetModel::FullDuplex(named_topology(topology)));
    spec
}

/// A steady-state swarm: `seeds` seeds plus a prepopulated leecher
/// population with ongoing arrivals; a fresh instrumented peer joins at
/// `join_secs`. The paper's torrent-7 regime in miniature.
pub fn steady_state(
    seeds: usize,
    leechers: usize,
    join_secs: u64,
    opts: &PresetOptions,
) -> SwarmSpec {
    let mut peers = Vec::new();
    for _ in 0..seeds {
        peers.push(BehaviorProfile::seed());
    }
    for i in 0..leechers {
        let mut p = dsl_leecher(i as u64 % 60);
        p.prepopulate = true;
        peers.push(p);
    }
    // A trickle of fresh arrivals keeps the population alive.
    for i in 0..leechers / 2 {
        peers.push(dsl_leecher(
            60 + (i as u64 * opts.duration.0 / 1_000_000) / (leechers as u64 / 2 + 1),
        ));
    }
    peers.push(BehaviorProfile {
        role: Role::Leecher,
        client: ClientKind::Mainline402,
        capacity: CapacityClass::Default,
        join_at: Duration::from_secs(join_secs),
        seed_linger: None,
        prepopulate: false,
        restart_after: None,
    });
    let mut spec = base_spec(opts, peers);
    spec.local = Some(spec.peers.len() - 1);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_sim::Swarm;

    fn opts() -> PresetOptions {
        PresetOptions {
            pieces: 12,
            duration: Duration::from_secs(4000),
            ..PresetOptions::default()
        }
    }

    #[test]
    fn every_preset_validates() {
        for o in [opts(), PresetOptions::default()] {
            for spec in [
                flash_crowd(8, &o),
                mega_flash_crowd(1_000, &o),
                wan_mega_flash_crowd(1_000, "two_isp_bottleneck", &o),
                steady_state(1, 10, 90, &o),
            ] {
                assert_eq!(spec.validate(), Ok(()));
            }
        }
    }

    #[test]
    fn flash_crowd_runs_to_completion() {
        let spec = flash_crowd(8, &opts());
        assert_eq!(spec.local, Some(1));
        assert_eq!(spec.available_fraction, 0.0);
        let result = Swarm::new(spec).run();
        assert!(
            result.completed_peers >= 7,
            "completed {}",
            result.completed_peers
        );
        assert!(result.trace.is_some());
    }

    #[test]
    fn steady_state_instruments_the_late_joiner() {
        let spec = steady_state(1, 10, 90, &opts());
        let local = spec.local.unwrap();
        assert_eq!(local, spec.peers.len() - 1);
        assert_eq!(spec.peers[local].join_at, Duration::from_secs(90));
        let result = Swarm::new(spec).run();
        assert!(result.completion[local].is_some(), "late joiner finished");
    }

    #[test]
    #[should_panic(expected = "unknown topology preset")]
    fn wan_presets_reject_typos() {
        let _ = wan_mega_flash_crowd(10, "asymetric_dsl", &opts());
    }
}
