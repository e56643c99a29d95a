//! End-to-end loopback swarms: N engines, one loop, real TCP.
//!
//! Where `bt-sim` multiplexes every peer through one deterministic event
//! queue and virtual links, this harness drives every peer from one
//! socket loop on the calling thread and lets the kernel's loopback
//! stack carry the bytes. The same engines, the same wire format, the
//! same traces — but with real sockets, partial reads and writes, and
//! wall-clock timing.

use crate::clock::AccelClock;
use crate::runtime::{self, peer_ip, NetRuntime, NetStats};
use crate::tracker::LoopbackTracker;
use bt_core::{DataMode, EngineBuilder, EngineMetrics};
use bt_instrument::{Trace, TraceMeta};
use bt_piece::{Bitfield, Geometry};
use bt_wire::metainfo::SyntheticContent;
use bt_wire::peer_id::{ClientKind, PeerId};
use bt_wire::time::Instant;
use std::sync::Arc;

/// Parameters for one loopback swarm run. Every engine runs
/// [`bt_core::Config::default`].
#[derive(Debug, Clone)]
pub struct LoopbackSpec {
    /// Peers that start with the full content.
    pub seeds: usize,
    /// Peers that start empty.
    pub leechers: usize,
    /// Content length in bytes.
    pub total_len: u64,
    /// Piece length in bytes.
    pub piece_len: u32,
    /// Seed for content generation and per-engine RNGs.
    pub seed: u64,
    /// Wall-clock budget; the run stops early once every leecher
    /// completes.
    pub max_wall: std::time::Duration,
    /// Attach a trace recorder to every peer.
    pub record: bool,
    /// Shared telemetry registry; every peer registers its instruments
    /// here under the label `peer<i>`. `None` leaves each runtime on a
    /// private wall-clock registry.
    pub metrics: Option<bt_obs::Registry>,
    /// Shared span profiler; every runtime (and its engine) records
    /// spans into it, giving a swarm-wide wall-clock profile. `None`
    /// disables span recording.
    pub profiler: Option<bt_obs::Profiler>,
    /// Shared causal tracer; every peer it samples (by virtual-IP hash)
    /// drains its choke rounds into it. `None` leaves the engines' audit
    /// off.
    pub tracer: Option<bt_obs::Tracer>,
}

impl Default for LoopbackSpec {
    fn default() -> LoopbackSpec {
        LoopbackSpec {
            seeds: 1,
            leechers: 3,
            // 64 pieces of 32 KiB (two blocks each): 2 MiB of content.
            total_len: 64 * 32 * 1024,
            piece_len: 32 * 1024,
            seed: 42,
            max_wall: std::time::Duration::from_secs(60),
            record: true,
            metrics: None,
            profiler: None,
            tracer: None,
        }
    }
}

/// What one peer looked like when the run stopped.
#[derive(Debug)]
pub struct PeerOutcome {
    /// Whether the peer held every piece at shutdown.
    pub is_seed: bool,
    /// Pieces held at shutdown.
    pub pieces: u32,
    /// The peer's instrumented trace, if recording was on.
    pub trace: Option<Trace>,
    /// Transport counters.
    pub stats: NetStats,
}

/// The result of [`run_loopback_swarm`].
pub struct LoopbackResult {
    /// Per-peer outcomes, seeds first, then leechers in start order.
    pub outcomes: Vec<PeerOutcome>,
    /// Leechers that reached seed state before shutdown.
    pub completed_leechers: usize,
    /// `Started` announces the tracker saw.
    pub tracker_started: u64,
    /// `Completed` announces the tracker saw.
    pub tracker_completed: u64,
    /// Wall-clock time the run took.
    pub wall_elapsed: std::time::Duration,
    /// The synthetic content the swarm shared.
    pub content: Arc<SyntheticContent>,
}

/// Run a full swarm over loopback TCP: bind and register every listener,
/// start the peers in index order, seeds first, and drive them all from
/// one loop on the calling thread until every leecher completes and the
/// traffic settles, or the wall budget runs out. Virtual time runs at
/// [`DEFAULT_ACCEL`](crate::DEFAULT_ACCEL)× wall time.
pub fn run_loopback_swarm(spec: LoopbackSpec) -> std::io::Result<LoopbackResult> {
    let content = Arc::new(SyntheticContent::generate(
        "net-loopback",
        spec.seed,
        spec.total_len,
        spec.piece_len,
    ));
    let geometry = Geometry::from(&content.metainfo);
    let info_hash = content.metainfo.info_hash;
    let tracker = Arc::new(LoopbackTracker::new());
    let clock = AccelClock::default();
    let n = spec.seeds + spec.leechers;

    // Bind and register every listener before any peer starts, so the
    // tracker can resolve every peer it names.
    let profiler = spec.profiler.unwrap_or_else(bt_obs::Profiler::disabled);
    let mut runtimes = Vec::with_capacity(n);
    for i in 0..n {
        // Step by two: a historical workaround for `PeerId::new` or-ing
        // its suffix with 1 (adjacent even/odd suffixes collided). The
        // mixer no longer collides, but the stride is kept so existing
        // golden fingerprints stay put.
        let peer_id = PeerId::new(
            ClientKind::Mainline402,
            spec.seed.wrapping_mul(2).wrapping_add(2 * i as u64),
        );
        let ip = peer_ip(&peer_id);
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
        tracker.register(ip, listener.local_addr()?);
        let is_seed = i < spec.seeds;
        // Without a shared registry each peer reports into its own.
        let registry = spec
            .metrics
            .clone()
            .unwrap_or_else(bt_obs::Registry::new_wall);
        let label = format!("peer{i}");
        let sampled = spec
            .tracer
            .as_ref()
            .is_some_and(|t| t.sample_peer(ip.0.into()));
        let mut builder = EngineBuilder::new(geometry, info_hash, peer_id)
            .data(DataMode::Real(content.clone()))
            .ip(ip)
            .rng_seed(spec.seed.wrapping_mul(31).wrapping_add(i as u64))
            .metrics(EngineMetrics::register_labeled(&registry, &label))
            .profiler(profiler.clone())
            .choke_audit(sampled);
        if is_seed {
            builder = builder.initial_pieces(Bitfield::full(geometry.num_pieces()));
        }
        if spec.record {
            builder = builder.recorder(TraceMeta {
                torrent: "net-loopback".to_owned(),
                torrent_id: 0,
                num_pieces: geometry.num_pieces(),
                num_blocks: geometry.total_blocks(),
                initial_seeds: spec.seeds as u32,
                initial_leechers: spec.leechers as u32,
                session_end: Instant::ZERO, // patched at shutdown
                seed_at: None,
            });
        }
        let rt = NetRuntime::new(
            builder.build(),
            listener,
            tracker.clone(),
            clock,
            &registry,
            &label,
            profiler.clone(),
            spec.tracer.clone().unwrap_or_else(bt_obs::Tracer::disabled),
        )?;
        runtimes.push(rt);
    }

    let started_wall = std::time::Instant::now();
    runtime::drive(&mut runtimes, &profiler, spec.max_wall, |rts| {
        rts[spec.seeds..].iter().all(|rt| rt.engine().is_seed())
    });
    let outcomes: Vec<PeerOutcome> = runtimes.into_iter().map(NetRuntime::finish).collect();
    let completed_leechers = outcomes
        .iter()
        .skip(spec.seeds)
        .filter(|o| o.is_seed)
        .count();
    Ok(LoopbackResult {
        completed_leechers,
        tracker_started: tracker.started(),
        tracker_completed: tracker.completed(),
        wall_elapsed: started_wall.elapsed(),
        outcomes,
        content,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke test: a tiny two-peer swarm completes over real sockets.
    #[test]
    fn seed_and_leecher_complete_over_loopback() {
        let spec = LoopbackSpec {
            seeds: 1,
            leechers: 1,
            total_len: 8 * 32 * 1024,
            max_wall: std::time::Duration::from_secs(30),
            ..LoopbackSpec::default()
        };
        let result = run_loopback_swarm(spec).expect("swarm runs");
        assert_eq!(result.completed_leechers, 1, "leecher must finish");
        assert_eq!(result.tracker_started, 2);
        assert!(result.tracker_completed >= 1);
        for o in &result.outcomes {
            assert_eq!(o.pieces, 8);
        }
    }

    /// Two leechers and no seed never finish: the run ends when the wall
    /// budget does, not at the next engine deadline past it.
    #[test]
    fn a_swarm_that_cannot_finish_returns_at_its_wall_budget() {
        let max_wall = std::time::Duration::from_millis(200);
        let spec = LoopbackSpec {
            seeds: 0,
            leechers: 2,
            total_len: 8 * 32 * 1024,
            max_wall,
            ..LoopbackSpec::default()
        };
        let result = run_loopback_swarm(spec).expect("swarm runs");
        assert_eq!(result.completed_leechers, 0);
        let took = result.wall_elapsed;
        assert!(took >= max_wall, "{took:?}");
        assert!(
            took < max_wall + std::time::Duration::from_millis(100),
            "{took:?}"
        );
    }

    /// A registry outlives a run: each run on it reports its own
    /// counts, and the registry holds the sum.
    #[test]
    fn back_to_back_runs_on_one_registry_report_their_own_counts() {
        let registry = bt_obs::Registry::new_wall();
        let spec = LoopbackSpec {
            seeds: 1,
            leechers: 1,
            total_len: 8 * 32 * 1024,
            max_wall: std::time::Duration::from_secs(30),
            record: false,
            metrics: Some(registry.clone()),
            ..LoopbackSpec::default()
        };
        let blocks = Geometry::new(spec.total_len, spec.piece_len).total_blocks();
        for run in 1..=2 {
            let result = run_loopback_swarm(spec.clone()).expect("swarm runs");
            assert_eq!(
                result.completed_leechers, 1,
                "run {run}: leecher must finish"
            );
            let sent: u64 = result.outcomes.iter().map(|o| o.stats.blocks_sent).sum();
            assert_eq!(sent, blocks, "run {run}: one copy of the content");
            let total = registry.snapshot().counter_sum("net.blocks_sent");
            assert_eq!(total, run * blocks, "registry total after run {run}");
        }
    }
}
