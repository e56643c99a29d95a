//! Experiments that build and run their own swarms: the global-truth
//! check and the ablations.
//!
//! Every driver returns plain data; rendering lives in [`crate::report`]
//! and the `figures` binary. The Table I figures need no driver here:
//! `figures` runs the sweep through `bt_torrents` and reads each figure
//! off the traces with `bt_analysis`. DESIGN.md §5 maps every paper
//! artefact to what regenerates it.

use bt_analysis::{entropy, fairness, InterarrivalAnalysis, ReplicationSeries, StateWindow};
use bt_choke::ChokerKind;
use bt_piece::PickerKind;
use bt_sim::behavior::{BehaviorProfile, CapacityClass, Role};
use bt_sim::swarm::{Swarm, SwarmSpec};
use bt_torrents::{run_scenario, torrent, RunConfig};
use bt_wire::peer_id::ClientKind;
use bt_wire::time::{Duration, Instant};

/// A DSL leecher joining at `join` s that seeds for `linger` s once done.
fn dsl_leecher(join: u64, linger: u64) -> BehaviorProfile {
    BehaviorProfile {
        capacity: CapacityClass::Dsl,
        seed_linger: Some(Duration::from_secs(linger)),
        ..BehaviorProfile::leecher(Duration::from_secs(join))
    }
}

/// A default-capacity free rider joining at `join` s.
fn free_rider(join: u64) -> BehaviorProfile {
    BehaviorProfile {
        role: Role::FreeRider,
        client: ClientKind::FreeRider,
        seed_linger: None,
        ..BehaviorProfile::leecher(Duration::from_secs(join))
    }
}

// ----------------------------------------------------------------------
// Validation against ground truth
// ----------------------------------------------------------------------

/// Local-view inference vs the simulator's global ground truth for one
/// torrent.
#[derive(Debug, Clone)]
pub struct GlobalCheckRow {
    /// Torrent ID.
    pub id: u32,
    /// The local peer's §IV-A.2 classification (missing piece in the
    /// peer set most of the time).
    pub local_transient: bool,
    /// Local missing-piece sample fraction.
    pub local_missing_fraction: f64,
    /// Ground truth: fraction of snapshots where some piece has exactly
    /// one copy in the whole torrent (a §II-A *rare piece* exists).
    pub truth_rare_fraction: f64,
    /// Ground truth: mean number of single-copy pieces per snapshot.
    pub truth_single_copy_mean: f64,
    /// Ground-truth transient call (rare pieces exist in > 50 % of
    /// snapshots).
    pub truth_transient: bool,
}

/// Validate the local peer's transient/steady inference against global
/// knowledge — the check the paper explicitly could not perform ("we do
/// not have global knowledge of the torrent", §IV-A.2.a).
pub fn global_check(cfg: &RunConfig) -> Vec<GlobalCheckRow> {
    [7u32, 8]
        .into_iter()
        .map(|id| {
            let spec = torrent(id);
            let (mut swarm_spec, _scaled) = bt_torrents::build_swarm_spec(&spec, cfg);
            swarm_spec.sample_global = true;
            let result = Swarm::new(swarm_spec).run();
            let trace = result.trace.expect("local recorded");
            let ls = ReplicationSeries::from_trace(&trace).leecher_state(&trace);
            // Restrict ground truth to the same leecher-state window.
            let ls_end = trace.meta.seed_at.unwrap_or(trace.meta.session_end);
            let truth: Vec<&bt_sim::GlobalSample> = result
                .global_series
                .iter()
                .filter(|g| g.at <= ls_end)
                .collect();
            let rare_snapshots = truth.iter().filter(|g| g.single_copy_pieces > 0).count();
            let truth_rare_fraction = if truth.is_empty() {
                0.0
            } else {
                rare_snapshots as f64 / truth.len() as f64
            };
            let truth_single_copy_mean = if truth.is_empty() {
                0.0
            } else {
                truth
                    .iter()
                    .map(|g| f64::from(g.single_copy_pieces))
                    .sum::<f64>()
                    / truth.len() as f64
            };
            GlobalCheckRow {
                id,
                local_transient: ls.is_transient(),
                local_missing_fraction: ls.missing_piece_fraction(),
                truth_rare_fraction,
                truth_single_copy_mean,
                truth_transient: truth_rare_fraction > 0.5,
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Ablations
// ----------------------------------------------------------------------

/// Result of one piece-picker variant in the picker ablation.
#[derive(Debug, Clone)]
pub struct PickerAblationRow {
    /// Strategy under test.
    pub picker: PickerKind,
    /// Median a/b entropy ratio seen by the local peer.
    pub entropy_ab_median: f64,
    /// Median c/d entropy ratio.
    pub entropy_cd_median: f64,
    /// Local peer download time in seconds (`None` = did not finish).
    pub local_download_secs: Option<f64>,
    /// Swarm-wide completions within the session.
    pub completed_peers: usize,
    /// Fraction of availability samples with a missing piece.
    pub missing_piece_fraction: f64,
}

/// Ablation: rarest first vs. random vs. sequential vs. global-rarest
/// oracle, on a single-seed torrent (the regime where piece choice
/// matters most — §IV-A).
pub fn ablation_picker(cfg: &RunConfig) -> Vec<PickerAblationRow> {
    let spec = torrent(6); // 1 seed / 130 leechers, transient
    [
        PickerKind::RarestFirst,
        PickerKind::Random,
        PickerKind::Sequential,
        PickerKind::GlobalRarest,
    ]
    .into_iter()
    .map(|picker| {
        let mut cfg = cfg.clone();
        cfg.base_config.picker = picker;
        // The transient phase alone lasts ~2000 s (rare pieces drain
        // at the initial seed's 20 kB/s); give the swarm time to
        // finish downloads so completion counts are comparable.
        cfg.session = Duration::from_secs(2 * 3600);
        let outcome = run_scenario(&spec, &cfg);
        let e = entropy(&outcome.trace);
        let series = ReplicationSeries::from_trace(&outcome.trace);
        let local_done = outcome
            .result
            .completion
            .last()
            .copied()
            .flatten()
            .map(|t| t.as_secs_f64() - 90.0); // local joined at t=90
        PickerAblationRow {
            picker,
            entropy_ab_median: e.local_in_remote.p50,
            entropy_cd_median: e.remote_in_local.p50,
            local_download_secs: local_done,
            completed_peers: outcome.result.completed_peers,
            missing_piece_fraction: series.missing_piece_fraction(),
        }
    })
    .collect()
}

/// Result of one seed-state choke variant in the seed-choke ablation.
#[derive(Debug, Clone)]
pub struct SeedChokeAblationRow {
    /// `true` = the new (≥4.0.0) algorithm, `false` = the old one.
    pub new_algorithm: bool,
    /// Jain fairness index over bytes served per peer.
    pub jain_index: f64,
    /// Share of the seed's bytes captured by the fast free rider.
    pub free_rider_share: f64,
    /// Distinct peers that received at least one block.
    pub peers_served: usize,
}

/// Ablation: new vs. old choke algorithm in seed state (§IV-B.3). The
/// instrumented peer is a *fast initial seed*; the swarm contains one
/// fast free rider that the old algorithm will favour.
pub fn ablation_seed_choke(cfg: &RunConfig) -> Vec<SeedChokeAblationRow> {
    [true, false]
        .into_iter()
        .map(|new_algorithm| {
            let mut base = cfg.base_config.clone();
            base.choker = if new_algorithm {
                ChokerKind::Standard
            } else {
                ChokerKind::OldSeed
            };
            // Local peer: the initial seed, campus-fast so that receiver
            // capacity differentiates peers under the old algorithm.
            let mut peers = vec![BehaviorProfile {
                capacity: CapacityClass::Campus,
                ..BehaviorProfile::seed()
            }];
            // One campus-fast free rider (index 1)…
            peers.push(BehaviorProfile {
                capacity: CapacityClass::Campus,
                ..free_rider(5)
            });
            // …and 14 ordinary DSL leechers.
            for i in 0..14 {
                peers.push(dsl_leecher(5 + i, 600));
            }
            let spec = SwarmSpec {
                seed: cfg.seed,
                total_len: 256 * 256 * 1024,
                piece_len: 256 * 1024,
                duration: Duration::from_secs(2400),
                base_config: base,
                peers,
                local: Some(0),
                available_fraction: 1.0,
                ..SwarmSpec::default()
            };
            let result = Swarm::new(spec).run();
            let trace = result.trace.expect("local seed recorded");
            let f = fairness(&trace, StateWindow::Seed);
            // Identify the free rider by client ID, and measure its share
            // of the seed's bytes *while it was present* — once the fast
            // free rider finishes and leaves, the two algorithms face an
            // identical homogeneous population, which would dilute the
            // comparison.
            let registry = bt_instrument::identify::PeerRegistry::from_trace(&trace);
            let fr = registry
                .memberships
                .iter()
                .find(|m| m.peer.client_id == ClientKind::FreeRider.client_id());
            let (fr_handle, fr_left) = fr.map_or((u32::MAX, Instant::ZERO), |m| (m.handle, m.left));
            let mut fr_bytes = 0u64;
            let mut total_bytes = 0u64;
            for (t, ev) in trace.iter() {
                if t >= fr_left {
                    break;
                }
                if let bt_instrument::trace::TraceEvent::BlockSent { peer, block } = ev {
                    total_bytes += u64::from(block.length);
                    if *peer == fr_handle {
                        fr_bytes += u64::from(block.length);
                    }
                }
            }
            let share = if total_bytes > 0 {
                fr_bytes as f64 / total_bytes as f64
            } else {
                0.0
            };
            SeedChokeAblationRow {
                new_algorithm,
                jain_index: f.jain_index(),
                free_rider_share: share,
                peers_served: f.ranked.iter().filter(|p| p.uploaded > 0).count(),
            }
        })
        .collect()
}

/// Result of one choker variant in the tit-for-tat ablation.
#[derive(Debug, Clone)]
pub struct TftAblationRow {
    /// Choker used by every leecher in the swarm.
    pub choker: ChokerKind,
    /// Mean completion time (s) of honest asymmetric (DSL) leechers that
    /// finished.
    pub honest_mean_secs: Option<f64>,
    /// Honest leechers that completed within the session.
    pub honest_completed: usize,
    /// Free riders that completed within the session.
    pub free_riders_completed: usize,
    /// Total honest leechers / free riders in the swarm.
    pub honest_total: usize,
    /// Free riders in the swarm.
    pub free_rider_total: usize,
}

/// Ablation: the choke algorithm vs. bit-level tit-for-tat (§IV-B.1).
/// The population is asymmetric (slow uplinks, fast downlinks) with a few
/// free riders; TFT strands the excess capacity that choke would use.
pub fn ablation_tft(cfg: &RunConfig) -> Vec<TftAblationRow> {
    [ChokerKind::Standard, ChokerKind::TitForTat]
        .into_iter()
        .map(|choker| {
            let mut base = cfg.base_config.clone();
            base.choker = choker;
            // One slow initial seed: the swarm's *excess capacity* must
            // come from fast leechers, the case §IV-B.1 argues tit-for-tat
            // cannot exploit.
            let mut peers = vec![BehaviorProfile::seed()];
            // Three fast-uplink leechers: enormous upload capacity but a
            // modest downlink, so they stay leechers for a long stretch —
            // pure *leecher-side* excess capacity, which is exactly what
            // bit-level tit-for-tat cannot hand out (a seed's capacity is
            // outside TFT's reach, so they also leave on completion).
            for i in 0..3 {
                peers.push(BehaviorProfile {
                    capacity: CapacityClass::Custom(1536 * 1024, 64 * 1024),
                    ..dsl_leecher(i, 0)
                });
            }
            let honest_total = 12;
            for i in 0..honest_total {
                // Asymmetric: 16 kB/s up, 128 kB/s down.
                peers.push(dsl_leecher(5 + i as u64, 1200));
            }
            let free_rider_total = 3;
            for i in 0..free_rider_total {
                peers.push(BehaviorProfile {
                    capacity: CapacityClass::Cable,
                    ..free_rider(20 + i as u64)
                });
            }
            let spec = SwarmSpec {
                seed: cfg.seed,
                total_len: 64 * 256 * 1024,
                piece_len: 256 * 1024,
                duration: Duration::from_secs(7200),
                base_config: base,
                peers,
                local: None,
                available_fraction: 1.0,
                ..SwarmSpec::default()
            };
            let result = Swarm::new(spec).run();
            let honest_range = 4..4 + honest_total;
            let honest_times: Vec<f64> = honest_range
                .clone()
                .filter_map(|i| result.completion[i])
                .map(|t: Instant| t.as_secs_f64())
                .collect();
            let fr_range = 4 + honest_total..4 + honest_total + free_rider_total;
            TftAblationRow {
                choker,
                honest_mean_secs: if honest_times.is_empty() {
                    None
                } else {
                    Some(honest_times.iter().sum::<f64>() / honest_times.len() as f64)
                },
                honest_completed: honest_times.len(),
                free_riders_completed: fr_range.filter_map(|i| result.completion[i]).count(),
                honest_total,
                free_rider_total,
            }
        })
        .collect()
}

/// Result of one peer-discovery variant in the PEX ablation.
#[derive(Debug, Clone)]
pub struct PexAblationRow {
    /// Peer exchange on?
    pub pex: bool,
    /// Mean peer-set size seen by the instrumented late joiner.
    pub mean_peer_set: f64,
    /// The late joiner's download time in seconds.
    pub local_download_secs: Option<f64>,
    /// Swarm-wide completions.
    pub completed_peers: usize,
}

/// Ablation: peer exchange (BEP 10/11) under a rationing tracker.
///
/// §II-B credits the tracker's random 50-peer lists with keeping the
/// torrent's peer sets interconnected. When the tracker only hands out
/// two addresses per announce, that interconnection starves — unless
/// peers gossip their peer sets to each other.
pub fn ablation_pex(cfg: &RunConfig) -> Vec<PexAblationRow> {
    [false, true]
        .into_iter()
        .map(|pex| {
            let mut base = cfg.base_config.clone();
            base.pex_enabled = pex;
            let mut peers = vec![BehaviorProfile::seed(), BehaviorProfile::seed()];
            for i in 0..40 {
                peers.push(BehaviorProfile {
                    prepopulate: true,
                    ..dsl_leecher(i, 1800)
                });
            }
            // The instrumented peer joins late, when the tracker ration
            // hurts the most.
            peers.push(BehaviorProfile {
                seed_linger: None,
                ..BehaviorProfile::leecher(Duration::from_secs(120))
            });
            let local = peers.len() - 1;
            let spec = SwarmSpec {
                seed: cfg.seed,
                total_len: 64 * 256 * 1024,
                piece_len: 256 * 1024,
                duration: Duration::from_secs(2 * 3600),
                base_config: base,
                peers,
                local: Some(local),
                tracker_response_cap: Some(2), // a rationing tracker
                ..SwarmSpec::default()
            };
            let result = Swarm::new(spec).run();
            let trace = result.trace.expect("instrumented");
            // Peer-set size while the joiner is still downloading — after
            // that it idles as a seed in a draining swarm.
            let series = ReplicationSeries::from_trace(&trace).leecher_state(&trace);
            PexAblationRow {
                pex,
                mean_peer_set: series.mean_peer_set(),
                local_download_secs: result.completion[local].map(|t| t.as_secs_f64() - 120.0),
                completed_peers: result.completed_peers,
            }
        })
        .collect()
}

/// Result of one initial-seed policy in the super-seeding ablation.
#[derive(Debug, Clone)]
pub struct SuperSeedAblationRow {
    /// Super-seeding on?
    pub super_seed: bool,
    /// Seconds until the initial seed has served one full copy of the
    /// content (every piece's blocks sent at least once).
    pub first_copy_secs: Option<f64>,
    /// Duplicate fraction of the blocks the seed served before the first
    /// full copy was out (0 = no piece served twice before all served
    /// once — the §IV-A.4 goal).
    pub duplicate_ratio: f64,
    /// Swarm completions within the session.
    pub completed_peers: usize,
}

/// Ablation: super-seeding vs the plain (new) seed-state algorithm for
/// the *initial seed* of a flash crowd. §IV-A.4: "simple policies can be
/// implemented to guarantee that the ratio of duplicate pieces remains
/// low for the initial seed, e.g., the new choke algorithm in seed state
/// or the super seeding mode".
pub fn ablation_superseed(cfg: &RunConfig) -> Vec<SuperSeedAblationRow> {
    [false, true]
        .into_iter()
        .map(|super_seed| {
            let mut base = cfg.base_config.clone();
            base.super_seed = false; // only the instrumented seed differs
                                     // The paper's 20 kB/s initial seed.
            let mut peers = vec![BehaviorProfile {
                role: if super_seed {
                    Role::SuperSeed
                } else {
                    Role::Seed
                },
                client: ClientKind::SuperSeeder,
                ..BehaviorProfile::seed()
            }];
            for i in 0..30 {
                peers.push(dsl_leecher(i, 1800)); // a true flash crowd
            }
            let geometry = bt_piece::Geometry::new(48 * 256 * 1024, 256 * 1024);
            let spec = SwarmSpec {
                seed: cfg.seed,
                total_len: geometry.total_len,
                piece_len: geometry.piece_len,
                duration: Duration::from_secs(4 * 3600),
                base_config: base,
                peers,
                local: Some(0), // instrument the initial seed itself
                available_fraction: 0.0,
                ..SwarmSpec::default()
            };
            let result = Swarm::new(spec).run();
            let trace = result.trace.expect("seed instrumented");
            // Per-piece blocks served; first-copy time = when every piece
            // has at least blocks_in_piece(p) blocks out.
            let n = geometry.num_pieces();
            let mut served = vec![0u64; n as usize];
            let mut remaining: i64 = (0..n).map(|p| i64::from(geometry.blocks_in_piece(p))).sum();
            let mut first_copy = None;
            let mut blocks_until_copy = 0u64;
            for (t, ev) in trace.iter() {
                if let bt_instrument::trace::TraceEvent::BlockSent { block, .. } = ev {
                    if first_copy.is_none() {
                        blocks_until_copy += 1;
                        let p = block.piece as usize;
                        served[p] += 1;
                        if served[p] <= u64::from(geometry.blocks_in_piece(block.piece)) {
                            remaining -= 1;
                            if remaining == 0 {
                                first_copy = Some(t.as_secs_f64());
                            }
                        }
                    }
                }
            }
            let total_needed: u64 = geometry.total_blocks();
            let duplicate_ratio = if first_copy.is_some() && blocks_until_copy > 0 {
                (blocks_until_copy - total_needed) as f64 / blocks_until_copy as f64
            } else {
                // Never completed a full copy: everything beyond the
                // distinct blocks served was duplicate effort.
                let distinct: u64 = served
                    .iter()
                    .enumerate()
                    .map(|(p, &c)| c.min(u64::from(geometry.blocks_in_piece(p as u32))))
                    .sum();
                let total: u64 = served.iter().sum();
                if total > 0 {
                    (total - distinct) as f64 / total as f64
                } else {
                    0.0
                }
            };
            SuperSeedAblationRow {
                super_seed,
                first_copy_secs: first_copy,
                duplicate_ratio,
                completed_peers: result.completed_peers,
            }
        })
        .collect()
}

/// Result of one Fast Extension variant.
#[derive(Debug, Clone)]
pub struct FastExtAblationRow {
    /// Fast Extension on?
    pub fast: bool,
    /// Seconds from the local peer's join to its first received block.
    pub time_to_first_block: Option<f64>,
    /// Seconds from join to the first completed piece.
    pub time_to_first_piece: Option<f64>,
    /// First-100-blocks slowdown (figure 8's headline number).
    pub first_blocks_slowdown: f64,
    /// Local download duration in seconds.
    pub local_download_secs: Option<f64>,
}

/// Ablation: the Fast Extension (BEP 6) against the paper's §VI *first
/// blocks problem*. The extension grants each neighbour an allowed-fast
/// set requestable while choked, so a fresh peer no longer waits for an
/// optimistic unchoke before its first bytes.
pub fn ablation_fastext(cfg: &RunConfig) -> Vec<FastExtAblationRow> {
    [false, true]
        .into_iter()
        .map(|fast| {
            let mut cfg = cfg.clone();
            cfg.base_config.fast_extension = fast;
            let outcome = run_scenario(&torrent(10), &cfg);
            let join = 90.0; // the local peer joins at t = 90 s
            let mut first_block = None;
            let mut first_piece = None;
            for (t, ev) in outcome.trace.iter() {
                match ev {
                    bt_instrument::trace::TraceEvent::BlockReceived { .. }
                        if first_block.is_none() =>
                    {
                        first_block = Some(t.as_secs_f64() - join);
                    }
                    bt_instrument::trace::TraceEvent::PieceCompleted { .. }
                        if first_piece.is_none() =>
                    {
                        first_piece = Some(t.as_secs_f64() - join);
                    }
                    _ => {}
                }
            }
            let blocks = InterarrivalAnalysis::blocks(&outcome.trace);
            let local_done = outcome
                .result
                .completion
                .last()
                .copied()
                .flatten()
                .map(|t| t.as_secs_f64() - join);
            FastExtAblationRow {
                fast,
                time_to_first_block: first_block,
                time_to_first_piece: first_piece,
                first_blocks_slowdown: blocks.first_slowdown(),
                local_download_secs: local_done,
            }
        })
        .collect()
}

/// Result of one end-game variant.
#[derive(Debug, Clone)]
pub struct EndgameAblationRow {
    /// End game mode enabled?
    pub endgame: bool,
    /// Local peer download time in seconds.
    pub local_download_secs: Option<f64>,
    /// Largest block interarrival gap among the last 100 blocks (s) —
    /// the "termination idle time" end game was designed to remove.
    pub last_blocks_max_gap: f64,
}

/// Ablation: end game mode on vs. off (§II-C.1, §IV-A.3).
pub fn ablation_endgame(cfg: &RunConfig) -> Vec<EndgameAblationRow> {
    [true, false]
        .into_iter()
        .map(|endgame| {
            let mut cfg = cfg.clone();
            cfg.base_config.endgame_enabled = endgame;
            let outcome = run_scenario(&torrent(3), &cfg);
            let blocks = InterarrivalAnalysis::blocks(&outcome.trace);
            let local_done = outcome
                .result
                .completion
                .last()
                .copied()
                .flatten()
                .map(|t| t.as_secs_f64() - 90.0);
            EndgameAblationRow {
                endgame,
                local_download_secs: local_done,
                last_blocks_max_gap: blocks.last.quantile(1.0),
            }
        })
        .collect()
}
