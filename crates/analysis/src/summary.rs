//! One-stop session summary: every headline metric of the paper's
//! pipeline computed from a single trace, for harnesses, CLIs, and
//! downstream dashboards.

use crate::clients::{client_breakdown, ClientBreakdown};
use crate::entropy::{entropy, EntropySummary};
use crate::equilibrium::{equilibrium, EquilibriumSummary};
use crate::fairness::{fairness, FairnessSummary, StateWindow};
use crate::interarrival::InterarrivalAnalysis;
use crate::messages::MessageStats;
use crate::replication::ReplicationSeries;
use crate::transient::TransientSummary;
use crate::unchoke::{pearson, unchoke_correlation, UnchokeCorrelation};
use bt_instrument::identify::PeerRegistry;
use bt_instrument::trace::Trace;
use serde::{Deserialize, Serialize};

/// Everything the paper measures about one instrumented session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Torrent label from the trace metadata.
    pub torrent: String,
    /// Figure 1: entropy characterisation.
    pub entropy: EntropySummary,
    /// Figures 2–6: replication series (full session).
    pub replication: ReplicationSeries,
    /// §IV-A.2: transient-phase estimates (leecher-state window).
    pub transient: TransientSummary,
    /// Figure 7: piece interarrivals.
    pub pieces: InterarrivalAnalysis,
    /// Figure 8: block interarrivals.
    pub blocks: InterarrivalAnalysis,
    /// Figure 9: leecher-state fairness.
    pub fairness_ls: FairnessSummary,
    /// Figure 11: seed-state fairness.
    pub fairness_ss: FairnessSummary,
    /// Figure 10: unchoke/interest correlation points.
    pub unchoke: UnchokeCorrelation,
    /// Pearson r of the leecher-state scatter.
    pub unchoke_r_ls: f64,
    /// Pearson r of the seed-state scatter.
    pub unchoke_r_ss: f64,
    /// §IV-B.2: choke equilibrium, leecher state.
    pub equilibrium_ls: EquilibriumSummary,
    /// §IV-B.2: choke equilibrium, seed state.
    pub equilibrium_ss: EquilibriumSummary,
    /// §III-C: message tallies and overhead.
    pub messages: MessageStats,
    /// §III-D: per-client-family breakdown.
    pub clients: ClientBreakdown,
    /// §III-D: connections observed / unique peers / multi-ID fraction.
    pub connections: usize,
    /// Unique peers after (IP, client-ID) de-duplication.
    pub unique_peers: usize,
    /// Fraction of IPs carrying several peer IDs.
    pub multi_id_ip_fraction: f64,
}

impl SessionSummary {
    /// Run the whole pipeline on one trace. Piece size is needed to turn
    /// the rarest-set drain slope into an implied seed rate.
    pub fn from_trace(trace: &Trace, piece_len: u32) -> SessionSummary {
        let registry = PeerRegistry::from_trace(trace);
        let replication = ReplicationSeries::from_trace(trace);
        let ls_series = replication.leecher_state(trace);
        let (equilibrium_ls, equilibrium_ss) = equilibrium(trace);
        let unchoke = unchoke_correlation(trace);
        SessionSummary {
            torrent: trace.meta.torrent.clone(),
            entropy: entropy(trace),
            transient: TransientSummary::from_series(&ls_series, piece_len),
            replication,
            pieces: InterarrivalAnalysis::pieces(trace),
            blocks: InterarrivalAnalysis::blocks(trace),
            fairness_ls: fairness(trace, StateWindow::Leecher),
            fairness_ss: fairness(trace, StateWindow::Seed),
            unchoke_r_ls: pearson(&unchoke.leecher),
            unchoke_r_ss: pearson(&unchoke.seed),
            unchoke,
            equilibrium_ls,
            equilibrium_ss,
            messages: MessageStats::from_trace(trace),
            clients: client_breakdown(trace),
            connections: registry.memberships.len(),
            unique_peers: registry.unique_peers(),
            multi_id_ip_fraction: registry.multi_id_ip_fraction(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_instrument::trace::{TraceEvent, TraceMeta};
    use bt_wire::message::BlockRef;
    use bt_wire::peer_id::{ClientKind, IpAddr, PeerId};
    use bt_wire::time::Instant;

    fn trace() -> Trace {
        let meta = TraceMeta {
            torrent: "summary-test".into(),
            torrent_id: 3,
            num_pieces: 4,
            num_blocks: 64,
            initial_seeds: 1,
            initial_leechers: 2,
            session_end: Instant::from_secs(1000),
            seed_at: Some(Instant::from_secs(400)),
        };
        let mut tr = Trace::new(meta);
        tr.push(
            Instant::from_secs(0),
            TraceEvent::PeerJoined {
                peer: 0,
                ip: IpAddr(1),
                peer_id: PeerId::new(ClientKind::Azureus, 1),
                pieces_on_arrival: 2,
                total_pieces: 4,
            },
        );
        tr.push(
            Instant::from_secs(0),
            TraceEvent::LocalInterest {
                peer: 0,
                interested: true,
            },
        );
        tr.push(
            Instant::from_secs(5),
            TraceEvent::RemoteInterest {
                peer: 0,
                interested: true,
            },
        );
        for (t, piece) in [(10u64, 0u32), (20, 1), (30, 2), (40, 3)] {
            for blk in 0..16u32 {
                tr.push(
                    Instant::from_secs(t),
                    TraceEvent::BlockReceived {
                        peer: 0,
                        block: BlockRef {
                            piece,
                            offset: blk * 16384,
                            length: 16384,
                        },
                    },
                );
            }
            tr.push(Instant::from_secs(t), TraceEvent::PieceCompleted { piece });
        }
        tr.push(
            Instant::from_secs(50),
            TraceEvent::AvailabilitySample {
                min: 1,
                mean: 1.5,
                max: 2,
                rarest_set_size: 2,
                peer_set_size: 1,
            },
        );
        tr.push(
            Instant::from_secs(500),
            TraceEvent::BlockSent {
                peer: 0,
                block: BlockRef {
                    piece: 0,
                    offset: 0,
                    length: 16384,
                },
            },
        );
        tr
    }

    #[test]
    fn summary_computes_everything() {
        let s = SessionSummary::from_trace(&trace(), 256 * 1024);
        assert_eq!(s.torrent, "summary-test");
        assert_eq!(s.connections, 1);
        assert_eq!(s.unique_peers, 1);
        assert_eq!(s.pieces.count, 4);
        assert_eq!(s.blocks.count, 64);
        assert!(!s.replication.is_transient());
        assert!((s.entropy.local_in_remote.p50 - 1.0).abs() < 1e-9);
        assert_eq!(s.fairness_ss.total_uploaded, 16384);
        assert_eq!(s.fairness_ls.total_downloaded, 64 * 16384);
    }

    #[test]
    fn summary_serialises() {
        let s = SessionSummary::from_trace(&trace(), 256 * 1024);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("summary-test"));
    }
}
