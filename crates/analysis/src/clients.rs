//! Per-client-family breakdown.
//!
//! §III-D: "We are aware of around 20 different BitTorrent clients, each
//! client existing in several different versions." The instrumented
//! trace carries every remote's client-ID prefix; this module breaks the
//! local peer's interactions down by client family — membership time,
//! bytes exchanged, interest behaviour — the view a measurement study
//! uses to spot misbehaving implementations (§IV-A.1's "modified or
//! misbehaving clients").

use crate::intervals::window_overlap_secs;
use bt_instrument::identify::PeerRegistry;
use bt_instrument::trace::{Trace, TraceEvent};
use bt_wire::time::Instant;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregates for one client family (client-ID prefix).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientAggregate {
    /// Connections observed from this family.
    pub connections: usize,
    /// Unique peers after §III-D (IP, client-ID) de-duplication.
    pub unique_peers: usize,
    /// Total seconds this family spent in the peer set.
    pub membership_secs: f64,
    /// Bytes the local peer downloaded from this family.
    pub downloaded: u64,
    /// Bytes the local peer uploaded to this family.
    pub uploaded: u64,
}

/// Per-family breakdown of one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientBreakdown {
    /// Family (client-ID prefix) → aggregates, sorted for stable output.
    pub families: BTreeMap<String, ClientAggregate>,
}

/// Compute the client-family breakdown of a trace.
pub fn client_breakdown(trace: &Trace) -> ClientBreakdown {
    let registry = PeerRegistry::from_trace(trace);
    let mut families: BTreeMap<String, ClientAggregate> = BTreeMap::new();
    let mut family_of: std::collections::HashMap<u32, String> = std::collections::HashMap::new();
    let mut uniques: BTreeMap<
        String,
        std::collections::HashSet<&bt_instrument::identify::UniquePeer>,
    > = BTreeMap::new();

    for m in &registry.memberships {
        let fam = m.peer.client_id.clone();
        family_of.insert(m.handle, fam.clone());
        let agg = families.entry(fam.clone()).or_default();
        agg.connections += 1;
        agg.membership_secs +=
            window_overlap_secs(m.joined, m.left, Instant::ZERO, trace.meta.session_end);
        uniques.entry(fam).or_default().insert(&m.peer);
    }
    for (fam, set) in uniques {
        families.entry(fam).or_default().unique_peers = set.len();
    }
    for (_, ev) in trace.iter() {
        match ev {
            TraceEvent::BlockReceived { peer, block } => {
                if let Some(fam) = family_of.get(peer) {
                    families.entry(fam.clone()).or_default().downloaded += u64::from(block.length);
                }
            }
            TraceEvent::BlockSent { peer, block } => {
                if let Some(fam) = family_of.get(peer) {
                    families.entry(fam.clone()).or_default().uploaded += u64::from(block.length);
                }
            }
            _ => {}
        }
    }
    ClientBreakdown { families }
}

impl ClientBreakdown {
    /// Total bytes downloaded across families.
    pub fn total_downloaded(&self) -> u64 {
        self.families.values().map(|a| a.downloaded).sum()
    }

    /// The family contributing the most downloaded bytes, if any traffic
    /// was observed.
    pub fn top_source(&self) -> Option<(&str, u64)> {
        self.families
            .iter()
            .filter(|(_, a)| a.downloaded > 0)
            .max_by_key(|(_, a)| a.downloaded)
            .map(|(k, a)| (k.as_str(), a.downloaded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_instrument::trace::TraceMeta;
    use bt_wire::message::BlockRef;
    use bt_wire::peer_id::{ClientKind, IpAddr, PeerId};

    fn trace() -> Trace {
        let meta = TraceMeta {
            torrent: "c".into(),
            torrent_id: 1,
            num_pieces: 10,
            num_blocks: 160,
            initial_seeds: 1,
            initial_leechers: 3,
            session_end: Instant::from_secs(1000),
            seed_at: None,
        };
        let mut tr = Trace::new(meta);
        for (h, kind) in [
            (0u32, ClientKind::Azureus),
            (1, ClientKind::Azureus),
            (2, ClientKind::BitComet),
        ] {
            tr.push(
                Instant::from_secs(0),
                TraceEvent::PeerJoined {
                    peer: h,
                    ip: IpAddr(h + 1),
                    peer_id: PeerId::new(kind, u64::from(h)),
                    pieces_on_arrival: 0,
                    total_pieces: 10,
                },
            );
        }
        tr.push(Instant::from_secs(500), TraceEvent::PeerLeft { peer: 0 });
        let block = BlockRef {
            piece: 0,
            offset: 0,
            length: 100,
        };
        tr.push(
            Instant::from_secs(600),
            TraceEvent::BlockReceived { peer: 1, block },
        );
        tr.push(
            Instant::from_secs(600),
            TraceEvent::BlockReceived { peer: 2, block },
        );
        tr.push(
            Instant::from_secs(600),
            TraceEvent::BlockReceived { peer: 2, block },
        );
        tr.push(
            Instant::from_secs(601),
            TraceEvent::BlockSent { peer: 2, block },
        );
        tr
    }

    #[test]
    fn families_aggregated() {
        let b = client_breakdown(&trace());
        assert_eq!(b.families.len(), 2);
        let az = &b.families["-AZ2304-"];
        assert_eq!(az.connections, 2);
        assert_eq!(az.unique_peers, 2);
        assert_eq!(az.downloaded, 100);
        assert_eq!(az.uploaded, 0);
        assert!((az.membership_secs - 1500.0).abs() < 1e-9); // 500 + 1000
        let bc = &b.families["-BC0059-"];
        assert_eq!(bc.downloaded, 200);
        assert_eq!(bc.uploaded, 100);
    }

    #[test]
    fn top_source_and_totals() {
        let b = client_breakdown(&trace());
        assert_eq!(b.total_downloaded(), 300);
        assert_eq!(b.top_source(), Some(("-BC0059-", 200)));
    }

    #[test]
    fn empty_trace() {
        let meta = TraceMeta {
            torrent: "e".into(),
            torrent_id: 0,
            num_pieces: 1,
            num_blocks: 16,
            initial_seeds: 0,
            initial_leechers: 0,
            session_end: Instant::from_secs(1),
            seed_at: None,
        };
        let b = client_breakdown(&Trace::new(meta));
        assert_eq!(b.families.len(), 0);
        assert_eq!(b.top_source(), None);
    }
}
