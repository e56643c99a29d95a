//! Trace records for the instrumented local peer.
//!
//! §III-C: "The instrumentation consists of: a log of each BitTorrent
//! message sent or received with the detailed content of the message, a
//! log of each state change in the choke algorithm, a log of the rate
//! estimation used by the choke algorithm, and a log of important events
//! (end game mode, seed state)."
//!
//! The viewpoint is strictly *local-peer oriented* — exactly what the
//! paper argues distinguishes it from tracker-based studies. A [`Trace`]
//! is an ordered sequence of timestamped [`TraceEvent`]s about one
//! instrumented peer's session, plus a registry mapping the engine's
//! dense peer handles to the identification data (§III-D) the analysis
//! needs to de-duplicate peers.

use bt_wire::message::{BlockRef, MessageKind};
use bt_wire::peer_id::{IpAddr, PeerId};
use bt_wire::time::Instant;
use serde::{Deserialize, Serialize};

/// Dense handle for a remote peer *connection* within one session.
/// Reconnections get fresh handles; [`super::identify`] folds them back
/// into unique peers.
pub type PeerHandle = u32;

/// Which unchoke slot a peer was given (for figure 10's RU/OU split and
/// the seed-state SKU/SRU accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnchokeRole {
    /// Regular unchoke: one of the 3 rate-ordered slots in leecher state.
    Regular,
    /// Optimistic unchoke (leecher state, rotates every 30 s).
    Optimistic,
    /// Seed kept unchoke: recency-ordered slot in the new seed algorithm.
    SeedKept,
    /// Seed random unchoke: the random fourth slot in the new seed
    /// algorithm.
    SeedRandom,
}

impl UnchokeRole {
    /// The `outcome` code of a causal-trace choke `audit` record for a
    /// peer given `role` after a round: 0–3 in declaration order, 4 when
    /// choked (`None`).
    pub fn outcome_code(role: Option<UnchokeRole>) -> i64 {
        role.map_or(4, |r| r as i64)
    }

    /// The name post-mortem explanations print for an `outcome` code.
    pub fn outcome_name(code: i64) -> &'static str {
        match code {
            0 => "regular-unchoke",
            1 => "optimistic-unchoke",
            2 => "seed-kept",
            3 => "seed-random",
            4 => "choked",
            _ => "unknown",
        }
    }
}

/// Whether the local peer was leecher or seed when an event occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LocalState {
    /// Still downloading.
    Leecher,
    /// Has every piece.
    Seed,
}

/// One timestamped observation from the instrumented client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A remote peer entered the local peer set.
    PeerJoined {
        /// Connection handle (unique within the session).
        peer: PeerHandle,
        /// Remote address.
        ip: IpAddr,
        /// Remote peer ID as presented in the handshake.
        peer_id: PeerId,
        /// Pieces the remote already had on arrival (its bitfield weight).
        pieces_on_arrival: u32,
        /// Total pieces in the torrent (so analysis can spot seeds and
        /// almost-done joiners).
        total_pieces: u32,
    },
    /// A remote peer left the local peer set.
    PeerLeft {
        /// Connection handle.
        peer: PeerHandle,
    },
    /// The local peer's interest in a remote peer changed.
    LocalInterest {
        /// Connection handle.
        peer: PeerHandle,
        /// New interest state.
        interested: bool,
    },
    /// A remote peer's interest in the local peer changed.
    RemoteInterest {
        /// Connection handle.
        peer: PeerHandle,
        /// New interest state.
        interested: bool,
    },
    /// The local peer choked or unchoked a remote peer.
    LocalChoke {
        /// Connection handle.
        peer: PeerHandle,
        /// True = choked, false = unchoked.
        choked: bool,
        /// Slot role when unchoking.
        role: Option<UnchokeRole>,
    },
    /// A remote peer choked or unchoked the local peer.
    RemoteChoke {
        /// Connection handle.
        peer: PeerHandle,
        /// True = choked, false = unchoked.
        choked: bool,
    },
    /// A block arrived (piece message received and accepted).
    BlockReceived {
        /// Sender.
        peer: PeerHandle,
        /// Which block.
        block: BlockRef,
    },
    /// A block was served to a remote peer.
    BlockSent {
        /// Recipient.
        peer: PeerHandle,
        /// Which block.
        block: BlockRef,
    },
    /// A piece completed and passed hash verification.
    PieceCompleted {
        /// Piece index.
        piece: u32,
    },
    /// A completed piece failed verification and was discarded.
    PieceFailed {
        /// Piece index.
        piece: u32,
    },
    /// The local peer finished the download (leecher → seed transition).
    BecameSeed,
    /// End game mode was entered (§II-C.1).
    EndGameEntered,
    /// Periodic snapshot of piece availability over the peer set
    /// (source data for figures 2–6).
    AvailabilitySample {
        /// Copies of the least replicated piece.
        min: u32,
        /// Mean copies over all pieces.
        mean: f64,
        /// Copies of the most replicated piece.
        max: u32,
        /// Size of the rarest-pieces set.
        rarest_set_size: u32,
        /// Current peer set size.
        peer_set_size: u32,
    },
    /// Periodic rate-estimator log for one peer (§III-C).
    RateSample {
        /// Connection handle.
        peer: PeerHandle,
        /// Estimated download rate from the peer (B/s).
        download_rate: f64,
        /// Estimated upload rate to the peer (B/s).
        upload_rate: f64,
    },
    /// A wire message of this kind crossed the connection (compact tally;
    /// payloads are captured by the dedicated events above).
    Message {
        /// Connection handle.
        peer: PeerHandle,
        /// Message kind.
        kind: MessageKind,
        /// True if sent by the local peer, false if received.
        sent: bool,
    },
}

/// Session-level metadata for one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Scenario / torrent label (e.g. `"torrent-08"`).
    pub torrent: String,
    /// Torrent ID in Table I when applicable (1–26), else 0.
    pub torrent_id: u32,
    /// Number of pieces in the content.
    pub num_pieces: u32,
    /// Number of 16 kB blocks in the content.
    pub num_blocks: u64,
    /// Seeds in the torrent at experiment start (Table I column 2).
    pub initial_seeds: u32,
    /// Leechers in the torrent at experiment start (Table I column 3).
    pub initial_leechers: u32,
    /// Duration of the recorded session.
    pub session_end: Instant,
    /// When the local peer became a seed, if it did.
    pub seed_at: Option<Instant>,
}

/// A full instrumented session: metadata plus ordered events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Session metadata.
    pub meta: TraceMeta,
    /// Timestamped events in non-decreasing time order.
    pub events: Vec<(Instant, TraceEvent)>,
}

impl Trace {
    /// Create an empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> Trace {
        Trace {
            meta,
            events: Vec::new(),
        }
    }

    /// Append an event at `now`. Events must arrive in time order.
    pub fn push(&mut self, now: Instant, event: TraceEvent) {
        debug_assert!(
            self.events.last().is_none_or(|(t, _)| *t <= now),
            "trace events out of order"
        );
        self.events.push((now, event));
    }

    /// The local peer's state at time `t` (leecher until `BecameSeed`).
    pub fn local_state_at(&self, t: Instant) -> LocalState {
        match self.meta.seed_at {
            Some(s) if t >= s => LocalState::Seed,
            _ => LocalState::Leecher,
        }
    }

    /// Iterate events with their timestamps.
    pub fn iter(&self) -> impl Iterator<Item = (Instant, &TraceEvent)> {
        self.events.iter().map(|(t, e)| (*t, e))
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialise to JSON-lines: one metadata line then one line per
    /// event, rendered by [`Trace::for_each_jsonl_line`].
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.for_each_jsonl_line(|line| out.extend_from_slice(line));
        String::from_utf8(out).expect("JSON is UTF-8")
    }

    /// Render the [`Trace::to_jsonl`] lines in order, each with its
    /// trailing newline, into one reused buffer handed to `sink` — so a
    /// consumer that only hashes or copies the text never holds more
    /// than one line of it.
    pub fn for_each_jsonl_line(&self, mut sink: impl FnMut(&[u8])) {
        let mut line = Vec::new();
        serde_json::to_writer(&mut line, &self.meta).expect("meta serialises");
        line.push(b'\n');
        sink(&line);
        for ev in &self.events {
            line.clear();
            serde_json::to_writer(&mut line, ev).expect("event serialises");
            line.push(b'\n');
            sink(&line);
        }
    }

    /// Parse the JSON-lines form produced by [`Trace::to_jsonl`].
    pub fn from_jsonl(data: &str) -> Result<Trace, serde_json::Error> {
        let mut lines = data.lines().filter(|l| !l.trim().is_empty());
        let meta: TraceMeta = serde_json::from_str(lines.next().unwrap_or("null"))?;
        let mut events = Vec::new();
        for line in lines {
            events.push(serde_json::from_str(line)?);
        }
        Ok(Trace { meta, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_wire::peer_id::ClientKind;

    fn meta() -> TraceMeta {
        TraceMeta {
            torrent: "t".into(),
            torrent_id: 7,
            num_pieces: 100,
            num_blocks: 1600,
            initial_seeds: 1,
            initial_leechers: 713,
            session_end: Instant::from_secs(100),
            seed_at: Some(Instant::from_secs(60)),
        }
    }

    #[test]
    fn push_and_iterate() {
        let mut tr = Trace::new(meta());
        tr.push(Instant::from_secs(1), TraceEvent::BecameSeed);
        tr.push(Instant::from_secs(2), TraceEvent::EndGameEntered);
        assert_eq!(tr.len(), 2);
        let times: Vec<u64> = tr.iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(times, vec![1, 2]);
    }

    #[test]
    fn local_state_transitions_at_seed_time() {
        let tr = Trace::new(meta());
        assert_eq!(
            tr.local_state_at(Instant::from_secs(59)),
            LocalState::Leecher
        );
        assert_eq!(tr.local_state_at(Instant::from_secs(60)), LocalState::Seed);
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut tr = Trace::new(meta());
        tr.push(
            Instant::from_secs(1),
            TraceEvent::PeerJoined {
                peer: 0,
                ip: IpAddr(0x01020304),
                peer_id: PeerId::new(ClientKind::Azureus, 5),
                pieces_on_arrival: 10,
                total_pieces: 100,
            },
        );
        tr.push(
            Instant::from_secs(2),
            TraceEvent::BlockReceived {
                peer: 0,
                block: BlockRef {
                    piece: 1,
                    offset: 0,
                    length: 16384,
                },
            },
        );
        tr.push(
            Instant::from_secs(3),
            TraceEvent::AvailabilitySample {
                min: 0,
                mean: 12.5,
                max: 80,
                rarest_set_size: 17,
                peer_set_size: 80,
            },
        );
        let text = tr.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, tr);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of order")]
    fn rejects_out_of_order_events() {
        let mut tr = Trace::new(meta());
        tr.push(Instant::from_secs(5), TraceEvent::BecameSeed);
        tr.push(Instant::from_secs(1), TraceEvent::EndGameEntered);
    }
}
