//! Message-level statistics.
//!
//! §III-C: the instrumentation logs "each BitTorrent message sent or
//! received". This module tallies those logs per message kind and
//! direction and estimates the control-plane overhead — how many bytes
//! of choke/unchoke/interest/have/request chatter the protocol spends
//! per byte of piece data, a figure of merit for "simple algorithms are
//! enough" arguments.

use bt_instrument::trace::{Trace, TraceEvent};
use bt_wire::message::MessageKind;
use bt_wire::metainfo::BLOCK_LEN;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counts for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCount {
    /// Messages sent by the local peer.
    pub sent: u64,
    /// Messages received by the local peer.
    pub received: u64,
}

/// Message statistics of one instrumented session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MessageStats {
    /// Per-kind tallies (sorted by kind name for stable rendering).
    pub counts: BTreeMap<String, KindCount>,
    /// Estimated control-plane bytes (everything but piece payloads).
    pub control_bytes: u64,
    /// Data-plane bytes (piece payloads, both directions).
    pub data_bytes: u64,
}

/// Fixed wire size of a message kind (length prefix included), excluding
/// the variable-size kinds handled separately.
fn fixed_wire_len(kind: MessageKind) -> Option<u64> {
    Some(match kind {
        MessageKind::KeepAlive => 4,
        MessageKind::Choke
        | MessageKind::Unchoke
        | MessageKind::Interested
        | MessageKind::NotInterested
        | MessageKind::HaveAll
        | MessageKind::HaveNone => 5,
        MessageKind::Have | MessageKind::Suggest | MessageKind::AllowedFast => 9,
        MessageKind::Request | MessageKind::Cancel | MessageKind::RejectRequest => 17,
        MessageKind::Port => 7,
        // Extended frames carry variable bencoded payloads; tally them at
        // a representative 64-byte size (handshake + small pex deltas).
        MessageKind::Extended => 70,
        MessageKind::Bitfield | MessageKind::Piece => return None,
    })
}

impl MessageStats {
    /// Tally a trace. `num_pieces` sizes the variable-length bitfield
    /// messages.
    pub fn from_trace(trace: &Trace) -> MessageStats {
        let bitfield_len = 5 + u64::from(trace.meta.num_pieces.div_ceil(8));
        let mut counts: BTreeMap<String, KindCount> = BTreeMap::new();
        let mut control_bytes = 0u64;
        let mut data_bytes = 0u64;
        for (_, ev) in trace.iter() {
            match ev {
                TraceEvent::Message { kind, sent, .. } => {
                    let entry = counts.entry(format!("{kind:?}")).or_default();
                    if *sent {
                        entry.sent += 1;
                    } else {
                        entry.received += 1;
                    }
                    match kind {
                        MessageKind::Bitfield => control_bytes += bitfield_len,
                        MessageKind::Piece => {
                            // Header only; payload counted via Block events.
                            control_bytes += 13;
                        }
                        k => control_bytes += fixed_wire_len(*k).unwrap_or(0),
                    }
                }
                TraceEvent::BlockReceived { block, .. } | TraceEvent::BlockSent { block, .. } => {
                    data_bytes += u64::from(block.length);
                }
                _ => {}
            }
        }
        MessageStats {
            counts,
            control_bytes,
            data_bytes,
        }
    }

    /// Control bytes per data byte (lower = leaner protocol).
    pub fn overhead_ratio(&self) -> f64 {
        if self.data_bytes == 0 {
            return f64::NAN;
        }
        self.control_bytes as f64 / self.data_bytes as f64
    }

    /// Total messages of a kind, both directions.
    pub fn total(&self, kind: MessageKind) -> u64 {
        self.counts
            .get(&format!("{kind:?}"))
            .map_or(0, |c| c.sent + c.received)
    }
}

/// A block's typical wire size: 16 kB payload plus the 13-byte header.
pub const BLOCK_WIRE_LEN: u64 = BLOCK_LEN as u64 + 13;

#[cfg(test)]
mod tests {
    use super::*;
    use bt_instrument::trace::TraceMeta;
    use bt_wire::message::BlockRef;
    use bt_wire::time::Instant;

    fn meta() -> TraceMeta {
        TraceMeta {
            torrent: "m".into(),
            torrent_id: 1,
            num_pieces: 16,
            num_blocks: 256,
            initial_seeds: 1,
            initial_leechers: 4,
            session_end: Instant::from_secs(100),
            seed_at: None,
        }
    }

    fn msg(tr: &mut Trace, t: u64, kind: MessageKind, sent: bool) {
        tr.push(
            Instant::from_secs(t),
            TraceEvent::Message {
                peer: 0,
                kind,
                sent,
            },
        );
    }

    #[test]
    fn tallies_directions() {
        let mut tr = Trace::new(meta());
        msg(&mut tr, 1, MessageKind::Interested, true);
        msg(&mut tr, 2, MessageKind::Unchoke, false);
        msg(&mut tr, 3, MessageKind::Request, true);
        msg(&mut tr, 4, MessageKind::Request, true);
        let s = MessageStats::from_trace(&tr);
        assert_eq!(s.counts["Request"].sent, 2);
        assert_eq!(s.total(MessageKind::Interested), 1);
        assert_eq!(s.total(MessageKind::Unchoke), 1);
        // 5 + 5 + 17 + 17 control bytes.
        assert_eq!(s.control_bytes, 44);
    }

    #[test]
    fn overhead_ratio_uses_block_bytes() {
        let mut tr = Trace::new(meta());
        msg(&mut tr, 1, MessageKind::Request, true);
        tr.push(
            Instant::from_secs(2),
            TraceEvent::BlockReceived {
                peer: 0,
                block: BlockRef {
                    piece: 0,
                    offset: 0,
                    length: BLOCK_LEN,
                },
            },
        );
        let s = MessageStats::from_trace(&tr);
        assert_eq!(s.data_bytes, u64::from(BLOCK_LEN));
        assert!((s.overhead_ratio() - 17.0 / f64::from(BLOCK_LEN)).abs() < 1e-12);
    }

    #[test]
    fn bitfield_sized_by_piece_count() {
        let mut tr = Trace::new(meta()); // 16 pieces → 2 bytes + 5 header
        msg(&mut tr, 1, MessageKind::Bitfield, false);
        let s = MessageStats::from_trace(&tr);
        assert_eq!(s.control_bytes, 7);
    }

    #[test]
    fn empty_trace_overhead_is_nan() {
        let s = MessageStats::from_trace(&Trace::new(meta()));
        assert!(s.overhead_ratio().is_nan());
        assert_eq!(s.total(MessageKind::Have), 0);
    }
}
