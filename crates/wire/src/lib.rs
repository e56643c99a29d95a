//! # bt-wire — BitTorrent wire protocol
//!
//! The data formats of the BitTorrent protocol as used by the mainline
//! 4.0.2 client instrumented in Legout et al., *Rarest First and Choke
//! Algorithms Are Enough* (IMC 2006):
//!
//! * [`bencode`] — the bencoding serialisation used by metainfo files and
//!   tracker responses;
//! * [`sha1`] — a from-scratch SHA-1 for piece hashes and info-hashes;
//! * [`metainfo`] — `.torrent` construction/parsing plus deterministic
//!   synthetic content generation for the simulator;
//! * [`handshake`] and [`message`] — the peer wire protocol codec;
//! * [`peer_id`] — peer identifiers with the client-ID prefix the paper's
//!   peer de-duplication relies on;
//! * [`tracker`] — announce request/response with the compact encoding.
//!
//! Everything here is transport-agnostic: the same codec drives both real
//! sockets and the in-memory links of `bt-sim`.

#![warn(missing_docs)]

pub mod bencode;
mod content;
pub mod extension;
pub mod fast;
pub mod handshake;
pub mod message;
pub mod metainfo;
pub mod peer_id;
pub mod sha1;
pub mod time;
pub mod tracker;

pub use fast::{allowed_fast_set, DEFAULT_ALLOWED_FAST};
pub use handshake::Handshake;
pub use message::{BlockRef, Message, MessageKind};
pub use metainfo::{Metainfo, SyntheticContent, BLOCK_LEN, DEFAULT_PIECE_LEN};
pub use peer_id::{ClientKind, IpAddr, PeerId};
pub use sha1::{sha1, Digest};
pub use time::{Duration, Instant};
