//! Peer wire protocol messages and their binary codec (BEP 3).
//!
//! Every message is length-prefixed: `<u32 length><u8 id><payload>`.
//! A length of zero is a keep-alive. The paper's instrumentation logs
//! "each BitTorrent message sent or received with the detailed content of
//! the message" (§III-C); [`Message`] is the type those logs carry.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// A block request or transfer descriptor: piece index, byte offset within
/// the piece, and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockRef {
    /// Piece index.
    pub piece: u32,
    /// Byte offset of the block within the piece.
    pub offset: u32,
    /// Block length in bytes (16 kB except possibly the final block).
    pub length: u32,
}

impl BlockRef {
    /// Block index within its piece assuming 16 kB blocks.
    pub fn block_index(&self) -> u32 {
        self.offset / crate::metainfo::BLOCK_LEN
    }
}

/// A peer wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Zero-length heartbeat; sent every 2 minutes of silence.
    KeepAlive,
    /// The sender will not upload to the receiver.
    Choke,
    /// The sender may upload to the receiver.
    Unchoke,
    /// The sender wants pieces the receiver has.
    Interested,
    /// The sender wants nothing the receiver has.
    NotInterested,
    /// The sender completed (and verified) piece `0`.
    Have(u32),
    /// The sender's complete piece map, sent once after the handshake.
    Bitfield(Vec<u8>),
    /// Request one block.
    Request(BlockRef),
    /// One block of data. The simulator carries real bytes end-to-end so
    /// hash verification is exercised.
    Piece {
        /// Which block this payload is.
        block: BlockRef,
        /// The payload (empty in the simulator's virtual data mode).
        data: Bytes,
    },
    /// Cancel a pending request (used heavily by end game mode, §II-C.1).
    Cancel(BlockRef),
    /// DHT port announcement (present in the wire format; unused here).
    Port(u16),
    /// Fast Extension (BEP 6): advise the peer to fetch this piece.
    Suggest(u32),
    /// Fast Extension: the sender has every piece (replaces `bitfield`).
    HaveAll,
    /// Fast Extension: the sender has no pieces (replaces `bitfield`).
    HaveNone,
    /// Fast Extension: the request will not be served (explicit, instead
    /// of the silent drop the base protocol uses).
    RejectRequest(BlockRef),
    /// Fast Extension: the receiver may request this piece while choked.
    AllowedFast(u32),
    /// Extension protocol (BEP 10) frame: inner extension ID plus a
    /// bencoded payload (`ext_id` 0 is the extension handshake).
    Extended {
        /// Inner extension message ID.
        ext_id: u8,
        /// Bencoded payload.
        payload: Vec<u8>,
    },
}

/// Message IDs on the wire.
mod id {
    pub const CHOKE: u8 = 0;
    pub const UNCHOKE: u8 = 1;
    pub const INTERESTED: u8 = 2;
    pub const NOT_INTERESTED: u8 = 3;
    pub const HAVE: u8 = 4;
    pub const BITFIELD: u8 = 5;
    pub const REQUEST: u8 = 6;
    pub const PIECE: u8 = 7;
    pub const CANCEL: u8 = 8;
    pub const PORT: u8 = 9;
    pub const SUGGEST: u8 = 13;
    pub const HAVE_ALL: u8 = 14;
    pub const HAVE_NONE: u8 = 15;
    pub const REJECT_REQUEST: u8 = 16;
    pub const ALLOWED_FAST: u8 = 17;
    pub const EXTENDED: u8 = 20;
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum CodecError {
    /// Declared length exceeds the configured maximum frame size.
    FrameTooLarge { length: usize, max: usize },
    /// Message ID unknown.
    UnknownId(u8),
    /// Payload length inconsistent with the message ID.
    BadPayload { id: u8, length: usize },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::FrameTooLarge { length, max } => {
                write!(f, "frame of {length} bytes exceeds max {max}")
            }
            CodecError::UnknownId(id) => write!(f, "unknown message id {id}"),
            CodecError::BadPayload { id, length } => {
                write!(f, "bad payload length {length} for message id {id}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl Message {
    /// A compact kind tag for logging and statistics.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::KeepAlive => MessageKind::KeepAlive,
            Message::Choke => MessageKind::Choke,
            Message::Unchoke => MessageKind::Unchoke,
            Message::Interested => MessageKind::Interested,
            Message::NotInterested => MessageKind::NotInterested,
            Message::Have(_) => MessageKind::Have,
            Message::Bitfield(_) => MessageKind::Bitfield,
            Message::Request(_) => MessageKind::Request,
            Message::Piece { .. } => MessageKind::Piece,
            Message::Cancel(_) => MessageKind::Cancel,
            Message::Port(_) => MessageKind::Port,
            Message::Suggest(_) => MessageKind::Suggest,
            Message::HaveAll => MessageKind::HaveAll,
            Message::HaveNone => MessageKind::HaveNone,
            Message::RejectRequest(_) => MessageKind::RejectRequest,
            Message::AllowedFast(_) => MessageKind::AllowedFast,
            Message::Extended { .. } => MessageKind::Extended,
        }
    }

    /// Size of the encoded frame in bytes (length prefix included). Used by
    /// the bandwidth model to charge links for control traffic.
    pub fn wire_len(&self) -> usize {
        4 + match self {
            Message::KeepAlive => 0,
            Message::Choke | Message::Unchoke | Message::Interested | Message::NotInterested => 1,
            Message::Have(_) => 5,
            Message::Bitfield(bits) => 1 + bits.len(),
            Message::Request(_) | Message::Cancel(_) => 13,
            Message::Piece { data, .. } => 9 + data.len(),
            Message::Port(_) => 3,
            Message::Suggest(_) | Message::AllowedFast(_) => 5,
            Message::HaveAll | Message::HaveNone => 1,
            Message::RejectRequest(_) => 13,
            Message::Extended { payload, .. } => 2 + payload.len(),
        }
    }

    /// Encode this message into `buf` as a length-prefixed frame.
    pub fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Message::KeepAlive => buf.put_u32(0),
            Message::Choke => simple(buf, id::CHOKE),
            Message::Unchoke => simple(buf, id::UNCHOKE),
            Message::Interested => simple(buf, id::INTERESTED),
            Message::NotInterested => simple(buf, id::NOT_INTERESTED),
            Message::Have(piece) => {
                buf.put_u32(5);
                buf.put_u8(id::HAVE);
                buf.put_u32(*piece);
            }
            Message::Bitfield(bits) => {
                buf.put_u32(1 + bits.len() as u32);
                buf.put_u8(id::BITFIELD);
                buf.put_slice(bits);
            }
            Message::Request(b) => block_ref(buf, id::REQUEST, b),
            Message::Cancel(b) => block_ref(buf, id::CANCEL, b),
            Message::Piece { block, data } => {
                debug_assert_eq!(block.length as usize, data.len());
                piece_header(buf, block, data.len() as u32);
                buf.put_slice(data);
            }
            Message::Port(port) => {
                buf.put_u32(3);
                buf.put_u8(id::PORT);
                buf.put_u16(*port);
            }
            Message::Suggest(piece) => {
                buf.put_u32(5);
                buf.put_u8(id::SUGGEST);
                buf.put_u32(*piece);
            }
            Message::HaveAll => simple(buf, id::HAVE_ALL),
            Message::HaveNone => simple(buf, id::HAVE_NONE),
            Message::RejectRequest(b) => block_ref(buf, id::REJECT_REQUEST, b),
            Message::AllowedFast(piece) => {
                buf.put_u32(5);
                buf.put_u8(id::ALLOWED_FAST);
                buf.put_u32(*piece);
            }
            Message::Extended { ext_id, payload } => {
                buf.put_u32(2 + payload.len() as u32);
                buf.put_u8(id::EXTENDED);
                buf.put_u8(*ext_id);
                buf.put_slice(payload);
            }
        }
    }

    /// Encode to a fresh buffer of exactly [`Message::wire_len`] bytes.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode(&mut buf);
        buf
    }

    /// Encode a `piece` frame for `block` carrying `len` data bytes that
    /// `fill` writes straight into the frame, after its header: the
    /// bytes [`encode_to_vec`](Message::encode_to_vec) gives for a
    /// [`Message::Piece`] with the same data, in one buffer and without
    /// a copy of the data.
    pub fn encode_piece_with(block: &BlockRef, len: u32, fill: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let frame_len = PIECE_HEADER_LEN + len as usize;
        let mut buf = Vec::with_capacity(frame_len);
        piece_header(&mut buf, block, len);
        buf.resize(frame_len, 0);
        fill(&mut buf[PIECE_HEADER_LEN..]);
        buf
    }
}

/// Bytes of a `piece` frame before its data: length prefix, id, piece
/// index and offset.
const PIECE_HEADER_LEN: usize = 13;

fn piece_header(buf: &mut impl BufMut, block: &BlockRef, len: u32) {
    buf.put_u32(9 + len);
    buf.put_u8(id::PIECE);
    buf.put_u32(block.piece);
    buf.put_u32(block.offset);
}

fn simple(buf: &mut impl BufMut, msg_id: u8) {
    buf.put_u32(1);
    buf.put_u8(msg_id);
}

fn block_ref(buf: &mut impl BufMut, msg_id: u8, b: &BlockRef) {
    buf.put_u32(13);
    buf.put_u8(msg_id);
    buf.put_u32(b.piece);
    buf.put_u32(b.offset);
    buf.put_u32(b.length);
}

/// Message kind without payload, for compact trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// See [`Message::KeepAlive`].
    KeepAlive,
    /// See [`Message::Choke`].
    Choke,
    /// See [`Message::Unchoke`].
    Unchoke,
    /// See [`Message::Interested`].
    Interested,
    /// See [`Message::NotInterested`].
    NotInterested,
    /// See [`Message::Have`].
    Have,
    /// See [`Message::Bitfield`].
    Bitfield,
    /// See [`Message::Request`].
    Request,
    /// See [`Message::Piece`].
    Piece,
    /// See [`Message::Cancel`].
    Cancel,
    /// See [`Message::Port`].
    Port,
    /// See [`Message::Suggest`].
    Suggest,
    /// See [`Message::HaveAll`].
    HaveAll,
    /// See [`Message::HaveNone`].
    HaveNone,
    /// See [`Message::RejectRequest`].
    RejectRequest,
    /// See [`Message::AllowedFast`].
    AllowedFast,
    /// See [`Message::Extended`].
    Extended,
}

/// Streaming decoder: feed bytes in, pop complete messages out.
///
/// Incomplete frames are buffered; malformed frames return an error and
/// leave the decoder unusable (a real client drops the connection).
#[derive(Debug)]
pub struct Decoder {
    buf: BytesMut,
    max_frame: usize,
}

/// Default maximum frame: a 16 kB block plus header, with slack for large
/// bitfields of very big torrents.
pub const DEFAULT_MAX_FRAME: usize = 512 * 1024;

impl Default for Decoder {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_FRAME)
    }
}

impl Decoder {
    /// Create a decoder with the given maximum frame size.
    pub fn new(max_frame: usize) -> Decoder {
        Decoder {
            buf: BytesMut::new(),
            max_frame,
        }
    }

    /// Append raw bytes received from the transport.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Try to decode the next complete message, if any.
    pub fn next_message(&mut self) -> Result<Option<Message>, CodecError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let length =
            u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if length > self.max_frame {
            return Err(CodecError::FrameTooLarge {
                length,
                max: self.max_frame,
            });
        }
        if self.buf.len() < 4 + length {
            return Ok(None);
        }
        self.buf.advance(4);
        if length == 0 {
            return Ok(Some(Message::KeepAlive));
        }
        // Decode from the buffered frame in place: a payload that keeps
        // bytes (a `piece`'s data, a bitfield) copies them once, into
        // the message. A malformed frame stays buffered; the decoder is
        // unusable after an error either way.
        let mut payload: &[u8] = &self.buf[..length];
        let msg_id = payload.get_u8();
        let body_len = payload.len();
        let msg = match msg_id {
            id::CHOKE => expect_empty(msg_id, body_len, Message::Choke)?,
            id::UNCHOKE => expect_empty(msg_id, body_len, Message::Unchoke)?,
            id::INTERESTED => expect_empty(msg_id, body_len, Message::Interested)?,
            id::NOT_INTERESTED => expect_empty(msg_id, body_len, Message::NotInterested)?,
            id::HAVE => {
                if body_len != 4 {
                    return Err(CodecError::BadPayload {
                        id: msg_id,
                        length: body_len,
                    });
                }
                Message::Have(payload.get_u32())
            }
            id::BITFIELD => Message::Bitfield(payload.to_vec()),
            id::REQUEST | id::CANCEL | id::REJECT_REQUEST => {
                if body_len != 12 {
                    return Err(CodecError::BadPayload {
                        id: msg_id,
                        length: body_len,
                    });
                }
                let b = BlockRef {
                    piece: payload.get_u32(),
                    offset: payload.get_u32(),
                    length: payload.get_u32(),
                };
                match msg_id {
                    id::REQUEST => Message::Request(b),
                    id::CANCEL => Message::Cancel(b),
                    _ => Message::RejectRequest(b),
                }
            }
            id::SUGGEST | id::ALLOWED_FAST => {
                if body_len != 4 {
                    return Err(CodecError::BadPayload {
                        id: msg_id,
                        length: body_len,
                    });
                }
                let piece = payload.get_u32();
                if msg_id == id::SUGGEST {
                    Message::Suggest(piece)
                } else {
                    Message::AllowedFast(piece)
                }
            }
            id::HAVE_ALL => expect_empty(msg_id, body_len, Message::HaveAll)?,
            id::HAVE_NONE => expect_empty(msg_id, body_len, Message::HaveNone)?,
            id::EXTENDED => {
                if body_len < 1 {
                    return Err(CodecError::BadPayload {
                        id: msg_id,
                        length: body_len,
                    });
                }
                let ext_id = payload.get_u8();
                Message::Extended {
                    ext_id,
                    payload: payload.to_vec(),
                }
            }
            id::PIECE => {
                if body_len < 8 {
                    return Err(CodecError::BadPayload {
                        id: msg_id,
                        length: body_len,
                    });
                }
                let piece = payload.get_u32();
                let offset = payload.get_u32();
                let data = Bytes::from(payload);
                Message::Piece {
                    block: BlockRef {
                        piece,
                        offset,
                        length: data.len() as u32,
                    },
                    data,
                }
            }
            id::PORT => {
                if body_len != 2 {
                    return Err(CodecError::BadPayload {
                        id: msg_id,
                        length: body_len,
                    });
                }
                Message::Port(payload.get_u16())
            }
            other => return Err(CodecError::UnknownId(other)),
        };
        self.buf.advance(length);
        Ok(Some(msg))
    }
}

fn expect_empty(msg_id: u8, body_len: usize, msg: Message) -> Result<Message, CodecError> {
    if body_len != 0 {
        Err(CodecError::BadPayload {
            id: msg_id,
            length: body_len,
        })
    } else {
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let encoded = msg.encode_to_vec();
        assert_eq!(
            encoded.len(),
            msg.wire_len(),
            "wire_len must match encoding"
        );
        let mut dec = Decoder::default();
        dec.feed(&encoded);
        let out = dec.next_message().unwrap().expect("complete message");
        assert_eq!(out, msg);
        assert!(dec.next_message().unwrap().is_none());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn roundtrip_all_kinds() {
        roundtrip(Message::KeepAlive);
        roundtrip(Message::Choke);
        roundtrip(Message::Unchoke);
        roundtrip(Message::Interested);
        roundtrip(Message::NotInterested);
        roundtrip(Message::Have(12345));
        roundtrip(Message::Bitfield(vec![0b1010_1010, 0xFF, 0x00]));
        roundtrip(Message::Request(BlockRef {
            piece: 1,
            offset: 16384,
            length: 16384,
        }));
        roundtrip(Message::Cancel(BlockRef {
            piece: 9,
            offset: 0,
            length: 500,
        }));
        roundtrip(Message::Piece {
            block: BlockRef {
                piece: 3,
                offset: 32768,
                length: 5,
            },
            data: Bytes::from_static(b"hello"),
        });
        roundtrip(Message::Port(6881));
    }

    #[test]
    fn roundtrip_fast_extension_messages() {
        roundtrip(Message::Suggest(77));
        roundtrip(Message::HaveAll);
        roundtrip(Message::HaveNone);
        roundtrip(Message::RejectRequest(BlockRef {
            piece: 2,
            offset: 16384,
            length: 16384,
        }));
        roundtrip(Message::AllowedFast(0));
    }

    #[test]
    fn roundtrip_extended_messages() {
        roundtrip(Message::Extended {
            ext_id: 0,
            payload: b"d1:md6:ut_pexi1eee".to_vec(),
        });
        roundtrip(Message::Extended {
            ext_id: 1,
            payload: vec![],
        });
    }

    #[test]
    fn fragmented_delivery() {
        let msg = Message::Request(BlockRef {
            piece: 7,
            offset: 0,
            length: 16384,
        });
        let bytes = msg.encode_to_vec();
        let mut dec = Decoder::default();
        for b in &bytes[..bytes.len() - 1] {
            dec.feed(std::slice::from_ref(b));
            assert!(dec.next_message().unwrap().is_none());
        }
        dec.feed(&bytes[bytes.len() - 1..]);
        assert_eq!(dec.next_message().unwrap(), Some(msg));
    }

    #[test]
    fn pipelined_messages() {
        let msgs = vec![
            Message::Interested,
            Message::Piece {
                block: BlockRef {
                    piece: 1,
                    offset: 16384,
                    length: 5,
                },
                data: Bytes::from_static(b"abcde"),
            },
            Message::Have(3),
            Message::KeepAlive,
            Message::Unchoke,
        ];
        let mut all = Vec::new();
        for m in &msgs {
            all.extend_from_slice(&m.encode_to_vec());
        }
        let mut dec = Decoder::default();
        dec.feed(&all);
        for m in &msgs {
            assert_eq!(dec.next_message().unwrap().as_ref(), Some(m));
        }
        assert!(dec.next_message().unwrap().is_none());
    }

    #[test]
    fn rejects_oversized_frame() {
        let mut dec = Decoder::new(16);
        dec.feed(&1000u32.to_be_bytes());
        assert!(matches!(
            dec.next_message(),
            Err(CodecError::FrameTooLarge {
                length: 1000,
                max: 16
            })
        ));
    }

    #[test]
    fn rejects_unknown_id() {
        let mut dec = Decoder::default();
        dec.feed(&[0, 0, 0, 1, 42]);
        assert!(matches!(dec.next_message(), Err(CodecError::UnknownId(42))));
    }

    #[test]
    fn rejects_bad_payload_lengths() {
        // Have with a 2-byte payload.
        let mut dec = Decoder::default();
        dec.feed(&[0, 0, 0, 3, id::HAVE, 1, 2]);
        assert!(matches!(
            dec.next_message(),
            Err(CodecError::BadPayload { .. })
        ));
        // Choke with a payload.
        let mut dec = Decoder::default();
        dec.feed(&[0, 0, 0, 2, id::CHOKE, 0]);
        assert!(matches!(
            dec.next_message(),
            Err(CodecError::BadPayload { .. })
        ));
        // Piece with fewer than 8 payload bytes.
        let mut dec = Decoder::default();
        dec.feed(&[0, 0, 0, 5, id::PIECE, 0, 0, 0, 0]);
        assert!(matches!(
            dec.next_message(),
            Err(CodecError::BadPayload { .. })
        ));
    }

    #[test]
    fn block_index_uses_16k_blocks() {
        let b = BlockRef {
            piece: 0,
            offset: 3 * 16384,
            length: 16384,
        };
        assert_eq!(b.block_index(), 3);
    }
}
