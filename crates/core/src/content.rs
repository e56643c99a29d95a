//! Content access for serving and verifying pieces.
//!
//! Two fidelity levels, selected per simulation:
//!
//! * [`DataMode::Real`] — piece messages carry real bytes generated from
//!   the torrent's deterministic content; receivers hash each block as
//!   it arrives ([`PieceBuffer`] holds only blocks that come ahead of
//!   their predecessors) and check the piece's SHA-1 when its last
//!   block is in. Used by examples, integration tests, and
//!   fault-injection scenarios (corrupted blocks must be re-downloaded).
//! * [`DataMode::Virtual`] — piece messages carry no payload (lengths are
//!   still accounted by the bandwidth model) and verification is assumed
//!   to pass. Used for full-scale Table I sweeps where materialising
//!   hundreds of megabytes per peer would dominate runtime without
//!   changing any protocol dynamics.
//!
//! DESIGN.md records this substitution; both modes drive the identical
//! engine code path except for the hash/verify step.

use bt_wire::message::{BlockRef, Message};
use bt_wire::metainfo::SyntheticContent;
use bt_wire::sha1::{Digest, Sha1};
use bytes::Bytes;
use std::sync::Arc;

/// How piece data is materialised in a simulation.
#[derive(Clone)]
pub enum DataMode {
    /// Real bytes with hash verification.
    Real(Arc<SyntheticContent>),
    /// Metadata-only transfers; verification trusted.
    Virtual,
}

impl std::fmt::Debug for DataMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataMode::Real(_) => write!(f, "DataMode::Real"),
            DataMode::Virtual => write!(f, "DataMode::Virtual"),
        }
    }
}

impl DataMode {
    /// Bytes for a block being served. Empty in virtual mode.
    pub fn block_bytes(&self, piece: u32, block: u32) -> Bytes {
        match self {
            DataMode::Real(content) => Bytes::from(content.block_bytes(piece, block)),
            DataMode::Virtual => Bytes::new(),
        }
    }

    /// The `piece` frame serving `block`, its data written in place
    /// after the header: byte for byte `Message::Piece { block, data:
    /// self.block_bytes(..) }.encode_to_vec()`, in one buffer.
    pub fn piece_frame(&self, block: &BlockRef) -> Vec<u8> {
        match self {
            DataMode::Real(content) => {
                let index = block.block_index();
                let len = content.metainfo.block_size(block.piece, index);
                Message::encode_piece_with(block, len, |out| {
                    content.fill_block(block.piece, index, out)
                })
            }
            DataMode::Virtual => Message::encode_piece_with(block, 0, |_| {}),
        }
    }

    /// Check a piece's digest against the torrent's hash. In virtual
    /// mode this always succeeds (no data to check).
    pub fn verify_piece(&self, piece: u32, digest: &Digest) -> bool {
        match self {
            DataMode::Real(content) => *digest == content.metainfo.piece_hashes[piece as usize],
            DataMode::Virtual => true,
        }
    }

    /// True when payloads are materialised.
    pub fn is_real(&self) -> bool {
        matches!(self, DataMode::Real(_))
    }
}

/// The SHA-1 of one piece, computed as its blocks arrive (real-data
/// mode only).
///
/// A block is hashed when it is the next one in piece order; one that
/// arrives ahead of that waits in a slot until its predecessors are in.
/// The slots exist only once a block arrives early, so a piece fetched
/// in order holds no payload at all.
pub struct PieceBuffer {
    hasher: Sha1,
    /// Blocks `0..next` are hashed.
    next: u32,
    num_blocks: u32,
    /// Early arrivals by block index; empty until the first one.
    early: Vec<Option<Bytes>>,
}

impl PieceBuffer {
    /// A verifier for a piece of `num_blocks` blocks.
    pub fn new(num_blocks: u32) -> PieceBuffer {
        PieceBuffer {
            hasher: Sha1::new(),
            next: 0,
            num_blocks,
            early: Vec::new(),
        }
    }

    /// Take one block's payload: hash it if it is next in line, then
    /// every early successor it unblocks; otherwise hold it. Each block
    /// is stored once (the engine drops re-received blocks first), so a
    /// block that is already hashed is ignored.
    pub fn store(&mut self, block_index: u32, data: Bytes) {
        debug_assert!(
            block_index >= self.next && block_index < self.num_blocks,
            "block {block_index} stored twice or out of range"
        );
        if block_index < self.next || block_index >= self.num_blocks {
            return;
        }
        if block_index > self.next {
            if self.early.is_empty() {
                self.early = vec![None; self.num_blocks as usize];
            }
            self.early[block_index as usize] = Some(data);
            return;
        }
        self.hasher.update(&data);
        self.next += 1;
        while let Some(data) = self
            .early
            .get_mut(self.next as usize)
            .and_then(Option::take)
        {
            self.hasher.update(&data);
            self.next += 1;
        }
    }

    /// The piece's digest, if every block was stored.
    pub fn finish(self) -> Option<Digest> {
        (self.next == self.num_blocks).then(|| self.hasher.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_wire::metainfo::BLOCK_LEN;
    use bt_wire::sha1;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn content() -> Arc<SyntheticContent> {
        Arc::new(SyntheticContent::generate(
            "c",
            11,
            u64::from(4 * BLOCK_LEN),
            2 * BLOCK_LEN,
        ))
    }

    #[test]
    fn real_mode_roundtrip_verifies() {
        let c = content();
        let mode = DataMode::Real(c.clone());
        let mut buf = PieceBuffer::new(2);
        buf.store(1, mode.block_bytes(0, 1));
        buf.store(0, mode.block_bytes(0, 0));
        let digest = buf.finish().expect("both blocks stored");
        assert_eq!(digest, sha1::sha1(&c.piece_bytes(0)));
        assert!(mode.verify_piece(0, &digest));
        let mut half = PieceBuffer::new(2);
        half.store(0, mode.block_bytes(0, 0));
        assert!(half.finish().is_none(), "an incomplete piece has no digest");
    }

    #[test]
    fn corruption_fails_verification() {
        let c = content();
        let mode = DataMode::Real(c);
        let mut buf = PieceBuffer::new(2);
        let mut corrupt = mode.block_bytes(0, 0).to_vec();
        corrupt[0] ^= 0xFF;
        buf.store(0, Bytes::from(corrupt));
        buf.store(1, mode.block_bytes(0, 1));
        assert!(!mode.verify_piece(0, &buf.finish().unwrap()));
    }

    #[test]
    fn a_piece_frame_is_the_encoded_piece_message() {
        // Two full pieces and a 1 000-byte tail: the last block is short.
        let total = 2 * u64::from(2 * BLOCK_LEN) + 1_000;
        let content = SyntheticContent::generate("f", 5, total, 2 * BLOCK_LEN);
        let blocks = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)];
        let mode = DataMode::Real(Arc::new(content));
        for (piece, index) in blocks {
            let data = mode.block_bytes(piece, index);
            let block = BlockRef {
                piece,
                offset: index * BLOCK_LEN,
                length: data.len() as u32,
            };
            let want = Message::Piece { block, data }.encode_to_vec();
            assert_eq!(mode.piece_frame(&block), want, "block {piece}/{index}");
        }
        let tail = BlockRef {
            piece: 2,
            offset: 0,
            length: 1_000,
        };
        assert_eq!(mode.piece_frame(&tail).len(), 13 + 1_000);
        // Virtual mode serves the header alone, as its empty block encodes.
        let virt = Message::Piece {
            block: BlockRef { length: 0, ..tail },
            data: Bytes::new(),
        };
        assert_eq!(DataMode::Virtual.piece_frame(&tail), virt.encode_to_vec());
    }

    #[test]
    fn virtual_mode_trusts_everything() {
        let mode = DataMode::Virtual;
        assert!(mode.block_bytes(5, 3).is_empty());
        assert!(mode.verify_piece(5, &[0; 20]));
        assert!(!mode.is_real());
    }

    /// One piece of `len` bytes (a short last block unless `len` is a
    /// multiple of `BLOCK_LEN`), its blocks in an order shuffled by
    /// `order_seed`.
    fn piece(len: u32, order_seed: u64) -> (DataMode, Vec<(u32, Bytes)>) {
        let mode = DataMode::Real(Arc::new(SyntheticContent::generate(
            "p",
            u64::from(len),
            u64::from(len),
            len,
        )));
        let mut blocks: Vec<(u32, Bytes)> = (0..len.div_ceil(BLOCK_LEN))
            .map(|b| (b, mode.block_bytes(0, b)))
            .collect();
        blocks.shuffle(&mut SmallRng::seed_from_u64(order_seed));
        (mode, blocks)
    }

    /// Store `blocks` and check that nothing is held once the last one
    /// is in; the digest, if every block came.
    fn stream(blocks: &[(u32, Bytes)], num_blocks: u32) -> Option<Digest> {
        let mut buf = PieceBuffer::new(num_blocks);
        for (index, data) in blocks {
            buf.store(*index, data.clone());
        }
        if buf.next == num_blocks {
            assert!(buf.early.iter().all(Option::is_none), "early block left");
        }
        buf.finish()
    }

    fn arb_piece_len() -> impl Strategy<Value = u32> {
        prop_oneof![
            3 => 1u32..=5 * BLOCK_LEN,
            1 => (1u32..=5).prop_map(|n| n * BLOCK_LEN),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Blocks in any order hash to the piece's SHA-1, which verifies.
        #[test]
        fn any_arrival_order_gives_the_piece_hash(
            len in arb_piece_len(),
            order_seed in any::<u64>(),
        ) {
            let (mode, blocks) = piece(len, order_seed);
            let DataMode::Real(content) = &mode else { unreachable!() };
            let digest = stream(&blocks, blocks.len() as u32);
            prop_assert_eq!(digest, Some(sha1::sha1(&content.piece_bytes(0))));
            prop_assert!(mode.verify_piece(0, &digest.unwrap()));
        }

        /// One flipped byte anywhere in the piece fails verification.
        #[test]
        fn a_flipped_byte_fails_verification(
            len in arb_piece_len(),
            order_seed in any::<u64>(),
            at in any::<u32>(),
            mask in 1u8..=255,
        ) {
            let (mode, mut blocks) = piece(len, order_seed);
            let at = at % len;
            let (block, offset) = (at / BLOCK_LEN, (at % BLOCK_LEN) as usize);
            let slot = blocks.iter_mut().find(|(b, _)| *b == block).unwrap();
            let mut bytes = slot.1.to_vec();
            bytes[offset] ^= mask;
            slot.1 = Bytes::from(bytes);
            let digest = stream(&blocks, blocks.len() as u32).unwrap();
            prop_assert!(!mode.verify_piece(0, &digest));
        }

        /// A piece with a block missing has no digest.
        #[test]
        fn a_missing_block_gives_no_digest(
            len in arb_piece_len(),
            order_seed in any::<u64>(),
            missing in any::<u32>(),
        ) {
            let (_, mut blocks) = piece(len, order_seed);
            let num_blocks = blocks.len() as u32;
            blocks.remove(missing as usize % blocks.len());
            prop_assert_eq!(stream(&blocks, num_blocks), None);
        }
    }
}
