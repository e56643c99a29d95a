//! Differential test for the request scheduler: the index-ordered
//! implementation in `bt_piece::scheduler` against the hash-based one it
//! replaced (kept in `reference_scheduler/`), driven in lockstep through
//! arbitrary interleavings of every entry point — duplicates,
//! unsolicited, off-piece and post-choke blocks, rejects, hash failures
//! and end game included. Both must hand out the same requests, the same
//! receipts and enter end game at the same call; the new one must also
//! keep its own counters (`free`, `requested`) equal to a recount.

mod reference_scheduler;

use bt_piece::{
    Availability, Bitfield, Geometry, PickContext, PickerKind, PiecePicker, RequestScheduler,
};
use bt_wire::message::BlockRef;
use bt_wire::metainfo::BLOCK_LEN;
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reference_scheduler::ReferenceScheduler;
use std::collections::{HashSet, VecDeque};

type Peer = u32;
const PEERS: u32 = 4;
const PIECES: u32 = 6;
const BLOCKS: u32 = 3;

#[derive(Debug, Clone)]
enum Op {
    /// Ask for up to `max` new requests for peer `p`.
    Request { p: Peer, max: usize },
    /// Deliver the `i`-th block outstanding from peer `p`.
    Deliver { p: Peer, i: usize },
    /// Peer `p` sends a block nobody may have asked it for: a duplicate,
    /// one it was choked out of, one of a closed piece, or (with
    /// `block >= BLOCKS`) one past the end of the piece.
    Stray { p: Peer, piece: u32, block: u32 },
    /// Peer `p` chokes us.
    Choke { p: Peer },
    /// Peer `p` rejects its `i`-th outstanding request.
    Reject { p: Peer, i: usize },
    /// Peer `p` rejects a request it may never have been sent.
    StrayReject { p: Peer, piece: u32, block: u32 },
    /// Resolve the oldest piece waiting for its hash check.
    Verify { ok: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let peer = 0..PEERS;
    prop_oneof![
        6 => (peer.clone(), 0usize..10).prop_map(|(p, max)| Op::Request { p, max }),
        8 => (peer.clone(), 0usize..8).prop_map(|(p, i)| Op::Deliver { p, i }),
        2 => (peer.clone(), 0..PIECES + 1, 0..BLOCKS + 2)
            .prop_map(|(p, piece, block)| Op::Stray { p, piece, block }),
        1 => peer.clone().prop_map(|p| Op::Choke { p }),
        1 => (peer.clone(), 0usize..8).prop_map(|(p, i)| Op::Reject { p, i }),
        1 => (peer, 0..PIECES, 0..BLOCKS)
            .prop_map(|(p, piece, block)| Op::StrayReject { p, piece, block }),
        3 => any::<bool>().prop_map(|coin| Op::Verify { ok: coin }),
    ]
}

/// A block reference as a remote could send it: on the grid when it
/// names a real block, otherwise a full-length block at that offset.
fn wire_block(geometry: Geometry, piece: u32, block: u32) -> BlockRef {
    if piece < geometry.num_pieces() && block < geometry.blocks_in_piece(piece) {
        geometry.block_ref(piece, block)
    } else {
        BlockRef {
            piece,
            offset: block * BLOCK_LEN,
            length: BLOCK_LEN,
        }
    }
}

fn sorted(mut blocks: Vec<BlockRef>) -> Vec<BlockRef> {
    blocks.sort_unstable_by_key(|b| (b.piece, b.offset));
    blocks
}

/// Both schedulers plus everything they are fed, advanced in lockstep.
struct Lockstep {
    geometry: Geometry,
    own: Bitfield,
    remotes: Vec<Bitfield>,
    availability: Availability,
    new: RequestScheduler<Peer>,
    old: ReferenceScheduler<Peer>,
    new_picker: Box<dyn PiecePicker>,
    old_picker: Box<dyn PiecePicker>,
    new_rng: SmallRng,
    old_rng: SmallRng,
    /// Shadow of the requests in flight per peer, in request order.
    outstanding: Vec<Vec<BlockRef>>,
    /// Blocks accepted since their piece last (re)started.
    received: HashSet<BlockRef>,
    /// Completed pieces waiting for [`Op::Verify`].
    unverified: VecDeque<u32>,
}

impl Lockstep {
    fn new(seed: u64, picker: PickerKind, sparse_mask: u32) -> Lockstep {
        // The last piece is one block and a bit: a ragged tail.
        let total =
            u64::from(PIECES - 1) * u64::from(BLOCKS * BLOCK_LEN) + u64::from(BLOCK_LEN) + 7;
        let geometry = Geometry::new(total, BLOCKS * BLOCK_LEN);
        let mut availability = Availability::new(PIECES);
        // Peer 0 is a seed; the others lack the pieces `sparse_mask`
        // rotates out, so strict priority has remotes to skip.
        let remotes: Vec<Bitfield> = (0..PEERS)
            .map(|p| {
                let mut bf = Bitfield::new(PIECES);
                for piece in 0..PIECES {
                    if p == 0 || sparse_mask.rotate_left(p * 5) >> piece & 1 == 0 {
                        bf.set(piece);
                    }
                }
                availability.add_peer(&bf);
                bf
            })
            .collect();
        Lockstep {
            geometry,
            own: Bitfield::new(PIECES),
            remotes,
            availability,
            new: RequestScheduler::new(geometry),
            old: ReferenceScheduler::new(geometry),
            new_picker: picker.build(PIECES),
            old_picker: picker.build(PIECES),
            new_rng: SmallRng::seed_from_u64(seed),
            old_rng: SmallRng::seed_from_u64(seed),
            outstanding: vec![Vec::new(); PEERS as usize],
            received: HashSet::new(),
            unverified: VecDeque::new(),
        }
    }

    fn request(&mut self, p: Peer, max: usize) -> Result<(), TestCaseError> {
        let never = |_q: u32| false;
        let ctx = PickContext {
            own: &self.own,
            remote: &self.remotes[p as usize],
            availability: &self.availability,
            in_progress: &never,
            downloaded_pieces: self.own.count_ones(),
        };
        let got = self
            .new
            .next_requests(p, &ctx, self.new_picker.as_mut(), &mut self.new_rng, max);
        let want =
            self.old
                .next_requests(p, &ctx, self.old_picker.as_mut(), &mut self.old_rng, max);
        prop_assert_eq!(&got, &want, "request lists diverged");
        prop_assert!(got.len() <= max, "more than max_new requests");
        let mine = &mut self.outstanding[p as usize];
        for block in got {
            prop_assert!(
                !self.received.contains(&block),
                "requested a received block"
            );
            prop_assert!(!self.own.get(block.piece), "requested an owned piece");
            prop_assert!(
                self.remotes[p as usize].get(block.piece),
                "remote lacks the piece"
            );
            prop_assert!(!mine.contains(&block), "second copy to the same peer");
            mine.push(block);
        }
        Ok(())
    }

    fn deliver(&mut self, p: Peer, block: BlockRef) -> Result<(), TestCaseError> {
        let got = self.new.on_block_received(p, block);
        let want = self.old.on_block_received(p, block);
        prop_assert_eq!(&got, &want, "receipts diverged");
        self.outstanding[p as usize].retain(|b| *b != block);
        for (other, cancelled) in &got.cancels {
            let list = &mut self.outstanding[*other as usize];
            let at = list.iter().position(|b| b == cancelled);
            prop_assert!(at.is_some(), "cancel for a block not outstanding there");
            list.remove(at.unwrap());
        }
        if got.accepted {
            prop_assert!(self.received.insert(block), "accepted a block twice");
        }
        self.unverified.extend(got.completed_piece);
        Ok(())
    }

    fn reject(&mut self, p: Peer, block: BlockRef) -> Result<(), TestCaseError> {
        let got = self.new.on_request_rejected(p, block);
        prop_assert_eq!(got, self.old.on_request_rejected(p, block));
        let list = &mut self.outstanding[p as usize];
        prop_assert_eq!(got, list.contains(&block), "reject outcome vs shadow");
        list.retain(|b| *b != block);
        Ok(())
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Request { p, max } => self.request(p, max)?,
            Op::Deliver { p, i } => {
                let list = &self.outstanding[p as usize];
                if !list.is_empty() {
                    let block = list[i % list.len()];
                    self.deliver(p, block)?;
                }
            }
            Op::Stray { p, piece, block } => {
                self.deliver(p, wire_block(self.geometry, piece, block))?;
            }
            Op::Choke { p } => {
                let got = sorted(self.new.on_choked(p));
                prop_assert_eq!(&got, &sorted(self.old.on_choked(p)));
                let shadow = std::mem::take(&mut self.outstanding[p as usize]);
                prop_assert_eq!(got, sorted(shadow), "choke dropped vs shadow");
            }
            Op::Reject { p, i } => {
                let list = &self.outstanding[p as usize];
                if !list.is_empty() {
                    let block = list[i % list.len()];
                    self.reject(p, block)?;
                }
            }
            Op::StrayReject { p, piece, block } => {
                self.reject(p, wire_block(self.geometry, piece, block))?;
            }
            Op::Verify { ok } => {
                let Some(piece) = self.unverified.pop_front() else {
                    return Ok(());
                };
                if ok {
                    self.new.on_piece_verified(piece);
                    self.old.on_piece_verified(piece);
                    self.own.set(piece);
                } else {
                    self.new.on_piece_failed(piece);
                    self.old.on_piece_failed(piece);
                    self.received.retain(|b| b.piece != piece);
                    for list in &mut self.outstanding {
                        list.retain(|b| b.piece != piece);
                    }
                }
            }
        }
        self.new.check_invariants();
        prop_assert_eq!(self.new.in_endgame(), self.old.in_endgame(), "end game");
        for p in 0..PEERS {
            let shadow = self.outstanding[p as usize].len();
            prop_assert_eq!(self.new.outstanding_to(p), shadow);
            prop_assert_eq!(self.old.outstanding_to(p), shadow);
        }
        let mut open: Vec<u32> = self.old.in_progress().collect();
        open.sort_unstable();
        prop_assert_eq!(self.new.in_progress().collect::<Vec<_>>(), open);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_the_reference_model(
        ops in proptest::collection::vec(arb_op(), 1..250),
        seed in 0u64..1000,
        rarest in any::<bool>(),
        endgame in any::<bool>(),
        sparse_mask in any::<u32>(),
    ) {
        let picker = if rarest { PickerKind::RarestFirst } else { PickerKind::Sequential };
        let mut pair = Lockstep::new(seed, picker, sparse_mask);
        pair.new.set_endgame_enabled(endgame);
        pair.old.set_endgame_enabled(endgame);
        for op in ops {
            pair.apply(op)?;
        }
    }

    /// The usual life of a download — fill every pipeline, deliver,
    /// verify — so every run gets through end game to the last piece,
    /// which purely random interleavings rarely do.
    #[test]
    fn matches_through_a_whole_download(seed in 0u64..1000, sparse_mask in any::<u32>(), depth in 1usize..9) {
        let mut pair = Lockstep::new(seed, PickerKind::RarestFirst, sparse_mask);
        let mut steps = 0;
        while !pair.own.is_complete() {
            steps += 1;
            prop_assert!(steps < 2000, "download did not terminate");
            for p in 0..PEERS {
                let room = depth.saturating_sub(pair.new.outstanding_to(p));
                pair.apply(Op::Request { p, max: room })?;
            }
            // The slowest peer (the highest id) answers one block a
            // round, so the others reach its blocks in end game.
            for p in 0..PEERS {
                let serve = if p + 1 == PEERS { 1 } else { depth };
                for _ in 0..serve {
                    pair.apply(Op::Deliver { p, i: 0 })?;
                }
            }
            while !pair.unverified.is_empty() {
                pair.apply(Op::Verify { ok: true })?;
            }
        }
        prop_assert_eq!(pair.new.total_outstanding(), 0);
        prop_assert_eq!(pair.old.total_outstanding(), 0);
    }
}
