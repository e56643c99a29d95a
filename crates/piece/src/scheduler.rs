//! Block request scheduling: strict priority and end game mode.
//!
//! §II-C.1 describes two block-level policies layered on the piece picker:
//!
//! * **Strict priority** — "When at least one block of a piece has been
//!   requested, the other blocks of the same piece are requested with the
//!   highest priority", minimising partially received pieces (only
//!   complete pieces can be served).
//! * **End game mode** — "once a peer has requested all blocks ... the
//!   peer requests all blocks not yet received to all the peers in its
//!   peer set that have the corresponding blocks. Each time a block is
//!   received, it cancels the request for the received block to all the
//!   peers ... that have the corresponding pending request."
//!
//! [`RequestScheduler`] owns the partial-piece state and the per-peer
//! outstanding-request bookkeeping; it consults a [`PiecePicker`] only to
//! open new pieces.
//!
//! This runs once per received block, so the bookkeeping is laid out for
//! that cycle: open pieces live in a `BTreeMap` keyed by piece index
//! (strict priority *is* an ascending walk, so it needs no per-call sort)
//! beside one open bit per piece (the picker's in-progress test is an
//! index, not a map lookup), every open piece counts its `free` blocks
//! (a fully requested piece is skipped without looking at its blocks),
//! and a peer's outstanding requests are a short `Vec` searched linearly
//! (a pipeline is a handful of blocks). Once the buffers have grown to their working size, a
//! request → receive cycle inside an open piece allocates nothing.

use crate::bitfield::Bitfield;
use crate::geometry::Geometry;
use crate::picker::{PickContext, PiecePicker};
use bt_wire::message::BlockRef;
use std::collections::BTreeMap;

/// Download state of one partially received piece.
///
/// `free` is derived from the two per-block vectors, so they change only
/// through the four mutators below.
#[derive(Debug, Clone)]
struct PartialPiece {
    /// Per-block: received?
    received: Vec<bool>,
    /// Per-block: number of outstanding requests (can exceed 1 in end game).
    requested: Vec<u16>,
    received_count: u32,
    /// Blocks neither received nor requested.
    free: u32,
}

impl PartialPiece {
    fn new(blocks: u32) -> PartialPiece {
        PartialPiece {
            received: vec![false; blocks as usize],
            requested: vec![0; blocks as usize],
            received_count: 0,
            free: blocks,
        }
    }

    fn is_complete(&self) -> bool {
        self.received_count as usize == self.received.len()
    }

    fn is_free(&self, idx: usize) -> bool {
        !self.received[idx] && self.requested[idx] == 0
    }

    /// One more peer has been asked for block `idx`.
    fn add_request(&mut self, idx: usize) {
        self.free -= u32::from(self.is_free(idx));
        self.requested[idx] += 1;
    }

    /// One request for block `idx` went away without the block arriving.
    fn drop_request(&mut self, idx: usize) {
        self.requested[idx] = self.requested[idx].saturating_sub(1);
        self.free += u32::from(self.is_free(idx));
    }

    /// Block `idx` arrived (it must not have been received before).
    fn mark_received(&mut self, idx: usize) {
        self.free -= u32::from(self.is_free(idx));
        self.received[idx] = true;
        self.received_count += 1;
    }

    /// Every remaining request for the received block `idx` was cancelled.
    fn clear_requests(&mut self, idx: usize) {
        debug_assert!(self.received[idx]);
        self.requested[idx] = 0;
    }
}

/// Result of [`RequestScheduler::on_block_received`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockReceipt<P> {
    /// `Some(piece)` when this block completed its piece. The caller must
    /// verify the hash and then call [`RequestScheduler::on_piece_verified`]
    /// or [`RequestScheduler::on_piece_failed`].
    pub completed_piece: Option<u32>,
    /// `cancel` messages to send, in ascending peer order: end-game
    /// duplicates now satisfied.
    pub cancels: Vec<(P, BlockRef)>,
    /// True if the block was new data for a piece in progress. That
    /// includes a block no longer outstanding from this peer — its choke
    /// raced the block, and the data is as good as any. False (dropped)
    /// only for a piece that is not in progress, an index beyond the
    /// piece's blocks, or a block already received.
    pub accepted: bool,
}

impl<P> BlockReceipt<P> {
    fn dropped() -> Self {
        BlockReceipt {
            completed_piece: None,
            cancels: Vec::new(),
            accepted: false,
        }
    }
}

/// Remove `block` from a peer's outstanding list; true if it was there.
fn take_outstanding(list: &mut Vec<BlockRef>, block: BlockRef) -> bool {
    match list.iter().position(|b| *b == block) {
        Some(at) => {
            list.swap_remove(at);
            true
        }
        None => false,
    }
}

/// Block request scheduler for one torrent, generic over the peer key `P`.
#[derive(Debug)]
pub struct RequestScheduler<P: Copy + Ord> {
    geometry: Geometry,
    /// Pieces in progress. Ascending piece index is the strict-priority
    /// order and the order every run must reproduce.
    partial: BTreeMap<u32, PartialPiece>,
    /// One bit per piece, set exactly while the piece is a key of
    /// `partial`.
    open: Bitfield,
    /// Requests in flight per peer, in no particular order. Each block
    /// appears at most once per peer; across peers, `requested[idx]`
    /// counts its copies.
    outstanding: BTreeMap<P, Vec<BlockRef>>,
    endgame: bool,
    endgame_enabled: bool,
}

impl<P: Copy + Ord> RequestScheduler<P> {
    /// Create a scheduler for a torrent with the given geometry.
    pub fn new(geometry: Geometry) -> Self {
        RequestScheduler {
            geometry,
            partial: BTreeMap::new(),
            open: Bitfield::new(geometry.num_pieces()),
            outstanding: BTreeMap::new(),
            endgame: false,
            endgame_enabled: true,
        }
    }

    /// Disable end game mode (ablation switch; §IV-A.3 notes all paper
    /// experiments ran with it enabled, which is the default here too).
    pub fn set_endgame_enabled(&mut self, enabled: bool) {
        self.endgame_enabled = enabled;
        if !enabled {
            self.endgame = false;
        }
    }

    /// The torrent geometry this scheduler operates on.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Whether end game mode has been entered (§II-C.1). It is sticky until
    /// the download completes, matching mainline.
    pub fn in_endgame(&self) -> bool {
        self.endgame
    }

    /// Pieces currently being downloaded, ascending.
    pub fn in_progress(&self) -> impl Iterator<Item = u32> + '_ {
        self.partial.keys().copied()
    }

    /// True if `piece` has at least one received or requested block.
    pub fn is_in_progress(&self, piece: u32) -> bool {
        piece < self.open.len() && self.open.get(piece)
    }

    /// Outstanding requests to `peer`.
    pub fn outstanding_to(&self, peer: P) -> usize {
        self.outstanding.get(&peer).map_or(0, Vec::len)
    }

    /// Total outstanding requests across all peers.
    pub fn total_outstanding(&self) -> usize {
        self.outstanding.values().map(Vec::len).sum()
    }

    /// Compute up to `max_new` block requests to send to `peer`.
    ///
    /// Order of preference:
    /// 1. *strict priority*: missing, unrequested blocks of pieces already
    ///    in progress that the remote has;
    /// 2. new pieces chosen by `picker`;
    /// 3. if the torrent is fully requested, *end game*: duplicate
    ///    requests for missing blocks the remote has (at most one
    ///    duplicate per block per peer).
    ///
    /// The returned requests are already recorded as outstanding; the
    /// caller must actually transmit them.
    pub fn next_requests(
        &mut self,
        peer: P,
        ctx: &PickContext<'_>,
        picker: &mut dyn PiecePicker,
        rng: &mut dyn rand::RngCore,
        max_new: usize,
    ) -> Vec<BlockRef> {
        let mut out = Vec::new();
        self.next_requests_into(peer, ctx, picker, rng, max_new, &mut out);
        out
    }

    /// [`next_requests`](Self::next_requests) appending to a buffer the
    /// caller reuses, so the per-block cycle does not allocate: up to
    /// `max_new` requests are pushed onto `out`.
    pub fn next_requests_into(
        &mut self,
        peer: P,
        ctx: &PickContext<'_>,
        picker: &mut dyn PiecePicker,
        rng: &mut dyn rand::RngCore,
        max_new: usize,
        out: &mut Vec<BlockRef>,
    ) {
        if max_new == 0 {
            return;
        }
        let cap = out.len().saturating_add(max_new);
        let geometry = self.geometry;
        let mine = self.outstanding.entry(peer).or_default();
        let remote_has = |p: u32| p < ctx.remote.len() && ctx.remote.get(p);

        // 1. Strict priority: continue partial pieces the remote has.
        for (&piece, state) in self.partial.iter_mut() {
            if state.free > 0 && remote_has(piece) {
                fill_from_piece(geometry, piece, state, mine, cap, out);
                if out.len() >= cap {
                    return;
                }
            }
        }

        // 2. Open new pieces via the picker.
        while out.len() < cap {
            let open = &self.open;
            let in_progress = |p: u32| open.get(p) || (ctx.in_progress)(p);
            let sub_ctx = PickContext {
                own: ctx.own,
                remote: ctx.remote,
                availability: ctx.availability,
                in_progress: &in_progress,
                downloaded_pieces: ctx.downloaded_pieces,
            };
            let Some(piece) = picker.pick(&sub_ctx, rng) else {
                break;
            };
            let newly_open = self.open.set(piece);
            debug_assert!(newly_open, "picker reopened a piece");
            let state = self
                .partial
                .entry(piece)
                .or_insert_with(|| PartialPiece::new(geometry.blocks_in_piece(piece)));
            fill_from_piece(geometry, piece, state, mine, cap, out);
        }
        if out.len() >= cap {
            return;
        }

        // 3. End game: all blocks of all wanted pieces requested or
        // received? Then duplicate-request missing blocks from this peer.
        if self.endgame_enabled
            && !self.endgame
            && all_blocks_requested(&self.partial, &self.open, ctx)
        {
            self.endgame = true;
        }
        if self.endgame {
            for (&piece, state) in self.partial.iter_mut() {
                if state.is_complete() || !remote_has(piece) {
                    continue;
                }
                for idx in 0..state.received.len() {
                    if out.len() >= cap {
                        return;
                    }
                    if state.received[idx] {
                        continue;
                    }
                    let block = geometry.block_ref(piece, idx as u32);
                    if mine.contains(&block) {
                        continue; // already asked this peer
                    }
                    mine.push(block);
                    state.add_request(idx);
                    out.push(block);
                }
            }
        }
    }

    /// Record a received block. Returns what to do next (verify a piece,
    /// send cancels) and whether the block was accepted at all.
    pub fn on_block_received(&mut self, peer: P, block: BlockRef) -> BlockReceipt<P> {
        let was_outstanding = self
            .outstanding
            .get_mut(&peer)
            .is_some_and(|list| take_outstanding(list, block));
        let Some(state) = self.partial.get_mut(&block.piece) else {
            return BlockReceipt::dropped();
        };
        let idx = block.block_index() as usize;
        if idx >= state.received.len() {
            return BlockReceipt::dropped();
        }
        if was_outstanding {
            state.drop_request(idx);
        }
        if state.received[idx] {
            // End-game duplicate that raced its cancel: drop it.
            return BlockReceipt::dropped();
        }
        state.mark_received(idx);

        // Cancel this block everywhere else (end game mode semantics).
        let mut cancels = Vec::new();
        if state.requested[idx] > 0 {
            for (&other, list) in self.outstanding.iter_mut() {
                if take_outstanding(list, block) {
                    cancels.push((other, block));
                }
            }
            state.clear_requests(idx);
        }
        BlockReceipt {
            completed_piece: state.is_complete().then_some(block.piece),
            cancels,
            accepted: true,
        }
    }

    /// The engine verified the completed piece's hash: drop its state.
    /// The caller updates its own bitfield; the scheduler forgets the piece.
    pub fn on_piece_verified(&mut self, piece: u32) {
        let state = self.partial.remove(&piece);
        self.open.clear(piece);
        debug_assert!(
            state.is_some_and(|s| s.is_complete()),
            "verifying incomplete piece"
        );
    }

    /// The completed piece failed hash verification: reset it so every
    /// block is re-requested from scratch.
    pub fn on_piece_failed(&mut self, piece: u32) {
        if let Some(state) = self.partial.get_mut(&piece) {
            *state = PartialPiece::new(self.geometry.blocks_in_piece(piece));
            // Any outstanding end-game duplicates for this piece are now
            // stale; drop them from the bookkeeping.
            for list in self.outstanding.values_mut() {
                list.retain(|b| b.piece != piece);
            }
        }
    }

    /// The peer choked us: mainline discards its outstanding requests.
    /// Returns the requests that were dropped, in no particular order
    /// (their blocks become requestable again).
    pub fn on_choked(&mut self, peer: P) -> Vec<BlockRef> {
        let dropped = self.outstanding.remove(&peer).unwrap_or_default();
        for b in &dropped {
            if let Some(state) = self.partial.get_mut(&b.piece) {
                state.drop_request(b.block_index() as usize);
            }
        }
        dropped
    }

    /// The peer disconnected; same bookkeeping as a choke.
    pub fn on_peer_gone(&mut self, peer: P) -> Vec<BlockRef> {
        self.on_choked(peer)
    }

    /// The peer explicitly rejected one request (Fast Extension
    /// `reject request`): release just that block for re-requesting.
    pub fn on_request_rejected(&mut self, peer: P, block: BlockRef) -> bool {
        let removed = self
            .outstanding
            .get_mut(&peer)
            .is_some_and(|list| take_outstanding(list, block));
        if removed {
            if let Some(state) = self.partial.get_mut(&block.piece) {
                state.drop_request(block.block_index() as usize);
            }
        }
        removed
    }

    /// Internal invariants, checked by the differential tests: the open
    /// bits are exactly `partial`'s keys, every piece's `free` equals a
    /// recount, `requested` counts exactly the copies in the per-peer
    /// lists, and no peer holds a block twice.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert!(
            self.open.iter_ones().eq(self.partial.keys().copied()),
            "open bits drifted from the open pieces"
        );
        for (&piece, state) in &self.partial {
            let free = (0..state.received.len())
                .filter(|&i| state.is_free(i))
                .count();
            assert_eq!(state.free as usize, free, "piece {piece}: free drifted");
            let received = state.received.iter().filter(|&&r| r).count();
            assert_eq!(state.received_count as usize, received);
            for idx in 0..state.received.len() {
                let block = self.geometry.block_ref(piece, idx as u32);
                let copies = self
                    .outstanding
                    .values()
                    .filter(|list| list.contains(&block))
                    .count();
                assert_eq!(
                    usize::from(state.requested[idx]),
                    copies,
                    "piece {piece} block {idx}: request count drifted"
                );
            }
        }
        for list in self.outstanding.values() {
            for (i, b) in list.iter().enumerate() {
                assert!(!list[..i].contains(b), "block outstanding twice to a peer");
                assert!(
                    self.partial.contains_key(&b.piece),
                    "outstanding block of a closed piece"
                );
            }
        }
    }
}

/// Request every free block of `piece` from the peer owning `mine`, until
/// `out` holds `cap` requests.
fn fill_from_piece(
    geometry: Geometry,
    piece: u32,
    state: &mut PartialPiece,
    mine: &mut Vec<BlockRef>,
    cap: usize,
    out: &mut Vec<BlockRef>,
) {
    for idx in 0..state.received.len() {
        if out.len() >= cap || state.free == 0 {
            return;
        }
        if state.is_free(idx) {
            let block = geometry.block_ref(piece, idx as u32);
            state.add_request(idx);
            mine.push(block);
            out.push(block);
        }
    }
}

/// End game's trigger: every piece we still need is in progress, and
/// every block of every open piece is received or requested.
fn all_blocks_requested(
    partial: &BTreeMap<u32, PartialPiece>,
    open: &Bitfield,
    ctx: &PickContext<'_>,
) -> bool {
    partial.values().all(|st| st.free == 0) && ctx.own.iter_zeros().all(|p| open.get(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::Availability;
    use crate::bitfield::Bitfield;
    use crate::picker::{RandomPicker, SequentialPicker};
    use bt_wire::metainfo::BLOCK_LEN;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    type Peer = u32;

    /// 4 pieces × 2 blocks of 16 kB.
    fn geometry() -> Geometry {
        Geometry::new(u64::from(8 * BLOCK_LEN), 2 * BLOCK_LEN)
    }

    struct Harness {
        own: Bitfield,
        remote: Bitfield,
        av: Availability,
        sched: RequestScheduler<Peer>,
        rng: SmallRng,
    }

    impl Harness {
        fn new() -> Harness {
            let g = geometry();
            let n = g.num_pieces();
            let mut av = Availability::new(n);
            av.add_peer(&Bitfield::full(n));
            Harness {
                own: Bitfield::new(n),
                remote: Bitfield::full(n),
                av,
                sched: RequestScheduler::new(g),
                rng: SmallRng::seed_from_u64(5),
            }
        }

        fn request(
            &mut self,
            peer: Peer,
            picker: &mut dyn PiecePicker,
            max: usize,
        ) -> Vec<BlockRef> {
            let ctx = PickContext {
                own: &self.own,
                remote: &self.remote,
                availability: &self.av,
                in_progress: &|_| false,
                downloaded_pieces: self.own.count_ones(),
            };
            self.sched
                .next_requests(peer, &ctx, picker, &mut self.rng, max)
        }
    }

    #[test]
    fn strict_priority_finishes_open_piece_first() {
        let mut h = Harness::new();
        let mut picker = SequentialPicker;
        let first = h.request(1, &mut picker, 1);
        assert_eq!(first.len(), 1);
        let piece = first[0].piece;
        // Next request (even from another peer) must be the open piece's
        // other block, not a new piece.
        let second = h.request(2, &mut picker, 1);
        assert_eq!(second[0].piece, piece);
        assert_ne!(second[0].offset, first[0].offset);
    }

    #[test]
    fn requests_are_not_duplicated_outside_endgame() {
        let mut h = Harness::new();
        let mut picker = RandomPicker;
        let a = h.request(1, &mut picker, 8);
        let b = h.request(2, &mut picker, 8);
        assert_eq!(a.len(), 8, "all blocks requested");
        assert!(
            b.is_empty() || h.sched.in_endgame(),
            "no duplicates before endgame"
        );
    }

    #[test]
    fn block_receipt_completes_piece() {
        let mut h = Harness::new();
        let mut picker = SequentialPicker;
        let reqs = h.request(1, &mut picker, 2);
        assert_eq!(reqs.len(), 2);
        let r1 = h.sched.on_block_received(1, reqs[0]);
        assert!(r1.accepted);
        assert_eq!(r1.completed_piece, None);
        let r2 = h.sched.on_block_received(1, reqs[1]);
        assert_eq!(r2.completed_piece, Some(reqs[0].piece));
        h.sched.on_piece_verified(reqs[0].piece);
        assert!(!h.sched.is_in_progress(reqs[0].piece));
    }

    #[test]
    fn unsolicited_block_is_rejected() {
        let mut h = Harness::new();
        let block = h.sched.geometry().block_ref(0, 0);
        let r = h.sched.on_block_received(9, block);
        assert!(!r.accepted);
    }

    #[test]
    fn endgame_duplicates_and_cancels() {
        let mut h = Harness::new();
        let mut picker = RandomPicker;
        // Peer 1 requests everything; torrent is now fully requested.
        let all = h.request(1, &mut picker, 64);
        assert_eq!(all.len(), 8);
        // Peer 2 now enters end game: duplicates of all 8 missing blocks.
        let dups = h.request(2, &mut picker, 64);
        assert!(h.sched.in_endgame());
        assert_eq!(dups.len(), 8);
        // Peer 2 must not be asked twice for the same block.
        let dups2 = h.request(2, &mut picker, 64);
        assert!(dups2.is_empty());
        // A block arriving from peer 1 cancels peer 2's duplicate.
        let receipt = h.sched.on_block_received(1, all[0]);
        assert!(receipt.accepted);
        assert_eq!(receipt.cancels, vec![(2, all[0])]);
        // The raced duplicate from peer 2 is then dropped.
        let dup_receipt = h.sched.on_block_received(2, all[0]);
        assert!(!dup_receipt.accepted);
    }

    #[test]
    fn choke_releases_blocks_for_rerequest() {
        let mut h = Harness::new();
        let mut picker = SequentialPicker;
        let reqs = h.request(1, &mut picker, 2);
        let dropped = h.sched.on_choked(1);
        assert_eq!(dropped.len(), 2);
        assert_eq!(h.sched.outstanding_to(1), 0);
        // The same blocks are re-requestable from another peer.
        let again = h.request(2, &mut picker, 2);
        let mut expected: Vec<_> = reqs.clone();
        expected.sort_by_key(|b| (b.piece, b.offset));
        let mut got = again.clone();
        got.sort_by_key(|b| (b.piece, b.offset));
        assert_eq!(got, expected);
    }

    #[test]
    fn hash_failure_resets_piece() {
        let mut h = Harness::new();
        let mut picker = SequentialPicker;
        let reqs = h.request(1, &mut picker, 2);
        h.sched.on_block_received(1, reqs[0]);
        let r = h.sched.on_block_received(1, reqs[1]);
        let piece = r.completed_piece.unwrap();
        h.sched.on_piece_failed(piece);
        assert!(h.sched.is_in_progress(piece));
        // Both blocks must be requestable again.
        let again = h.request(1, &mut picker, 2);
        assert_eq!(again.len(), 2);
        assert!(again.iter().all(|b| b.piece == piece));
    }

    #[test]
    fn respects_remote_bitfield() {
        let mut h = Harness::new();
        h.remote = Bitfield::new(4);
        h.remote.set(2);
        let mut picker = RandomPicker;
        let reqs = h.request(1, &mut picker, 64);
        assert!(reqs.iter().all(|b| b.piece == 2));
        assert_eq!(reqs.len(), 2);
    }

    #[test]
    fn max_new_caps_pipeline() {
        let mut h = Harness::new();
        let mut picker = RandomPicker;
        let reqs = h.request(1, &mut picker, 3);
        assert_eq!(reqs.len(), 3);
        assert_eq!(h.sched.outstanding_to(1), 3);
        assert_eq!(h.sched.total_outstanding(), 3);
    }

    #[test]
    fn endgame_not_triggered_while_unopened_pieces_remain() {
        let mut h = Harness::new();
        let mut picker = SequentialPicker;
        // Request only piece 0's blocks.
        let _ = h.request(1, &mut picker, 2);
        // Remote 2 has nothing: no requests, and no endgame either.
        h.remote = Bitfield::new(4);
        let none = h.request(2, &mut picker, 8);
        assert!(none.is_empty());
        assert!(!h.sched.in_endgame());
    }
}
