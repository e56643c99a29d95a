//! The request scheduler as it was before the index-ordered rewrite:
//! `HashMap` of open pieces collected and sorted per call, a `HashSet`
//! of outstanding blocks per peer, no `free` count. Kept as it was (minus
//! three accessors nothing here calls) as the reference model that
//! `scheduler_diff.rs` drives in lockstep with
//! [`bt_piece::RequestScheduler`]; nothing outside the tests uses it.

use bt_piece::{BlockReceipt, Geometry, PickContext, PiecePicker};
use bt_wire::message::BlockRef;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Download state of one partially received piece.
#[derive(Debug, Clone)]
struct PartialPiece {
    /// Per-block: received?
    received: Vec<bool>,
    /// Per-block: number of outstanding requests (can exceed 1 in end game).
    requested: Vec<u16>,
    received_count: u32,
}

impl PartialPiece {
    fn new(blocks: u32) -> PartialPiece {
        PartialPiece {
            received: vec![false; blocks as usize],
            requested: vec![0; blocks as usize],
            received_count: 0,
        }
    }

    fn is_complete(&self) -> bool {
        self.received_count as usize == self.received.len()
    }
}

/// Block request scheduler for one torrent, generic over the peer key `P`.
#[derive(Debug)]
pub struct ReferenceScheduler<P: Copy + Eq + Ord + Hash> {
    geometry: Geometry,
    partial: HashMap<u32, PartialPiece>,
    outstanding: HashMap<P, HashSet<BlockRef>>,
    endgame: bool,
    endgame_enabled: bool,
}

impl<P: Copy + Eq + Ord + Hash> ReferenceScheduler<P> {
    /// Create a scheduler for a torrent with the given geometry.
    pub fn new(geometry: Geometry) -> Self {
        ReferenceScheduler {
            geometry,
            partial: HashMap::new(),
            outstanding: HashMap::new(),
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

    /// Whether end game mode has been entered (§II-C.1). It is sticky until
    /// the download completes, matching mainline.
    pub fn in_endgame(&self) -> bool {
        self.endgame
    }

    /// Pieces currently being downloaded.
    pub fn in_progress(&self) -> impl Iterator<Item = u32> + '_ {
        self.partial.keys().copied()
    }

    /// Outstanding requests to `peer`.
    pub fn outstanding_to(&self, peer: P) -> usize {
        self.outstanding.get(&peer).map_or(0, HashSet::len)
    }

    /// Total outstanding requests across all peers.
    pub fn total_outstanding(&self) -> usize {
        self.outstanding.values().map(HashSet::len).sum()
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
        if max_new == 0 {
            return out;
        }

        // 1. Strict priority: continue partial pieces the remote has.
        // Deterministic order (sorted piece index) keeps runs reproducible.
        let mut partial_pieces: Vec<u32> = self
            .partial
            .iter()
            .filter(|(_, st)| !st.is_complete())
            .map(|(&p, _)| p)
            .filter(|&p| p < ctx.remote.len() && ctx.remote.get(p))
            .collect();
        partial_pieces.sort_unstable();
        for piece in partial_pieces {
            self.fill_from_piece(peer, piece, max_new, &mut out);
            if out.len() >= max_new {
                return out;
            }
        }

        // 2. Open new pieces via the picker.
        while out.len() < max_new {
            let in_progress = |p: u32| self.partial.contains_key(&p) || (ctx.in_progress)(p);
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
            debug_assert!(
                !self.partial.contains_key(&piece),
                "picker reopened a piece"
            );
            self.partial.insert(
                piece,
                PartialPiece::new(self.geometry.blocks_in_piece(piece)),
            );
            self.fill_from_piece(peer, piece, max_new, &mut out);
        }
        if out.len() >= max_new {
            return out;
        }

        // 3. End game: all blocks of all wanted pieces requested or
        // received? Then duplicate-request missing blocks from this peer.
        if self.endgame_enabled && !self.endgame && self.all_blocks_requested(ctx) {
            self.endgame = true;
        }
        if self.endgame {
            self.fill_endgame(peer, ctx, max_new, &mut out);
        }
        out
    }

    /// Record a received block. Returns what to do next (verify a piece,
    /// send cancels) and whether the block was accepted at all.
    pub fn on_block_received(&mut self, peer: P, block: BlockRef) -> BlockReceipt<P> {
        let was_outstanding = self
            .outstanding
            .get_mut(&peer)
            .is_some_and(|set| set.remove(&block));
        let Some(state) = self.partial.get_mut(&block.piece) else {
            return BlockReceipt {
                completed_piece: None,
                cancels: Vec::new(),
                accepted: false,
            };
        };
        let idx = block.block_index() as usize;
        if idx >= state.received.len() {
            return BlockReceipt {
                completed_piece: None,
                cancels: Vec::new(),
                accepted: false,
            };
        }
        if was_outstanding {
            state.requested[idx] = state.requested[idx].saturating_sub(1);
        }
        if state.received[idx] {
            // End-game duplicate that raced its cancel: drop it.
            return BlockReceipt {
                completed_piece: None,
                cancels: Vec::new(),
                accepted: false,
            };
        }
        state.received[idx] = true;
        state.received_count += 1;
        let completed = state.is_complete().then_some(block.piece);

        // Cancel this block everywhere else (end game mode semantics).
        let mut cancels = Vec::new();
        if state.requested[idx] > 0 {
            for (&other, set) in self.outstanding.iter_mut() {
                if set.remove(&block) {
                    cancels.push((other, block));
                }
            }
            cancels.sort_unstable_by_key(|(p, _)| *p);
            self.partial
                .get_mut(&block.piece)
                .expect("still present")
                .requested[idx] = 0;
        }
        BlockReceipt {
            completed_piece: completed,
            cancels,
            accepted: true,
        }
    }

    /// The engine verified the completed piece's hash: drop its state.
    /// The caller updates its own bitfield; the scheduler forgets the piece.
    pub fn on_piece_verified(&mut self, piece: u32) {
        let state = self.partial.remove(&piece);
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
            for set in self.outstanding.values_mut() {
                set.retain(|b| b.piece != piece);
            }
        }
    }

    /// The peer choked us: mainline discards its outstanding requests.
    /// Returns the requests that were dropped (their blocks become
    /// requestable again).
    pub fn on_choked(&mut self, peer: P) -> Vec<BlockRef> {
        let dropped: Vec<BlockRef> = self
            .outstanding
            .remove(&peer)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        for b in &dropped {
            if let Some(state) = self.partial.get_mut(&b.piece) {
                let idx = b.block_index() as usize;
                state.requested[idx] = state.requested[idx].saturating_sub(1);
            }
        }
        dropped
    }

    /// The peer explicitly rejected one request (Fast Extension
    /// `reject request`): release just that block for re-requesting.
    pub fn on_request_rejected(&mut self, peer: P, block: BlockRef) -> bool {
        let removed = self
            .outstanding
            .get_mut(&peer)
            .is_some_and(|set| set.remove(&block));
        if removed {
            if let Some(state) = self.partial.get_mut(&block.piece) {
                let idx = block.block_index() as usize;
                state.requested[idx] = state.requested[idx].saturating_sub(1);
            }
        }
        removed
    }

    fn fill_from_piece(&mut self, peer: P, piece: u32, max: usize, out: &mut Vec<BlockRef>) {
        let state = self.partial.get_mut(&piece).expect("piece in progress");
        let blocks = state.received.len();
        for idx in 0..blocks {
            if out.len() >= max {
                return;
            }
            if !state.received[idx] && state.requested[idx] == 0 {
                let block = self.geometry.block_ref(piece, idx as u32);
                state.requested[idx] += 1;
                self.outstanding.entry(peer).or_default().insert(block);
                out.push(block);
            }
        }
    }

    fn all_blocks_requested(&self, ctx: &PickContext<'_>) -> bool {
        // Every piece we still need must be in progress...
        let all_open = ctx.own.iter_zeros().all(|p| self.partial.contains_key(&p));
        if !all_open {
            return false;
        }
        // ...and every block of every open piece received or requested.
        self.partial.values().all(|st| {
            st.received
                .iter()
                .zip(st.requested.iter())
                .all(|(&rcv, &req)| rcv || req > 0)
        })
    }

    fn fill_endgame(
        &mut self,
        peer: P,
        ctx: &PickContext<'_>,
        max: usize,
        out: &mut Vec<BlockRef>,
    ) {
        let mut pieces: Vec<u32> = self
            .partial
            .iter()
            .filter(|(_, st)| !st.is_complete())
            .map(|(&p, _)| p)
            .filter(|&p| p < ctx.remote.len() && ctx.remote.get(p))
            .collect();
        pieces.sort_unstable();
        for piece in pieces {
            let blocks = self.partial[&piece].received.len();
            for idx in 0..blocks {
                if out.len() >= max {
                    return;
                }
                let state = &self.partial[&piece];
                if state.received[idx] {
                    continue;
                }
                let block = self.geometry.block_ref(piece, idx as u32);
                let set = self.outstanding.entry(peer).or_default();
                if set.contains(&block) {
                    continue; // already asked this peer
                }
                set.insert(block);
                self.partial.get_mut(&piece).expect("present").requested[idx] += 1;
                out.push(block);
            }
        }
    }
}
