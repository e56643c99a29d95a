//! The simulated tracker.
//!
//! §II-B: "the tracker ... keeps track of the peers currently involved in
//! the torrent and collects statistics". A joining peer receives "a list
//! of IP addresses of peers ... typically 50 peers chosen at random".
//!
//! The model keeps the live peer registry and serves announce requests.
//! Responses go through the *real* compact bencoded encoding and back
//! (`bt_wire::tracker`), so the wire format is exercised on every
//! announce.

use bt_wire::peer_id::IpAddr;
use bt_wire::tracker::{AnnounceEvent, AnnounceResponse, PeerEntry, ANNOUNCE_INTERVAL_SECS};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Index of a peer in the swarm's peer table.
pub type PeerIdx = usize;

#[derive(Debug, Clone, Copy)]
struct Registered {
    ip: IpAddr,
    port: u16,
    is_seed: bool,
}

/// The tracker's view of one torrent.
///
/// Peer indices are dense (the swarm's peer-table indices), so the
/// registry is a slot vector plus an unordered `live` list with an
/// inverse position map: register, deregister, seed/leecher counts are
/// all O(1), and announce responses sample from `live` directly.
#[derive(Debug, Default)]
pub struct SimTracker {
    /// Registration slots, indexed by `PeerIdx` (grown on demand).
    regs: Vec<Option<Registered>>,
    /// Registered peer indices, unordered within each region: seeds in
    /// `live[..part]`, leechers in `live[part..]` (swap-maintained).
    live: Vec<PeerIdx>,
    /// `live_pos[idx]` = position of `idx` in `live`, when registered.
    live_pos: Vec<Option<u32>>,
    /// Seed/leecher partition point: `live[..part]` are the seeds.
    part: usize,
    /// Sample announce responses with an O(num_want) partial shuffle of
    /// the `live` list instead of the legacy sort-shuffle-truncate over
    /// every registered peer. Off by default: the legacy path's RNG draw
    /// sequence is part of the golden-trace contract, so only mega-swarm
    /// scenarios (which have no prior goldens) opt in. One sampler would
    /// do, but merging them re-goldens the Table I traces, which the
    /// frozen `benchmark/` pins at seed 42, and it times each on its own
    /// (`sim.announce_ns.legacy` / `.scalable`): both stay until a
    /// `benchmark` PR moves those.
    pub scalable_sampling: bool,
    /// Announce tallies per event kind, mirroring real tracker statistics.
    pub started: u64,
    /// Number of `completed` announces observed.
    pub completed: u64,
    /// Number of `stopped` announces observed.
    pub stopped: u64,
}

impl SimTracker {
    /// An empty tracker.
    pub fn new() -> SimTracker {
        SimTracker::default()
    }

    /// Current number of seeds (`complete` in tracker responses).
    pub fn num_seeds(&self) -> u32 {
        self.part as u32
    }

    /// Current number of leechers (`incomplete`).
    pub fn num_leechers(&self) -> u32 {
        (self.live.len() - self.part) as u32
    }

    /// Total registered peers.
    pub fn num_peers(&self) -> usize {
        self.live.len()
    }

    fn swap_live(&mut self, a: usize, b: usize) {
        self.live.swap(a, b);
        self.live_pos[self.live[a]] = Some(a as u32);
        self.live_pos[self.live[b]] = Some(b as u32);
    }

    /// Move a registered leecher into the seed region.
    fn promote(&mut self, peer: PeerIdx) {
        let pos = self.live_pos[peer].expect("registered") as usize;
        debug_assert!(pos >= self.part);
        self.swap_live(pos, self.part);
        self.part += 1;
    }

    fn register(&mut self, peer: PeerIdx, r: Registered) {
        if self.regs.len() <= peer {
            self.regs.resize_with(peer + 1, || None);
            self.live_pos.resize(peer + 1, None);
        }
        match self.regs[peer].replace(r) {
            Some(old) => match (old.is_seed, r.is_seed) {
                (false, true) => self.promote(peer),
                (true, false) => {
                    // Seed back to leecher (a restart from scratch).
                    let pos = self.live_pos[peer].expect("registered") as usize;
                    self.part -= 1;
                    self.swap_live(pos, self.part);
                }
                _ => {}
            },
            None => {
                self.live_pos[peer] = Some(self.live.len() as u32);
                self.live.push(peer);
                if r.is_seed {
                    self.promote(peer);
                }
            }
        }
    }

    /// Handle an announce. Returns the peer list (already round-tripped
    /// through the compact wire encoding), or `None` for `stopped`.
    #[allow(clippy::too_many_arguments)] // mirrors the announce request fields
    pub fn announce(
        &mut self,
        peer: PeerIdx,
        ip: IpAddr,
        port: u16,
        is_seed: bool,
        event: AnnounceEvent,
        num_want: usize,
        rng: &mut SmallRng,
    ) -> Option<AnnounceResponse> {
        match event {
            AnnounceEvent::Started => self.started += 1,
            AnnounceEvent::Completed => self.completed += 1,
            AnnounceEvent::Stopped => self.stopped += 1,
            AnnounceEvent::Periodic => {}
        }
        if matches!(event, AnnounceEvent::Stopped) {
            self.remove(peer);
            return None;
        }
        self.register(peer, Registered { ip, port, is_seed });

        // Random sample of other peers. Seeds are not returned to seeds —
        // the standard deployed-tracker optimisation (a seed↔seed
        // connection carries nothing and both ends drop it immediately).
        let others = if self.scalable_sampling {
            self.sample_scalable(peer, is_seed, num_want, rng)
        } else {
            self.sample_legacy(peer, is_seed, num_want, rng)
        };

        let response = AnnounceResponse {
            interval: ANNOUNCE_INTERVAL_SECS,
            complete: self.num_seeds(),
            incomplete: self.num_leechers(),
            peers: others,
        };
        // Exercise the real compact encoding on every announce.
        let encoded = response.encode_compact();
        Some(AnnounceResponse::decode_compact(&encoded).expect("self-encoded response decodes"))
    }

    /// The original sampling: materialise every eligible peer, sort for
    /// determinism, full Fisher–Yates shuffle, truncate. O(n log n) per
    /// announce and exactly the RNG draw sequence the golden traces and
    /// the benchmark's Table I pins fix (see `scalable_sampling`).
    fn sample_legacy(
        &self,
        peer: PeerIdx,
        is_seed: bool,
        num_want: usize,
        rng: &mut SmallRng,
    ) -> Vec<PeerEntry> {
        let mut others: Vec<PeerEntry> = self
            .live
            .iter()
            .map(|&idx| (idx, self.regs[idx].expect("live peers are registered")))
            .filter(|&(idx, r)| idx != peer && !(is_seed && r.is_seed))
            .map(|(_, r)| PeerEntry {
                ip: r.ip,
                port: r.port,
            })
            .collect();
        others.sort_by_key(|p| (p.ip, p.port)); // determinism before shuffle
        others.shuffle(rng);
        others.truncate(num_want);
        others
    }

    /// Scalable sampling: rejection-sample distinct positions uniformly
    /// from the eligible region of `live` — the whole list for a leecher,
    /// the leecher region for a seed (seed↔seed is never returned). Cost
    /// is O(num_want) expected, independent of swarm size, and `live` is
    /// never reordered. The draw-attempt cap guarantees termination when
    /// the region is barely larger than `num_want` (the response may then
    /// miss a few eligible peers — the next announce redraws). The draw
    /// sequence is a pure function of the announce history, so runs stay
    /// byte-identical; it *differs* from the legacy path, which is why
    /// this is opt-in per scenario.
    fn sample_scalable(
        &mut self,
        peer: PeerIdx,
        is_seed: bool,
        num_want: usize,
        rng: &mut SmallRng,
    ) -> Vec<PeerEntry> {
        // Seeds draw from the leecher region only.
        let lo = if is_seed { self.part } else { 0 };
        let region = self.live.len() - lo;
        let in_region = self.live_pos[peer].is_some_and(|p| p as usize >= lo);
        let eligible = region - usize::from(in_region);
        let target = num_want.min(eligible);
        let mut out = Vec::with_capacity(target);
        let mut drawn: Vec<u32> = Vec::with_capacity(target);
        let mut attempts = 0usize;
        let cap = 16 + 8 * num_want;
        while out.len() < target && attempts < cap {
            attempts += 1;
            let j = lo + rng.random_range(0..region);
            let j32 = j as u32;
            if drawn.contains(&j32) {
                continue;
            }
            drawn.push(j32);
            let idx = self.live[j];
            if idx == peer {
                continue;
            }
            let r = self.regs[idx].expect("live peers are registered");
            out.push(PeerEntry {
                ip: r.ip,
                port: r.port,
            });
        }
        out
    }

    /// Mark a peer as having become a seed without a full announce (used
    /// when the simulator observes the transition directly).
    pub fn mark_seed(&mut self, peer: PeerIdx) {
        match self.regs.get_mut(peer).and_then(|r| r.as_mut()) {
            Some(r) if !r.is_seed => {
                r.is_seed = true;
                self.promote(peer);
            }
            _ => {}
        }
    }

    /// Remove a peer (departure without a clean `stopped` announce).
    pub fn remove(&mut self, peer: PeerIdx) {
        let Some(old) = self.regs.get_mut(peer).and_then(|r| r.take()) else {
            return;
        };
        let mut at = self.live_pos[peer].expect("registered peers are live") as usize;
        if old.is_seed {
            // Slide to the seed-region boundary, shrink the region, then
            // the vacated slot sits at the start of the leecher region.
            self.part -= 1;
            self.swap_live(at, self.part);
            at = self.part;
        }
        self.live_pos[peer] = None;
        self.live.swap_remove(at);
        if at < self.live.len() {
            self.live_pos[self.live[at]] = Some(at as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn registers_and_counts() {
        let mut t = SimTracker::new();
        let mut r = rng();
        t.announce(0, IpAddr(1), 6881, true, AnnounceEvent::Started, 50, &mut r);
        t.announce(
            1,
            IpAddr(2),
            6881,
            false,
            AnnounceEvent::Started,
            50,
            &mut r,
        );
        assert_eq!(t.num_seeds(), 1);
        assert_eq!(t.num_leechers(), 1);
        assert_eq!(t.started, 2);
    }

    #[test]
    fn response_excludes_requester_and_caps_size() {
        let mut t = SimTracker::new();
        let mut r = rng();
        for i in 0..100 {
            t.announce(
                i,
                IpAddr(i as u32 + 1),
                6881,
                false,
                AnnounceEvent::Started,
                0,
                &mut r,
            );
        }
        let resp = t
            .announce(
                0,
                IpAddr(1),
                6881,
                false,
                AnnounceEvent::Periodic,
                50,
                &mut r,
            )
            .unwrap();
        assert_eq!(resp.peers.len(), 50);
        assert!(resp.peers.iter().all(|p| p.ip != IpAddr(1)));
        assert_eq!(resp.incomplete, 100);
    }

    #[test]
    fn stopped_removes_peer() {
        let mut t = SimTracker::new();
        let mut r = rng();
        t.announce(
            0,
            IpAddr(1),
            6881,
            false,
            AnnounceEvent::Started,
            50,
            &mut r,
        );
        assert!(t
            .announce(
                0,
                IpAddr(1),
                6881,
                false,
                AnnounceEvent::Stopped,
                50,
                &mut r
            )
            .is_none());
        assert_eq!(t.num_peers(), 0);
        assert_eq!(t.stopped, 1);
    }

    #[test]
    fn seeds_are_not_returned_to_seeds() {
        let mut t = SimTracker::new();
        let mut r = rng();
        for i in 0..5 {
            t.announce(
                i,
                IpAddr(i as u32 + 1),
                6881,
                true,
                AnnounceEvent::Started,
                50,
                &mut r,
            );
        }
        for i in 5..8 {
            t.announce(
                i,
                IpAddr(i as u32 + 1),
                6881,
                false,
                AnnounceEvent::Started,
                50,
                &mut r,
            );
        }
        // A seed announcing sees only the 3 leechers.
        let resp = t
            .announce(
                0,
                IpAddr(1),
                6881,
                true,
                AnnounceEvent::Periodic,
                50,
                &mut r,
            )
            .unwrap();
        assert_eq!(resp.peers.len(), 3);
        // A leecher still sees everyone else.
        let resp = t
            .announce(
                5,
                IpAddr(6),
                6881,
                false,
                AnnounceEvent::Periodic,
                50,
                &mut r,
            )
            .unwrap();
        assert_eq!(resp.peers.len(), 7);
    }

    #[test]
    fn completed_flips_seed_status() {
        let mut t = SimTracker::new();
        let mut r = rng();
        t.announce(
            0,
            IpAddr(1),
            6881,
            false,
            AnnounceEvent::Started,
            50,
            &mut r,
        );
        t.announce(
            0,
            IpAddr(1),
            6881,
            true,
            AnnounceEvent::Completed,
            50,
            &mut r,
        );
        assert_eq!(t.num_seeds(), 1);
        assert_eq!(t.completed, 1);
    }

    #[test]
    fn mark_seed_and_remove() {
        let mut t = SimTracker::new();
        let mut r = rng();
        t.announce(
            3,
            IpAddr(9),
            6881,
            false,
            AnnounceEvent::Started,
            50,
            &mut r,
        );
        t.mark_seed(3);
        assert_eq!(t.num_seeds(), 1);
        t.remove(3);
        assert_eq!(t.num_peers(), 0);
    }
}
