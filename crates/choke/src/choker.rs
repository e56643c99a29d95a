//! Peer selection strategies (choke algorithms).
//!
//! §II-C.2 describes two algorithms the reproduction must carry, plus two
//! baselines the paper argues against:
//!
//! * [`LeecherChoker`] — leecher state: every 10 s the 3 interested peers
//!   with the fastest download rate *to* the local peer are unchoked
//!   (regular unchokes, RU); every 30 s one additional interested peer is
//!   unchoked at random (the optimistic unchoke, OU).
//! * [`SeedChokerNew`] — seed state, mainline ≥ 4.0.0: peers are ordered
//!   by the time of their last unchoke, most recent first; for two
//!   consecutive 10 s periods the first 3 stay unchoked plus one random
//!   choked-and-interested peer (SRU); every third period the first 4 stay
//!   unchoked. Service time is equalised; upload rate is ignored.
//! * [`SeedChokerOld`] — seed state before 4.0.0: same shape as leecher
//!   state but ordered by upload rate *from* the local peer. The paper
//!   shows this favours fast (possibly free-riding) downloaders.
//! * [`TitForTatChoker`] — the bit-level tit-for-tat the literature
//!   proposed ([5], [10], [15]): refuse upload once the byte deficit
//!   exceeds a threshold. The paper's §IV-B.1 argues this strands excess
//!   capacity; the ablation bench demonstrates it.
//!
//! A choker is a pure decision procedure: given a snapshot of the peer set
//! it returns the set of peers that should be unchoked now. The engine
//! diffs that against current state to emit `choke`/`unchoke` messages.

use bt_wire::time::{Duration, Instant};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Handle identifying a remote peer inside one engine (dense index).
pub type PeerKey = u32;

/// Rechoke period: 10 seconds (§II-C.2).
pub const RECHOKE_PERIOD: Duration = Duration(10_000_000);

/// Number of regular unchoke slots (§II-C.2: "the 3 fastest peers").
pub const REGULAR_SLOTS: usize = 3;

/// Active peer set size: the regular slots plus one optimistic (or
/// seed-random) unchoke (§III-C: "default to 4").
const ACTIVE_SET: usize = REGULAR_SLOTS + 1;

/// The optimistic unchoke rotates every this many rechoke rounds
/// (3 × [`RECHOKE_PERIOD`] = 30 s, §II-C.2).
const OPTIMISTIC_ROUNDS: u64 = 3;

/// Snub threshold: a peer that has unchoked the local peer but delivered
/// no block for this long is *snubbed* (mainline anti-snubbing) and loses
/// regular-unchoke eligibility, keeping only the optimistic path.
pub const SNUB_THRESHOLD: Duration = Duration(60_000_000);

/// Snapshot of one remote peer, input to a rechoke round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerSnapshot {
    /// Engine handle for the peer.
    pub key: PeerKey,
    /// Is the remote peer interested in the local peer?
    pub interested: bool,
    /// Is the peer currently unchoked by the local peer?
    pub unchoked: bool,
    /// Estimated download rate from this peer to the local peer (B/s).
    pub download_rate: f64,
    /// Estimated upload rate from the local peer to this peer (B/s).
    pub upload_rate: f64,
    /// When the local peer last unchoked this peer, if ever.
    pub last_unchoked: Option<Instant>,
    /// Lifetime bytes the local peer uploaded to this peer.
    pub uploaded_to: u64,
    /// Lifetime bytes the local peer downloaded from this peer.
    pub downloaded_from: u64,
    /// The peer is snubbing the local peer (unchoked it but sent nothing
    /// for [`SNUB_THRESHOLD`]); it only qualifies for optimistic unchokes.
    pub snubbed: bool,
}

/// The decision of a rechoke round: exactly which peers are unchoked,
/// with the role each slot plays (for instrumentation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChokeDecision {
    /// Peers holding a regular-unchoke slot (rate-ordered, leecher state)
    /// or a seed-kept-unchoke slot (seed state).
    pub regular: Vec<PeerKey>,
    /// The optimistic-unchoke (leecher) or seed-random-unchoke (seed)
    /// holder, if one was selected this round.
    pub optimistic: Option<PeerKey>,
}

impl ChokeDecision {
    /// All unchoked peers, regular slots first.
    pub fn unchoked(&self) -> Vec<PeerKey> {
        let mut v = self.regular.clone();
        if let Some(o) = self.optimistic {
            if !v.contains(&o) {
                v.push(o);
            }
        }
        v
    }
}

/// A peer selection strategy.
pub trait Choker: Send {
    /// Run one rechoke round at `now` over the current peer snapshots.
    fn rechoke(
        &mut self,
        now: Instant,
        peers: &[PeerSnapshot],
        rng: &mut dyn rand::RngCore,
    ) -> ChokeDecision;

    /// Strategy name for harness output.
    fn name(&self) -> &'static str;
}

fn sort_by_rate_desc(keys: &mut [PeerSnapshot], rate: impl Fn(&PeerSnapshot) -> f64) {
    // Stable order with the peer key as tie-break keeps runs deterministic.
    keys.sort_by(|a, b| {
        rate(b)
            .partial_cmp(&rate(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.key.cmp(&b.key))
    });
}

fn choose_random_key(candidates: &[PeerKey], rng: &mut dyn rand::RngCore) -> Option<PeerKey> {
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.random_range(0..candidates.len())])
    }
}

/// Leecher-state choke algorithm (§II-C.2).
#[derive(Debug, Default)]
pub struct LeecherChoker {
    /// Round counter; every [`OPTIMISTIC_ROUNDS`] rounds rotates the OU.
    round: u64,
    current_optimistic: Option<PeerKey>,
}

impl LeecherChoker {
    /// The optimistic-unchoke holder carried between rounds.
    pub fn current_optimistic(&self) -> Option<PeerKey> {
        self.current_optimistic
    }
}

impl Choker for LeecherChoker {
    fn rechoke(
        &mut self,
        _now: Instant,
        peers: &[PeerSnapshot],
        rng: &mut dyn rand::RngCore,
    ) -> ChokeDecision {
        let rotate = self.round.is_multiple_of(OPTIMISTIC_ROUNDS);
        self.round += 1;

        // Step 1: the 3 fastest interested peers by download rate.
        // Snubbed peers are excluded from regular slots (anti-snubbing);
        // the optimistic path below can still reach them.
        let mut interested: Vec<PeerSnapshot> =
            peers.iter().copied().filter(|p| p.interested).collect();
        sort_by_rate_desc(&mut interested, |p| p.download_rate);
        let regular: Vec<PeerKey> = interested
            .iter()
            .filter(|p| !p.snubbed)
            .take(REGULAR_SLOTS)
            .map(|p| p.key)
            .collect();

        // Step 2: every 30 s, one additional interested peer at random.
        let alive = |k: PeerKey| peers.iter().any(|p| p.key == k && p.interested);
        if rotate || self.current_optimistic.is_none_or(|k| !alive(k)) {
            let candidates: Vec<PeerKey> = interested
                .iter()
                .map(|p| p.key)
                .filter(|k| !regular.contains(k))
                .collect();
            self.current_optimistic = choose_random_key(&candidates, rng);
        } else if let Some(o) = self.current_optimistic {
            // A promoted OU (now in the top 3) frees the optimistic slot.
            if regular.contains(&o) {
                let candidates: Vec<PeerKey> = interested
                    .iter()
                    .map(|p| p.key)
                    .filter(|k| !regular.contains(k))
                    .collect();
                self.current_optimistic = choose_random_key(&candidates, rng);
            }
        }
        ChokeDecision {
            regular,
            optimistic: self.current_optimistic,
        }
    }

    fn name(&self) -> &'static str {
        "leecher-choke"
    }
}

/// New seed-state choke algorithm (mainline ≥ 4.0.0, §II-C.2).
#[derive(Debug, Default)]
pub struct SeedChokerNew {
    /// Period counter within each 30 s cycle (0, 1 → SRU rounds; 2 → keep 4).
    round: u64,
}

impl Choker for SeedChokerNew {
    fn rechoke(
        &mut self,
        _now: Instant,
        peers: &[PeerSnapshot],
        rng: &mut dyn rand::RngCore,
    ) -> ChokeDecision {
        let phase = self.round % 3;
        self.round += 1;

        // Step 1: order unchoked-and-interested peers by time of last
        // unchoke, most recently unchoked first.
        let mut kept: Vec<PeerSnapshot> = peers
            .iter()
            .copied()
            .filter(|p| p.interested && p.unchoked)
            .collect();
        kept.sort_by(|a, b| {
            b.last_unchoked
                .cmp(&a.last_unchoked)
                .then(a.key.cmp(&b.key))
        });

        if phase < 2 {
            // Keep the 3 most recently unchoked; add one random
            // choked-and-interested peer (the SRU).
            let regular: Vec<PeerKey> = kept.iter().take(REGULAR_SLOTS).map(|p| p.key).collect();
            let candidates: Vec<PeerKey> = peers
                .iter()
                .filter(|p| p.interested && !p.unchoked && !regular.contains(&p.key))
                .map(|p| p.key)
                .collect();
            let sru = choose_random_key(&candidates, rng);
            ChokeDecision {
                regular,
                optimistic: sru,
            }
        } else {
            // Third period: keep the first 4, no random slot.
            let regular: Vec<PeerKey> = kept.iter().take(ACTIVE_SET).map(|p| p.key).collect();
            ChokeDecision {
                regular,
                optimistic: None,
            }
        }
    }

    fn name(&self) -> &'static str {
        "seed-choke-new"
    }
}

/// Old seed-state choke algorithm (mainline < 4.0.0): leecher-state shape
/// but ordered by *upload* rate from the local peer (§II-C.2).
#[derive(Debug, Default)]
pub struct SeedChokerOld {
    round: u64,
    current_optimistic: Option<PeerKey>,
}

impl Choker for SeedChokerOld {
    fn rechoke(
        &mut self,
        _now: Instant,
        peers: &[PeerSnapshot],
        rng: &mut dyn rand::RngCore,
    ) -> ChokeDecision {
        let rotate = self.round.is_multiple_of(OPTIMISTIC_ROUNDS);
        self.round += 1;

        let mut interested: Vec<PeerSnapshot> =
            peers.iter().copied().filter(|p| p.interested).collect();
        sort_by_rate_desc(&mut interested, |p| p.upload_rate);
        let regular: Vec<PeerKey> = interested
            .iter()
            .take(REGULAR_SLOTS)
            .map(|p| p.key)
            .collect();

        let alive = |k: PeerKey| peers.iter().any(|p| p.key == k && p.interested);
        if rotate
            || self.current_optimistic.is_none_or(|k| !alive(k))
            || self
                .current_optimistic
                .is_some_and(|k| regular.contains(&k))
        {
            let candidates: Vec<PeerKey> = interested
                .iter()
                .map(|p| p.key)
                .filter(|k| !regular.contains(k))
                .collect();
            self.current_optimistic = choose_random_key(&candidates, rng);
        }
        ChokeDecision {
            regular,
            optimistic: self.current_optimistic,
        }
    }

    fn name(&self) -> &'static str {
        "seed-choke-old"
    }
}

/// Bit-level tit-for-tat baseline (§IV-B.1).
///
/// "a peer A refuses to upload data to a peer B if the amount of bytes
/// uploaded by A to B minus the amount of bytes downloaded from B to A is
/// higher than a given threshold." Within the allowed peers, slots go to
/// the fastest downloaders; the deficit test is the binding constraint.
///
/// It unchokes up to [`ACTIVE_SET`] peers, matching the choke algorithm's
/// footprint.
#[derive(Debug, Default)]
pub struct TitForTatChoker;

/// Maximum deficit, in bytes, [`TitForTatChoker`] tolerates: four 16 kB
/// blocks — the strict byte-level reciprocation the proposals call for; a
/// loose threshold would amount to interest-free credit from every
/// partner and mask exactly the behaviour under study.
const TFT_THRESHOLD: u64 = 4 * 16 * 1024;

impl Choker for TitForTatChoker {
    fn rechoke(
        &mut self,
        _now: Instant,
        peers: &[PeerSnapshot],
        _rng: &mut dyn rand::RngCore,
    ) -> ChokeDecision {
        let mut eligible: Vec<PeerSnapshot> = peers
            .iter()
            .copied()
            .filter(|p| {
                p.interested && p.uploaded_to.saturating_sub(p.downloaded_from) <= TFT_THRESHOLD
            })
            .collect();
        sort_by_rate_desc(&mut eligible, |p| p.download_rate);
        ChokeDecision {
            regular: eligible.iter().take(ACTIVE_SET).map(|p| p.key).collect(),
            optimistic: None,
        }
    }

    fn name(&self) -> &'static str {
        "tit-for-tat"
    }
}

/// Strategy selector for harnesses and scenario configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChokerKind {
    /// [`LeecherChoker`] / [`SeedChokerNew`] — the paper's algorithms.
    Standard,
    /// Leecher state standard, but [`SeedChokerOld`] in seed state.
    OldSeed,
    /// [`TitForTatChoker`] in leecher state (old algorithm as seed).
    TitForTat,
}

impl ChokerKind {
    /// Build the leecher-state choker.
    pub fn build_leecher(&self) -> Box<dyn Choker> {
        match self {
            ChokerKind::Standard | ChokerKind::OldSeed => Box::<LeecherChoker>::default(),
            ChokerKind::TitForTat => Box::<TitForTatChoker>::default(),
        }
    }

    /// Build the seed-state choker.
    pub fn build_seed(&self) -> Box<dyn Choker> {
        match self {
            ChokerKind::Standard => Box::<SeedChokerNew>::default(),
            ChokerKind::OldSeed | ChokerKind::TitForTat => Box::<SeedChokerOld>::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn snap(key: PeerKey, interested: bool, dl: f64) -> PeerSnapshot {
        PeerSnapshot {
            key,
            interested,
            unchoked: false,
            download_rate: dl,
            upload_rate: 0.0,
            last_unchoked: None,
            uploaded_to: 0,
            downloaded_from: 0,
            snubbed: false,
        }
    }

    #[test]
    fn leecher_unchokes_three_fastest() {
        let peers: Vec<PeerSnapshot> = (0..6)
            .map(|k| snap(k, true, f64::from(k) * 100.0))
            .collect();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut choker = LeecherChoker::default();
        let d = choker.rechoke(Instant::ZERO, &peers, &mut rng);
        assert_eq!(d.regular, vec![5, 4, 3]);
        let ou = d.optimistic.unwrap();
        assert!(ou < 3, "OU must come from the choked interested peers");
        assert!(d.unchoked().len() <= 4);
    }

    #[test]
    fn leecher_ignores_uninterested_peers() {
        let mut peers: Vec<PeerSnapshot> = (0..4).map(|k| snap(k, false, 1000.0)).collect();
        peers.push(snap(9, true, 1.0));
        let mut rng = SmallRng::seed_from_u64(1);
        let mut choker = LeecherChoker::default();
        let d = choker.rechoke(Instant::ZERO, &peers, &mut rng);
        assert_eq!(d.regular, vec![9]);
        assert_eq!(d.optimistic, None, "no spare interested peer for OU");
    }

    #[test]
    fn optimistic_rotates_every_three_rounds() {
        let peers: Vec<PeerSnapshot> = (0..20)
            .map(|k| snap(k, true, if k < 3 { 1000.0 } else { 0.0 }))
            .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut choker = LeecherChoker::default();
        let d0 = choker.rechoke(Instant::ZERO, &peers, &mut rng);
        let d1 = choker.rechoke(Instant::from_secs(10), &peers, &mut rng);
        let d2 = choker.rechoke(Instant::from_secs(20), &peers, &mut rng);
        // Rounds 1 and 2 keep the same OU.
        assert_eq!(d0.optimistic, d1.optimistic);
        assert_eq!(d1.optimistic, d2.optimistic);
        // Over many 30 s cycles the OU visits many peers.
        let mut seen = std::collections::HashSet::new();
        for i in 0..60 {
            let d = choker.rechoke(Instant::from_secs(30 + i * 10), &peers, &mut rng);
            seen.insert(d.optimistic.unwrap());
        }
        assert!(seen.len() > 5, "OU rotation stuck: {seen:?}");
    }

    #[test]
    fn seed_new_keeps_recently_unchoked_and_rotates() {
        // 10 interested peers; peers 0–3 are unchoked with staggered
        // last-unchoke times (3 most recent).
        let mut peers: Vec<PeerSnapshot> = (0..10).map(|k| snap(k, true, 0.0)).collect();
        for (k, p) in peers.iter_mut().take(4).enumerate() {
            p.unchoked = true;
            p.last_unchoked = Some(Instant::from_secs(k as u64 * 10));
        }
        let mut rng = SmallRng::seed_from_u64(9);
        let mut choker = SeedChokerNew::default();
        // Phase 0: keep the 3 most recently unchoked (3, 2, 1) + random SRU.
        let d = choker.rechoke(Instant::from_secs(100), &peers, &mut rng);
        assert_eq!(d.regular, vec![3, 2, 1]);
        let sru = d.optimistic.unwrap();
        assert!(!d.regular.contains(&sru));
        assert!(!peers[sru as usize].unchoked, "SRU comes from choked peers");
        // Phase 2 keeps four, no SRU.
        let _ = choker.rechoke(Instant::from_secs(110), &peers, &mut rng);
        let d2 = choker.rechoke(Instant::from_secs(120), &peers, &mut rng);
        assert_eq!(d2.regular.len(), 4);
        assert_eq!(d2.optimistic, None);
    }

    #[test]
    fn seed_new_ignores_rates_entirely() {
        // A very fast downloader must get no advantage.
        let mut peers: Vec<PeerSnapshot> = (0..5).map(|k| snap(k, true, 0.0)).collect();
        peers[0].upload_rate = 1e9;
        peers[0].download_rate = 1e9;
        for p in peers.iter_mut() {
            p.unchoked = true;
            p.last_unchoked = Some(Instant::from_secs(u64::from(p.key)));
        }
        let mut rng = SmallRng::seed_from_u64(2);
        let mut choker = SeedChokerNew::default();
        let d = choker.rechoke(Instant::from_secs(50), &peers, &mut rng);
        // Ordering is purely by recency: 4, 3, 2 — not by rate.
        assert_eq!(d.regular, vec![4, 3, 2]);
    }

    #[test]
    fn seed_old_favors_fast_uploads() {
        let mut peers: Vec<PeerSnapshot> = (0..6).map(|k| snap(k, true, 0.0)).collect();
        for p in peers.iter_mut() {
            p.upload_rate = f64::from(p.key) * 10.0;
        }
        let mut rng = SmallRng::seed_from_u64(2);
        let mut choker = SeedChokerOld::default();
        let d = choker.rechoke(Instant::ZERO, &peers, &mut rng);
        assert_eq!(d.regular, vec![5, 4, 3]);
    }

    #[test]
    fn tft_blocks_peers_over_deficit() {
        let mut peers: Vec<PeerSnapshot> = (0..4).map(|k| snap(k, true, 100.0)).collect();
        peers[0].uploaded_to = 10_000_000; // huge deficit, never repaid
        peers[0].downloaded_from = 0;
        peers[1].uploaded_to = 10_000_000;
        peers[1].downloaded_from = 9_999_000; // almost square
        let mut rng = SmallRng::seed_from_u64(2);
        let mut choker = TitForTatChoker;
        let d = choker.rechoke(Instant::ZERO, &peers, &mut rng);
        assert!(!d.unchoked().contains(&0), "free rider must be refused");
        assert!(d.unchoked().contains(&1));
        assert!(d.unchoked().contains(&2));
    }

    #[test]
    fn snubbed_peers_lose_regular_slots() {
        let mut peers: Vec<PeerSnapshot> = (0..6)
            .map(|k| snap(k, true, f64::from(10 - k) * 100.0))
            .collect();
        // The fastest peer is snubbing us.
        peers[0].snubbed = true;
        let mut rng = SmallRng::seed_from_u64(4);
        let mut choker = LeecherChoker::default();
        let d = choker.rechoke(Instant::ZERO, &peers, &mut rng);
        assert_eq!(d.regular, vec![1, 2, 3], "snubbed peer skipped for RU");
        // It may still appear as the optimistic unchoke over many rounds.
        let mut ou_hits = 0;
        for i in 0..60 {
            let d = choker.rechoke(Instant::from_secs(10 * i), &peers, &mut rng);
            if d.optimistic == Some(0) {
                ou_hits += 1;
            }
        }
        assert!(ou_hits > 0, "snubbed peer must stay OU-eligible");
    }

    #[test]
    fn decision_unchoked_deduplicates() {
        let d = ChokeDecision {
            regular: vec![1, 2],
            optimistic: Some(2),
        };
        assert_eq!(d.unchoked(), vec![1, 2]);
        let d = ChokeDecision {
            regular: vec![1, 2],
            optimistic: Some(3),
        };
        assert_eq!(d.unchoked(), vec![1, 2, 3]);
    }

    #[test]
    fn kinds_build_expected_chokers() {
        assert_eq!(ChokerKind::Standard.build_leecher().name(), "leecher-choke");
        assert_eq!(ChokerKind::Standard.build_seed().name(), "seed-choke-new");
        assert_eq!(ChokerKind::OldSeed.build_seed().name(), "seed-choke-old");
        assert_eq!(ChokerKind::TitForTat.build_leecher().name(), "tit-for-tat");
    }
}
