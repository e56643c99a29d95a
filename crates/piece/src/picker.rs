//! The piece-selection strategy interface.
//!
//! A picker chooses *which piece to start next* from a given remote peer.
//! Block-level concerns (strict priority, end game) live in the
//! [`crate::scheduler`], which consults the picker only when it needs to
//! open a new piece — mirroring the structure of the mainline client.

use crate::availability::Availability;
use crate::bitfield::Bitfield;
use rand::Rng;

/// Everything a picker may look at when choosing a piece.
pub struct PickContext<'a> {
    /// The local peer's verified pieces.
    pub own: &'a Bitfield,
    /// The remote peer's advertised pieces.
    pub remote: &'a Bitfield,
    /// Copy counts over the local peer set.
    pub availability: &'a Availability,
    /// Pieces already being downloaded (a picker must not re-open these;
    /// the scheduler handles their remaining blocks via strict priority).
    pub in_progress: &'a dyn Fn(u32) -> bool,
    /// Number of pieces the local peer has completed so far. The rarest
    /// first picker switches from the *random first policy* to rarest
    /// first once this reaches 4 (§II-C.1, §III-C).
    pub downloaded_pieces: u32,
}

impl<'a> PickContext<'a> {
    /// Iterate over pieces the remote has, we lack, and are not in progress.
    pub fn candidates(&self) -> impl Iterator<Item = u32> + '_ {
        let in_progress = self.in_progress;
        self.remote
            .iter_ones_andnot(self.own)
            .filter(move |&i| !in_progress(i))
    }
}

/// A piece selection strategy.
pub trait PiecePicker: Send {
    /// Choose the next piece to open from this remote peer, or `None` if
    /// no candidate exists.
    fn pick(&mut self, ctx: &PickContext<'_>, rng: &mut dyn rand::RngCore) -> Option<u32>;

    /// Human-readable strategy name (for harness output).
    fn name(&self) -> &'static str;

    /// Inject global per-piece copy counts. Only the global-knowledge
    /// oracle baseline uses this; everything else ignores it.
    fn update_global(&mut self, _counts: &[u32]) {}
}

/// Uniformly random choice among `items`, using `rng`.
pub(crate) fn choose_random(items: &[u32], rng: &mut dyn rand::RngCore) -> Option<u32> {
    if items.is_empty() {
        None
    } else {
        let idx = rng.random_range(0..items.len());
        Some(items[idx])
    }
}

/// **Rarest first** — the piece selection strategy of BitTorrent (§II-C.1).
///
/// * *Random first policy*: while fewer than [`RANDOM_FIRST_THRESHOLD`]
///   pieces have been downloaded, pick uniformly at random among
///   candidates, so the new peer gets its first pieces quickly and has
///   something to reciprocate with.
/// * Afterwards: compute the rarest pieces among the candidates and pick
///   one of them at random.
///
/// Strict priority and end game mode are block-level policies implemented
/// by the scheduler, not here.
#[derive(Debug, Clone, Copy, Default)]
pub struct RarestFirst;

/// Pieces downloaded via the random first policy before switching to
/// rarest first. Mainline default: 4 (§III-C).
pub const RANDOM_FIRST_THRESHOLD: u32 = 4;

impl PiecePicker for RarestFirst {
    fn pick(&mut self, ctx: &PickContext<'_>, rng: &mut dyn rand::RngCore) -> Option<u32> {
        if ctx.downloaded_pieces < RANDOM_FIRST_THRESHOLD {
            let candidates: Vec<u32> = ctx.candidates().collect();
            return choose_random(&candidates, rng);
        }
        let rarest = ctx
            .availability
            .rarest_among_fields(ctx.remote, ctx.own, ctx.in_progress);
        choose_random(&rarest, rng)
    }

    fn name(&self) -> &'static str {
        "rarest-first"
    }
}

/// **Random** — the baseline rarest first is compared against in the
/// literature ([5], [9] in the paper): pick uniformly among candidates.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomPicker;

impl PiecePicker for RandomPicker {
    fn pick(&mut self, ctx: &PickContext<'_>, rng: &mut dyn rand::RngCore) -> Option<u32> {
        let candidates: Vec<u32> = ctx.candidates().collect();
        choose_random(&candidates, rng)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// **Sequential** — an intentionally poor baseline (streaming-style
/// in-order download). Useful to show how badly entropy degrades when the
/// piece choice ignores rarity entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialPicker;

impl PiecePicker for SequentialPicker {
    fn pick(&mut self, ctx: &PickContext<'_>, _rng: &mut dyn rand::RngCore) -> Option<u32> {
        ctx.candidates().min()
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

/// **Global-rarest oracle** — a global-knowledge upper bound in the spirit
/// of the analytical models the paper cites ([21], [25]): rarity is taken
/// from a *global* copy count over the whole torrent rather than the local
/// peer set. Behaves like an idealised network-coding-free optimum; the
/// simulator injects the global counts.
#[derive(Debug, Clone)]
pub struct GlobalRarest {
    global_counts: Vec<u32>,
}

impl GlobalRarest {
    /// Create with an initial global count per piece.
    pub fn new(num_pieces: u32) -> GlobalRarest {
        GlobalRarest {
            global_counts: vec![0; num_pieces as usize],
        }
    }

    /// Replace the global counts (called by the simulator each round).
    pub fn update_counts(&mut self, counts: &[u32]) {
        debug_assert_eq!(counts.len(), self.global_counts.len());
        self.global_counts.clear();
        self.global_counts.extend_from_slice(counts);
    }
}

impl PiecePicker for GlobalRarest {
    fn update_global(&mut self, counts: &[u32]) {
        self.update_counts(counts);
    }

    fn pick(&mut self, ctx: &PickContext<'_>, rng: &mut dyn rand::RngCore) -> Option<u32> {
        let mut best = u32::MAX;
        let mut rarest = Vec::new();
        for i in ctx.candidates() {
            let c = self.global_counts.get(i as usize).copied().unwrap_or(0);
            match c.cmp(&best) {
                std::cmp::Ordering::Less => {
                    best = c;
                    rarest.clear();
                    rarest.push(i);
                }
                std::cmp::Ordering::Equal => rarest.push(i),
                std::cmp::Ordering::Greater => {}
            }
        }
        choose_random(&rarest, rng)
    }

    fn name(&self) -> &'static str {
        "global-rarest"
    }
}

/// The strategies available to harnesses and examples, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PickerKind {
    /// [`RarestFirst`] with mainline defaults.
    RarestFirst,
    /// [`RandomPicker`].
    Random,
    /// [`SequentialPicker`].
    Sequential,
    /// [`GlobalRarest`].
    GlobalRarest,
}

impl PickerKind {
    /// Instantiate the picker for a torrent of `num_pieces`.
    pub fn build(&self, num_pieces: u32) -> Box<dyn PiecePicker> {
        match self {
            PickerKind::RarestFirst => Box::new(RarestFirst),
            PickerKind::Random => Box::new(RandomPicker),
            PickerKind::Sequential => Box::new(SequentialPicker),
            PickerKind::GlobalRarest => Box::new(GlobalRarest::new(num_pieces)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn bf(len: u32, ones: &[u32]) -> Bitfield {
        let mut b = Bitfield::new(len);
        for &i in ones {
            b.set(i);
        }
        b
    }

    struct Setup {
        own: Bitfield,
        remote: Bitfield,
        av: Availability,
        in_progress: HashSet<u32>,
        downloaded: u32,
    }

    impl Setup {
        fn pick(&self, picker: &mut dyn PiecePicker, rng: &mut dyn rand::RngCore) -> Option<u32> {
            let in_prog = |p: u32| self.in_progress.contains(&p);
            let ctx = PickContext {
                own: &self.own,
                remote: &self.remote,
                availability: &self.av,
                in_progress: &in_prog,
                downloaded_pieces: self.downloaded,
            };
            picker.pick(&ctx, rng)
        }
    }

    fn setup() -> Setup {
        let n = 8;
        let mut av = Availability::new(n);
        // Peer set: piece 5 has 1 copy, pieces 0–4 have 3, 6–7 have 2.
        av.add_peer(&bf(n, &[0, 1, 2, 3, 4, 5, 6, 7]));
        av.add_peer(&bf(n, &[0, 1, 2, 3, 4, 6, 7]));
        av.add_peer(&bf(n, &[0, 1, 2, 3, 4]));
        Setup {
            own: bf(n, &[0]),
            remote: bf(n, &[0, 1, 2, 3, 4, 5, 6, 7]),
            av,
            in_progress: HashSet::new(),
            downloaded: 10,
        }
    }

    #[test]
    fn rarest_first_picks_the_rarest_candidate() {
        let s = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut picker = RarestFirst;
        // Piece 5 is the unique rarest candidate.
        for _ in 0..10 {
            assert_eq!(s.pick(&mut picker, &mut rng), Some(5));
        }
    }

    #[test]
    fn rarest_first_skips_in_progress_and_owned() {
        let mut s = setup();
        s.in_progress.insert(5);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut picker = RarestFirst;
        // Next-rarest are 6 and 7 (2 copies each).
        let picked = s.pick(&mut picker, &mut rng).unwrap();
        assert!(picked == 6 || picked == 7);
        // Own piece 0 is never picked.
        for _ in 0..20 {
            assert_ne!(s.pick(&mut picker, &mut rng), Some(0));
        }
    }

    #[test]
    fn random_first_policy_spreads_choices() {
        let mut s = setup();
        s.downloaded = 0; // below threshold → random first
        let mut rng = SmallRng::seed_from_u64(42);
        let mut picker = RarestFirst;
        let picks: HashSet<u32> = (0..100)
            .filter_map(|_| s.pick(&mut picker, &mut rng))
            .collect();
        // Random-first should not fixate on the rarest piece.
        assert!(picks.len() > 3, "random first policy chose only {picks:?}");
    }

    #[test]
    fn random_picker_ignores_rarity() {
        let s = setup();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut picker = RandomPicker;
        let picks: Vec<u32> = (0..200)
            .filter_map(|_| s.pick(&mut picker, &mut rng))
            .collect();
        let rare = picks.iter().filter(|&&p| p == 5).count();
        // With 7 candidates, piece 5 should appear ≈ 1/7 of the time.
        assert!(rare > 5 && rare < 80, "rare piece picked {rare}/200 times");
    }

    #[test]
    fn sequential_picks_lowest_index() {
        let s = setup();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut picker = SequentialPicker;
        assert_eq!(s.pick(&mut picker, &mut rng), Some(1));
    }

    #[test]
    fn global_rarest_uses_injected_counts() {
        let s = setup();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut picker = GlobalRarest::new(8);
        picker.update_counts(&[9, 9, 9, 9, 9, 9, 9, 1]);
        assert_eq!(s.pick(&mut picker, &mut rng), Some(7));
    }

    #[test]
    fn no_candidates_yields_none() {
        let mut s = setup();
        s.own = Bitfield::full(8);
        let mut rng = SmallRng::seed_from_u64(7);
        for kind in [
            PickerKind::RarestFirst,
            PickerKind::Random,
            PickerKind::Sequential,
            PickerKind::GlobalRarest,
        ] {
            let mut p = kind.build(8);
            assert_eq!(s.pick(p.as_mut(), &mut rng), None, "{}", p.name());
        }
    }
}
