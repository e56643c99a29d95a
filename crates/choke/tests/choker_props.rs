//! Property-based tests over the choke algorithms: for arbitrary peer
//! populations, every strategy's decision respects the §II-C.2 slot
//! structure.

use bt_choke::{ChokeDecision, ChokerKind, PeerSnapshot, REGULAR_SLOTS};
use bt_wire::time::Instant;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_snapshot(key: u32) -> impl Strategy<Value = PeerSnapshot> {
    (
        any::<bool>(),
        any::<bool>(),
        0.0f64..1e6,
        0.0f64..1e6,
        proptest::option::of(0u64..10_000),
        0u64..50_000_000,
        0u64..50_000_000,
        any::<bool>(),
    )
        .prop_map(
            move |(interested, unchoked, dl, ul, last, up, down, snubbed)| PeerSnapshot {
                key,
                interested,
                unchoked,
                download_rate: dl,
                upload_rate: ul,
                last_unchoked: last.map(Instant::from_secs),
                uploaded_to: up,
                downloaded_from: down,
                snubbed,
            },
        )
}

fn arb_peers() -> impl Strategy<Value = Vec<PeerSnapshot>> {
    (0usize..40).prop_flat_map(|n| (0..n as u32).map(arb_snapshot).collect::<Vec<_>>())
}

fn check_decision(d: &ChokeDecision, peers: &[PeerSnapshot], slots: usize) {
    let unchoked = d.unchoked();
    // No duplicates.
    let mut dedup = unchoked.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), unchoked.len(), "duplicate unchoke");
    // Bounded by the slot budget (+1 for the optimistic slot).
    assert!(
        unchoked.len() <= slots + 1,
        "too many unchoked: {unchoked:?}"
    );
    // Every unchoked peer exists and is interested.
    for key in &unchoked {
        let p = peers
            .iter()
            .find(|p| p.key == *key)
            .expect("unknown peer unchoked");
        assert!(p.interested, "unchoked a peer that is not interested");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The leecher choker's structural invariants hold for any population
    /// over many consecutive rounds.
    #[test]
    fn leecher_choker_invariants(peers in arb_peers(), seed in 0u64..1000, rounds in 1u64..10) {
        let mut choker = ChokerKind::Standard.build_leecher();
        let mut rng = SmallRng::seed_from_u64(seed);
        for r in 0..rounds {
            let d = choker.rechoke(Instant::from_secs(r * 10), &peers, &mut rng);
            check_decision(&d, &peers, REGULAR_SLOTS);
            // Regular slots never go to snubbed peers.
            for key in &d.regular {
                let p = peers.iter().find(|p| p.key == *key).unwrap();
                prop_assert!(!p.snubbed, "snubbed peer got a regular slot");
            }
            // Regular slots are the fastest non-snubbed interested peers.
            let mut eligible: Vec<&PeerSnapshot> =
                peers.iter().filter(|p| p.interested && !p.snubbed).collect();
            eligible.sort_by(|a, b| {
                b.download_rate.partial_cmp(&a.download_rate).unwrap().then(a.key.cmp(&b.key))
            });
            let expected: Vec<u32> =
                eligible.iter().take(REGULAR_SLOTS).map(|p| p.key).collect();
            prop_assert_eq!(&d.regular, &expected);
        }
    }

    /// The new seed-state choker's invariants: at most 4 unchoked, all
    /// interested, no duplicates, rates never consulted.
    #[test]
    fn seed_choker_new_invariants(peers in arb_peers(), seed in 0u64..1000, rounds in 1u64..10) {
        let mut choker = ChokerKind::Standard.build_seed();
        let mut rng = SmallRng::seed_from_u64(seed);
        for r in 0..rounds {
            let d = choker.rechoke(Instant::from_secs(r * 10), &peers, &mut rng);
            check_decision(&d, &peers, REGULAR_SLOTS.max(4));
            prop_assert!(d.unchoked().len() <= 4);
        }
    }

    /// The old seed-state choker and tit-for-tat obey the same structure.
    #[test]
    fn baseline_chokers_invariants(peers in arb_peers(), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut old_seed = ChokerKind::OldSeed.build_seed();
        let d = old_seed.rechoke(Instant::ZERO, &peers, &mut rng);
        check_decision(&d, &peers, REGULAR_SLOTS);
        let mut tft = ChokerKind::TitForTat.build_leecher();
        let d = tft.rechoke(Instant::ZERO, &peers, &mut rng);
        check_decision(&d, &peers, 4);
        // TFT never unchokes a peer beyond the deficit threshold.
        for key in d.unchoked() {
            let p = peers.iter().find(|p| p.key == key).unwrap();
            prop_assert!(
                p.uploaded_to.saturating_sub(p.downloaded_from) <= 4 * 16 * 1024,
                "TFT unchoked a peer over the deficit threshold"
            );
        }
    }

    /// No choker, in leecher or seed state, puts its optimistic peer
    /// among the regular ones — so `Engine::rechoke` may classify a peer
    /// as regular or optimistic in either order. The population changes
    /// every round, so a carried optimistic peer can rise into the top
    /// rates.
    #[test]
    fn optimistic_peer_is_never_regular(
        populations in proptest::collection::vec(arb_peers(), 1..10),
        seed in 0u64..1000,
    ) {
        for kind in [ChokerKind::Standard, ChokerKind::OldSeed, ChokerKind::TitForTat] {
            for mut choker in [kind.build_leecher(), kind.build_seed()] {
                let mut rng = SmallRng::seed_from_u64(seed);
                for (r, peers) in populations.iter().enumerate() {
                    let d = choker.rechoke(Instant::from_secs(r as u64 * 10), peers, &mut rng);
                    prop_assert!(
                        d.optimistic.is_none_or(|o| !d.regular.contains(&o)),
                        "{:?} {}: optimistic {:?} among regular {:?}",
                        kind,
                        choker.name(),
                        d.optimistic,
                        d.regular
                    );
                }
            }
        }
    }

    /// Chokers are deterministic given the same RNG seed and inputs.
    #[test]
    fn chokers_are_deterministic(peers in arb_peers(), seed in 0u64..1000) {
        for kind in [ChokerKind::Standard, ChokerKind::OldSeed, ChokerKind::TitForTat] {
            let mut a = kind.build_leecher();
            let mut b = kind.build_leecher();
            let mut rng_a = SmallRng::seed_from_u64(seed);
            let mut rng_b = SmallRng::seed_from_u64(seed);
            for r in 0..5u64 {
                let da = a.rechoke(Instant::from_secs(r * 10), &peers, &mut rng_a);
                let db = b.rechoke(Instant::from_secs(r * 10), &peers, &mut rng_b);
                prop_assert_eq!(da, db);
            }
        }
    }
}
