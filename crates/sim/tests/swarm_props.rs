//! Property-based tests over whole swarms: for arbitrary (bounded)
//! populations and seeds, runs terminate and conserve the protocol's
//! basic accounting.

use bt_instrument::trace::TraceEvent;
use bt_sim::{BehaviorProfile, CapacityClass, Role, Swarm, SwarmSpec};
use bt_wire::peer_id::ClientKind;
use bt_wire::time::Duration;
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
struct PeerGene {
    role: u8,
    capacity: u8,
    join_secs: u64,
    prepopulate: bool,
}

fn arb_peer() -> impl Strategy<Value = PeerGene> {
    (0u8..4, 0u8..3, 0u64..120, any::<bool>()).prop_map(
        |(role, capacity, join_secs, prepopulate)| PeerGene {
            role,
            capacity,
            join_secs,
            prepopulate,
        },
    )
}

fn build(genes: &[PeerGene], seed: u64, pieces: u32) -> SwarmSpec {
    let mut peers = vec![BehaviorProfile::seed()]; // always one seed
    for g in genes {
        let role = match g.role {
            0 | 1 => Role::Leecher,
            2 => Role::FreeRider,
            _ => Role::Churner,
        };
        let capacity = match g.capacity {
            0 => CapacityClass::Dsl,
            1 => CapacityClass::Cable,
            _ => CapacityClass::Default,
        };
        peers.push(BehaviorProfile {
            role,
            client: ClientKind::Mainline402,
            capacity,
            join_at: Duration::from_secs(g.join_secs),
            seed_linger: Some(Duration::from_secs(600)),
            prepopulate: g.prepopulate,
            restart_after: None,
        });
    }
    SwarmSpec {
        seed,
        total_len: u64::from(pieces) * 256 * 1024,
        piece_len: 256 * 1024,
        duration: Duration::from_secs(2500),
        peers,
        local: Some(1),
        ..SwarmSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any bounded random swarm terminates, and the instrumented trace
    /// obeys the core accounting invariants.
    #[test]
    fn random_swarms_conserve_accounting(
        genes in proptest::collection::vec(arb_peer(), 2..8),
        seed in 0u64..10_000,
        pieces in 4u32..10,
    ) {
        let spec = build(&genes, seed, pieces);
        let result = Swarm::new(spec).run();
        let trace = result.trace.expect("peer 1 instrumented");

        // Unique accepted blocks; pieces completed at most once; piece
        // completions require all their blocks.
        let mut blocks: HashSet<(u32, u32)> = HashSet::new();
        let mut completed: HashSet<u32> = HashSet::new();
        for (_, ev) in trace.iter() {
            match ev {
                TraceEvent::BlockReceived { block, .. } => {
                    prop_assert!(blocks.insert((block.piece, block.offset)),
                        "duplicate accepted block");
                }
                TraceEvent::PieceCompleted { piece } => {
                    prop_assert!(completed.insert(*piece), "piece completed twice");
                }
                _ => {}
            }
        }
        for piece in &completed {
            // 256 kB pieces = 16 blocks each.
            let have = blocks.iter().filter(|(p, _)| p == piece).count();
            prop_assert!(have >= 16, "piece {piece} completed with {have} blocks");
        }
        // If the local peer finished, it downloaded every piece it did
        // not already hold (prepopulated peers start with some pieces,
        // which never emit completion events).
        if result.completion[1].is_some() {
            if genes[0].prepopulate {
                prop_assert!(completed.len() as u32 <= pieces);
            } else {
                prop_assert_eq!(completed.len() as u32, pieces);
            }
        }
        // Tracker accounting: completions the tracker saw cannot exceed
        // the swarm's actual completions (a leecher may finish right at
        // session end without announcing, never the other way).
        prop_assert!(result.tracker_completed as usize <= result.completed_peers + 1);
    }

    /// Determinism holds for arbitrary configurations, not just the
    /// hand-picked ones in the unit tests.
    #[test]
    fn random_swarms_are_deterministic(
        genes in proptest::collection::vec(arb_peer(), 2..6),
        seed in 0u64..10_000,
    ) {
        let a = Swarm::new(build(&genes, seed, 6)).run();
        let b = Swarm::new(build(&genes, seed, 6)).run();
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(a.completion, b.completion);
        prop_assert_eq!(a.trace.unwrap().events.len(), b.trace.unwrap().events.len());
    }
}
