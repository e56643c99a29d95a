//! Free riders vs the choke algorithm (§IV-B): free riders are not
//! starved — they soak up *excess* capacity — but they cannot beat the
//! contributing leechers, and the swarm stays viable.
//!
//! ```sh
//! cargo run --release --example free_riders
//! ```

use bt_repro::sim::{BehaviorProfile, CapacityClass, Role, Swarm, SwarmSpec};
use bt_repro::wire::peer_id::ClientKind;
use bt_repro::wire::time::Duration;

fn main() {
    let honest = 10usize;
    let riders = 4usize;
    let background = 14usize;
    // A steady-state swarm: two slow seeds plus a prepopulated background
    // population, so *upload bandwidth* — not piece scarcity — is the
    // contended resource. That is the regime where the choke algorithm's
    // reciprocation discrimination shows.
    let mut peers = vec![BehaviorProfile::seed(), BehaviorProfile::seed()];
    for i in 0..background {
        peers.push(BehaviorProfile {
            role: Role::Leecher,
            client: ClientKind::LibTorrent,
            capacity: CapacityClass::Dsl,
            join_at: Duration::from_secs(i as u64),
            seed_linger: Some(Duration::from_secs(180)),
            prepopulate: true,
            restart_after: None,
        });
    }
    // Measured cohorts join the running torrent together at t = 120 s,
    // with identical DSL access links: any outcome gap is the choke
    // algorithm's doing, not a capacity artefact.
    for i in 0..honest {
        peers.push(BehaviorProfile {
            role: Role::Leecher,
            client: ClientKind::Mainline402,
            capacity: CapacityClass::Dsl,
            join_at: Duration::from_secs(120 + i as u64),
            seed_linger: Some(Duration::from_secs(1200)),
            prepopulate: false,
            restart_after: None,
        });
    }
    for i in 0..riders {
        peers.push(BehaviorProfile {
            role: Role::FreeRider,
            client: ClientKind::FreeRider,
            capacity: CapacityClass::Dsl,
            join_at: Duration::from_secs(120 + i as u64),
            seed_linger: None,
            prepopulate: false,
            restart_after: None,
        });
    }
    let spec = SwarmSpec {
        seed: 11,
        total_len: 64 * 256 * 1024, // 16 MB
        piece_len: 256 * 1024,
        duration: Duration::from_secs(5 * 3600),
        peers,
        local: None,
        ..SwarmSpec::default()
    };
    println!("2 seeds, {background} background leechers, {honest} honest + {riders} free riders joining at 120 s ...");
    let result = Swarm::new(spec).run();

    let time = |i: usize| result.completion[i].map(|t| t.as_secs_f64() - 120.0);
    let h0 = 2 + background;
    let honest_times: Vec<f64> = (h0..h0 + honest).filter_map(time).collect();
    let rider_times: Vec<f64> = (h0 + honest..h0 + honest + riders)
        .filter_map(time)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    println!(
        "honest  done {}/{honest}, mean download {:>6.0} s",
        honest_times.len(),
        mean(&honest_times)
    );
    println!(
        "riders  done {}/{riders}, mean download {:>6.0} s",
        rider_times.len(),
        mean(&rider_times)
    );

    // The paper's two claims (§IV-B.1): free riders may use excess
    // capacity — "leechers are allowed to use the excess capacity" — so
    // they are *not* starved...
    assert!(
        !rider_times.is_empty(),
        "free riders should still finish eventually"
    );
    // ...but "free riders cannot receive more than contributing
    // leechers": they must not come out ahead (a small tolerance absorbs
    // seeding randomness).
    assert!(
        mean(&rider_times) >= 0.95 * mean(&honest_times),
        "free riders came out ahead of contributors: {} vs {}",
        mean(&rider_times),
        mean(&honest_times)
    );
    println!(
        "\nfree riders took ×{:.2} the contributors' download time — served from excess\n\
         capacity, but never ahead of them: exactly the fairness the paper defends.",
        mean(&rider_times) / mean(&honest_times)
    );
}
