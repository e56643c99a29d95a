//! Flash crowd: one fresh initial seed, sixty leechers arriving within a
//! minute — the startup scenario whose dynamics §IV-A.2.a of the paper
//! dissects. Watch the transient state (rare pieces drain linearly at the
//! initial seed's upload capacity) turn into steady state.
//!
//! ```sh
//! cargo run --release --example flash_crowd
//! ```

use bt_repro::analysis::ReplicationSeries;
use bt_repro::sim::{BehaviorProfile, CapacityClass, Role, Swarm, SwarmSpec};
use bt_repro::wire::peer_id::ClientKind;
use bt_repro::wire::time::Duration;

fn main() {
    let pieces = 96u32;
    let mut peers = vec![BehaviorProfile::seed()]; // 20 kB/s initial seed
    for i in 0..60 {
        peers.push(BehaviorProfile {
            role: Role::Leecher,
            client: ClientKind::Mainline402,
            capacity: CapacityClass::Dsl,
            join_at: Duration::from_secs(i),
            seed_linger: Some(Duration::from_secs(1800)),
            prepopulate: false, // a true flash crowd: nobody has anything
            restart_after: None,
        });
    }
    let spec = SwarmSpec {
        seed: 7,
        total_len: u64::from(pieces) * 256 * 1024,
        piece_len: 256 * 1024,
        duration: Duration::from_secs(4 * 3600),
        peers,
        local: Some(1),
        available_fraction: 0.0, // every piece starts rare
        ..SwarmSpec::default()
    };
    println!("flash crowd: 1 seed @20 kB/s, 60 leechers, {pieces} pieces ...");
    let result = Swarm::new(spec).run();

    let trace = result.trace.expect("instrumented");
    let series = ReplicationSeries::from_trace(&trace);

    // The transient phase ends when no piece is *rare* (§II-A: rare =
    // present only on the initial seed). The instrumented peer keeps the
    // seed in its peer set here, so "no rare piece" reads as min ≥ 2:
    // every piece has a copy beyond the seed's.
    let transition = series
        .points
        .iter()
        .find(|p| p.peer_set_size > 1 && p.min >= 2)
        .map(|p| p.t_secs);
    // Lower bound predicted by §IV-A.2.a: the initial seed must push one
    // copy of everything at its 20 kB/s upload capacity.
    let lower_bound = f64::from(pieces) * 256.0 * 1024.0 / (20.0 * 1024.0);
    println!("content injection lower bound : {lower_bound:.0} s (seed-capacity limited)");
    match transition {
        Some(t) => println!("observed transient → steady at : {t:.0} s"),
        None => println!("torrent stayed transient for the whole session"),
    }

    let completed: Vec<f64> = result
        .completion
        .iter()
        .flatten()
        .map(|t| t.as_secs_f64())
        .collect();
    let mean = completed.iter().sum::<f64>() / completed.len().max(1) as f64;
    println!(
        "peers completed                : {} / 60",
        result.completed_peers
    );
    println!("mean completion time           : {mean:.0} s");
    if let Some(t) = transition {
        assert!(
            t >= lower_bound * 0.5,
            "transient cannot end much before the seed has pushed one copy"
        );
    }
}
