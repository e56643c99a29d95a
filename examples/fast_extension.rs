//! The Fast Extension (BEP 6) vs the paper's *first blocks problem*.
//!
//! §VI of the paper names "the time to deliver the first blocks of data"
//! as BitTorrent's main open improvement: a fresh peer must wait to be
//! optimistically unchoked before receiving anything. The Fast Extension
//! grants every neighbour a small allowed-fast set requestable **while
//! choked** — this example measures how much that buys a late joiner.
//!
//! ```sh
//! cargo run --release --example fast_extension
//! ```

use bt_repro::core::Config;
use bt_repro::instrument::trace::TraceEvent;
use bt_repro::sim::{BehaviorProfile, CapacityClass, Role, Swarm, SwarmSpec};
use bt_repro::wire::peer_id::ClientKind;
use bt_repro::wire::time::Duration;

fn run(fast: bool) -> (Option<f64>, Option<f64>) {
    let cfg = Config {
        fast_extension: fast,
        ..Config::default()
    };
    let mut peers = vec![BehaviorProfile::seed(), BehaviorProfile::seed()];
    for i in 0..20 {
        peers.push(BehaviorProfile {
            role: Role::Leecher,
            client: ClientKind::Mainline402,
            capacity: CapacityClass::Dsl,
            join_at: Duration::from_secs(i),
            seed_linger: Some(Duration::from_secs(900)),
            prepopulate: true,
            restart_after: None,
        });
    }
    // The measured peer joins the busy swarm late, empty-handed.
    let join = 300u64;
    peers.push(BehaviorProfile {
        role: Role::Leecher,
        client: ClientKind::Mainline402,
        capacity: CapacityClass::Default,
        join_at: Duration::from_secs(join),
        seed_linger: None,
        prepopulate: false,
        restart_after: None,
    });
    let local = peers.len() - 1;
    let spec = SwarmSpec {
        seed: 23,
        total_len: 64 * 256 * 1024,
        piece_len: 256 * 1024,
        duration: Duration::from_secs(3600),
        base_config: cfg,
        peers,
        local: Some(local),
        ..SwarmSpec::default()
    };
    let result = Swarm::new(spec).run();
    let trace = result.trace.expect("instrumented");
    let first = |pred: &dyn Fn(&TraceEvent) -> bool| {
        trace
            .iter()
            .find(|(_, e)| pred(e))
            .map(|(t, _)| t.as_secs_f64() - join as f64)
    };
    (
        first(&|e| matches!(e, TraceEvent::BlockReceived { .. })),
        first(&|e| matches!(e, TraceEvent::PieceCompleted { .. })),
    )
}

fn main() {
    println!("a fresh peer joins a 22-peer swarm at t = 300 s; how long to first data?\n");
    println!(
        "{:<16} {:>14} {:>14}",
        "protocol", "first block", "first piece"
    );
    println!("{}", "-".repeat(46));
    let (block_off, piece_off) = run(false);
    println!(
        "{:<16} {:>13.1}s {:>13.1}s",
        "base (4.0.2)",
        block_off.unwrap_or(f64::NAN),
        piece_off.unwrap_or(f64::NAN)
    );
    let (block_on, piece_on) = run(true);
    println!(
        "{:<16} {:>13.1}s {:>13.1}s",
        "fast extension",
        block_on.unwrap_or(f64::NAN),
        piece_on.unwrap_or(f64::NAN)
    );
    let (b0, b1) = (block_off.unwrap(), block_on.unwrap());
    assert!(
        b1 <= b0,
        "allowed-fast bootstrap should not slow the first block ({b1} vs {b0})"
    );
    println!(
        "\nallowed-fast sets let the newcomer pull its first block ×{:.1} sooner —\n\
         the protocol-level answer to the paper's §VI first blocks problem.",
        b0 / b1.max(0.1)
    );
}
