//! The engine over real TCP sockets.
//!
//! `bt_core::Engine` is a sans-io state machine: the simulator is only
//! one driver. This example proves it by running a small swarm — one
//! seed, two leechers — through `bt_net`'s socket runtime: genuine
//! handshake bytes, genuine length-prefixed frames through the
//! `bt_wire` codec, one thread per peer waiting in `poll(2)`, and SHA-1
//! verification of every piece on arrival.
//!
//! Protocol timers are accelerated (1 real millisecond = 1 virtual
//! second) so the 10-second choke rounds pass quickly.
//!
//! ```sh
//! cargo run --release --example tcp_loopback
//! ```

use bt_repro::net::{run_loopback_swarm, LoopbackSpec};

fn main() {
    let spec = LoopbackSpec {
        seeds: 1,
        leechers: 2,
        total_len: 8 * 256 * 1024, // 2 MB in eight 256 kB pieces
        piece_len: 256 * 1024,
        seed: 77,
        ..LoopbackSpec::default()
    };
    let pieces = spec.total_len / u64::from(spec.piece_len);
    println!(
        "transferring {pieces} pieces ({} kB) between {} peers over real TCP sockets ...",
        spec.total_len / 1024,
        spec.seeds + spec.leechers
    );

    let result = run_loopback_swarm(spec).expect("loopback swarm runs");

    for (i, outcome) in result.outcomes.iter().enumerate() {
        println!(
            "peer {i}: {:2} pieces, {:3} messages in, {:3} blocks uploaded, {} choke ticks",
            outcome.pieces,
            outcome.stats.messages_in,
            outcome.stats.blocks_sent,
            outcome.stats.ticks,
        );
    }
    assert_eq!(result.completed_leechers, 2, "every leecher must finish");
    println!(
        "ok: {pieces} pieces transferred and verified over TCP in {:.2?} — the same engine the simulator drives",
        result.wall_elapsed
    );
}
