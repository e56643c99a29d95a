//! Cross-crate end-to-end test: a real loopback-TCP swarm driven by
//! `bt-net`, its traces checked with the `bt-analysis` pipeline.
//!
//! One seed plus three leechers share a 64-piece torrent of real
//! synthetic data over `127.0.0.1` sockets. Every piece is SHA-1
//! verified by the engine on arrival (`DataMode::Real`), so completion
//! alone proves payload integrity end to end. The captured traces must
//! be sane inputs for the paper's figures: timestamps in order, entropy
//! computable, piece interarrivals non-negative.

use bt_repro::analysis::{entropy, SessionSummary};
use bt_repro::instrument::TraceEvent;
use bt_repro::net::{run_loopback_swarm, LoopbackSpec};
use bt_repro::obs::Registry;

#[test]
fn loopback_swarm_completes_and_traces_analyse() {
    let spec = LoopbackSpec::default(); // 1 seed + 3 leechers, 64 pieces
    let seeds = spec.seeds;
    let leechers = spec.leechers;
    let num_pieces = (spec.total_len / u64::from(spec.piece_len)) as u32;
    let piece_len = spec.piece_len;

    let result = run_loopback_swarm(spec).expect("loopback swarm runs");

    // Every leecher downloads the whole torrent, SHA-1 verified.
    assert_eq!(
        result.completed_leechers,
        leechers,
        "all leechers must complete; outcomes: {:?}",
        result
            .outcomes
            .iter()
            .map(|o| (o.is_seed, o.pieces))
            .collect::<Vec<_>>()
    );
    for (i, outcome) in result.outcomes.iter().enumerate() {
        assert_eq!(outcome.pieces, num_pieces, "peer {i} must hold every piece");
        assert!(outcome.is_seed);
        assert_eq!(outcome.stats.protocol_errors, 0, "peer {i} saw a violation");
    }

    // The tracker saw the full lifecycle.
    assert_eq!(result.tracker_started, (seeds + leechers) as u64);
    assert!(result.tracker_completed >= leechers as u64);

    // Each trace must be a valid analysis input.
    for (i, outcome) in result.outcomes.iter().enumerate() {
        let trace = outcome.trace.as_ref().expect("recording was on");
        assert!(!trace.is_empty(), "peer {i} recorded nothing");

        // Timestamps non-decreasing and inside the session.
        let mut prev = bt_repro::wire::time::Instant::ZERO;
        for &(t, _) in &trace.events {
            assert!(t >= prev, "peer {i}: trace timestamps went backwards");
            assert!(t <= trace.meta.session_end, "peer {i}: event after end");
            prev = t;
        }

        // Piece completions arrive in non-negative interarrival order by
        // construction; check the engine reported each piece only once.
        let mut seen = std::collections::HashSet::new();
        for (_, ev) in trace.iter() {
            if let TraceEvent::PieceCompleted { piece } = ev {
                assert!(seen.insert(*piece), "peer {i}: duplicate piece {piece}");
            }
        }

        // Entropy must be computable over the peers this node met.
        let summary = entropy(trace);
        for ratios in &summary.peers {
            assert!(
                ratios.local_in_remote.is_finite() && ratios.remote_in_local.is_finite(),
                "peer {i}: entropy ratio not finite"
            );
            assert!(ratios.membership_secs >= 0.0);
        }
    }

    // The full figure pipeline runs on a leecher trace without panicking
    // and sees the complete download.
    let leecher_trace = result.outcomes[seeds]
        .trace
        .as_ref()
        .expect("leecher trace recorded");
    let summary = SessionSummary::from_trace(leecher_trace, piece_len);
    assert_eq!(summary.pieces.count as u32, num_pieces);
    assert!(summary.connections >= 1, "leecher must have met peers");
    assert!(summary.messages.overhead_ratio() >= 0.0);
}

/// The `bt-obs` integration over real sockets: a swarm sharing one
/// registry produces a parseable snapshot with non-zero traffic
/// counters, per-peer labels, engine-level series, and a populated
/// handshake-latency histogram — the CI contract for a `--net` run's
/// `metrics.jsonl`.
#[test]
fn loopback_swarm_reports_metrics() {
    let registry = Registry::new_wall();
    let spec = LoopbackSpec {
        seeds: 1,
        leechers: 1,
        total_len: 8 * 32 * 1024,
        max_wall: std::time::Duration::from_secs(30),
        metrics: Some(registry.clone()),
        ..LoopbackSpec::default()
    };
    let result = run_loopback_swarm(spec).expect("loopback swarm runs");
    assert_eq!(result.completed_leechers, 1, "leecher must finish");

    let snap = registry.snapshot();

    // The JSONL snapshot must be valid JSON with the expected shape.
    let line = snap.to_jsonl_line();
    let parsed: serde_json::Value =
        serde_json::from_str(&line).expect("snapshot line parses as JSON");
    let serde_json::Value::Object(top) = parsed else {
        panic!("snapshot is not a JSON object");
    };
    for key in ["t", "counters", "gauges", "histograms"] {
        assert!(top.contains_key(key), "snapshot missing {key:?}");
    }

    // Real bytes moved in both directions, on distinguishable per-peer
    // series that agree with the aggregate.
    assert!(snap.counter_sum("net.bytes_in") > 0, "no bytes read");
    assert!(snap.counter_sum("net.bytes_out") > 0, "no bytes written");
    let per_peer: u64 = (0..2)
        .map(|i| {
            snap.counter("net.bytes_in", &format!("peer{i}"))
                .expect("per-peer bytes_in series")
        })
        .sum();
    assert_eq!(per_peer, snap.counter_sum("net.bytes_in"));

    // Both ends completed at least one handshake (cross-dials and
    // duplicate-connection refusals can add more), and latency was
    // observed for each.
    assert!(snap.counter_sum("net.handshakes_ok") >= 2);
    let hist = snap
        .histogram("net.handshake_us", "peer0")
        .expect("handshake histogram registered");
    assert!(hist.count >= 1, "handshake latency never observed");

    // Engine-level series ride the same registry under the same labels.
    assert!(snap.counter_sum("core.inputs.message") > 0);
    assert!(snap.counter_sum("core.actions.send") > 0);
    assert_eq!(snap.counter_sum("core.pieces_completed"), 8);

    // The legacy NetStats view and the registry agree.
    let stats_msgs: u64 = result.outcomes.iter().map(|o| o.stats.messages_in).sum();
    assert_eq!(stats_msgs, snap.counter_sum("net.messages_in"));
}
