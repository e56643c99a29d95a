//! Golden-trace regression tests.
//!
//! Three representative Table I scenarios — torrent 8 (transient,
//! single initial seed), torrent 7 (steady state), torrent 2 (tiny,
//! unscaled) — are run at the quick profile with seed 42, and a
//! fingerprint of each encoded trace (event count + FNV-1a hash of the
//! JSONL encoding) is compared against the committed fixture in
//! `tests/fixtures/golden_traces.txt`.
//!
//! Any change to the simulator, the RNG stream, the scaling rules, or
//! the trace encoding shows up here as a one-line diff per torrent. If
//! the change is *intentional*, regenerate the fixture with:
//!
//! ```text
//! BT_UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use bt_repro::obs::ObserverSet;
use bt_repro::sim::Swarm;
use bt_repro::torrents::{run_scenario, torrent, RunConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The torrents fingerprinted, in fixture order.
const GOLDEN_IDS: [u32; 3] = [8, 7, 2];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_traces.txt")
}

/// FNV-1a, 64-bit — stable, dependency-free, good enough to flag any
/// byte-level drift in an encoded trace.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fingerprint(id: u32) -> String {
    let cfg = RunConfig {
        seed: 42,
        ..RunConfig::quick()
    };
    let outcome = run_scenario(&torrent(id), &cfg);
    let encoded = outcome.trace.to_jsonl();
    format!(
        "torrent={id} events={} fnv1a64={:016x}",
        outcome.trace.len(),
        fnv1a64(encoded.as_bytes())
    )
}

/// Mega-swarm golden: the 10k-peer flash crowd (seed 42), fingerprinted
/// by [`bt_repro::sim::SwarmResult::digest`] since the mega presets run
/// uninstrumented (no per-event trace at that scale). This pins the
/// scalable tracker path, the calendar event queue, and the pooled
/// per-peer round state the same way the trace hashes pin the legacy
/// path.
fn mega_fingerprint() -> String {
    let opts = bt_repro::torrents::PresetOptions {
        seed: 42,
        pieces: 8,
        duration: bt_repro::wire::time::Duration::from_secs(900),
    };
    let spec = bt_repro::torrents::scenarios::mega_flash_crowd(10_000, &opts);
    let result = Swarm::new(spec).run();
    format!(
        "scenario=flash_crowd_10k events={} completed={} digest={:016x}",
        result.events_processed,
        result.completed_peers,
        result.digest()
    )
}

/// The same fingerprints with the causal tracer on: sampling hashes
/// piece/peer ids with splitmix64 and never consumes master-RNG draws,
/// so every line — the per-torrent trace hashes at `trace_sample=2`
/// and the 10k-peer digest at 1/64 — must stay byte-identical to the
/// committed fixture.
#[test]
fn golden_fingerprints_unchanged_with_causal_tracing_on() {
    if std::env::var_os("BT_UPDATE_GOLDEN").is_some() {
        return; // the sibling test regenerates the fixture
    }
    let mut actual = String::new();
    for id in GOLDEN_IDS {
        let cfg = RunConfig {
            seed: 42,
            observe: ObserverSet {
                trace_sample: Some(2),
                ..ObserverSet::default()
            },
            ..RunConfig::quick()
        };
        let outcome = run_scenario(&torrent(id), &cfg);
        let encoded = outcome.trace.to_jsonl();
        writeln!(
            actual,
            "torrent={id} events={} fnv1a64={:016x}",
            outcome.trace.len(),
            fnv1a64(encoded.as_bytes())
        )
        .unwrap();
        assert!(
            outcome.observers.tracer.is_some_and(|t| !t.is_empty()),
            "torrent {id}: causal trace requested but nothing recorded"
        );
    }
    let opts = bt_repro::torrents::PresetOptions {
        seed: 42,
        pieces: 8,
        duration: bt_repro::wire::time::Duration::from_secs(900),
    };
    let spec = bt_repro::torrents::scenarios::mega_flash_crowd(10_000, &opts);
    let tracer = bt_repro::obs::Tracer::new(42, 64);
    let result = Swarm::new(spec).with_trace(tracer.clone()).run();
    writeln!(
        actual,
        "scenario=flash_crowd_10k events={} completed={} digest={:016x}",
        result.events_processed,
        result.completed_peers,
        result.digest()
    )
    .unwrap();
    assert!(
        !tracer.to_jsonl().is_empty(),
        "the 10k tracer sampled nothing at 1/64"
    );
    let expected = std::fs::read_to_string(fixture_path()).expect("fixture exists");
    assert_eq!(
        actual, expected,
        "causal tracing perturbed the golden fingerprints: traces must \
         never consume master-RNG draws"
    );
}

#[test]
fn golden_trace_fingerprints_match_fixture() {
    let mut actual = String::new();
    for id in GOLDEN_IDS {
        writeln!(actual, "{}", fingerprint(id)).unwrap();
    }
    writeln!(actual, "{}", mega_fingerprint()).unwrap();
    let path = fixture_path();
    if std::env::var_os("BT_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("golden_traces: fixture regenerated at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with `BT_UPDATE_GOLDEN=1 cargo test --test golden_traces`",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "trace fingerprints drifted from the committed fixture; if the \
         simulation change is intentional, regenerate with \
         `BT_UPDATE_GOLDEN=1 cargo test --test golden_traces`"
    );
}
