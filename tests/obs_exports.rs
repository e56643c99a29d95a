//! Byte identity of every observer export.
//!
//! The span profiler and the causal tracer may change how they store
//! what they see, never what they write. Three runs — the 1k flash
//! crowd (seed 42) with the observer set `swarmrun --emit-dir` attaches
//! at trace rate 1 and at rate 64, and Table I torrent 2 through
//! `run_scenario` with metrics, series, profile and trace on — each
//! export what a `swarmrun --emit-dir` directory holds: `trace.jsonl`,
//! `trace.json` (Chrome JSON), `profile.json`, `series.json` and
//! `metrics.jsonl`; the byte count and FNV-1a hash of each is compared
//! with `tests/fixtures/obs_exports.txt`, which was written before the
//! PR 15 rewrite of `bt_obs::Profiler` / `bt_obs::Tracer` storage.
//!
//! If an export format changes *on purpose*, regenerate with:
//!
//! ```text
//! BT_UPDATE_GOLDEN=1 cargo test --test obs_exports
//! ```

use bt_repro::analysis::live::Thresholds;
use bt_repro::obs::{ObserverSet, Profiler, Registry, SeriesStore, Snapshot, TimeSource, Tracer};
use bt_repro::sim::Swarm;
use bt_repro::torrents::{run_scenario, torrent, PresetOptions, RunConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("obs_exports.txt")
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn metrics_jsonl(snapshots: &[Snapshot]) -> String {
    let mut text = String::new();
    for snap in snapshots {
        text.push_str(&snap.to_jsonl_line());
        text.push('\n');
    }
    text
}

/// One fixture line per export, in the order `--emit-dir` names them.
fn fingerprint(out: &mut String, run: &str, exports: [(&str, &str); 5]) {
    for (artefact, text) in exports {
        assert!(!text.is_empty(), "{run}: {artefact} is empty");
        writeln!(
            out,
            "{run} {artefact} bytes={} fnv1a64={:016x}",
            text.len(),
            fnv1a64(text.as_bytes())
        )
        .unwrap();
    }
}

fn crowd_1k(out: &mut String, rate: u64) {
    let opts = PresetOptions {
        seed: 42,
        pieces: 8,
        duration: bt_repro::wire::time::Duration::from_secs(900),
    };
    let spec = bt_repro::torrents::scenarios::mega_flash_crowd(1_000, &opts);
    let tracer = Tracer::new(42, rate);
    let registry = Registry::new_manual();
    let store = SeriesStore::new(&registry);
    let result = Swarm::new(spec)
        .with_trace(tracer.clone())
        .with_metrics(registry)
        .with_health(Thresholds::default())
        .with_series(store.clone())
        .with_profiler(Profiler::new(TimeSource::manual()))
        .run();
    fingerprint(
        out,
        &format!("flash_crowd_1k/rate={rate}"),
        [
            ("trace.jsonl", &tracer.to_jsonl()),
            ("trace.chrome.json", &tracer.to_chrome_json()),
            (
                "profile.json",
                &result.profile.expect("profiler attached").to_json(),
            ),
            ("series.json", &store.to_json(None)),
            ("metrics.jsonl", &metrics_jsonl(&result.metrics)),
        ],
    );
}

fn table1_torrent_2(out: &mut String) {
    let cfg = RunConfig {
        seed: 42,
        observe: ObserverSet {
            metrics: true,
            profile: true,
            trace_sample: Some(1),
            flight_dir: None,
        },
        ..RunConfig::quick()
    };
    let o = run_scenario(&torrent(2), &cfg);
    let tracer = o.observers.tracer.as_ref().expect("trace on");
    let store = o.observers.series.as_ref().expect("series on");
    fingerprint(
        out,
        "table1/torrent=2",
        [
            ("trace.jsonl", &tracer.to_jsonl()),
            ("trace.chrome.json", &tracer.to_chrome_json()),
            (
                "profile.json",
                &o.result.profile.as_ref().expect("profile on").to_json(),
            ),
            ("series.json", &store.to_json(None)),
            ("metrics.jsonl", &metrics_jsonl(&o.result.metrics)),
        ],
    );
}

#[test]
fn observer_exports_match_fixture() {
    let mut actual = String::new();
    crowd_1k(&mut actual, 1);
    crowd_1k(&mut actual, 64);
    table1_torrent_2(&mut actual);
    let path = fixture_path();
    if std::env::var_os("BT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        eprintln!("obs_exports: fixture regenerated at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with `BT_UPDATE_GOLDEN=1 cargo test --test obs_exports`",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "an observer export is no longer byte-identical to the committed \
         fixture; if the format change is intentional, regenerate with \
         `BT_UPDATE_GOLDEN=1 cargo test --test obs_exports`"
    );
}

/// One `Swarm::with_*` call of the full observer set.
#[derive(Clone, Copy, Debug)]
enum Attach {
    Trace,
    Metrics,
    Health,
    Series,
    Profiler,
}

/// The digest and the metrics, series, profile and trace exports of a
/// small flash crowd with the full observer set attached in `order`.
fn exports_attached_in(order: [Attach; 5]) -> String {
    let opts = PresetOptions {
        seed: 7,
        pieces: 8,
        duration: bt_repro::wire::time::Duration::from_secs(600),
    };
    let spec = bt_repro::torrents::scenarios::mega_flash_crowd(100, &opts);
    let tracer = Tracer::new(7, 1);
    let registry = Registry::new_manual();
    let store = SeriesStore::new(&registry);
    let profiler = Profiler::new(TimeSource::manual());
    let swarm = order
        .iter()
        .fold(Swarm::new(spec), |swarm, attach| match attach {
            Attach::Trace => swarm.with_trace(tracer.clone()),
            Attach::Metrics => swarm.with_metrics(registry.clone()),
            Attach::Health => swarm.with_health(Thresholds::default()),
            Attach::Series => swarm.with_series(store.clone()),
            Attach::Profiler => swarm.with_profiler(profiler.clone()),
        });
    let result = swarm.run();
    format!(
        "digest={:016x}\n{}\n{}\n{}\n{}",
        result.digest(),
        metrics_jsonl(&result.metrics),
        store.to_json(None),
        result.profile.expect("profiler attached").to_json(),
        tracer.to_jsonl()
    )
}

/// An engine gets its observers when the run builds it, so the order of
/// the `with_*` calls cannot change what any observer sees.
#[test]
fn observer_exports_do_not_depend_on_attach_order() {
    use Attach::*;
    // The benchmark's `crowd_observed` order.
    let reference = exports_attached_in([Trace, Metrics, Health, Series, Profiler]);
    assert!(
        reference.contains("\"name\":\"live.entropy\""),
        "the health monitors feed the series store"
    );
    for order in [
        // `attach_observers`' order (`run_scenario`, `swarmrun`).
        [Metrics, Health, Series, Profiler, Trace],
        // The series store before the registry it samples.
        [Series, Profiler, Trace, Metrics, Health],
    ] {
        let exports = exports_attached_in(order);
        assert!(exports == reference, "{order:?} changed an export");
    }
}
