//! Fleet analytics and the determinism debugger (DESIGN.md §12).
//!
//! 1. **Bisect** — two runs of the same scenario and seed have
//!    byte-identical causal traces and bisect reports *identical*;
//!    flipping only the seed makes bisect name the first diverging
//!    event (index, both payloads, ±K context window).
//! 2. **Merge commutativity** — a fleet report is byte-identical for
//!    any permutation of its input runs (proptest over shuffled
//!    3–5 run fleets, both JSON and HTML).
//! 3. **Flamegraph export** — the collapsed-stack export is one
//!    `frames;joined;by;semicolons <self_us>` line per span, directly
//!    consumable by inferno / speedscope.
//! 4. **Artifact round trip** — a run written in the `--emit-dir`
//!    layout loads back and merges with intact identity and data; a
//!    fleet of one run reports that run's own bytes.
//! 5. **Hostile manifests** — a scenario name with quotes and newlines
//!    goes through merge, diff and bisect and the reports still parse.

use bt_repro::obs::{HistogramSnapshot, ObserverSet, SeriesView, Snapshot};
use bt_repro::stat::artifacts::parse_profile;
use bt_repro::stat::{attribute, bisect_traces, diff_runs, FleetReport, RunArtifacts};
use bt_repro::torrents::{run_scenario, torrent, RunConfig, ScenarioOutcome};
use proptest::prelude::*;
use serde_json::Value;

fn traced_cfg(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        observe: ObserverSet {
            trace_sample: Some(1),
            ..ObserverSet::default()
        },
        ..RunConfig::quick()
    }
}

/// The causal trace as `--emit-dir` writes it.
fn trace_jsonl(o: &ScenarioOutcome) -> String {
    let tracer = o.observers.tracer.as_ref();
    tracer.expect("causal trace requested").to_jsonl()
}

#[test]
fn bisect_reports_identical_runs_and_pinpoints_seed_divergence() {
    let a = run_scenario(&torrent(2), &traced_cfg(42));
    let a2 = run_scenario(&torrent(2), &traced_cfg(42));
    let b = run_scenario(&torrent(2), &traced_cfg(43));
    let trace_a = trace_jsonl(&a);
    let trace_a2 = trace_jsonl(&a2);
    let trace_b = trace_jsonl(&b);

    // Same seed: the debugger must assert identity, not just silence.
    let same = bisect_traces(&trace_a, &trace_a2, 3);
    assert!(same.is_identical(), "same-seed traces diverged: {same:?}");
    assert!(same.to_json().contains("\"first_divergence\":null"));

    // Different seed: a first diverging event with payloads and context.
    let diff = bisect_traces(&trace_a, &trace_b, 3);
    assert!(!diff.is_identical(), "seeds 42 vs 43 produced equal traces");
    let json = diff.to_json();
    let parsed: Value = serde_json::from_str(&json).unwrap();
    let div = parsed.get("first_divergence").expect("divergence object");
    let index = div
        .get("index")
        .and_then(Value::as_u64)
        .expect("divergence index");
    assert!(div.get("a").is_some() && div.get("b").is_some());
    let window = div.get("window_a").unwrap().as_array().unwrap();
    assert!(!window.is_empty(), "no ±K context around the divergence");
    // The report's index must point at a real disagreement in the raw
    // JSONL: every line before it matches, the named line does not.
    let (la, lb): (Vec<_>, Vec<_>) = (trace_a.lines().collect(), trace_b.lines().collect());
    let i = index as usize;
    assert_eq!(la[..i], lb[..i], "lines before the divergence differ");
    assert_ne!(la.get(i), lb.get(i), "divergent line actually matches");
    // The report carries both diverging lines as they stand in the
    // traces.
    assert!(
        json.contains(&format!("\"a\":{},\"b\":{},", la[i], lb[i])),
        "a/b are not the raw trace lines"
    );
}

/// Build a small synthetic run for permutation tests; `seed` keys the
/// run's identity, `bound`/`n` shape its histogram so fleet quantiles
/// actually depend on the merge being commutative.
fn synth_run(scenario: &str, seed: u64, bound: u64, n: u64) -> RunArtifacts {
    let metrics = Snapshot {
        at_micros: seed,
        counters: vec![("sim.events".into(), String::new(), n)],
        gauges: vec![("live.starved_peers".into(), String::new(), 0)],
        histograms: vec![(
            "core.choke_round_us".into(),
            String::new(),
            HistogramSnapshot {
                count: n,
                sum: bound * n,
                p50: bound,
                p95: bound,
                p99: bound,
                buckets: vec![(bound, n)],
                overflow: 0,
            },
        )],
    };
    let series = vec![SeriesView {
        name: "live.entropy".to_string(),
        stride: 1,
        points: vec![(0, 0.4), (10, 0.7 + (seed % 3) as f64 * 0.1)],
    }];
    RunArtifacts {
        scenario: scenario.to_string(),
        seed,
        peers: 10 + seed,
        pieces: 8,
        events_processed: n,
        completed_peers: 10,
        // The digest pins the run's entire behaviour, so it must vary
        // with everything that shapes this run's data: two synthetic
        // runs agree on (key, digest) only when they are the same run.
        digest: format!(
            "{:016x}",
            (seed ^ bound.rotate_left(17) ^ n.rotate_left(39)).wrapping_mul(0x9e37_79b9)
        ),
        metrics: Some(metrics),
        series: Some(series),
        profile: None,
        trace_jsonl: None,
    }
}

proptest! {
    /// `btstat merge` output is a pure function of the *set* of runs:
    /// any shuffle of the same fleet yields byte-identical JSON + HTML.
    #[test]
    fn merge_is_byte_identical_over_shuffled_fleets(
        params in proptest::collection::vec((0u8..2, 0u64..50, 1u64..100_000, 1u64..500), 3..=5),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let runs: Vec<RunArtifacts> = params
            .iter()
            .map(|&(sc, seed, bound, n)| {
                synth_run(if sc == 0 { "flash" } else { "crowd" }, seed, bound, n)
            })
            .collect();
        let baseline = FleetReport::merge(runs.clone());

        // Deterministic Fisher–Yates driven by the generated seed.
        let mut shuffled = runs;
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let permuted = FleetReport::merge(shuffled);

        prop_assert_eq!(baseline.to_json(), permuted.to_json());
        prop_assert_eq!(baseline.to_html(), permuted.to_html());
    }
}

#[test]
fn flamegraph_export_is_collapsed_stack_lines() {
    let cfg = RunConfig {
        observe: ObserverSet {
            profile: true,
            ..ObserverSet::default()
        },
        ..RunConfig::quick()
    };
    let outcome = run_scenario(&torrent(2), &cfg);
    let profile = outcome.result.profile.expect("profiler requested");
    // What `btstat diff --flame-a` exports: the profile as read back
    // from its own `profile.json`.
    let doc = parse_profile(&profile.to_json()).unwrap();
    assert_eq!(doc, profile);
    let collapsed = doc.to_collapsed();
    assert!(!collapsed.is_empty(), "profiled run produced no spans");
    let mut self_total = 0u64;
    for line in collapsed.lines() {
        // inferno's collapsed format: `frame;frame;frame <value>`.
        let (stack, value) = line.rsplit_once(' ').expect("no value column");
        assert!(
            !stack.is_empty() && !stack.contains(' '),
            "bad stack {line:?}"
        );
        self_total += value.parse::<u64>().expect("value is not an integer");
    }
    assert!(
        collapsed.lines().any(|l| l.contains(';')),
        "no nested frames in a simulator profile"
    );
    // Self times stack back up to the root total: no double counting.
    let roots: u64 = doc
        .spans
        .iter()
        .filter(|(path, _)| path.len() == 1)
        .map(|(_, s)| s.total_us)
        .sum();
    assert_eq!(
        self_total, roots,
        "collapsed values do not sum to root total"
    );
}

#[test]
fn artifact_directory_round_trips_through_load_and_merge() {
    let base = std::env::temp_dir().join(format!("bt-fleet-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut dirs = Vec::new();
    for seed in [42u64, 43] {
        let cfg = RunConfig {
            observe: ObserverSet {
                metrics: true,
                profile: true,
                trace_sample: Some(1),
                flight_dir: None,
            },
            ..traced_cfg(seed)
        };
        let outcome = run_scenario(&torrent(19), &cfg);
        let dir = base.join(format!("s{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = bt_repro::stat::artifacts::manifest_json(
            "torrent-19",
            seed,
            (outcome.scaled.seeds + outcome.scaled.leechers) as u64,
            outcome.scaled.pieces as u64,
            outcome.result.events_processed,
            outcome.result.completed_peers as u64,
            &format!("{:016x}", outcome.result.digest()),
        );
        std::fs::write(dir.join("run.json"), manifest).unwrap();
        let last = outcome.result.metrics.last().expect("metrics requested");
        std::fs::write(dir.join("metrics.jsonl"), last.to_jsonl_line() + "\n").unwrap();
        let series = outcome.observers.series.as_ref().unwrap().to_json(None);
        std::fs::write(dir.join("series.json"), series).unwrap();
        let profile = outcome.result.profile.as_ref().unwrap().to_json();
        std::fs::write(dir.join("profile.json"), profile).unwrap();
        std::fs::write(dir.join("trace.jsonl"), trace_jsonl(&outcome)).unwrap();
        dirs.push(dir);
    }

    let runs: Vec<RunArtifacts> = dirs
        .iter()
        .map(|d| RunArtifacts::load(d).unwrap())
        .collect();
    assert_eq!(runs[0].key(), "torrent-19-s42");
    assert_eq!(runs[1].key(), "torrent-19-s43");
    assert_ne!(runs[0].digest, runs[1].digest, "seed flip kept the digest");
    for run in &runs {
        assert!(run.metrics.is_some() && run.series.is_some());
        assert!(run.profile.is_some() && run.trace_jsonl.is_some());
        assert!(run.events_processed > 0);
    }

    let report = FleetReport::merge(runs.clone());
    let json = report.to_json();
    let parsed: Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed.get("runs").unwrap().as_array().unwrap().len(), 2);
    assert!(!report.verdicts().is_empty());
    // The fleet counter is the sum of both runs' final snapshots.
    let fleet_events = report.metrics.counter_sum("sim.events");
    let per_run: u64 = runs
        .iter()
        .map(|r| r.metrics.as_ref().unwrap().counter_sum("sim.events"))
        .sum();
    assert_eq!(fleet_events, per_run);

    // A fleet of one is that run: its metrics and profile come back out
    // as the bytes the run wrote.
    let alone = FleetReport::merge(vec![runs[0].clone()]);
    let on_disk = |name: &str| std::fs::read_to_string(dirs[0].join(name)).unwrap();
    assert_eq!(
        alone.metrics.to_jsonl_line(),
        on_disk("metrics.jsonl").trim_end()
    );
    assert_eq!(alone.profile.to_json(), on_disk("profile.json"));
    assert_eq!(
        bt_repro::obs::views_to_json(&alone.series["torrent-19-s42"]),
        on_disk("series.json")
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn hostile_scenario_names_survive_merge_diff_and_bisect() {
    let mut a = synth_run("a\"b\nc", 1, 10, 4);
    let mut b = synth_run("a\"b\nc", 2, 100, 6);
    a.trace_jsonl = Some("{\"t\":0,\"cat\":\"piece\",\"name\":\"x\",\"id\":1}\n".to_string());
    b.trace_jsonl = Some("{\"t\":0,\"cat\":\"piece\",\"name\":\"y\\\"\",\"id\":1}\n".to_string());
    let parse = |text: String| serde_json::from_str::<Value>(&text).expect("valid JSON");

    let report = FleetReport::merge(vec![a.clone(), b.clone()]);
    let merged = parse(report.to_json());
    let run0 = &merged.get("runs").unwrap().as_array().unwrap()[0];
    assert_eq!(
        run0.get("scenario").and_then(Value::as_str),
        Some("a\"b\nc")
    );
    let series = merged.get("series").and_then(Value::as_object).unwrap();
    assert!(series.contains_key("a\"b\nc-s1"), "{:?}", series.keys());
    assert!(report.to_html().contains("FLEET={\"a\\\"b\\nc-s1\":"));

    let (ma, mb) = (a.metrics.as_ref().unwrap(), b.metrics.as_ref().unwrap());
    let mut diff = diff_runs(ma, mb);
    diff.spans = attribute(&Default::default(), &Default::default(), 0);
    parse(diff.to_json());

    let bisect = bisect_traces(
        a.trace_jsonl.as_deref().unwrap(),
        b.trace_jsonl.as_deref().unwrap(),
        3,
    );
    let div = parse(bisect.to_json());
    let name = div
        .get("first_divergence")
        .and_then(|d| d.get("b"))
        .and_then(|b| b.get("name"));
    assert_eq!(name.and_then(Value::as_str), Some("y\""));
}
