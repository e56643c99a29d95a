//! Tests of the `bt-bench` harness: the figure pipelines and ablation
//! drivers return structurally sane data at quick scale, and the two
//! binaries print what they are pinned to.

use bt_analysis::{
    entropy, fairness, unchoke_correlation, InterarrivalAnalysis, ReplicationSeries, StateWindow,
};
use bt_bench::experiments as exp;
use bt_bench::report;
use bt_torrents::{run_scenario, torrent, RunConfig};

fn quick() -> RunConfig {
    RunConfig::quick()
}

#[test]
fn fig1_rows_cover_requested_torrents() {
    // A three-torrent mini-sweep exercises the fig1 pipeline.
    let cfg = quick();
    let outcomes: Vec<_> = [2, 3, 13]
        .iter()
        .map(|&id| run_scenario(&torrent(id), &cfg))
        .collect();
    let rows: Vec<_> = outcomes.iter().map(|o| entropy(&o.trace)).collect();
    assert_eq!(rows.len(), 3);
    for r in &rows {
        for v in [
            r.local_in_remote.p20,
            r.local_in_remote.p50,
            r.local_in_remote.p80,
            r.remote_in_local.p50,
        ] {
            assert!(
                v.is_nan() || (0.0..=1.0).contains(&v),
                "ratio out of range: {v}"
            );
        }
    }
    // Percentiles are ordered when defined.
    for r in &rows {
        if !r.local_in_remote.p20.is_nan() {
            assert!(r.local_in_remote.p20 <= r.local_in_remote.p50 + 1e-9);
            assert!(r.local_in_remote.p50 <= r.local_in_remote.p80 + 1e-9);
        }
    }
}

#[test]
fn replication_and_interarrival_drivers() {
    let cfg = quick();
    let o = run_scenario(&torrent(3), &cfg);
    let full = ReplicationSeries::from_trace(&o.trace);
    let ls = full.leecher_state(&o.trace);
    assert!(ls.points.len() <= full.points.len());
    assert!(!full.points.is_empty());
    let pieces = InterarrivalAnalysis::pieces(&o.trace);
    let blocks = InterarrivalAnalysis::blocks(&o.trace);
    assert_eq!(
        pieces.count, o.scaled.pieces as usize,
        "every piece completed once"
    );
    assert!(blocks.count >= pieces.count, "blocks outnumber pieces");
}

#[test]
fn fairness_shares_are_simplex_like() {
    let cfg = quick();
    let o = run_scenario(&torrent(13), &cfg);
    for window in [StateWindow::Leecher, StateWindow::Seed] {
        let f = fairness(&o.trace, window);
        let sum: f64 = f.upload_share.iter().sum();
        assert!((0.0..=1.0 + 1e-9).contains(&sum), "share sum {sum}");
        for s in &f.upload_share {
            assert!((0.0..=1.0).contains(s));
        }
        let j = f.jain_index();
        assert!(j == 0.0 || (0.0..=1.0 + 1e-9).contains(&j));
    }
}

#[test]
fn fig10_driver_counts_match_trace() {
    let cfg = quick();
    let o = run_scenario(&torrent(13), &cfg);
    let c = unchoke_correlation(&o.trace);
    use bt_instrument::trace::TraceEvent;
    let unchokes_in_trace = o
        .trace
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::LocalChoke { choked: false, .. }))
        .count() as u32;
    let unchokes_in_points: u32 = c
        .leecher
        .iter()
        .map(|p| p.unchokes)
        .chain(c.seed.iter().map(|p| p.unchokes))
        .sum();
    assert_eq!(unchokes_in_points, unchokes_in_trace);
}

#[test]
fn report_rendering_is_robust() {
    // Render helpers must not panic on edge inputs.
    assert_eq!(report::sparkline(&[]), "");
    assert_eq!(report::bar(f64::NAN, 5).chars().count(), 5);
    let t = report::table(&["a"], &[]);
    assert!(t.contains('a'));
    assert_eq!(report::downsample(&[], 8), Vec::<f64>::new());
    assert_eq!(report::secs(f64::INFINITY), "-");
}

#[test]
fn endgame_ablation_direction() {
    let cfg = quick();
    let rows = exp::ablation_endgame(&cfg);
    assert_eq!(rows.len(), 2);
    let on = rows.iter().find(|r| r.endgame).unwrap();
    let off = rows.iter().find(|r| !r.endgame).unwrap();
    // Both complete at this scale; end game must not make the tail gap
    // longer.
    if let (Some(a), Some(b)) = (on.local_download_secs, off.local_download_secs) {
        assert!(
            a <= b * 1.25,
            "end game made the download much slower: {a} vs {b}"
        );
    }
    assert!(on.last_blocks_max_gap <= off.last_blocks_max_gap + 1e-9);
}

#[test]
fn superseed_ablation_direction() {
    let cfg = quick();
    let rows = exp::ablation_superseed(&cfg);
    let plain = rows.iter().find(|r| !r.super_seed).unwrap();
    let ss = rows.iter().find(|r| r.super_seed).unwrap();
    assert!(
        ss.duplicate_ratio <= plain.duplicate_ratio,
        "super-seeding must not increase duplicates ({} vs {})",
        ss.duplicate_ratio,
        plain.duplicate_ratio
    );
}

/// `figures all --quick --seed 42` prints exactly the committed fixture,
/// so no section drifts unnoticed. If the output changes on purpose,
/// regenerate it with
/// `BT_UPDATE_GOLDEN=1 cargo test -p bt-bench --test harness figures_all`.
#[test]
fn figures_all_quick_matches_fixture() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["all", "--quick", "--seed", "42"])
        .output()
        .expect("figures runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/figures_all_quick_seed42.txt");
    if std::env::var_os("BT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        eprintln!("figures: fixture regenerated at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let lines = actual.lines().zip(expected.lines()).enumerate();
    if let Some((n, (a, e))) = lines.clone().find(|(_, (a, e))| a != e) {
        panic!(
            "line {}: `{a}` but the fixture has `{e}`; if intended, regenerate with \
             `BT_UPDATE_GOLDEN=1 cargo test -p bt-bench --test harness figures_all`",
            n + 1
        );
    }
    assert_eq!(
        actual, expected,
        "figures all and the fixture differ in length"
    );
}

/// Run `swarmrun` with `args`; returns (exit code, stdout, stderr).
fn swarmrun(args: &[&str]) -> (Option<i32>, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_swarmrun"))
        .args(args)
        .output()
        .expect("swarmrun runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn swarmrun_flags_before_or_after_the_spec_and_unknown_flags_rejected() {
    let (code, example, _) = swarmrun(&["--example"]);
    assert_eq!(code, Some(0));
    let path = std::env::temp_dir().join(format!("swarmrun-cli-{}.json", std::process::id()));
    std::fs::write(&path, example).expect("temp spec written");
    let spec = path.to_str().expect("utf-8 temp path");
    let digest = |args: &[&str]| {
        let (code, stdout, stderr) = swarmrun(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        stdout
            .lines()
            .find(|l| l.starts_with("run digest"))
            .unwrap_or_else(|| panic!("{args:?} printed no digest"))
            .to_owned()
    };
    // A flag's value is never taken for the spec path, wherever it sits.
    let before = digest(&["--seed", "7", spec]);
    assert_eq!(before, digest(&[spec, "--seed", "7"]));
    assert_ne!(before, digest(&[spec]), "--seed must replace the file's");

    // A misspelt or removed flag is a usage error, not a silent default.
    for flag in ["--sead", "--metrics-addr"] {
        let (code, stdout, stderr) = swarmrun(&[flag, "7", spec]);
        assert_eq!(code, Some(2), "{flag}: {stdout}");
        assert!(stderr.contains(flag), "{flag} not named in: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

/// A fresh scratch directory for one test's files.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swarmrun-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir created");
    dir
}

/// Parse `path` as one JSON document.
fn parse_json(path: &std::path::Path) -> serde_json::Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path:?} is not JSON: {e}"))
}

/// Parse every line of `path` as JSON; returns the lines.
fn parse_jsonl(path: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    for line in &lines {
        let _: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("{path:?}: {e}: {line}"));
    }
    assert!(!lines.is_empty(), "{path:?} is empty");
    lines
}

#[test]
fn swarmrun_example_is_a_valid_spec() {
    let (code, example, _) = swarmrun(&["--example"]);
    assert_eq!(code, Some(0));
    let spec: bt_sim::SwarmSpec = serde_json::from_str(&example).expect("example parses");
    assert_eq!(spec.validate(), Ok(()));
}

/// A spec key that is not a field is exit 2 naming it, not a run that
/// ignores it: each case is the `--example` spec plus one key earlier
/// versions of the spec carried (and silently ignored or overrode; a
/// transfer round of 0 once re-scheduled itself at `now + 0` forever,
/// so that case is refused by name, not run into a hang). A
/// topology that fails its own checks is exit 2 naming `net`, not a
/// panic when the link model is built.
#[test]
fn swarmrun_refuses_removed_keys_and_a_broken_topology_by_name() {
    use serde_json::Value;
    use std::collections::BTreeMap;
    fn object(v: &mut Value) -> &mut BTreeMap<String, Value> {
        match v {
            Value::Object(map) => map,
            other => panic!("not an object: {other:?}"),
        }
    }
    let dir = scratch_dir("removed-keys");
    let (_, example, _) = swarmrun(&["--example"]);
    let refuses = |name: &str, edit: &dyn Fn(&mut BTreeMap<String, Value>)| {
        let mut spec: Value = serde_json::from_str(&example).expect("example parses");
        edit(object(&mut spec));
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).expect("spec written");
        let (code, stdout, stderr) = swarmrun(&[path.to_str().unwrap()]);
        assert_eq!(code, Some(2), "{name}: {stdout}{stderr}");
        assert!(stderr.contains(name), "{name} not named in: {stderr}");
    };
    // (object holding the key — "" is the spec, "peers" its first
    // peer —, key, the value the key had.) Each key is spelled in two
    // halves so CI's grep for the removed names stays silent.
    let removed = [
        (
            "base_config",
            concat!("active_set", "_size"),
            Value::PosInt(4),
        ),
        (
            "base_config",
            concat!("max_upload", "_rate"),
            Value::PosInt(20 * 1024),
        ),
        ("peers", concat!("depart", "_at"), Value::Null),
        ("", concat!("prepop_completion", "_max"), Value::Float(0.9)),
        ("", concat!("transfer", "_round"), Value::PosInt(0)),
        ("", concat!("sample", "_every"), Value::PosInt(30_000_000)),
    ];
    for (holder, key, value) in removed {
        refuses(key, &|spec| {
            let target = match holder {
                "" => spec,
                "peers" => match spec.get_mut("peers") {
                    Some(Value::Array(peers)) => object(&mut peers[0]),
                    other => panic!("peers is not an array: {other:?}"),
                },
                name => object(spec.get_mut(name).expect("holder key present")),
            };
            target.insert(key.to_owned(), value.clone());
        });
    }
    refuses("net", &|spec| {
        let mut topology = bt_sim::TopologySpec::homogeneous();
        topology.classes.clear();
        let net = bt_sim::NetModel::FullDuplex(topology);
        let net = serde_json::from_str(&serde_json::to_string(&net).unwrap()).unwrap();
        spec.insert("net".to_owned(), net);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swarmrun_emit_dir_writes_the_five_artifacts() {
    let dir = scratch_dir("emit");
    let (_, example, _) = swarmrun(&["--example"]);
    let spec = dir.join("spec.json");
    std::fs::write(&spec, example).expect("spec written");
    let out = dir.join("out");
    let (code, stdout, stderr) =
        swarmrun(&[spec.to_str().unwrap(), "--emit-dir", out.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    let mut files: Vec<String> = std::fs::read_dir(&out)
        .expect("emit dir exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "metrics.jsonl",
            "profile.json",
            "run.json",
            "series.json",
            "trace.jsonl"
        ]
    );
    let printed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("run digest       : "))
        .expect("digest printed");
    let manifest = parse_json(&out.join("run.json"));
    assert_eq!(
        manifest.get("digest").and_then(|d| d.as_str()),
        Some(printed)
    );
    parse_jsonl(&out.join("metrics.jsonl"));
    parse_jsonl(&out.join("trace.jsonl"));
    parse_json(&out.join("series.json"));
    parse_json(&out.join("profile.json"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swarmrun_net_writes_parseable_observer_files() {
    let dir = scratch_dir("net");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (code, stdout, stderr) = swarmrun(&[
        "--net",
        "--seeds",
        "1",
        "--leechers",
        "1",
        "--pieces",
        "8",
        "--metrics",
        &path("metrics.jsonl"),
        "--series",
        &path("series.json"),
        "--profile",
        &path("profile.json"),
    ]);
    assert_eq!(code, Some(0), "{stdout}\n{stderr}");
    let metrics = parse_jsonl(&dir.join("metrics.jsonl"));
    let last = metrics.last().unwrap();
    assert!(last.contains("\"net.blocks_sent"), "{last}");
    parse_json(&dir.join("series.json"));
    parse_json(&dir.join("profile.json"));
    let _ = std::fs::remove_dir_all(&dir);
}
