//! Tests of the experiment drivers themselves: every figure/ablation
//! driver must run at quick scale and return structurally sane data.

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
    let rows = exp::fig1(&outcomes);
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
    let full = exp::replication_series(&o, false);
    let ls = exp::replication_series(&o, true);
    assert!(ls.points.len() <= full.points.len());
    assert!(!full.points.is_empty());
    let (pieces, blocks) = exp::interarrivals(&o);
    assert_eq!(
        pieces.count, o.scaled.pieces as usize,
        "every piece completed once"
    );
    assert!(blocks.count >= pieces.count, "blocks outnumber pieces");
}

#[test]
fn fairness_shares_are_simplex_like() {
    let cfg = quick();
    let outcomes = vec![run_scenario(&torrent(13), &cfg)];
    for (_, f) in exp::fig9(&outcomes)
        .iter()
        .chain(exp::fig11(&outcomes).iter())
    {
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
    let (c, _r_ls, _r_ss) = exp::fig10(&o);
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
