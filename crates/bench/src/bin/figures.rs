//! `figures` — regenerate every table and figure of the paper.
//!
//! ```text
//! figures <artefact> [--quick] [--full] [--seed N]
//! ```
//!
//! Run `figures --help` for the artefact list; DESIGN.md §5 maps each
//! artefact to the paper's table/figure.

use bt_bench::experiments as exp;
use bt_bench::report::{bar, downsample, ratio, secs, sparkline, table};
use bt_torrents::{run_scenario, torrent, RunConfig, ScenarioOutcome};
use std::io::Write as _;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artefact = None;
    let mut cfg = RunConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut jobs: Option<usize> = None;
    let mut peers_id: Option<u32> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => {
                cfg = RunConfig {
                    seed: cfg.seed,
                    ..RunConfig::quick()
                }
            }
            "--full" => {
                cfg.max_peers = 250;
                cfg.max_pieces = 400;
                cfg.session = bt_wire::time::Duration::from_secs(7200);
            }
            "--seed" => {
                cfg.seed = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--jobs" => {
                let n: usize = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs an integer"));
                if n == 0 {
                    die("--jobs must be at least 1");
                }
                jobs = Some(n);
            }
            "--out" => {
                out_dir = Some(PathBuf::from(
                    iter.next()
                        .unwrap_or_else(|| die("--out needs a directory")),
                ));
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other if artefact.is_none() && !other.starts_with('-') => {
                artefact = Some(other.to_owned());
            }
            other if artefact.as_deref() == Some("peers") && peers_id.is_none() => {
                peers_id = Some(
                    other
                        .parse()
                        .ok()
                        .filter(|id| (1..=26).contains(id))
                        .unwrap_or_else(|| die("peers needs a Table I torrent id (1-26)")),
                );
            }
            other => die(&format!("unknown argument `{other}` (see --help)")),
        }
    }
    let Some(artefact) = artefact else {
        print_help();
        return;
    };
    let jobs = jobs.unwrap_or_else(bt_torrents::default_jobs);

    match artefact.as_str() {
        "table1" => print_table1(&cfg),
        "fig1" => {
            let outcomes = run_sweep(&cfg, jobs);
            print_fig1(&outcomes);
        }
        "fig2" | "fig3" => {
            let o = run_one(8, &cfg);
            if artefact == "fig2" {
                print_replication(&o, true, "Figure 2 — copies in peer set, torrent 8 (LS)");
            } else {
                print_rarest(
                    &o,
                    true,
                    "Figure 3 — number of rarest pieces, torrent 8 (LS)",
                );
            }
        }
        "fig4" | "fig5" | "fig6" => {
            let o = run_one(7, &cfg);
            match artefact.as_str() {
                "fig4" => print_replication(&o, false, "Figure 4 — copies in peer set, torrent 7"),
                "fig5" => print_peer_set(&o, "Figure 5 — peer set size, torrent 7"),
                _ => print_rarest(&o, false, "Figure 6 — number of rarest pieces, torrent 7"),
            }
        }
        "fig7" | "fig8" => {
            let o = run_one(10, &cfg);
            let (pieces, blocks) = exp::interarrivals(&o);
            if artefact == "fig7" {
                print_interarrival(&pieces, "Figure 7 — piece interarrival CDF, torrent 10");
            } else {
                print_interarrival(&blocks, "Figure 8 — block interarrival CDF, torrent 10");
            }
        }
        "fig9" => {
            let outcomes = run_sweep(&cfg, jobs);
            print_fairness(&exp::fig9(&outcomes), "Figure 9 — fairness, leecher state");
        }
        "fig10" => {
            let o = run_one(7, &cfg);
            print_fig10(&o);
        }
        "fig11" => {
            let outcomes = run_sweep(&cfg, jobs);
            print_fairness(&exp::fig11(&outcomes), "Figure 11 — fairness, seed state");
        }
        "ablation-picker" => print_ablation_picker(&cfg),
        "ablation-seed-choke" => print_ablation_seed_choke(&cfg),
        "ablation-tft" => print_ablation_tft(&cfg),
        "ablation-endgame" => print_ablation_endgame(&cfg),
        "ablation-fastext" => print_ablation_fastext(&cfg),
        "ablation-superseed" => print_ablation_superseed(&cfg),
        "ablation-pex" => print_ablation_pex(&cfg),
        "msgstats" => print_msgstats(&run_one(7, &cfg)),
        "equilibrium" => {
            print_equilibrium(&run_one(7, &cfg));
            println!("(leecher state: long tenures + concentrated slots = the elected-subset equilibrium;");
            println!(
                " seed state: short tenures + rotation = the new algorithm's equal service time)"
            );
        }
        "clients" => print_clients(&cfg),
        "globalcheck" => print_globalcheck(&cfg),
        "capacity" => print_capacity(&cfg),
        "peers" => print_peers(&run_one(peers_id.unwrap_or(7), &cfg)),
        "export" => export_csv(
            &cfg,
            jobs,
            out_dir.as_deref().unwrap_or(Path::new("figures_out")),
        ),
        "all" => run_all(&cfg, jobs),
        other => die(&format!("unknown artefact `{other}` (see --help)")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2)
}

fn print_help() {
    let text = "figures — regenerate the paper's tables and figures

USAGE: figures <artefact> [--quick|--full] [--seed N]

ARTEFACTS
  table1  fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
  ablation-picker  ablation-seed-choke  ablation-tft  ablation-endgame
  ablation-fastext  ablation-superseed  ablation-pex
  msgstats              message tallies and control-plane overhead
  equilibrium           choke-slot tenures and active-set churn (§IV-B.2)
  clients               per-client-family breakdown (§III-D's client zoo)
  globalcheck           local-view inference vs global ground truth (§IV-A.2)
  capacity              flash-crowd completion curve (Yang & de Veciana check)
  peers [ID]            one torrent's trace peer by peer (default torrent 7)
  export                write every figure's data series as CSV (--out DIR)
  all

OPTIONS
  --quick   small scale (fast smoke run)
  --full    larger scale (closer to the paper's populations)
  --seed N  master PRNG seed (default 42)
  --jobs N  worker threads for the 26-torrent sweep (default: all cores)
  --out D   output directory for `export` (default ./figures_out)";
    println!("{text}");
}

fn run_one(id: u32, cfg: &RunConfig) -> ScenarioOutcome {
    let spec = torrent(id);
    eprintln!("running torrent {id} (scaled) ...");
    let o = run_scenario(&spec, cfg);
    eprintln!(
        "  scaled: {} seeds / {} leechers / {} pieces, session {}s, {} events",
        o.scaled.seeds,
        o.scaled.leechers,
        o.scaled.pieces,
        o.scaled.session_secs,
        o.result.events_processed
    );
    o
}

fn run_sweep(cfg: &RunConfig, jobs: usize) -> Vec<ScenarioOutcome> {
    eprintln!("running the 26-torrent sweep ({jobs} jobs) ...");
    exp::sweep(cfg, jobs, |id| eprintln!("  torrent {id:2} done"))
}

// ----------------------------------------------------------------------
// Renderers
// ----------------------------------------------------------------------

fn print_table1(cfg: &RunConfig) {
    println!("Table I — torrent characteristics (paper values and scaled simulation)");
    let rows: Vec<Vec<String>> = bt_torrents::table1()
        .iter()
        .map(|s| {
            let sc = bt_torrents::runner::scale(s, cfg);
            vec![
                s.id.to_string(),
                s.seeds.to_string(),
                s.leechers.to_string(),
                format!("{:.5}", s.ratio()),
                s.max_peer_set.to_string(),
                s.size_mb.to_string(),
                if s.transient {
                    "yes".into()
                } else {
                    "no".into()
                },
                format!("{}/{}", sc.seeds, sc.leechers),
                sc.pieces.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "ID",
                "#S",
                "#L",
                "S/L",
                "maxPS",
                "MB",
                "startup",
                "sim S/L",
                "sim pieces"
            ],
            &rows
        )
    );
}

fn print_fig1(outcomes: &[ScenarioOutcome]) {
    println!("Figure 1 — entropy characterisation (interest-time ratios, leecher state)");
    println!("top graph: local interested in remote (a/b); bottom: remote in local (c/d)\n");
    let rows: Vec<Vec<String>> = exp::fig1(outcomes)
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                if r.transient { "T".into() } else { " ".into() },
                ratio(r.local_in_remote.p20),
                ratio(r.local_in_remote.p50),
                ratio(r.local_in_remote.p80),
                ratio(r.remote_in_local.p20),
                ratio(r.remote_in_local.p50),
                ratio(r.remote_in_local.p80),
                r.peers.to_string(),
                bar(r.local_in_remote.p50, 20),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "ID",
                "st",
                "a/b p20",
                "p50",
                "p80",
                "c/d p20",
                "p50",
                "p80",
                "peers",
                "a/b median"
            ],
            &rows
        )
    );
    println!("st=T: torrent simulated in its startup (transient) phase");
}

fn series_of(o: &ScenarioOutcome, ls: bool) -> bt_analysis::ReplicationSeries {
    exp::replication_series(o, ls)
}

fn print_replication(o: &ScenarioOutcome, ls: bool, title: &str) {
    let s = series_of(o, ls);
    println!("{title}\n");
    let mins: Vec<f64> = s.points.iter().map(|p| f64::from(p.min)).collect();
    let means: Vec<f64> = s.points.iter().map(|p| p.mean).collect();
    let maxs: Vec<f64> = s.points.iter().map(|p| f64::from(p.max)).collect();
    let width = 64;
    println!("max  {}", sparkline(&downsample(&maxs, width)));
    println!("mean {}", sparkline(&downsample(&means, width)));
    println!("min  {}", sparkline(&downsample(&mins, width)));
    let last = s.points.last();
    println!(
        "\nsamples: {}   final min/mean/max: {}/{:.1}/{}   missing-piece fraction: {:.2}   state: {}",
        s.points.len(),
        last.map_or(0, |p| p.min),
        last.map_or(0.0, |p| p.mean),
        last.map_or(0, |p| p.max),
        s.missing_piece_fraction(),
        if s.is_transient() { "TRANSIENT" } else { "steady" },
    );
}

fn print_rarest(o: &ScenarioOutcome, ls: bool, title: &str) {
    let s = series_of(o, ls);
    println!("{title}\n");
    let rarest: Vec<f64> = s
        .points
        .iter()
        .map(|p| f64::from(p.rarest_set_size))
        .collect();
    println!("rarest-set size {}", sparkline(&downsample(&rarest, 64)));
    println!(
        "\nstart {} → end {}   slope {:.4} pieces/s (linear drain ⇒ initial-seed-limited)",
        rarest.first().copied().unwrap_or(0.0),
        rarest.last().copied().unwrap_or(0.0),
        s.rarest_set_slope(),
    );
    let t = bt_analysis::TransientSummary::from_series(&s, o.scaled.piece_len);
    if t.observed {
        println!(
            "transient until {}   implied source rate {:.1} kB/s (configured initial seed: 20 kB/s)",
            t.transient_until_secs.map_or("end".into(), |x| format!("{x:.0} s")),
            t.implied_seed_rate / 1024.0,
        );
    }
}

fn print_peer_set(o: &ScenarioOutcome, title: &str) {
    let s = series_of(o, false);
    println!("{title}\n");
    let ps: Vec<f64> = s
        .points
        .iter()
        .map(|p| f64::from(p.peer_set_size))
        .collect();
    println!("peer set {}", sparkline(&downsample(&ps, 64)));
    println!(
        "\nmean peer set: {:.1}   max: {:.0}",
        s.mean_peer_set(),
        ps.iter().cloned().fold(0.0, f64::max)
    );
}

fn print_interarrival(a: &bt_analysis::InterarrivalAnalysis, title: &str) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&q| {
            vec![
                format!("{:.0}%", q * 100.0),
                secs(a.all.quantile(q)),
                secs(a.first.quantile(q)),
                secs(a.last.quantile(q)),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["quantile", "all", "first 100", "last 100"], &rows)
    );
    println!(
        "arrivals: {}   first-slowdown ×{:.2}   last-slowdown ×{:.2}",
        a.count,
        a.first_slowdown(),
        a.last_slowdown()
    );
    println!(
        "(paper: first ≫ all — a first pieces/blocks problem; last ≈ all — no last pieces problem)"
    );
}

fn print_fairness(rows: &[(u32, bt_analysis::FairnessSummary)], title: &str) {
    println!("{title}\n");
    let out: Vec<Vec<String>> = rows
        .iter()
        .map(|(id, f)| {
            let mut cells = vec![id.to_string()];
            for s in &f.upload_share {
                cells.push(format!("{s:.2}"));
            }
            cells.push(format!("{:.2}", f.reciprocation_share(5)));
            cells.push(format!("{:.2}", f.jain_index()));
            cells.push((f.total_uploaded / 1024).to_string());
            cells
        })
        .collect();
    println!(
        "{}",
        table(
            &["ID", "set1", "set2", "set3", "set4", "set5", "set6", "recip5", "jain", "upKiB"],
            &out
        )
    );
    println!("setK: upload share of the K-th set of 5 best downloaders (set1 = black set)");
    println!("recip5: share of (leecher) download bytes coming from the 5 best-uploaded-to peers");
}

fn print_fig10(o: &ScenarioOutcome) {
    let (c, r_ls, r_ss) = exp::fig10(o);
    println!("Figure 10 — unchokes vs interested time, torrent 7\n");
    for (name, points, r) in [
        ("leecher state", &c.leecher, r_ls),
        ("seed state", &c.seed, r_ss),
    ] {
        println!("{name}: {} peers, Pearson r = {}", points.len(), ratio(r));
        let mut sorted = points.clone();
        sorted.sort_by(|a, b| a.interested_secs.total_cmp(&b.interested_secs));
        let ys: Vec<f64> = sorted.iter().map(|p| f64::from(p.unchokes)).collect();
        println!(
            "  unchokes (by interested time) {}",
            sparkline(&downsample(&ys, 60))
        );
    }
    println!("\n(paper: no correlation in leecher state; strong correlation in seed state)");
}

fn print_ablation_picker(cfg: &RunConfig) {
    println!("Ablation — piece selection strategies on torrent 6 (1 seed, transient)\n");
    let rows: Vec<Vec<String>> = exp::ablation_picker(cfg)
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.picker),
                ratio(r.entropy_ab_median),
                ratio(r.entropy_cd_median),
                r.local_download_secs.map_or("-".into(), secs),
                r.completed_peers.to_string(),
                format!("{:.2}", r.missing_piece_fraction),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "picker",
                "a/b med",
                "c/d med",
                "local dl",
                "done",
                "missing-frac"
            ],
            &rows
        )
    );
}

fn print_ablation_seed_choke(cfg: &RunConfig) {
    println!("Ablation — seed-state choke: new (≥4.0.0) vs old, fast seed + fast free rider\n");
    let rows: Vec<Vec<String>> = exp::ablation_seed_choke(cfg)
        .iter()
        .map(|r| {
            vec![
                if r.new_algorithm {
                    "new (SKU/SRU)".into()
                } else {
                    "old (rate)".into()
                },
                format!("{:.3}", r.jain_index),
                format!("{:.2}", r.free_rider_share),
                r.peers_served.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["algorithm", "jain", "FR share", "peers served"], &rows)
    );
    println!("(paper §IV-B.3: the old algorithm lets a fast free rider monopolise the seed)");
}

fn print_ablation_tft(cfg: &RunConfig) {
    println!("Ablation — choke algorithm vs bit-level tit-for-tat (asymmetric peers)\n");
    let rows: Vec<Vec<String>> = exp::ablation_tft(cfg)
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.choker),
                r.honest_mean_secs.map_or("-".into(), secs),
                format!("{}/{}", r.honest_completed, r.honest_total),
                format!("{}/{}", r.free_riders_completed, r.free_rider_total),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "choker",
                "honest mean dl",
                "honest done",
                "free riders done"
            ],
            &rows
        )
    );
    println!(
        "(paper §IV-B.1: TFT strands excess capacity; choke uses it without rewarding FRs over contributors)"
    );
}

fn print_ablation_endgame(cfg: &RunConfig) {
    println!("Ablation — end game mode on vs off (torrent 3)\n");
    let rows: Vec<Vec<String>> = exp::ablation_endgame(cfg)
        .iter()
        .map(|r| {
            vec![
                if r.endgame { "on".into() } else { "off".into() },
                r.local_download_secs.map_or("-".into(), secs),
                secs(r.last_blocks_max_gap),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["end game", "local dl", "max gap last 100 blocks"], &rows)
    );
    println!("(paper §IV-A.3: end game trims termination idle time only — little overall impact)");
}

fn print_ablation_fastext(cfg: &RunConfig) {
    println!("Ablation — Fast Extension (BEP 6) vs the first blocks problem (torrent 10)\n");
    let rows: Vec<Vec<String>> = exp::ablation_fastext(cfg)
        .iter()
        .map(|r| {
            vec![
                if r.fast { "on".into() } else { "off".into() },
                r.time_to_first_block.map_or("-".into(), secs),
                r.time_to_first_piece.map_or("-".into(), secs),
                format!("×{:.2}", r.first_blocks_slowdown),
                r.local_download_secs.map_or("-".into(), secs),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "fast ext",
                "first block",
                "first piece",
                "first-100 slowdown",
                "local dl"
            ],
            &rows
        )
    );
    println!("(paper §VI: \"the time to deliver the first blocks of data should be reduced\")");
}

fn print_ablation_superseed(cfg: &RunConfig) {
    println!("Ablation — initial seed policy: plain seeding vs super-seeding (flash crowd)\n");
    let rows: Vec<Vec<String>> = exp::ablation_superseed(cfg)
        .iter()
        .map(|r| {
            vec![
                if r.super_seed {
                    "super-seed".into()
                } else {
                    "plain".into()
                },
                r.first_copy_secs.map_or("-".into(), secs),
                format!("{:.1} %", r.duplicate_ratio * 100.0),
                r.completed_peers.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "policy",
                "first full copy",
                "duplicate blocks",
                "peers done"
            ],
            &rows
        )
    );
    println!(
        "(paper §IV-A.4: policies like super seeding keep the initial seed's duplicate ratio low)"
    );
}

fn print_ablation_pex(cfg: &RunConfig) {
    println!("Ablation — peer exchange (BEP 11) under a rationing tracker (2 peers/announce)\n");
    let rows: Vec<Vec<String>> = exp::ablation_pex(cfg)
        .iter()
        .map(|r| {
            vec![
                if r.pex {
                    "ut_pex on".into()
                } else {
                    "tracker only".into()
                },
                format!("{:.1}", r.mean_peer_set),
                r.local_download_secs.map_or("-".into(), secs),
                r.completed_peers.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["discovery", "mean peer set", "late joiner dl", "peers done"],
            &rows
        )
    );
    println!(
        "(§II-B: the tracker's random lists interconnect the peer sets; gossip replaces them)"
    );
}

fn print_clients(cfg: &RunConfig) {
    let o = run_one(7, cfg);
    let b = bt_analysis::client_breakdown(&o.trace);
    println!("Client families — torrent 7 (§III-D: \"around 20 different BitTorrent clients\")\n");
    let rows: Vec<Vec<String>> = b
        .families
        .iter()
        .map(|(fam, a)| {
            vec![
                fam.clone(),
                a.connections.to_string(),
                a.unique_peers.to_string(),
                secs(a.membership_secs),
                (a.downloaded / 1024).to_string(),
                (a.uploaded / 1024).to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "client id",
                "conns",
                "unique",
                "member time",
                "dl KiB",
                "ul KiB"
            ],
            &rows
        )
    );
    if let Some((fam, bytes)) = b.top_source() {
        println!("top source family: {fam} ({} KiB)", bytes / 1024);
    }
}

fn print_globalcheck(cfg: &RunConfig) {
    println!("Validation — local-view inference vs global ground truth (§IV-A.2)\n");
    println!("the paper could only infer the transient state from the local peer set;");
    println!("the simulator knows the whole torrent, so the inference can be graded.\n");
    let rows: Vec<Vec<String>> = exp::global_check(cfg)
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                if r.local_transient {
                    "TRANSIENT".into()
                } else {
                    "steady".into()
                },
                format!("{:.2}", r.local_missing_fraction),
                if r.truth_transient {
                    "TRANSIENT".into()
                } else {
                    "steady".into()
                },
                format!("{:.2}", r.truth_rare_fraction),
                format!("{:.1}", r.truth_single_copy_mean),
                if r.local_transient == r.truth_transient {
                    "✓".into()
                } else {
                    "✗".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "torrent",
                "local call",
                "miss-frac",
                "truth call",
                "rare-frac",
                "rare pieces",
                "agree"
            ],
            &rows
        )
    );
    println!("(the local 80-peer window is a faithful proxy for the global state — the");
    println!(" paper's §III-E.1 representativeness argument, now checked, not assumed)");
}

fn print_capacity(cfg: &RunConfig) {
    use bt_sim::behavior::{CapacityClass, Role};
    use bt_sim::{BehaviorProfile, Swarm, SwarmSpec};
    use bt_wire::time::Duration as D;
    println!("Service capacity — swarm vs client-server as the population grows (§I)\n");
    println!("the same simulator runs both: \"client-server\" = every leecher is a");
    println!("free rider, so only the seed serves; \"swarm\" = normal leechers.\n");
    let run = |n: usize, server_only: bool| -> Option<f64> {
        let mut peers = Vec::new();
        peers.push(BehaviorProfile {
            role: Role::Seed,
            client: bt_wire::peer_id::ClientKind::Mainline402,
            capacity: CapacityClass::Cable, // 64 kB/s source
            join_at: D::ZERO,
            seed_linger: None,
            depart_at: None,
            prepopulate: false,
            restart_after: None,
        });
        for i in 0..n {
            peers.push(BehaviorProfile {
                role: if server_only {
                    Role::FreeRider
                } else {
                    Role::Leecher
                },
                client: bt_wire::peer_id::ClientKind::Mainline402,
                capacity: CapacityClass::Dsl,
                join_at: D::from_secs(i as u64 % 30),
                seed_linger: Some(D::from_secs(3600)),
                depart_at: None,
                prepopulate: false,
                restart_after: None,
            });
        }
        let spec = SwarmSpec {
            seed: cfg.seed,
            total_len: 24 * 256 * 1024, // 6 MB
            piece_len: 256 * 1024,
            duration: D::from_secs(4 * 3600),
            peers,
            local: None,
            available_fraction: 0.0,
            ..SwarmSpec::default()
        };
        let result = Swarm::new(spec).run();
        let curve = bt_analysis::CapacityCurve::from_completions(&result.completion);
        if curve.completions.len() < n {
            return None; // not everyone finished within the session
        }
        Some(curve.completions.iter().sum::<f64>() / curve.completions.len() as f64)
    };
    let mut rows = Vec::new();
    for n in [8usize, 16, 32] {
        let swarm = run(n, false);
        let server = run(n, true);
        rows.push(vec![
            n.to_string(),
            swarm.map_or("> session".into(), secs),
            server.map_or("> session".into(), secs),
        ]);
    }
    println!(
        "{}",
        table(
            &["leechers", "swarm mean dl", "client-server mean dl"],
            &rows
        )
    );
    println!("(Yang & de Veciana via §I: swarm service capacity grows with the peers, so the");
    println!(" mean download time stays flat; a fixed-capacity server degrades linearly in N)");
}

/// Per-peer entropy ratios beside arrival progress, membership and byte
/// tallies, sorted by a/b — which peers the local peer was (not)
/// interested in, and what it exchanged with them.
fn print_peers(o: &ScenarioOutcome) {
    let reg = bt_instrument::identify::PeerRegistry::from_trace(&o.trace);
    let ent = bt_analysis::entropy(&o.trace);
    let fair = bt_analysis::fairness(&o.trace, bt_analysis::StateWindow::Leecher);
    println!(
        "Peers — torrent {} (local peer seed at {})\n",
        o.spec.id,
        o.trace
            .meta
            .seed_at
            .map_or("-".into(), |t| secs(t.as_secs_f64()))
    );
    let mut peers: Vec<_> = ent.peers.iter().collect();
    peers.sort_by(|a, b| a.local_in_remote.total_cmp(&b.local_in_remote));
    let rows: Vec<Vec<String>> = peers
        .iter()
        .map(|p| {
            let m = reg.membership(p.handle).expect("entropy peers are members");
            let bytes = fair.ranked.iter().find(|b| b.handle == p.handle);
            vec![
                p.handle.to_string(),
                m.pieces_on_arrival.to_string(),
                format!("{:.0}", m.joined.as_secs_f64()),
                format!("{:.0}", p.membership_secs),
                ratio(p.local_in_remote),
                ratio(p.remote_in_local),
                bytes.map_or(0, |b| b.downloaded / 1024).to_string(),
                bytes.map_or(0, |b| b.uploaded / 1024).to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "handle",
                "arr.pieces",
                "join_s",
                "member_s",
                "a/b",
                "c/d",
                "dlKiB",
                "ulKiB"
            ],
            &rows
        )
    );
}

fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", path.display())));
    writeln!(f, "{header}").expect("write");
    for r in rows {
        writeln!(f, "{r}").expect("write");
    }
    eprintln!("  wrote {}", path.display());
}

fn series_csv(dir: &Path, name: &str, s: &bt_analysis::ReplicationSeries) {
    let rows: Vec<String> = s
        .points
        .iter()
        .map(|p| {
            format!(
                "{},{},{},{},{},{}",
                p.t_secs, p.min, p.mean, p.max, p.rarest_set_size, p.peer_set_size
            )
        })
        .collect();
    write_csv(dir, name, "t_secs,min,mean,max,rarest_set,peer_set", &rows);
}

fn cdf_csv(dir: &Path, name: &str, a: &bt_analysis::InterarrivalAnalysis) {
    let rows: Vec<String> = (0..=100)
        .map(|i| {
            let q = f64::from(i) / 100.0;
            format!(
                "{q},{},{},{}",
                a.all.quantile(q),
                a.first.quantile(q),
                a.last.quantile(q)
            )
        })
        .collect();
    write_csv(dir, name, "quantile,all,first100,last100", &rows);
}

fn fairness_csv(dir: &Path, name: &str, rows: &[(u32, bt_analysis::FairnessSummary)]) {
    let out: Vec<String> = rows
        .iter()
        .map(|(id, f)| {
            let sets: Vec<String> = f.upload_share.iter().map(|s| format!("{s:.4}")).collect();
            format!(
                "{id},{},{:.4},{:.4},{}",
                sets.join(","),
                f.reciprocation_share(5),
                f.jain_index(),
                f.total_uploaded
            )
        })
        .collect();
    write_csv(
        dir,
        name,
        "torrent,set1,set2,set3,set4,set5,set6,recip5,jain,uploaded_bytes",
        &out,
    );
}

/// Run every figure's workload and write plotting-ready CSV series.
fn export_csv(cfg: &RunConfig, jobs: usize, dir: &Path) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    eprintln!("exporting CSV series to {} ...", dir.display());
    let outcomes = run_sweep(cfg, jobs);
    let find = |id: u32| {
        outcomes
            .iter()
            .find(|o| o.spec.id == id)
            .expect("sweep has id")
    };

    // Table I.
    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            format!(
                "{},{},{},{:.6},{},{},{},{}/{},{}",
                o.spec.id,
                o.spec.seeds,
                o.spec.leechers,
                o.spec.ratio(),
                o.spec.max_peer_set,
                o.spec.size_mb,
                o.spec.transient,
                o.scaled.seeds,
                o.scaled.leechers,
                o.scaled.pieces
            )
        })
        .collect();
    write_csv(
        dir,
        "table1.csv",
        "id,seeds,leechers,ratio,max_ps,size_mb,startup,sim_sl,sim_pieces",
        &rows,
    );

    // Figure 1.
    let rows: Vec<String> = exp::fig1(&outcomes)
        .iter()
        .map(|r| {
            format!(
                "{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{}",
                r.id,
                r.transient,
                r.local_in_remote.p20,
                r.local_in_remote.p50,
                r.local_in_remote.p80,
                r.remote_in_local.p20,
                r.remote_in_local.p50,
                r.remote_in_local.p80,
                r.peers
            )
        })
        .collect();
    write_csv(
        dir,
        "fig1.csv",
        "torrent,startup,ab_p20,ab_p50,ab_p80,cd_p20,cd_p50,cd_p80,peers",
        &rows,
    );

    // Figures 2–6.
    series_csv(
        dir,
        "fig2_fig3_torrent8_ls.csv",
        &exp::replication_series(find(8), true),
    );
    series_csv(
        dir,
        "fig4_fig5_fig6_torrent7.csv",
        &exp::replication_series(find(7), false),
    );

    // Figures 7/8.
    let (pieces, blocks) = exp::interarrivals(find(10));
    cdf_csv(dir, "fig7_piece_interarrival.csv", &pieces);
    cdf_csv(dir, "fig8_block_interarrival.csv", &blocks);

    // Figures 9/11.
    fairness_csv(dir, "fig9_fairness_ls.csv", &exp::fig9(&outcomes));
    fairness_csv(dir, "fig11_fairness_ss.csv", &exp::fig11(&outcomes));

    // Figure 10.
    let (c, _, _) = exp::fig10(find(7));
    for (name, points) in [("fig10_ls.csv", &c.leecher), ("fig10_ss.csv", &c.seed)] {
        let rows: Vec<String> = points
            .iter()
            .map(|p| format!("{},{},{}", p.handle, p.interested_secs, p.unchokes))
            .collect();
        write_csv(dir, name, "handle,interested_secs,unchokes", &rows);
    }

    // Message statistics.
    let stats = bt_analysis::MessageStats::from_trace(&find(7).trace);
    let rows: Vec<String> = stats
        .counts
        .iter()
        .map(|(k, v)| format!("{k},{},{}", v.sent, v.received))
        .collect();
    write_csv(dir, "msgstats_torrent7.csv", "kind,sent,received", &rows);
    eprintln!("done.");
}

fn run_all(cfg: &RunConfig, jobs: usize) {
    print_table1(cfg);
    let outcomes = run_sweep(cfg, jobs);
    println!();
    print_fig1(&outcomes);
    let find = |id: u32| {
        outcomes
            .iter()
            .find(|o| o.spec.id == id)
            .expect("sweep has id")
    };
    println!();
    print_replication(
        find(8),
        true,
        "Figure 2 — copies in peer set, torrent 8 (LS)",
    );
    println!();
    print_rarest(
        find(8),
        true,
        "Figure 3 — number of rarest pieces, torrent 8 (LS)",
    );
    println!();
    print_replication(find(7), false, "Figure 4 — copies in peer set, torrent 7");
    println!();
    print_peer_set(find(7), "Figure 5 — peer set size, torrent 7");
    println!();
    print_rarest(
        find(7),
        false,
        "Figure 6 — number of rarest pieces, torrent 7",
    );
    println!();
    let (pieces, blocks) = exp::interarrivals(find(10));
    print_interarrival(&pieces, "Figure 7 — piece interarrival CDF, torrent 10");
    println!();
    print_interarrival(&blocks, "Figure 8 — block interarrival CDF, torrent 10");
    println!();
    print_fairness(&exp::fig9(&outcomes), "Figure 9 — fairness, leecher state");
    println!();
    print_fig10(find(7));
    println!();
    print_fairness(&exp::fig11(&outcomes), "Figure 11 — fairness, seed state");
    println!();
    print_ablation_picker(cfg);
    println!();
    print_ablation_seed_choke(cfg);
    println!();
    print_ablation_tft(cfg);
    println!();
    print_ablation_endgame(cfg);
    println!();
    print_ablation_fastext(cfg);
    println!();
    print_ablation_superseed(cfg);
    println!();
    print_ablation_pex(cfg);
    println!();
    print_msgstats(find(7));
    println!();
    print_equilibrium(find(7));
    println!();
    print_capacity(cfg);
}

fn print_msgstats(o: &ScenarioOutcome) {
    let stats = bt_analysis::MessageStats::from_trace(&o.trace);
    println!("Message statistics — torrent 7 (§III-C full message log)\n");
    let rows: Vec<Vec<String>> = stats
        .counts
        .iter()
        .map(|(kind, c)| vec![kind.clone(), c.sent.to_string(), c.received.to_string()])
        .collect();
    println!("{}", table(&["kind", "sent", "received"], &rows));
    println!(
        "control bytes: {}   data bytes: {}   overhead: {:.4} control B per data B",
        stats.control_bytes,
        stats.data_bytes,
        stats.overhead_ratio()
    );
}

fn print_equilibrium(o: &ScenarioOutcome) {
    let (ls, ss) = bt_analysis::equilibrium(&o.trace);
    println!("Choke equilibrium — torrent 7 (§IV-B.2's future-work analysis)\n");
    let rows = vec![
        vec![
            "leecher".to_string(),
            ls.tenures.to_string(),
            secs(ls.mean_tenure_secs),
            secs(ls.median_tenure_secs()),
            format!("{:.2}", ls.top3_unchoke_share),
            format!("{:.2}", ls.churn_per_round),
        ],
        vec![
            "seed".to_string(),
            ss.tenures.to_string(),
            secs(ss.mean_tenure_secs),
            secs(ss.median_tenure_secs()),
            format!("{:.2}", ss.top3_unchoke_share),
            format!("{:.2}", ss.churn_per_round),
        ],
    ];
    println!(
        "{}",
        table(
            &[
                "state",
                "tenures",
                "mean tenure",
                "median",
                "top-3 share",
                "churn/round"
            ],
            &rows
        )
    );
}
