//! `figures` — regenerate every table and figure of the paper.
//!
//! ```text
//! figures <artefact> [--quick] [--full] [--seed N]
//! ```
//!
//! [`ARTEFACTS`] lists every artefact once: `figures <name>`, `figures
//! all` and `figures --help` all read it. DESIGN.md §5 maps each one to
//! the paper's table/figure.

use bt_analysis::{
    entropy, fairness, pearson, unchoke_correlation, InterarrivalAnalysis, ReplicationSeries,
    StateWindow,
};
use bt_bench::experiments as exp;
use bt_bench::report::{bar, downsample, ratio, secs, sparkline, table};
use bt_torrents::{run_scenario, torrent, RunConfig, ScenarioOutcome};
use std::cell::OnceCell;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One artefact `figures` can print.
struct Artefact {
    /// Its name on the command line.
    name: &'static str,
    /// Whether `figures all` prints it.
    all: bool,
    /// The argument it takes after its name, as `--help` shows it.
    arg: Option<&'static str>,
    /// Prints the artefact, opening its section with `title`.
    render: fn(&Ctx, &str),
    /// The section's first line (`peers` names the torrent it ran
    /// instead), and the artefact's `--help` line.
    title: &'static str,
}

/// An artefact that takes no argument.
const fn art(
    name: &'static str,
    all: bool,
    render: fn(&Ctx, &str),
    title: &'static str,
) -> Artefact {
    Artefact {
        name,
        all,
        arg: None,
        render,
        title,
    }
}

/// Every artefact; `figures all` prints the ones with `all` set, in
/// this order, a blank line apart.
#[rustfmt::skip]
const ARTEFACTS: &[Artefact] = &[
    // name, printed by `all`, renderer, title
    art("table1", true, print_table1,
        "Table I — torrent characteristics (paper values and scaled simulation)"),
    art("fig1", true, print_fig1,
        "Figure 1 — entropy characterisation (interest-time ratios, leecher state)"),
    art("fig2", true, |c, t| print_replication(c.torrent(8), true, t),
        "Figure 2 — copies in peer set, torrent 8 (LS)"),
    art("fig3", true, |c, t| print_rarest(c.torrent(8), true, t),
        "Figure 3 — number of rarest pieces, torrent 8 (LS)"),
    art("fig4", true, |c, t| print_replication(c.torrent(7), false, t),
        "Figure 4 — copies in peer set, torrent 7"),
    art("fig5", true, |c, t| print_peer_set(c.torrent(7), t),
        "Figure 5 — peer set size, torrent 7"),
    art("fig6", true, |c, t| print_rarest(c.torrent(7), false, t),
        "Figure 6 — number of rarest pieces, torrent 7"),
    art("fig7", true, |c, t| print_interarrival(&InterarrivalAnalysis::pieces(&c.torrent(10).trace), t),
        "Figure 7 — piece interarrival CDF, torrent 10"),
    art("fig8", true, |c, t| print_interarrival(&InterarrivalAnalysis::blocks(&c.torrent(10).trace), t),
        "Figure 8 — block interarrival CDF, torrent 10"),
    art("fig9", true, |c, t| print_fairness(c.sweep(), StateWindow::Leecher, t),
        "Figure 9 — fairness, leecher state"),
    art("fig10", true, |c, t| print_fig10(c.torrent(7), t),
        "Figure 10 — unchokes vs interested time, torrent 7"),
    art("fig11", true, |c, t| print_fairness(c.sweep(), StateWindow::Seed, t),
        "Figure 11 — fairness, seed state"),
    art("ablation-picker", true, print_ablation_picker,
        "Ablation — piece selection strategies on torrent 6 (1 seed, transient)"),
    art("ablation-seed-choke", true, print_ablation_seed_choke,
        "Ablation — seed-state choke: new (≥4.0.0) vs old, fast seed + fast free rider"),
    art("ablation-tft", true, print_ablation_tft,
        "Ablation — choke algorithm vs bit-level tit-for-tat (asymmetric peers)"),
    art("ablation-endgame", true, print_ablation_endgame,
        "Ablation — end game mode on vs off (torrent 3)"),
    art("ablation-fastext", true, print_ablation_fastext,
        "Ablation — Fast Extension (BEP 6) vs the first blocks problem (torrent 10)"),
    art("ablation-superseed", true, print_ablation_superseed,
        "Ablation — initial seed policy: plain seeding vs super-seeding (flash crowd)"),
    art("ablation-pex", true, print_ablation_pex,
        "Ablation — peer exchange (BEP 11) under a rationing tracker (2 peers/announce)"),
    art("msgstats", true, |c, t| print_msgstats(c.torrent(7), t),
        "Message statistics — torrent 7 (§III-C full message log)"),
    art("equilibrium", true, |c, t| print_equilibrium(c.torrent(7), t),
        "Choke equilibrium — torrent 7 (§IV-B.2's future-work analysis)"),
    art("capacity", true, print_capacity,
        "Service capacity — swarm vs client-server as the population grows (§I)"),
    art("clients", false, |c, t| print_clients(c.torrent(7), t),
        "Client families — torrent 7 (§III-D: \"around 20 different BitTorrent clients\")"),
    art("globalcheck", false, print_globalcheck,
        "Validation — local-view inference vs global ground truth (§IV-A.2)"),
    Artefact { arg: Some("[ID]"), ..art("peers", false, print_peers,
        "Peers — one torrent's trace peer by peer (default torrent 7)") },
    art("export", false, export_csv,
        "Export — every figure's data series as CSV (--out DIR)"),
];

const OPTIONS: &str = "OPTIONS
  --quick   small scale (fast smoke run)
  --full    larger scale (closer to the paper's populations)
  --seed N  master PRNG seed (default 42)
  --jobs N  worker threads for the 26-torrent sweep (default: all cores)
  --out D   output directory for `export` (default ./figures_out)";

/// What a renderer runs on: the options, and the one place scenario
/// outcomes come from. The Table I sweep runs at most once; once it has,
/// every torrent is served from it, and before that a torrent runs
/// alone. The two are the same outcome: a scenario seeds from
/// `(cfg.seed, torrent id)` only.
struct Ctx {
    cfg: RunConfig,
    jobs: usize,
    /// The argument after the artefact's name, if it takes one.
    arg: Option<String>,
    out_dir: PathBuf,
    sweep: OnceCell<Vec<ScenarioOutcome>>,
    /// Torrents run alone, by id − 1.
    alone: Vec<OnceCell<ScenarioOutcome>>,
}

impl Ctx {
    /// Every Table I torrent, in Table I order.
    fn sweep(&self) -> &[ScenarioOutcome] {
        self.sweep.get_or_init(|| {
            eprintln!("running the 26-torrent sweep ({} jobs) ...", self.jobs);
            bt_torrents::run_table1_parallel(&self.cfg, self.jobs, |o| {
                eprintln!("  torrent {:2} done", o.spec.id);
            })
        })
    }

    /// Table I torrent `id`.
    fn torrent(&self, id: u32) -> &ScenarioOutcome {
        if let Some(outcomes) = self.sweep.get() {
            return outcomes
                .iter()
                .find(|o| o.spec.id == id)
                .expect("sweep has id");
        }
        self.alone[id as usize - 1].get_or_init(|| {
            eprintln!("running torrent {id} (scaled) ...");
            let o = run_scenario(&torrent(id), &self.cfg);
            eprintln!(
                "  scaled: {} seeds / {} leechers / {} pieces, session {}s, {} events",
                o.scaled.seeds,
                o.scaled.leechers,
                o.scaled.pieces,
                o.scaled.session_secs,
                o.result.events_processed
            );
            o
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut cfg = RunConfig::default();
    let mut out_dir = PathBuf::from("figures_out");
    let mut jobs: Option<usize> = None;
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
            "--seed" => cfg.seed = int(a, iter.next()),
            "--jobs" => match int(a, iter.next()) {
                0 => die("--jobs must be at least 1"),
                n => jobs = Some(n),
            },
            "--out" => {
                out_dir = PathBuf::from(
                    iter.next()
                        .unwrap_or_else(|| die("--out needs a directory")),
                );
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other if positional.len() < 2 && !other.starts_with('-') => positional.push(other),
            other => die(&format!("unknown argument `{other}` (see --help)")),
        }
    }
    let Some(&name) = positional.first() else {
        print_help();
        return;
    };
    let artefact = ARTEFACTS.iter().find(|a| a.name == name);
    if let Some(extra) = positional
        .get(1)
        .filter(|_| artefact.is_none_or(|a| a.arg.is_none()))
    {
        die(&format!("unknown argument `{extra}` (see --help)"));
    }
    let ctx = Ctx {
        cfg,
        jobs: jobs.unwrap_or_else(bt_torrents::default_jobs),
        arg: positional.get(1).map(|s| s.to_string()),
        out_dir,
        sweep: OnceCell::new(),
        alone: std::iter::repeat_with(OnceCell::new)
            .take(bt_torrents::table1().len())
            .collect(),
    };
    match artefact {
        Some(a) => (a.render)(&ctx, a.title),
        None if name == "all" => {
            for (i, a) in ARTEFACTS.iter().filter(|a| a.all).enumerate() {
                if i > 0 {
                    println!();
                }
                (a.render)(&ctx, a.title);
            }
        }
        None => die(&format!("unknown artefact `{name}` (see --help)")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2)
}

/// The integer value of `flag`, or exit 2.
fn int<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    value
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs an integer")))
}

fn print_help() {
    println!("figures — regenerate the paper's tables and figures\n");
    println!("USAGE: figures <artefact> [--quick|--full] [--seed N] [--jobs N] [--out D]\n");
    println!("ARTEFACTS (`all` prints those marked *, in this order)");
    for a in ARTEFACTS {
        let name = format!("{} {}", a.name, a.arg.unwrap_or_default());
        let mark = if a.all { '*' } else { ' ' };
        println!("{mark} {:<21} {}", name.trim_end(), a.title);
    }
    println!("  {:<21} every artefact marked *\n\n{OPTIONS}", "all");
}

// ----------------------------------------------------------------------
// Renderers
// ----------------------------------------------------------------------

fn print_table1(c: &Ctx, title: &str) {
    println!("{title}");
    let rows: Vec<Vec<String>> = bt_torrents::table1()
        .iter()
        .map(|s| {
            let sc = bt_torrents::runner::scale(s, &c.cfg);
            vec![
                s.id.to_string(),
                s.seeds.to_string(),
                s.leechers.to_string(),
                format!("{:.5}", s.ratio()),
                s.max_peer_set.to_string(),
                s.size_mb.to_string(),
                String::from(if s.transient { "yes" } else { "no" }),
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

fn print_fig1(c: &Ctx, title: &str) {
    let outcomes = c.sweep();
    println!("{title}");
    println!("top graph: local interested in remote (a/b); bottom: remote in local (c/d)\n");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            let e = entropy(&o.trace);
            vec![
                o.spec.id.to_string(),
                String::from(if o.spec.transient { "T" } else { " " }),
                ratio(e.local_in_remote.p20),
                ratio(e.local_in_remote.p50),
                ratio(e.local_in_remote.p80),
                ratio(e.remote_in_local.p20),
                ratio(e.remote_in_local.p50),
                ratio(e.remote_in_local.p80),
                e.peers.len().to_string(),
                bar(e.local_in_remote.p50, 20),
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

fn print_replication(o: &ScenarioOutcome, ls: bool, title: &str) {
    let mut s = ReplicationSeries::from_trace(&o.trace);
    if ls {
        s = s.leecher_state(&o.trace);
    }
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
    let mut s = ReplicationSeries::from_trace(&o.trace);
    if ls {
        s = s.leecher_state(&o.trace);
    }
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
    let s = ReplicationSeries::from_trace(&o.trace);
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

fn print_fairness(outcomes: &[ScenarioOutcome], window: StateWindow, title: &str) {
    println!("{title}\n");
    let out: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            let f = fairness(&o.trace, window);
            let mut cells = vec![o.spec.id.to_string()];
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

fn print_fig10(o: &ScenarioOutcome, title: &str) {
    let c = unchoke_correlation(&o.trace);
    println!("{title}\n");
    for (name, points) in [("leecher state", &c.leecher), ("seed state", &c.seed)] {
        let r = ratio(pearson(points));
        println!("{name}: {} peers, Pearson r = {r}", points.len());
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

fn print_ablation_picker(c: &Ctx, title: &str) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = exp::ablation_picker(&c.cfg)
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

fn print_ablation_seed_choke(c: &Ctx, title: &str) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = exp::ablation_seed_choke(&c.cfg)
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

fn print_ablation_tft(c: &Ctx, title: &str) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = exp::ablation_tft(&c.cfg)
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

fn print_ablation_endgame(c: &Ctx, title: &str) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = exp::ablation_endgame(&c.cfg)
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

fn print_ablation_fastext(c: &Ctx, title: &str) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = exp::ablation_fastext(&c.cfg)
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

fn print_ablation_superseed(c: &Ctx, title: &str) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = exp::ablation_superseed(&c.cfg)
        .iter()
        .map(|r| {
            vec![
                String::from(if r.super_seed { "super-seed" } else { "plain" }),
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

fn print_ablation_pex(c: &Ctx, title: &str) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = exp::ablation_pex(&c.cfg)
        .iter()
        .map(|r| {
            vec![
                String::from(if r.pex { "ut_pex on" } else { "tracker only" }),
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

fn print_clients(o: &ScenarioOutcome, title: &str) {
    let b = bt_analysis::client_breakdown(&o.trace);
    println!("{title}\n");
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

fn print_globalcheck(c: &Ctx, title: &str) {
    println!("{title}\n");
    println!("the paper could only infer the transient state from the local peer set;");
    println!("the simulator knows the whole torrent, so the inference can be graded.\n");
    let call = |transient| String::from(if transient { "TRANSIENT" } else { "steady" });
    let rows: Vec<Vec<String>> = exp::global_check(&c.cfg)
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                call(r.local_transient),
                format!("{:.2}", r.local_missing_fraction),
                call(r.truth_transient),
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

fn print_capacity(c: &Ctx, title: &str) {
    use bt_sim::behavior::{CapacityClass, Role};
    use bt_sim::{BehaviorProfile, Swarm, SwarmSpec};
    use bt_wire::time::Duration as D;
    println!("{title}\n");
    println!("the same simulator runs both: \"client-server\" = every leecher is a");
    println!("free rider, so only the seed serves; \"swarm\" = normal leechers.\n");
    let run = |n: usize, server_only: bool| -> Option<f64> {
        let mut peers = vec![BehaviorProfile {
            capacity: CapacityClass::Cable, // 64 kB/s source
            ..BehaviorProfile::seed()
        }];
        for i in 0..n {
            peers.push(BehaviorProfile {
                role: if server_only {
                    Role::FreeRider
                } else {
                    Role::Leecher
                },
                capacity: CapacityClass::Dsl,
                seed_linger: Some(D::from_secs(3600)),
                ..BehaviorProfile::leecher(D::from_secs(i as u64 % 30))
            });
        }
        let spec = SwarmSpec {
            seed: c.cfg.seed,
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
fn print_peers(c: &Ctx, _: &str) {
    let id = c.arg.as_deref().map_or(7, |s| {
        s.parse()
            .ok()
            .filter(|id| (1..=26).contains(id))
            .unwrap_or_else(|| die("peers needs a Table I torrent id (1-26)"))
    });
    let o = c.torrent(id);
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

fn fairness_csv(dir: &Path, name: &str, outcomes: &[ScenarioOutcome], window: StateWindow) {
    let out: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let f = fairness(&o.trace, window);
            let sets: Vec<String> = f.upload_share.iter().map(|s| format!("{s:.4}")).collect();
            format!(
                "{},{},{:.4},{:.4},{}",
                o.spec.id,
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
fn export_csv(c: &Ctx, _: &str) {
    let dir = c.out_dir.as_path();
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    eprintln!("exporting CSV series to {} ...", dir.display());
    let outcomes = c.sweep();

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
    let rows: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let e = entropy(&o.trace);
            format!(
                "{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{}",
                o.spec.id,
                o.spec.transient,
                e.local_in_remote.p20,
                e.local_in_remote.p50,
                e.local_in_remote.p80,
                e.remote_in_local.p20,
                e.remote_in_local.p50,
                e.remote_in_local.p80,
                e.peers.len()
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
    let t8 = &c.torrent(8).trace;
    let t7 = &c.torrent(7).trace;
    let ls8 = ReplicationSeries::from_trace(t8).leecher_state(t8);
    series_csv(dir, "fig2_fig3_torrent8_ls.csv", &ls8);
    series_csv(
        dir,
        "fig4_fig5_fig6_torrent7.csv",
        &ReplicationSeries::from_trace(t7),
    );

    // Figures 7/8.
    let t10 = &c.torrent(10).trace;
    cdf_csv(
        dir,
        "fig7_piece_interarrival.csv",
        &InterarrivalAnalysis::pieces(t10),
    );
    cdf_csv(
        dir,
        "fig8_block_interarrival.csv",
        &InterarrivalAnalysis::blocks(t10),
    );

    // Figures 9/11.
    fairness_csv(dir, "fig9_fairness_ls.csv", outcomes, StateWindow::Leecher);
    fairness_csv(dir, "fig11_fairness_ss.csv", outcomes, StateWindow::Seed);

    // Figure 10.
    let u = unchoke_correlation(t7);
    for (name, points) in [("fig10_ls.csv", &u.leecher), ("fig10_ss.csv", &u.seed)] {
        let rows: Vec<String> = points
            .iter()
            .map(|p| format!("{},{},{}", p.handle, p.interested_secs, p.unchokes))
            .collect();
        write_csv(dir, name, "handle,interested_secs,unchokes", &rows);
    }

    // Message statistics.
    let stats = bt_analysis::MessageStats::from_trace(t7);
    let rows: Vec<String> = stats
        .counts
        .iter()
        .map(|(k, v)| format!("{k},{},{}", v.sent, v.received))
        .collect();
    write_csv(dir, "msgstats_torrent7.csv", "kind,sent,received", &rows);
    eprintln!("done.");
}

fn print_msgstats(o: &ScenarioOutcome, title: &str) {
    let stats = bt_analysis::MessageStats::from_trace(&o.trace);
    println!("{title}\n");
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

fn print_equilibrium(o: &ScenarioOutcome, title: &str) {
    let (ls, ss) = bt_analysis::equilibrium(&o.trace);
    println!("{title}\n");
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
    println!("(leecher state: long tenures + concentrated slots = the elected-subset equilibrium;");
    println!(" seed state: short tenures + rotation = the new algorithm's equal service time)");
}
