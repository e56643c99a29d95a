//! `swarmrun` — run a swarm scenario from a JSON spec file.
//!
//! ```text
//! swarmrun <spec.json> [--seed N] [--topology NAME|file.json]
//!          [--trace out.jsonl] [--trace-sample N] [--flight-recorder DIR]
//!          [--metrics out.jsonl] [--series out.json] [--emit-dir DIR]
//!          [--watch-addr 127.0.0.1:PORT] [--watch-linger SECS]
//!          [--profile out.json] [--status] [--example]
//! swarmrun --scenario NAME [--peers N] [--seed N]
//!          [--topology NAME|file.json] [--metrics out.jsonl]
//!          [--series out.json] [--emit-dir DIR]
//!          [--watch-addr ADDR] [--profile out.json]
//!          [--trace-sample N] [--flight-recorder DIR] [--status]
//! swarmrun --table1 [--quick] [--seed N] [--jobs N]
//!          [--topology NAME|file.json] [--series out.json]
//!          [--trace out.json] [--trace-sample N] [--flight-recorder DIR]
//!          [--profile out.json]
//! swarmrun --net [--seeds N] [--leechers N] [--pieces N] [--seed N]
//!          [--trace out.jsonl] [--trace-sample N] [--flight-recorder DIR]
//!          [--metrics out.jsonl] [--series out.json]
//!          [--profile out.json] [--watch-addr 127.0.0.1:PORT] [--status]
//! ```
//!
//! * `--scenario NAME` runs a named preset instead of a spec file:
//!   `flash_crowd_1k`, `flash_crowd_10k`, `flash_crowd_100k` (the
//!   mega-swarm flash crowds; `--peers N` overrides the leecher count).
//!   Every simulator run ends by printing `run digest`, a 64-bit
//!   fingerprint of the complete deterministic outcome — compare it
//!   across machines or job counts to check byte-identical replay;
//! * `--topology NAME|file.json` replaces the spec's network model
//!   with a full-duplex WAN topology: a built-in preset
//!   (`homogeneous`, `asymmetric_dsl`, `two_isp_bottleneck`) or a
//!   topology JSON file (schema: DESIGN.md §10). Works on spec-file,
//!   `--scenario` and `--table1` runs; the run stays deterministic;
//! * `--example` prints a complete, runnable spec to stdout and exits;
//! * `--trace FILE` writes the instrumented peer's trace as JSON lines.
//!   With `--trace-sample` it instead writes the *causal* trace: Chrome
//!   trace-event JSON (open FILE in Perfetto / `chrome://tracing`) plus
//!   the sorted deterministic JSONL next to it as `FILE.jsonl`;
//! * `--trace-sample N` turns on the causal tracer at sampling rate
//!   `1/N` (piece lifecycles, choke-decision audits, message
//!   provenance; DESIGN.md §11). Sampling hashes ids with splitmix64 —
//!   it never touches the swarm RNG, so traced runs replay the same
//!   digest byte-for-byte. Works in every mode; `--table1` exports one
//!   JSON object keyed by torrent label;
//! * `--flight-recorder DIR` keeps a bounded ring of recent trace
//!   events and dumps a self-contained crash bundle into DIR when a
//!   live-monitor invariant trips, on panic, or on `GET /flightrec`
//!   (with `--watch-addr`);
//! * `--emit-dir DIR` drops every artifact for the run in one
//!   directory in the layout `btstat` ingests: `run.json` (manifest
//!   with scenario, seed, digest), `metrics.jsonl`, `series.json`,
//!   `profile.json` and `trace.jsonl` (causal tracer at rate 1 unless
//!   `--trace-sample` overrides it). Explicit `--metrics`/`--series`/
//!   `--profile` paths take precedence over the defaults inside DIR.
//!   Run the same spec with two seeds and feed both directories to
//!   `btstat merge`, `diff` or `bisect`;
//! * `--metrics FILE` writes `bt-obs` registry snapshots as JSON lines
//!   (one per sampling period plus a final one) and prints a summary.
//!   Simulator runs use a virtual-clock registry, so the file is
//!   byte-identical for a given spec and seed; `--net` runs sample a
//!   shared wall-clock registry periodically. If the run panics, a
//!   drop guard still flushes a final snapshot to the file;
//! * `--series FILE` writes the observatory time-series as JSON: per-key
//!   `[t_micros, value]` rings sampled once per metrics period, plus the
//!   `live.*` health series. Simulator and `--table1` series use the
//!   virtual clock (byte-identical for a given spec and seed, any
//!   `--jobs`); `--net` series sample the shared wall-clock registry;
//! * `--profile FILE` attaches a span profiler, writes the aggregated
//!   call-tree profile as JSON and prints the pretty report. Simulator
//!   and `--table1` profiles use the virtual clock (byte-identical for
//!   a given seed, any `--jobs`); `--net` profiles measure wall time;
//! * `--watch-addr ADDR` serves the live observatory over HTTP for the
//!   duration of the run — `GET /` (dashboard), `/series`, `/health`,
//!   `/metrics` — in both simulator and `--net` modes (a polling thread
//!   snapshots the registry while the run proceeds; port 0 picks an
//!   ephemeral port, printed on stderr). Simulated runs exit when the
//!   event queue drains; `--watch-linger SECS` keeps the endpoint up
//!   that much longer so a browser or CI curl can still scrape the
//!   final state;
//! * `--status` shows live one-line progress on stderr (net mode; the
//!   simulator replays its sampled status lines after the run). When
//!   stderr is not a terminal each sample becomes its own line instead
//!   of rewriting one;
//! * `--table1` runs the whole 26-torrent Table I sweep on a worker
//!   pool (`--jobs N`, default: all cores) and prints one summary line
//!   per torrent — traces are identical for any job count;
//! * `--net` runs a real-socket loopback swarm through `bt-net`: one
//!   engine thread per peer, TCP on 127.0.0.1, and the same analysis
//!   pipeline applied to the captured traces;
//! * otherwise the run's summary (completions, tracker stats, headline
//!   analysis metrics) is printed.
//!
//! The spec format is `bt_sim::SwarmSpec` serialised as JSON; identical
//! specs replay bit-for-bit, and `--seed N` replaces the file's seed. An
//! unknown `--flag` is a usage error (exit 2). `--net` runs are *not*
//! deterministic — the kernel schedules the threads — but every protocol
//! invariant still holds.

use bt_analysis::SessionSummary;
use bt_net::LoopbackSpec;
use bt_obs::{summary_text, Profile, Profiler, Registry, Snapshot, TimeSource};
use bt_sim::{BehaviorProfile, NetModel, Swarm, SwarmSpec, TopologySpec};
use bt_torrents::RunConfig;
use bt_wire::time::Duration;
use std::io::{IsTerminal, Write};

/// Every flag that takes a value. `main` checks the command line against
/// this table and [`SWITCHES`], and skips the values when it looks for
/// the spec path.
const VALUE_FLAGS: &[&str] = &[
    "--scenario",
    "--topology",
    "--trace",
    "--trace-sample",
    "--flight-recorder",
    "--metrics",
    "--series",
    "--profile",
    "--emit-dir",
    "--watch-addr",
    "--watch-linger",
    "--seed",
    "--peers",
    "--jobs",
    "--seeds",
    "--leechers",
    "--pieces",
];

/// Every flag that takes none.
const SWITCHES: &[&str] = &["--example", "--table1", "--net", "--quick", "--status"];

const USAGE: &str = "usage: swarmrun <spec.json> [--seed N] [--topology NAME|file.json] [--trace out.jsonl] [--trace-sample N] [--flight-recorder DIR] [--metrics out.jsonl] [--series out.json] [--emit-dir DIR] [--watch-addr ADDR] [--watch-linger SECS] [--profile out.json] [--status] [--example]
       swarmrun --scenario flash_crowd_1k|flash_crowd_10k|flash_crowd_100k [--peers N] [--seed N] [--topology NAME|file.json] [--emit-dir DIR] [...]
       swarmrun --table1 [--quick] [--seed N] [--jobs N] [--topology NAME|file.json] [--series out.json] [--trace out.json] [--trace-sample N] [--flight-recorder DIR] [--profile out.json]
       swarmrun --net [--seeds N] [--leechers N] [--pieces N] [--seed N] [--trace out.jsonl] [--trace-sample N] [--flight-recorder DIR] [--metrics out.jsonl] [--series out.json] [--profile out.json] [--watch-addr ADDR] [--status]";

fn usage_error(msg: &str) -> ! {
    eprintln!("swarmrun: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec_path = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            if iter.next().is_none() {
                usage_error(&format!("{a} needs a value"));
            }
        } else if a.starts_with("--") {
            if !SWITCHES.contains(&a.as_str()) {
                usage_error(&format!("unknown flag `{a}`"));
            }
        } else if spec_path.is_none() {
            spec_path = Some(a);
        }
    }
    if args.iter().any(|a| a == "--example") {
        print_example();
        return;
    }
    if args.iter().any(|a| a == "--table1") {
        run_table1_sweep(&args);
        return;
    }
    if args.iter().any(|a| a == "--net") {
        run_net_swarm(&args);
        return;
    }
    let mut spec = if let Some(name) = flag_str(&args, "--scenario") {
        scenario_spec(&name, &args)
    } else {
        let Some(path) = spec_path else {
            usage_error("no spec file, --scenario, --table1 or --net given");
        };
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("swarmrun: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let mut spec: SwarmSpec = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("swarmrun: invalid spec: {e}");
            std::process::exit(2);
        });
        if let Some(seed) = flag_u64(&args, "--seed") {
            spec.seed = seed;
        }
        spec
    };
    if let Some(net) = topology_net(&args) {
        spec.net = Some(net);
    }
    run_sim(spec, &args);
}

/// `--topology NAME|file.json`: a built-in preset name or a topology
/// JSON file (schema: DESIGN.md §10), applied as the spec's full-duplex
/// network model.
fn topology_net(args: &[String]) -> Option<NetModel> {
    let value = flag_str(args, "--topology")?;
    if let Some(model) = NetModel::preset(&value) {
        return Some(model);
    }
    let text = std::fs::read_to_string(&value).unwrap_or_else(|e| {
        eprintln!(
            "swarmrun: --topology {value}: not one of {:?} and not a readable file: {e}",
            bt_sim::PRESET_NAMES
        );
        std::process::exit(2);
    });
    match TopologySpec::from_json(&text) {
        Ok(spec) => Some(NetModel::FullDuplex(spec)),
        Err(e) => {
            eprintln!("swarmrun: --topology {value}: {e}");
            std::process::exit(2);
        }
    }
}

/// Build a named preset spec (`--scenario`).
fn scenario_spec(name: &str, args: &[String]) -> SwarmSpec {
    let default_peers = match name {
        "flash_crowd_1k" => 1_000,
        "flash_crowd_10k" => 10_000,
        "flash_crowd_100k" => 100_000,
        other => {
            eprintln!(
                "swarmrun: unknown scenario {other:?} (expected flash_crowd_1k, \
                 flash_crowd_10k or flash_crowd_100k)"
            );
            std::process::exit(2);
        }
    };
    let peers = flag_u64(args, "--peers")
        .map(|n| n as usize)
        .unwrap_or(default_peers);
    let opts = bt_torrents::PresetOptions {
        seed: flag_u64(args, "--seed").unwrap_or(42),
        pieces: 8,
        duration: Duration::from_secs(900),
        ..bt_torrents::PresetOptions::default()
    };
    bt_torrents::scenarios::mega_flash_crowd(peers, &opts)
}

/// Run a simulator spec and print the standard summary (the spec-file
/// and `--scenario` paths share this).
fn run_sim(spec: SwarmSpec, args: &[String]) {
    let trace_out = flag_str(args, "--trace");
    // `--emit-dir` defaults every artifact path into one directory (the
    // layout `btstat` loads); explicit per-artifact flags still win.
    let emit_dir = flag_str(args, "--emit-dir");
    if let Some(dir) = &emit_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("swarmrun: cannot create {dir}: {e}");
            std::process::exit(2);
        });
    }
    let in_dir = |name: &str| emit_dir.as_ref().map(|d| format!("{d}/{name}"));
    let metrics_out = flag_str(args, "--metrics").or_else(|| in_dir("metrics.jsonl"));
    let series_out = flag_str(args, "--series").or_else(|| in_dir("series.json"));
    let profile_out = flag_str(args, "--profile").or_else(|| in_dir("profile.json"));
    let watch_addr = flag_str(args, "--watch-addr");
    let watch_linger = flag_u64(args, "--watch-linger").unwrap_or(0);
    let status = args.iter().any(|a| a == "--status");
    let peers = spec.peers.len();
    let piece_len = spec.piece_len;
    let pieces = spec.total_len.div_ceil(u64::from(spec.piece_len));
    eprintln!(
        "running {peers} peers, {pieces} pieces, {} s session (seed {}, net {}) ...",
        spec.duration.0 / 1_000_000,
        spec.seed,
        spec.net_model().label()
    );
    let local = spec.local;
    let seed = spec.seed;
    // The causal tracer and flight recorder sample on the spec seed;
    // `--emit-dir` turns the tracer on at rate 1 (every chain) so the
    // emitted trace.jsonl is bisectable, unless `--trace-sample` says
    // otherwise. The tracer never touches the swarm RNG, so the digest
    // stays comparable with un-traced runs.
    let default_rate = if emit_dir.is_some() { 1 } else { 0 };
    let (tracer, flight) = causal_obs(args, seed, default_rate);
    let mut swarm = Swarm::new(spec);
    if let Some(t) = &tracer {
        swarm = swarm.with_trace(t.clone());
    }
    if let Some(fr) = &flight {
        swarm = swarm.with_flight_recorder(fr.clone());
    }
    // A flight recorder forces the registry + health monitors on, so the
    // invariant-trip dump path is armed even without `--metrics`.
    let registry = (metrics_out.is_some()
        || series_out.is_some()
        || watch_addr.is_some()
        || status
        || flight.is_some())
    .then(Registry::new_manual);
    if let Some(reg) = &registry {
        // Virtual-clock registry: the snapshot file is a deterministic
        // function of the spec and seed.
        swarm = swarm.with_metrics(reg.clone());
        // The observatory rides the same sampling events: time-series
        // rings and the paper-invariant health monitors, both equally
        // deterministic.
        swarm = swarm.with_health(bt_analysis::live::Thresholds::default());
    }
    let series = match (&registry, series_out.is_some() || watch_addr.is_some()) {
        (Some(reg), true) => Some(bt_obs::SeriesStore::new(reg)),
        _ => None,
    };
    if let Some(store) = &series {
        swarm = swarm.with_series(store.clone());
    }
    // If the run panics, unwinding still flushes a final snapshot.
    let mut flush_guard = match (&registry, &metrics_out) {
        (Some(reg), Some(path)) => Some(MetricsFlushGuard::new(reg.clone(), path.clone())),
        _ => None,
    };
    // Keep a handle so `--watch-addr` can serve `/profile` mid-run; the
    // final write still uses the snapshot the swarm returns.
    let profiler = profile_out
        .as_ref()
        .map(|_| Profiler::new(TimeSource::manual()));
    if let Some(p) = &profiler {
        swarm = swarm.with_profiler(p.clone());
    }

    // `--watch-addr`: the simulator itself is synchronous, so the
    // observatory serves from a polling thread that snapshots the shared
    // registry while the event loop runs on this one. Gauges lag the
    // virtual clock by at most one sampling period; the dashboard,
    // `/series`, `/health` and `/metrics` are all live mid-run.
    let observatory = watch_addr.as_ref().map(|addr| {
        let reg = registry.clone().expect("watch-addr forces a registry");
        let health = swarm.health_monitor().cloned();
        Observatory::spawn(addr, reg, &series, health, &tracer, &flight, &profiler)
    });

    let t0 = std::time::Instant::now();
    let result = swarm.run();
    let wall = t0.elapsed();

    if let Some(observatory) = observatory {
        if watch_linger > 0 {
            eprintln!(
                "observatory      : lingering {watch_linger} s after the run (Ctrl-C to stop)"
            );
            std::thread::sleep(std::time::Duration::from_secs(watch_linger));
        }
        observatory.stop();
    }

    if status {
        // The simulator runs synchronously in virtual time; replay the
        // sampled status line per snapshot instead of live updates.
        let mut line = StatusLine::new();
        for snap in &result.metrics {
            line.update(&sim_status_line(snap));
        }
        line.finish();
    }
    if let Some(path) = &metrics_out {
        write_snapshots(path, &result.metrics);
        if let Some(guard) = flush_guard.as_mut() {
            guard.disarm();
        }
        println!(
            "metrics written  : {path} ({} snapshots)",
            result.metrics.len()
        );
        if let Some(last) = result.metrics.last() {
            print!("{}", summary_text(last));
        }
    }
    if let (Some(path), Some(store)) = (&series_out, &series) {
        write_text(path, &store.to_json(None));
        println!("series written   : {path} ({} series)", store.len());
    }
    if let Some(health) = &result.health {
        println!("health           : {}", health.summary_line());
    }
    if let Some(path) = &profile_out {
        write_profile(path, result.profile.as_ref().unwrap_or(&Profile::default()));
    }
    println!(
        "events processed : {} in {:.2?} wall ({:.0} events/s)",
        result.events_processed,
        wall,
        result.events_processed as f64 / wall.as_secs_f64().max(1e-9)
    );
    println!("peers completed  : {} / {peers}", result.completed_peers);
    println!(
        "tracker          : {} started, {} completed announces",
        result.tracker_started, result.tracker_completed
    );
    println!("run digest       : {:016x}", result.digest());
    if let Some(dir) = &emit_dir {
        // Finish the directory: the sorted deterministic trace plus the
        // manifest that names the run for `btstat`.
        if let Some(t) = &tracer {
            write_stream(&format!("{dir}/trace.jsonl"), |f| t.export(Some(f), None));
        }
        let scenario = flag_str(args, "--scenario").unwrap_or_else(|| "spec".to_string());
        let manifest = bt_stat::artifacts::manifest_json(
            &scenario,
            seed,
            peers as u64,
            pieces,
            result.events_processed,
            result.completed_peers as u64,
            &format!("{:016x}", result.digest()),
        );
        write_text(&format!("{dir}/run.json"), &manifest);
        println!("artifacts        : {dir}/ (run.json, metrics.jsonl, series.json, profile.json, trace.jsonl)");
    }
    if let Some(t) = &tracer {
        if let Some(path) = &trace_out {
            write_causal_trace(path, t);
        } else {
            println!(
                "causal trace     : {} events sampled (pass --trace FILE to export)",
                t.len()
            );
        }
        if let Some(fr) = &flight {
            println!(
                "flight recorder  : {} recent events in the ring",
                fr.trace_slice().len()
            );
        }
    }
    if let Some(idx) = local {
        if let Some(t) = result.completion.get(idx).copied().flatten() {
            println!(
                "local peer {idx}    : completed at {:.0} s",
                t.as_secs_f64()
            );
        } else {
            println!("local peer {idx}    : did not complete");
        }
    }
    if let Some(trace) = result.trace {
        let summary = SessionSummary::from_trace(&trace, piece_len);
        println!("trace events     : {}", trace.len());
        println!(
            "entropy a/b      : p20={:.2} p50={:.2} p80={:.2} over {} leechers",
            summary.entropy.local_in_remote.p20,
            summary.entropy.local_in_remote.p50,
            summary.entropy.local_in_remote.p80,
            summary.entropy.peers.len()
        );
        println!(
            "state            : {} (missing-piece fraction {:.2})",
            if summary.replication.is_transient() {
                "transient"
            } else {
                "steady"
            },
            summary.replication.missing_piece_fraction()
        );
        println!(
            "blocks received  : {} (first-slowdown ×{:.2})",
            summary.blocks.count,
            summary.blocks.first_slowdown()
        );
        println!(
            "LS top-set share : {:.2}",
            summary.fairness_ls.top_set_upload_share()
        );
        println!(
            "peers observed   : {} connections, {} unique, {:.1} % multi-ID IPs",
            summary.connections,
            summary.unique_peers,
            summary.multi_id_ip_fraction * 100.0
        );
        println!(
            "overhead         : {:.4} control B / data B",
            summary.messages.overhead_ratio()
        );
        // With `--trace-sample` the `--trace` path carries the causal
        // trace instead (written above).
        if tracer.is_none() {
            if let Some(path) = &trace_out {
                write_text(path, &trace.to_jsonl());
                println!("trace written    : {path}");
            }
        }
    }
}

/// `swarmrun --net` — a real-socket loopback swarm via `bt-net`.
fn run_net_swarm(args: &[String]) {
    let trace_out = flag_str(args, "--trace");
    let metrics_out = flag_str(args, "--metrics");
    let series_out = flag_str(args, "--series");
    let profile_out = flag_str(args, "--profile");
    let watch_addr = flag_str(args, "--watch-addr");
    let status = args.iter().any(|a| a == "--status");
    let mut spec = LoopbackSpec::default();
    if let Some(n) = flag_u64(args, "--seeds") {
        spec.seeds = n.max(1) as usize;
    }
    if let Some(n) = flag_u64(args, "--leechers") {
        spec.leechers = n.max(1) as usize;
    }
    if let Some(n) = flag_u64(args, "--pieces") {
        spec.total_len = n.max(1) * u64::from(spec.piece_len);
    }
    if let Some(n) = flag_u64(args, "--seed") {
        spec.seed = n;
    }
    // Causal tracer: every runtime gets the shared tracer and samples
    // itself by its virtual-IP hash; the flight recorder serves
    // `GET /flightrec` and dumps a bundle if a peer thread panics.
    let (tracer, flight) = causal_obs(args, spec.seed, 0);
    spec.net.tracer = tracer.clone();
    let registry =
        (metrics_out.is_some() || series_out.is_some() || status || watch_addr.is_some())
            .then(Registry::new_wall);
    spec.metrics = registry.clone();
    // Net runs have no virtual clock; the series sample on the wall
    // clock, once per sampler tick.
    let series = match (&registry, series_out.is_some() || watch_addr.is_some()) {
        (Some(reg), true) => Some(bt_obs::SeriesStore::new(reg)),
        _ => None,
    };
    let profiler = profile_out
        .as_ref()
        .map(|_| Profiler::new(TimeSource::wall()));
    spec.profiler = profiler.clone();
    let piece_len = spec.piece_len;
    let (seeds, leechers) = (spec.seeds, spec.leechers);
    eprintln!(
        "running {seeds} seed(s) + {leechers} leecher(s), {} pieces over loopback TCP ...",
        spec.total_len / u64::from(piece_len)
    );

    // If the run panics, unwinding still flushes a final snapshot.
    let mut flush_guard = match (&registry, &metrics_out) {
        (Some(reg), Some(path)) => Some(MetricsFlushGuard::new(reg.clone(), path.clone())),
        _ => None,
    };

    // `--watch-addr`: serve the observatory for the run's duration from
    // a dedicated polling thread.
    let observatory = watch_addr.as_ref().map(|addr| {
        let reg = registry.clone().expect("watch-addr forces a registry");
        Observatory::spawn(addr, reg, &series, None, &tracer, &flight, &profiler)
    });

    // Sampler thread: every 250 ms wall, snapshot the shared registry —
    // append a JSONL line, extend the time-series, update the one-line
    // status display.
    let sampler_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = registry.clone().map(|reg| {
        let stop = std::sync::Arc::clone(&sampler_stop);
        let out_path = metrics_out.clone();
        let store = series.clone();
        std::thread::spawn(move || {
            let mut out = out_path.map(|p| {
                std::fs::File::create(&p).unwrap_or_else(|e| {
                    eprintln!("swarmrun: cannot create {p}: {e}");
                    std::process::exit(2);
                })
            });
            let mut line = StatusLine::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(250));
                if let Some(s) = &store {
                    s.sample_registry();
                }
                let snap = reg.snapshot();
                if let Some(f) = out.as_mut() {
                    let _ = writeln!(f, "{}", snap.to_jsonl_line());
                }
                if status {
                    line.update(&net_status_line(&snap));
                }
            }
            line.finish();
        })
    });

    let result = bt_net::run_loopback_swarm(spec).unwrap_or_else(|e| {
        eprintln!("swarmrun: net swarm failed: {e}");
        std::process::exit(1);
    });
    sampler_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(handle) = sampler {
        let _ = handle.join();
    }
    if let Some(observatory) = observatory {
        observatory.stop();
    }
    if let Some(reg) = &registry {
        let last = reg.snapshot();
        if let Some(path) = &metrics_out {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .unwrap_or_else(|e| {
                    eprintln!("swarmrun: cannot append to {path}: {e}");
                    std::process::exit(2);
                });
            let _ = writeln!(f, "{}", last.to_jsonl_line());
            if let Some(guard) = flush_guard.as_mut() {
                guard.disarm();
            }
            println!("metrics written  : {path}");
        }
        print!("{}", summary_text(&last));
    }
    if let (Some(path), Some(store)) = (&series_out, &series) {
        // One last sample so the file reflects the final state.
        store.sample_registry();
        write_text(path, &store.to_json(None));
        println!("series written   : {path} ({} series)", store.len());
    }
    if let (Some(path), Some(prof)) = (&profile_out, &profiler) {
        write_profile(path, &prof.snapshot());
    }
    println!(
        "peers completed  : {} / {leechers} leechers in {:.2?} wall",
        result.completed_leechers, result.wall_elapsed
    );
    println!(
        "tracker          : {} started, {} completed announces",
        result.tracker_started, result.tracker_completed
    );
    if let Some(t) = &tracer {
        if let Some(path) = &trace_out {
            write_causal_trace(path, t);
        } else {
            println!(
                "causal trace     : {} events sampled (pass --trace FILE to export)",
                t.len()
            );
        }
    }
    for (i, o) in result.outcomes.iter().enumerate() {
        println!(
            "peer {i:2}          : {} {:3} pieces, {} msgs in, {} blocks out, {} ticks",
            if i < seeds { "seed,   " } else { "leecher," },
            o.pieces,
            o.stats.messages_in,
            o.stats.blocks_sent,
            o.stats.ticks
        );
    }
    // Analyse the first leecher's trace with the same pipeline the
    // simulator figures use.
    let Some(trace) = result
        .outcomes
        .iter()
        .skip(seeds)
        .find_map(|o| o.trace.as_ref())
    else {
        return;
    };
    let summary = SessionSummary::from_trace(trace, piece_len);
    println!("trace events     : {}", trace.len());
    println!(
        "entropy a/b      : p20={:.2} p50={:.2} p80={:.2} over {} peers",
        summary.entropy.local_in_remote.p20,
        summary.entropy.local_in_remote.p50,
        summary.entropy.local_in_remote.p80,
        summary.entropy.peers.len()
    );
    println!(
        "blocks received  : {} (first-slowdown ×{:.2})",
        summary.blocks.count,
        summary.blocks.first_slowdown()
    );
    println!(
        "overhead         : {:.4} control B / data B",
        summary.messages.overhead_ratio()
    );
    // With `--trace-sample` the `--trace` path carries the causal trace
    // instead (written above).
    if tracer.is_none() {
        if let Some(path) = &trace_out {
            write_text(path, &trace.to_jsonl());
            println!("trace written    : {path}");
        }
    }
}

/// `swarmrun --table1` — the Table I sweep on the parallel runner.
fn run_table1_sweep(args: &[String]) {
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        RunConfig::quick()
    } else {
        RunConfig::default()
    };
    if let Some(seed) = flag_u64(args, "--seed") {
        cfg.seed = seed;
    }
    let jobs = flag_u64(args, "--jobs")
        .map(|n| n.max(1) as usize)
        .unwrap_or_else(bt_torrents::default_jobs);
    let profile_out = flag_str(args, "--profile");
    cfg.profile = profile_out.is_some();
    let series_out = flag_str(args, "--series");
    cfg.series = series_out.is_some();
    cfg.trace_sample = flag_u64(args, "--trace-sample");
    cfg.flight_dir = flag_str(args, "--flight-recorder");
    let trace_out = flag_str(args, "--trace");
    if let Some(net) = topology_net(args) {
        eprintln!("table1 network model: {}", net.label());
        cfg.net = Some(net);
    }

    eprintln!("running the 26-torrent Table I sweep ({jobs} jobs) ...");
    let t0 = std::time::Instant::now();
    let outcomes = bt_torrents::run_table1_parallel(&cfg, jobs, |o| {
        eprintln!("  torrent {:2} done ({} events)", o.spec.id, o.trace.len());
    });
    println!(
        "{:>2}  {:>7}  {:>8}  {:>9}  {:>9}",
        "id", "events", "trace", "completed", "state"
    );
    for o in &outcomes {
        let summary = SessionSummary::from_trace(&o.trace, o.scaled.piece_len);
        println!(
            "{:>2}  {:>7}  {:>8}  {:>4} / {:>3}  {}",
            o.spec.id,
            o.result.events_processed,
            o.trace.len(),
            o.result.completed_peers,
            o.result.completion.len(),
            if summary.replication.is_transient() {
                "transient"
            } else {
                "steady"
            },
        );
    }
    println!(
        "swept {} torrents in {:.2?} with {jobs} jobs",
        outcomes.len(),
        t0.elapsed()
    );
    if let Some(path) = &series_out {
        // One JSON object keyed by torrent label, in Table I order; each
        // per-scenario document is deterministic, so the whole file is
        // byte-identical for any `--jobs`.
        let mut text = String::from("{");
        for (i, o) in outcomes.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let doc = o.series.as_deref().unwrap_or("{\"series\":[]}");
            text.push_str(&format!("\"{}\":{doc}", o.spec.label()));
        }
        text.push('}');
        write_text(path, &text);
        println!("series written   : {path} ({} torrents)", outcomes.len());
        let unhealthy: Vec<u32> = outcomes
            .iter()
            .filter(|o| o.result.health.as_ref().is_some_and(|h| !h.healthy()))
            .map(|o| o.spec.id)
            .collect();
        if unhealthy.is_empty() {
            println!("health           : all torrents healthy at session end");
        } else {
            println!("health           : unhealthy at session end: {unhealthy:?}");
        }
    }
    if let (Some(path), true) = (&trace_out, cfg.trace_sample.is_some()) {
        // One JSON object keyed by torrent label, in Table I order; each
        // value is that scenario's Chrome trace-event document. Every
        // per-scenario trace is deterministic, so the whole file is
        // byte-identical for any `--jobs`.
        let mut text = String::from("{");
        for (i, o) in outcomes.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let doc = o
                .trace_chrome
                .as_deref()
                .unwrap_or("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
            text.push_str(&format!("\"{}\":{doc}", o.spec.label()));
        }
        text.push('}');
        write_text(path, &text);
        println!("causal traces    : {path} ({} torrents)", outcomes.len());
    }
    if let Some(path) = &profile_out {
        // Each scenario profiled its own manual clock; merging in Table
        // I order (the `outcomes` order) is commutative sums, so the
        // merged profile is byte-identical for any `--jobs`.
        let mut merged = Profile::default();
        for o in &outcomes {
            if let Some(p) = &o.profile {
                merged.merge(p);
            }
        }
        write_profile(path, &merged);
    }
}

/// The string value following `name`, if present.
fn flag_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--trace-sample N` / `--flight-recorder DIR`: the causal tracer and
/// flight recorder shared by every mode. Both are seeded from the run
/// seed, so the sampled id set (and the bundles' `seed` field) is a
/// function of the spec alone. `default_rate` applies when the flag is
/// absent (`--emit-dir` passes 1; everything else 0 = off).
fn causal_obs(
    args: &[String],
    seed: u64,
    default_rate: u64,
) -> (Option<bt_obs::Tracer>, Option<bt_obs::FlightRecorder>) {
    let rate = flag_u64(args, "--trace-sample").unwrap_or(default_rate);
    let flight = flag_str(args, "--flight-recorder")
        .map(|dir| bt_obs::FlightRecorder::new(&dir, 4096, seed));
    let tracer = (rate > 0).then(|| {
        let t = bt_obs::Tracer::new(seed, rate);
        match &flight {
            Some(fr) => t.with_flight(fr.clone()),
            None => t,
        }
    });
    (tracer, flight)
}

/// The `--watch-addr` observatory: bound, wired to whichever observers
/// the run carries, and served from its own polling thread (the drivers
/// are synchronous) until [`stop`](Observatory::stop).
struct Observatory {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl Observatory {
    fn spawn(
        addr: &str,
        registry: Registry,
        series: &Option<bt_obs::SeriesStore>,
        health: Option<bt_analysis::live::HealthMonitor>,
        tracer: &Option<bt_obs::Tracer>,
        flight: &Option<bt_obs::FlightRecorder>,
        profiler: &Option<Profiler>,
    ) -> Observatory {
        let mut server = bt_net::ObsServer::bind(addr, registry).unwrap_or_else(|e| {
            eprintln!("swarmrun: cannot bind {addr}: {e}");
            std::process::exit(2);
        });
        if let Some(store) = series {
            server = server.with_series(store.clone());
        }
        if let Some(m) = health {
            server = server.with_health_json(move || m.report().to_json());
        }
        if let Some(t) = tracer {
            server = server.with_tracer(t.clone());
        }
        if let Some(fr) = flight {
            server = server.with_flight_recorder(fr.clone());
        }
        if let Some(p) = profiler {
            server = server.with_profiler(p.clone());
        }
        match server.local_addr() {
            Ok(bound) => eprintln!("observatory      : http://{bound}/ (dashboard)"),
            Err(e) => eprintln!("swarmrun: observatory bound, address unknown: {e}"),
        }
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stopped = std::sync::Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stopped.load(std::sync::atomic::Ordering::Relaxed) {
                if !server.poll() {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
        });
        Observatory { stop, thread }
    }

    fn stop(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

/// Create `path` and write `text` to it.
fn write_text(path: &str, text: &str) {
    write_stream(path, |file| file.write_all(text.as_bytes()));
}

/// Create `path` and stream an export into it.
fn write_stream(path: &str, export: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>) {
    std::fs::File::create(path)
        .and_then(|mut file| export(&mut file))
        .unwrap_or_else(|e| {
            eprintln!("swarmrun: cannot write {path}: {e}");
            std::process::exit(2);
        });
}

/// Write the causal trace as Chrome trace-event JSON at `path` plus the
/// sorted deterministic JSONL at `path.jsonl`, both from one sort.
fn write_causal_trace(path: &str, tracer: &bt_obs::Tracer) {
    let jsonl = format!("{path}.jsonl");
    write_stream(path, |chrome| {
        std::fs::File::create(&jsonl)
            .and_then(|mut lines| tracer.export(Some(&mut lines), Some(chrome)))
    });
    println!(
        "causal trace     : {path} (Chrome JSON) + {jsonl} (sorted JSONL), {} events",
        tracer.len()
    );
}

/// The integer value following `name`, if present.
fn flag_u64(args: &[String], name: &str) -> Option<u64> {
    flag_str(args, name).map(|v| {
        v.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("swarmrun: {name} needs an integer");
            std::process::exit(2);
        })
    })
}

/// Write a span profile as JSON and print the pretty report.
fn write_profile(path: &str, profile: &Profile) {
    write_text(path, &profile.to_json());
    println!("profile written  : {path}");
    print!("{}", profile.render());
}

/// Live one-line progress on stderr: rewrites a single line on a
/// terminal, emits one line per sample otherwise (logs, CI), and always
/// ends with the line cleared onto its own newline.
struct StatusLine {
    tty: bool,
    active: bool,
}

impl StatusLine {
    fn new() -> StatusLine {
        StatusLine {
            tty: std::io::stderr().is_terminal(),
            active: false,
        }
    }

    fn update(&mut self, line: &str) {
        if self.tty {
            // `\r` + clear-to-end erases any longer previous line.
            eprint!("\r\x1b[K{line}");
            self.active = true;
        } else {
            eprintln!("{line}");
        }
    }

    fn finish(&mut self) {
        if self.tty && self.active {
            eprintln!();
            self.active = false;
        }
    }
}

impl Drop for StatusLine {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Flushes one final registry snapshot to the `--metrics` file when
/// dropped, unless [`disarm`](MetricsFlushGuard::disarm)ed — so a panic
/// mid-run still leaves the last observed state on disk.
struct MetricsFlushGuard {
    registry: Registry,
    path: String,
    armed: bool,
}

impl MetricsFlushGuard {
    fn new(registry: Registry, path: String) -> MetricsFlushGuard {
        MetricsFlushGuard {
            registry,
            path,
            armed: true,
        }
    }

    /// The normal write path ran; the guard has nothing left to do.
    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for MetricsFlushGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let snap = self.registry.snapshot();
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
        {
            let _ = writeln!(f, "{}", snap.to_jsonl_line());
        }
    }
}

/// Write one JSONL line per snapshot.
fn write_snapshots(path: &str, snapshots: &[Snapshot]) {
    let mut text = String::new();
    for snap in snapshots {
        text.push_str(&snap.to_jsonl_line());
        text.push('\n');
    }
    write_text(path, &text);
}

/// One-line progress for a simulator snapshot (virtual-time registry).
fn sim_status_line(snap: &Snapshot) -> String {
    format!(
        "[t={:>6}s] peers={} done={} interested={} unchoked={} blocks={} events={}",
        snap.at_micros / 1_000_000,
        snap.gauge("sim.live_peers", "").unwrap_or(0),
        snap.gauge("sim.completed_peers", "").unwrap_or(0),
        snap.gauge("sim.interested_pairs", "").unwrap_or(0),
        snap.gauge("sim.unchoked_pairs", "").unwrap_or(0),
        snap.counter_sum("sim.blocks_delivered"),
        snap.counter_sum("sim.events"),
    )
}

/// One-line progress for a net-swarm snapshot (wall-clock registry
/// shared by every runtime; gauges sum over the per-peer labels).
fn net_status_line(snap: &Snapshot) -> String {
    let conns: i64 = snap
        .gauges
        .iter()
        .filter(|(name, _, _)| *name == "net.conns")
        .map(|(_, _, v)| *v)
        .sum();
    format!(
        "[net] conns={conns} handshakes={} in={}B out={}B blocks={} pieces={}",
        snap.counter_sum("net.handshakes_ok"),
        snap.counter_sum("net.bytes_in"),
        snap.counter_sum("net.bytes_out"),
        snap.counter_sum("net.blocks_sent"),
        snap.counter_sum("core.pieces_completed"),
    )
}

fn print_example() {
    let mut peers = vec![BehaviorProfile::seed()];
    for i in 0..8 {
        peers.push(BehaviorProfile::leecher(Duration::from_secs(i)));
    }
    let spec = SwarmSpec {
        seed: 42,
        total_len: 16 * 256 * 1024,
        piece_len: 256 * 1024,
        duration: Duration::from_secs(3600),
        peers,
        local: Some(1),
        ..SwarmSpec::default()
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&spec).expect("spec serialises")
    );
}
