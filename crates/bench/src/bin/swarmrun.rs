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
//!          [--profile out.json] [--watch-addr 127.0.0.1:PORT]
//!          [--watch-linger SECS] [--status]
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
//!   shared wall-clock registry every 250 ms. Both write the file when
//!   the run ends; if it panics, unwinding flushes a final snapshot;
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
//!   ephemeral port, printed on stderr). `--watch-linger SECS` keeps
//!   the endpoint up that much longer after the run, so a browser or
//!   CI curl can still scrape the final state;
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
//! unknown `--flag` is a usage error (exit 2), and so is a spec with a
//! key that is not a field or a value out of range (`SwarmSpec::validate`
//! names the field, `net` for a topology that fails its own checks).
//! `--net` runs are *not* deterministic — the kernel schedules the
//! threads — but every protocol invariant still holds.

use bt_analysis::live::HealthMonitor;
use bt_analysis::SessionSummary;
use bt_instrument::trace::Trace;
use bt_net::LoopbackSpec;
use bt_obs::{
    summary_text, FlightRecorder, Profile, Profiler, Registry, SeriesStore, Snapshot, TimeSource,
    Tracer,
};
use bt_sim::{BehaviorProfile, NetModel, Swarm, SwarmSpec, TopologySpec};
use bt_torrents::{RunConfig, ScenarioOutcome};
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
       swarmrun --net [--seeds N] [--leechers N] [--pieces N] [--seed N] [--trace out.jsonl] [--trace-sample N] [--flight-recorder DIR] [--metrics out.jsonl] [--series out.json] [--profile out.json] [--watch-addr ADDR] [--watch-linger SECS] [--status]";

/// Print `swarmrun: {msg}` on stderr and exit 2: how every bad input ends.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("swarmrun: {msg}");
    std::process::exit(2)
}

fn usage_error(msg: &str) -> ! {
    die(format!("{msg}\n{USAGE}"))
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
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
        let mut spec: SwarmSpec =
            serde_json::from_str(&text).unwrap_or_else(|e| die(format!("invalid spec: {e}")));
        if let Some(seed) = flag_u64(&args, "--seed") {
            spec.seed = seed;
        }
        spec
    };
    if let Some(net) = topology_net(&args) {
        spec.net = Some(net);
    }
    if let Err(e) = spec.validate() {
        die(format!("invalid spec: {e}"));
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
        die(format!(
            "--topology {value}: not one of {:?} and not a readable file: {e}",
            bt_sim::PRESET_NAMES
        ))
    });
    match TopologySpec::from_json(&text) {
        Ok(spec) => Some(NetModel::FullDuplex(spec)),
        Err(e) => die(format!("--topology {value}: {e}")),
    }
}

/// Build a named preset spec (`--scenario`).
fn scenario_spec(name: &str, args: &[String]) -> SwarmSpec {
    let default_peers = match name {
        "flash_crowd_1k" => 1_000,
        "flash_crowd_10k" => 10_000,
        "flash_crowd_100k" => 100_000,
        other => die(format!(
            "unknown scenario {other:?} (expected flash_crowd_1k, \
             flash_crowd_10k or flash_crowd_100k)"
        )),
    };
    let peers = flag_u64(args, "--peers")
        .map(|n| n as usize)
        .unwrap_or(default_peers);
    let opts = bt_torrents::PresetOptions {
        seed: flag_u64(args, "--seed").unwrap_or(42),
        pieces: 8,
        duration: Duration::from_secs(900),
    };
    bt_torrents::scenarios::mega_flash_crowd(peers, &opts)
}

/// Run a simulator spec and print the standard summary (the spec-file
/// and `--scenario` paths share this).
fn run_sim(spec: SwarmSpec, args: &[String]) {
    let emit_dir = flag_str(args, "--emit-dir");
    if let Some(dir) = &emit_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format!("cannot create {dir}: {e}")));
    }
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
    let mut obs = Observers::new(args, Mode::Sim, seed, emit_dir.as_deref());
    let mut swarm = Swarm::new(spec);
    if let Some(t) = &obs.tracer {
        swarm = swarm.with_trace(t.clone());
    }
    if let Some(fr) = &obs.flight {
        swarm = swarm.with_flight_recorder(fr.clone());
    }
    if let Some(reg) = &obs.registry {
        // The observatory rides the registry's sampling events: the
        // paper-invariant health monitors, as deterministic as it is.
        swarm = swarm
            .with_metrics(reg.clone())
            .with_health(bt_analysis::live::Thresholds::default());
    }
    if let Some(store) = &obs.series {
        swarm = swarm.with_series(store.clone());
    }
    if let Some(p) = &obs.profiler {
        swarm = swarm.with_profiler(p.clone());
    }
    // Gauges served mid-run lag virtual time by one sampling period.
    let observatory = obs.serve(swarm.health_monitor().cloned());

    let t0 = std::time::Instant::now();
    let result = swarm.run();
    let wall = t0.elapsed();
    if let Some(stop) = observatory {
        stop();
    }

    if obs.status {
        // The simulator runs synchronously in virtual time; replay the
        // sampled status line per snapshot instead of live updates.
        let mut line = StatusLine::new();
        for snap in &result.metrics {
            line.update(&sim_status_line(snap));
        }
    }
    obs.write_metrics(&result.metrics);
    obs.write_series();
    if let Some(health) = &result.health {
        println!("health           : {}", health.summary_line());
    }
    obs.write_profile();
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
        if let Some(t) = &obs.tracer {
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
    obs.write_causal_trace();
    if let Some(idx) = local {
        match result.completion.get(idx).copied().flatten() {
            Some(t) => println!(
                "local peer {idx}    : completed at {:.0} s",
                t.as_secs_f64()
            ),
            None => println!("local peer {idx}    : did not complete"),
        }
    }
    if let Some(trace) = &result.trace {
        obs.report_local_trace(trace, piece_len);
    }
}

/// `swarmrun --net` — a real-socket loopback swarm via `bt-net`.
fn run_net_swarm(args: &[String]) {
    let d = LoopbackSpec::default();
    let count = |flag| flag_u64(args, flag).map(|n| n.max(1));
    let mut spec = LoopbackSpec {
        seeds: count("--seeds").map_or(d.seeds, |n| n as usize),
        leechers: count("--leechers").map_or(d.leechers, |n| n as usize),
        total_len: count("--pieces").map_or(d.total_len, |n| n * u64::from(d.piece_len)),
        seed: flag_u64(args, "--seed").unwrap_or(d.seed),
        ..d
    };
    // Every runtime gets the shared tracer and samples itself by its
    // virtual-IP hash, and reports into the shared registry.
    let mut obs = Observers::new(args, Mode::Net, spec.seed, None);
    spec.tracer = obs.tracer.clone();
    spec.metrics = obs.registry.clone();
    spec.profiler = obs.profiler.clone();
    let piece_len = spec.piece_len;
    let (seeds, leechers) = (spec.seeds, spec.leechers);
    eprintln!(
        "running {seeds} seed(s) + {leechers} leecher(s), {} pieces over loopback TCP ...",
        spec.total_len / u64::from(piece_len)
    );
    let observatory = obs.serve(None);

    // Sampler thread: every 250 ms wall, snapshot the shared registry —
    // keep it for `--metrics`, extend the time-series, update the
    // one-line status display.
    let sampler_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = obs.registry.clone().map(|reg| {
        let stop = std::sync::Arc::clone(&sampler_stop);
        let store = obs.series.clone();
        let status = obs.status;
        std::thread::spawn(move || {
            let (mut snapshots, mut line) = (Vec::new(), StatusLine::new());
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(250));
                if let Some(s) = &store {
                    s.sample_registry();
                }
                let snap = reg.snapshot();
                if status {
                    line.update(&net_status_line(&snap));
                }
                snapshots.push(snap);
            }
            snapshots
        })
    });

    let result = bt_net::run_loopback_swarm(spec).unwrap_or_else(|e| {
        eprintln!("swarmrun: net swarm failed: {e}");
        std::process::exit(1);
    });
    sampler_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut snapshots = sampler
        .and_then(|handle| handle.join().ok())
        .unwrap_or_default();
    if let Some(stop) = observatory {
        stop();
    }
    // One last sample so the files reflect the final state.
    if let Some(reg) = &obs.registry {
        snapshots.push(reg.snapshot());
    }
    if let Some(store) = &obs.series {
        store.sample_registry();
    }
    obs.write_metrics(&snapshots);
    obs.write_series();
    obs.write_profile();
    println!(
        "peers completed  : {} / {leechers} leechers in {:.2?} wall",
        result.completed_leechers, result.wall_elapsed
    );
    println!(
        "tracker          : {} started, {} completed announces",
        result.tracker_started, result.tracker_completed
    );
    obs.write_causal_trace();
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
    if let Some(trace) = result
        .outcomes
        .iter()
        .skip(seeds)
        .find_map(|o| o.trace.as_ref())
    {
        obs.report_local_trace(trace, piece_len);
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
        write_by_label(path, &outcomes, |o| o.series.as_deref(), "{\"series\":[]}");
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
        write_by_label(
            path,
            &outcomes,
            |o| o.trace_chrome.as_deref(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}",
        );
        println!("causal traces    : {path} ({} torrents)", outcomes.len());
    }
    if let Some(path) = &profile_out {
        // Each scenario profiled its own manual clock; merging in Table
        // I order (the `outcomes` order) is commutative sums, so the
        // merged profile is byte-identical for any `--jobs`.
        let mut merged = Profile::default();
        outcomes
            .iter()
            .filter_map(|o| o.profile.as_ref())
            .for_each(|p| merged.merge(p));
        write_profile(path, &merged);
    }
}

/// Write one JSON object keyed by torrent label, in Table I order, whose
/// values are each scenario's own `doc` (`empty` where it has none).
/// Every per-scenario document is deterministic, so the whole file is
/// byte-identical for any `--jobs`.
fn write_by_label(
    path: &str,
    outcomes: &[ScenarioOutcome],
    doc: impl Fn(&ScenarioOutcome) -> Option<&str>,
    empty: &str,
) {
    let entries: Vec<String> = outcomes
        .iter()
        .map(|o| format!("\"{}\":{}", o.spec.label(), doc(o).unwrap_or(empty)))
        .collect();
    write_text(path, &format!("{{{}}}", entries.join(",")));
}

/// The string value following `name`, if present.
fn flag_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// What a run's observers watch: the simulator's read virtual time, so
/// every export is a function of the spec and seed; the socket
/// runtime's read the wall clock.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Sim,
    Net,
}

/// The observers the flags ask for, built once per run, and where each
/// one is written when the run ends. Both modes attach the same set.
struct Observers {
    mode: Mode,
    registry: Option<Registry>,
    series: Option<SeriesStore>,
    profiler: Option<Profiler>,
    tracer: Option<Tracer>,
    flight: Option<FlightRecorder>,
    /// `metrics_out` holds the run's snapshots (see the `Drop` impl).
    metrics_written: bool,
    metrics_out: Option<String>,
    series_out: Option<String>,
    profile_out: Option<String>,
    trace_out: Option<String>,
    watch_addr: Option<String>,
    watch_linger: u64,
    status: bool,
}

impl Observers {
    /// Read the observer flags. `emit_dir` (the layout `btstat` loads)
    /// defaults the metrics, series and profile paths into it and turns
    /// the causal tracer on at rate 1, so the emitted `trace.jsonl` is
    /// bisectable; explicit flags still win. The tracer and flight
    /// recorder sample on the run seed and never touch the swarm RNG.
    fn new(args: &[String], mode: Mode, seed: u64, emit_dir: Option<&str>) -> Observers {
        let clock = || match mode {
            Mode::Sim => TimeSource::manual(),
            Mode::Net => TimeSource::wall(),
        };
        let in_dir = |name: &str| emit_dir.map(|d| format!("{d}/{name}"));
        let metrics_out = flag_str(args, "--metrics").or_else(|| in_dir("metrics.jsonl"));
        let series_out = flag_str(args, "--series").or_else(|| in_dir("series.json"));
        let profile_out = flag_str(args, "--profile").or_else(|| in_dir("profile.json"));
        let watch_addr = flag_str(args, "--watch-addr");
        let status = args.iter().any(|a| a == "--status");
        let rate = flag_u64(args, "--trace-sample").unwrap_or(u64::from(emit_dir.is_some()));
        let flight =
            flag_str(args, "--flight-recorder").map(|dir| FlightRecorder::new(&dir, 4096, seed));
        let tracer = (rate > 0).then(|| {
            let t = Tracer::new(seed, rate);
            match &flight {
                Some(fr) => t.with_flight(fr.clone()),
                None => t,
            }
        });
        // In the simulator a flight recorder forces the registry (and
        // with it the health monitors) on, so the invariant-trip dump
        // path is armed even without `--metrics`.
        let registry = (metrics_out.is_some()
            || series_out.is_some()
            || watch_addr.is_some()
            || status
            || (flight.is_some() && mode == Mode::Sim))
            .then(|| Registry::new(clock()));
        let series = match (&registry, series_out.is_some() || watch_addr.is_some()) {
            (Some(reg), true) => Some(SeriesStore::new(reg)),
            _ => None,
        };
        Observers {
            mode,
            registry,
            series,
            profiler: profile_out.as_ref().map(|_| Profiler::new(clock())),
            tracer,
            flight,
            metrics_written: false,
            metrics_out,
            series_out,
            profile_out,
            trace_out: flag_str(args, "--trace"),
            watch_addr,
            watch_linger: flag_u64(args, "--watch-linger").unwrap_or(0),
            status,
        }
    }

    /// `--watch-addr`: bind the live observatory to whichever observers
    /// the run carries (plus the simulator's health monitors) and serve
    /// it from a polling thread, since both runs are synchronous.
    /// Returns the call that stops it, after `--watch-linger SECS`.
    fn serve(&self, health: Option<HealthMonitor>) -> Option<impl FnOnce()> {
        let addr = self.watch_addr.as_ref()?;
        let registry = self.registry.clone().expect("watch-addr forces a registry");
        let mut server = bt_net::ObsServer::bind(addr, registry)
            .unwrap_or_else(|e| die(format!("cannot bind {addr}: {e}")));
        if let Some(store) = &self.series {
            server = server.with_series(store.clone());
        }
        if let Some(m) = health {
            server = server.with_health_json(move || m.report().to_json());
        }
        if let Some(t) = &self.tracer {
            server = server.with_tracer(t.clone());
        }
        if let Some(fr) = &self.flight {
            server = server.with_flight_recorder(fr.clone());
        }
        if let Some(p) = &self.profiler {
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
        let linger = self.watch_linger;
        Some(move || {
            if linger > 0 {
                eprintln!("observatory      : lingering {linger} s after the run (Ctrl-C to stop)");
                std::thread::sleep(std::time::Duration::from_secs(linger));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let _ = thread.join();
        })
    }

    /// `--metrics FILE`: one JSON line per registry snapshot; then the
    /// last snapshot's summary.
    fn write_metrics(&mut self, snapshots: &[Snapshot]) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        let lines: String = snapshots.iter().map(|s| s.to_jsonl_line() + "\n").collect();
        write_text(path, &lines);
        self.metrics_written = true;
        println!("metrics written  : {path} ({} snapshots)", snapshots.len());
        if let Some(last) = snapshots.last() {
            print!("{}", summary_text(last));
        }
    }

    /// `--series FILE`: the time-series store as JSON.
    fn write_series(&self) {
        if let (Some(path), Some(store)) = (&self.series_out, &self.series) {
            write_text(path, &store.to_json(None));
            println!("series written   : {path} ({} series)", store.len());
        }
    }

    /// `--profile FILE`: the span profile as JSON, plus the pretty report.
    fn write_profile(&self) {
        if let (Some(path), Some(profiler)) = (&self.profile_out, &self.profiler) {
            write_profile(path, &profiler.snapshot());
        }
    }

    /// The causal trace, when given `--trace FILE`: Chrome trace-event
    /// JSON at FILE plus the sorted deterministic JSONL at `FILE.jsonl`,
    /// both from one sort. Otherwise just its size.
    fn write_causal_trace(&self) {
        let Some(t) = &self.tracer else { return };
        if let Some(path) = &self.trace_out {
            let jsonl = format!("{path}.jsonl");
            write_stream(path, |chrome| {
                std::fs::File::create(&jsonl)
                    .and_then(|mut lines| t.export(Some(&mut lines), Some(chrome)))
            });
            println!(
                "causal trace     : {path} (Chrome JSON) + {jsonl} (sorted JSONL), {} events",
                t.len()
            );
        } else {
            println!(
                "causal trace     : {} events sampled (pass --trace FILE to export)",
                t.len()
            );
        }
        if let Some(fr) = &self.flight {
            println!(
                "flight recorder  : {} recent events in the ring",
                fr.trace_slice().len()
            );
        }
    }

    /// The paper's headline metrics for the instrumented peer's trace,
    /// through the same pipeline the figures use; then the trace itself
    /// to `--trace`, unless the causal trace took that path.
    fn report_local_trace(&self, trace: &Trace, piece_len: u32) {
        let summary = SessionSummary::from_trace(trace, piece_len);
        println!("trace events     : {}", trace.len());
        println!(
            "entropy a/b      : p20={:.2} p50={:.2} p80={:.2} over {} leechers",
            summary.entropy.local_in_remote.p20,
            summary.entropy.local_in_remote.p50,
            summary.entropy.local_in_remote.p80,
            summary.entropy.peers.len()
        );
        // Only the simulator samples availability into the trace.
        if self.mode == Mode::Sim {
            println!(
                "state            : {} (missing-piece fraction {:.2})",
                if summary.replication.is_transient() {
                    "transient"
                } else {
                    "steady"
                },
                summary.replication.missing_piece_fraction()
            );
        }
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
        if let (Some(path), None) = (&self.trace_out, &self.tracer) {
            write_text(path, &trace.to_jsonl());
            println!("trace written    : {path}");
        }
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
        .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
}

/// The integer value following `name`, if present.
fn flag_u64(args: &[String], name: &str) -> Option<u64> {
    flag_str(args, name).map(|v| {
        v.parse::<u64>()
            .unwrap_or_else(|_| die(format!("{name} needs an integer")))
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
}

impl Drop for StatusLine {
    fn drop(&mut self) {
        if self.tty && self.active {
            eprintln!();
        }
    }
}

/// A run that panics never reaches [`Observers::write_metrics`]:
/// unwinding flushes one final registry snapshot to the `--metrics` file
/// instead, so the last observed state is still on disk.
impl Drop for Observers {
    fn drop(&mut self) {
        let (Some(reg), Some(path), false) =
            (&self.registry, &self.metrics_out, self.metrics_written)
        else {
            return;
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path);
        if let Ok(mut f) = file {
            let _ = writeln!(f, "{}", reg.snapshot().to_jsonl_line());
        }
    }
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
    let leechers = (0..8).map(|i| BehaviorProfile::leecher(Duration::from_secs(i)));
    let peers = std::iter::once(BehaviorProfile::seed())
        .chain(leechers)
        .collect();
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
