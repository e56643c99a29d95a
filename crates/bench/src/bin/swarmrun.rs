//! `swarmrun` — run a swarm scenario from a JSON spec file.
//!
//! ```text
//! swarmrun <spec.json> [--seed N] [--topology NAME|file.json]
//!          [--trace out.jsonl] [--trace-sample N] [--flight-recorder DIR]
//!          [--metrics out.jsonl] [--series out.json] [--emit-dir DIR]
//!          [--profile out.json] [--example]
//! swarmrun --scenario NAME [--peers N] [--seed N]
//!          [--topology NAME|file.json]
//!          [--trace out.jsonl] [--trace-sample N] [--flight-recorder DIR]
//!          [--metrics out.jsonl] [--series out.json] [--emit-dir DIR]
//!          [--profile out.json]
//! swarmrun --table1 [--quick] [--seed N] [--jobs N]
//!          [--topology NAME|file.json] [--series out.json]
//!          [--trace out.json] [--trace-sample N] [--flight-recorder DIR]
//!          [--profile out.json]
//! swarmrun --net [--seeds N] [--leechers N] [--pieces N] [--seed N]
//!          [--trace out.jsonl] [--trace-sample N]
//!          [--metrics out.jsonl] [--series out.json]
//!          [--profile out.json]
//! ```
//!
//! Each mode reads the flags on its line and no others: any other flag,
//! or a spec file given to `--scenario`, `--table1` or `--net`, exits 2
//! naming it and the mode.
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
//!   With the causal tracer on (`--trace-sample`, `--flight-recorder`
//!   or `--emit-dir`) it instead writes the *causal* trace: Chrome
//!   trace-event JSON (open FILE in Perfetto / `chrome://tracing`) plus
//!   the sorted deterministic JSONL next to it as `FILE.jsonl`;
//! * `--trace-sample N` turns on the causal tracer at sampling rate
//!   `1/N` (piece lifecycles, choke-decision audits, message
//!   provenance; DESIGN.md §11; 0 and 1 both mean every chain).
//!   Sampling hashes ids with splitmix64 — it never touches the swarm
//!   RNG, so traced runs replay the same digest byte-for-byte. Works in
//!   every mode; `--table1` exports one JSON object keyed by torrent
//!   label;
//! * `--flight-recorder DIR` dumps a self-contained crash bundle into
//!   DIR, holding the causal tracer's last 4 096 events, when a
//!   live-monitor invariant trips or the simulated swarm panics;
//!   `--table1` gives each torrent its own `DIR/<torrent label>/`. It
//!   turns on the registry (whose health monitors trip the dumps) and
//!   the causal tracer, at rate 1 unless `--trace-sample N` says
//!   otherwise: on a large swarm pass `--trace-sample N` to keep the
//!   trace small. `--net` runs have no health monitors and refuse it;
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
//!   byte-identical for a given spec and seed, and write it when the
//!   run ends; `--net` runs sample a shared wall-clock registry every
//!   250 ms and append each snapshot as it is taken, so `tail -f FILE`
//!   follows the run. If a run panics, unwinding flushes a final
//!   snapshot;
//! * `--series FILE` writes the registry time-series as JSON: per-key
//!   `[t_micros, value]` rings sampled once per metrics period, plus the
//!   `live.*` health series. Simulator and `--table1` series use the
//!   virtual clock (byte-identical for a given spec and seed, any
//!   `--jobs`); `--net` series sample the shared wall-clock registry;
//! * `--profile FILE` attaches a span profiler, writes the aggregated
//!   call-tree profile as JSON and prints the pretty report. Simulator
//!   and `--table1` profiles use the virtual clock (byte-identical for
//!   a given seed, any `--jobs`); `--net` profiles measure wall time;
//! * `--table1` runs the whole 26-torrent Table I sweep on a worker
//!   pool (`--jobs N`, default: all cores) and prints one summary line
//!   per torrent — traces are identical for any job count;
//! * `--net` runs a real-socket loopback swarm through `bt-net`: every
//!   engine driven from one socket loop, TCP on 127.0.0.1, and the same
//!   analysis pipeline applied to the captured traces;
//! * otherwise the run's summary (completions, tracker stats, headline
//!   analysis metrics) is printed.
//!
//! The spec format is `bt_sim::SwarmSpec` serialised as JSON; identical
//! specs replay bit-for-bit, and `--seed N` replaces the file's seed. An
//! unknown `--flag` is a usage error (exit 2), and so is a spec with a
//! key that is not a field or a value out of range (`SwarmSpec::validate`
//! names the field, `net` for a topology that fails its own checks).
//! `--net` runs are *not* deterministic — wall-clock timing and the
//! kernel's socket buffers decide what each pass finds — but every
//! protocol invariant still holds.

use bt_analysis::SessionSummary;
use bt_instrument::trace::Trace;
use bt_net::LoopbackSpec;
use bt_obs::{summary_text, ObserverSet, Observers, Profile, Snapshot, TimeSource, Tracer};
use bt_sim::{BehaviorProfile, NetModel, Swarm, SwarmSpec, TopologySpec};
use bt_torrents::{RunConfig, ScenarioOutcome};
use bt_wire::time::Duration;
use std::io::Write;
use std::path::PathBuf;
use std::sync::mpsc::RecvTimeoutError;

/// One line per mode, and the one flag table: `main` reads off it which
/// flags exist, which take a value and which each mode reads.
const USAGE: &str = "usage: swarmrun <spec.json> [--seed N] [--topology NAME|file.json] [--trace out.jsonl] [--trace-sample N] [--flight-recorder DIR] [--metrics out.jsonl] [--series out.json] [--emit-dir DIR] [--profile out.json] [--example]
       swarmrun --scenario flash_crowd_1k|flash_crowd_10k|flash_crowd_100k [--peers N] [--seed N] [--topology NAME|file.json] [--trace out.jsonl] [--trace-sample N] [--flight-recorder DIR] [--metrics out.jsonl] [--series out.json] [--emit-dir DIR] [--profile out.json]
       swarmrun --table1 [--quick] [--seed N] [--jobs N] [--topology NAME|file.json] [--series out.json] [--trace out.json] [--trace-sample N] [--flight-recorder DIR] [--profile out.json]
       swarmrun --net [--seeds N] [--leechers N] [--pieces N] [--seed N] [--trace out.jsonl] [--trace-sample N] [--metrics out.jsonl] [--series out.json] [--profile out.json]";

/// The flags a stretch of [`USAGE`] spells out, each with whether it
/// takes a value (`[--seed N]`, `--scenario NAME`) or not (`[--quick]`,
/// `--net [...`).
fn usage_flags(text: &str) -> Vec<(&str, bool)> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let mut flags = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        let flag = token.trim_start_matches('[');
        if flag.starts_with("--") {
            let switch =
                flag.ends_with(']') || tokens.get(i + 1).is_none_or(|next| next.starts_with('['));
            flags.push((flag.trim_end_matches(']'), !switch));
        }
    }
    flags
}

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
    let known = usage_flags(USAGE);
    let (mut flags, mut spec_path) = (Vec::new(), None);
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match known.iter().find(|(flag, _)| flag == a) {
            Some(&(_, takes_value)) => {
                if takes_value && iter.next().is_none() {
                    usage_error(&format!("{a} needs a value"));
                }
                flags.push(a.as_str());
            }
            None if a.starts_with("--") => usage_error(&format!("unknown flag `{a}`")),
            None => spec_path = spec_path.or(Some(a)),
        }
    }
    if flags.contains(&"--example") {
        print_example();
        return;
    }
    // The mode is named by its flag (a spec-file run has none); a flag
    // or a spec file the mode does not read is refused, not ignored.
    let mode = ["--scenario", "--table1", "--net"]
        .into_iter()
        .find(|m| flags.contains(m));
    let line = format!("swarmrun {} ", mode.unwrap_or("<spec.json>"));
    let reads = usage_flags(USAGE.lines().find(|l| l.contains(&line)).expect("in USAGE"));
    let name = mode.unwrap_or("spec-file");
    if let Some(flag) = flags.iter().find(|f| !reads.iter().any(|(r, _)| r == *f)) {
        usage_error(&format!("{flag} is not read in {name} mode"));
    }
    if let (Some(_), Some(path)) = (mode, spec_path) {
        usage_error(&format!("{name} mode reads no spec file, given `{path}`"));
    }
    match mode {
        Some("--table1") => run_table1_sweep(&args),
        Some("--net") => run_net_swarm(&args),
        _ => run_sim(sim_spec(&args, spec_path), &args),
    }
}

/// The simulator spec: a `--scenario` preset or the spec file, with
/// `--seed` and `--topology` applied, validated.
fn sim_spec(args: &[String], spec_path: Option<&String>) -> SwarmSpec {
    let mut spec = if let Some(name) = flag_str(args, "--scenario") {
        scenario_spec(&name, args)
    } else {
        let Some(path) = spec_path else {
            usage_error("no spec file, --scenario, --table1 or --net given");
        };
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
        let mut spec: SwarmSpec =
            serde_json::from_str(&text).unwrap_or_else(|e| die(format!("invalid spec: {e}")));
        if let Some(seed) = flag_u64(args, "--seed") {
            spec.seed = seed;
        }
        spec
    };
    if let Some(net) = topology_net(args) {
        spec.net = Some(net);
    }
    if let Err(e) = spec.validate() {
        die(format!("invalid spec: {e}"));
    }
    spec
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
    let (mut obs, set) = Outputs::new(args, emit_dir.as_deref());
    obs.observers = set.build(TimeSource::manual, seed);
    let swarm = bt_torrents::attach_observers(Swarm::new(spec), &obs.observers);

    let t0 = std::time::Instant::now();
    let result = swarm.run();
    let wall = t0.elapsed();

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
        if let Some(t) = &obs.observers.tracer {
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
        obs.report_local_trace(trace, piece_len, true);
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
    let (mut obs, set) = Outputs::new(args, None);
    obs.observers = set.build(TimeSource::wall, spec.seed);
    spec.tracer = obs.observers.tracer.clone();
    spec.metrics = obs.observers.registry.clone();
    spec.profiler = obs.observers.profiler.clone();
    let piece_len = spec.piece_len;
    let (seeds, leechers) = (spec.seeds, spec.leechers);
    eprintln!(
        "running {seeds} seed(s) + {leechers} leecher(s), {} pieces over loopback TCP ...",
        spec.total_len / u64::from(piece_len)
    );

    // Sampler thread: every 250 ms wall, snapshot the shared registry —
    // extend the time-series and append the snapshot to `--metrics` as
    // it is taken, so `tail -f` follows the run. Dropping `run_over`
    // when the swarm returns ends the wait at once, with no extra sample.
    let (run_over, over) = std::sync::mpsc::channel::<()>();
    let mut metrics = obs.metrics_log();
    let sampler = obs.observers.registry.clone().map(|reg| {
        let store = obs.observers.series.clone();
        std::thread::spawn(move || {
            let period = std::time::Duration::from_millis(250);
            while let Err(RecvTimeoutError::Timeout) = over.recv_timeout(period) {
                if let Some(s) = &store {
                    s.sample_registry();
                }
                if let Some(log) = &mut metrics {
                    log.append(&reg.snapshot());
                }
            }
            metrics
        })
    });

    let result = bt_net::run_loopback_swarm(spec).unwrap_or_else(|e| {
        eprintln!("swarmrun: net swarm failed: {e}");
        std::process::exit(1);
    });
    drop(run_over);
    let metrics =
        sampler.and_then(|handle| handle.join().expect("the metrics sampler does not panic"));
    // One last sample so the files reflect the final state.
    if let (Some(mut log), Some(reg)) = (metrics, &obs.observers.registry) {
        let last = reg.snapshot();
        log.append(&last);
        obs.close_metrics(&log, Some(&last));
    }
    if let Some(store) = &obs.observers.series {
        store.sample_registry();
    }
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
        obs.report_local_trace(trace, piece_len, false);
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
    let (out, set) = Outputs::new(args, None);
    cfg.observe = set;
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
    if let Some(path) = &out.series_out {
        write_by_label(path, &outcomes, |o| {
            o.observers.series.as_ref().map(|s| s.to_json(None))
        });
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
    let traced = outcomes.iter().any(|o| o.observers.tracer.is_some());
    if let (Some(path), true) = (&out.trace_out, traced) {
        write_by_label(path, &outcomes, |o| {
            o.observers.tracer.as_ref().map(Tracer::to_chrome_json)
        });
        println!("causal traces    : {path} ({} torrents)", outcomes.len());
    }
    if let Some(path) = &out.profile_out {
        // Each scenario profiled its own manual clock; merging in Table
        // I order (the `outcomes` order) is commutative sums, so the
        // merged profile is byte-identical for any `--jobs`.
        let mut merged = Profile::default();
        outcomes
            .iter()
            .filter_map(|o| o.result.profile.as_ref())
            .for_each(|p| merged.merge(p));
        write_profile(path, &merged);
    }
}

/// Write one JSON object keyed by torrent label, in Table I order, whose
/// values are each scenario's own `doc`. Every torrent of a sweep
/// carries the same observers, so each has its document; every document
/// is deterministic, so the whole file is byte-identical for any
/// `--jobs`.
fn write_by_label(
    path: &str,
    outcomes: &[ScenarioOutcome],
    doc: impl Fn(&ScenarioOutcome) -> Option<String>,
) {
    let entries: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let doc = doc(o).expect("every torrent carries the sweep's observers");
            format!("\"{}\":{doc}", o.spec.label())
        })
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

/// Where a run's observers are written, and the observers themselves.
struct Outputs {
    observers: Observers,
    /// `metrics_out` holds the run's snapshots (see the `Drop` impl).
    metrics_written: bool,
    metrics_out: Option<String>,
    series_out: Option<String>,
    profile_out: Option<String>,
    trace_out: Option<String>,
}

impl Outputs {
    /// Read the output flags, and the observers they need, for the
    /// caller to build on its clock. `emit_dir` (the layout `btstat`
    /// loads) defaults the metrics, series and profile paths into it and
    /// the causal tracer to rate 1, so the emitted `trace.jsonl` is
    /// bisectable; explicit flags still win.
    fn new(args: &[String], emit_dir: Option<&str>) -> (Outputs, ObserverSet) {
        let in_dir = |name: &str| emit_dir.map(|d| format!("{d}/{name}"));
        let out = Outputs {
            observers: Observers::default(),
            metrics_written: false,
            metrics_out: flag_str(args, "--metrics").or_else(|| in_dir("metrics.jsonl")),
            series_out: flag_str(args, "--series").or_else(|| in_dir("series.json")),
            profile_out: flag_str(args, "--profile").or_else(|| in_dir("profile.json")),
            trace_out: flag_str(args, "--trace"),
        };
        let set = ObserverSet {
            metrics: out.metrics_out.is_some() || out.series_out.is_some(),
            profile: out.profile_out.is_some(),
            trace_sample: flag_u64(args, "--trace-sample").or(emit_dir.map(|_| 1)),
            flight_dir: flag_str(args, "--flight-recorder").map(PathBuf::from),
        };
        (out, set)
    }

    /// `--metrics FILE`, created empty for the run's snapshots.
    fn metrics_log(&self) -> Option<MetricsLog> {
        let path = self.metrics_out.clone()?;
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        Some(MetricsLog {
            path,
            file,
            lines: 0,
        })
    }

    /// `--metrics FILE` of a simulated run: its snapshots, written when
    /// it ends.
    fn write_metrics(&mut self, snapshots: &[Snapshot]) {
        if let Some(mut log) = self.metrics_log() {
            snapshots.iter().for_each(|s| log.append(s));
            self.close_metrics(&log, snapshots.last());
        }
    }

    /// The `--metrics` file holds the whole run: say so, then print the
    /// last snapshot's summary.
    fn close_metrics(&mut self, log: &MetricsLog, last: Option<&Snapshot>) {
        self.metrics_written = true;
        println!("metrics written  : {} ({} snapshots)", log.path, log.lines);
        if let Some(last) = last {
            print!("{}", summary_text(last));
        }
    }

    /// `--series FILE`: the time-series store as JSON.
    fn write_series(&self) {
        if let (Some(path), Some(store)) = (&self.series_out, &self.observers.series) {
            write_text(path, &store.to_json(None));
            println!("series written   : {path} ({} series)", store.len());
        }
    }

    /// `--profile FILE`: the span profile as JSON, plus the pretty report.
    fn write_profile(&self) {
        if let (Some(path), Some(profiler)) = (&self.profile_out, &self.observers.profiler) {
            write_profile(path, &profiler.snapshot());
        }
    }

    /// The causal trace, when given `--trace FILE`: Chrome trace-event
    /// JSON at FILE plus the sorted deterministic JSONL at `FILE.jsonl`,
    /// both from one sort. Otherwise just its size.
    fn write_causal_trace(&self) {
        let Some(t) = &self.observers.tracer else {
            return;
        };
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
        if let Some(fr) = t.flight() {
            println!("flight recorder  : {} bundle(s) dumped", fr.dumps());
        }
    }

    /// The paper's headline metrics for the instrumented peer's trace,
    /// through the same pipeline the figures use (with the replication
    /// state where the driver samples availability into the trace, as
    /// the simulator does); then the trace itself to `--trace`, unless
    /// the causal trace took that path.
    fn report_local_trace(&self, trace: &Trace, piece_len: u32, availability: bool) {
        let summary = SessionSummary::from_trace(trace, piece_len);
        println!("trace events     : {}", trace.len());
        println!(
            "entropy a/b      : p20={:.2} p50={:.2} p80={:.2} over {} leechers",
            summary.entropy.local_in_remote.p20,
            summary.entropy.local_in_remote.p50,
            summary.entropy.local_in_remote.p80,
            summary.entropy.peers.len()
        );
        if availability {
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
        if let (Some(path), None) = (&self.trace_out, &self.observers.tracer) {
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

/// The `--metrics` file: one JSON line per registry snapshot, each
/// written to the unbuffered file in one call as it is appended.
struct MetricsLog {
    path: String,
    file: std::fs::File,
    lines: usize,
}

impl MetricsLog {
    fn append(&mut self, snap: &Snapshot) {
        let mut line = snap.to_jsonl_line();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .unwrap_or_else(|e| die(format!("cannot write {}: {e}", self.path)));
        self.lines += 1;
    }
}

/// A run that panics never reaches [`Outputs::close_metrics`]:
/// unwinding appends one final registry snapshot to the `--metrics` file
/// instead, so the last observed state is still on disk.
impl Drop for Outputs {
    fn drop(&mut self) {
        let (Some(reg), Some(path), false) = (
            &self.observers.registry,
            &self.metrics_out,
            self.metrics_written,
        ) else {
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
