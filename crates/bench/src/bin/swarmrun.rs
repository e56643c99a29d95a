//! `swarmrun` — run a swarm scenario from a JSON spec file.
//!
//! ```text
//! swarmrun <spec.json> [--seed N] [--topology NAME|file.json]
//!          [--trace-sample N] [--flight-recorder DIR] [--emit-dir DIR]
//!          [--example]
//! swarmrun --scenario NAME [--peers N] [--seed N]
//!          [--topology NAME|file.json]
//!          [--trace-sample N] [--flight-recorder DIR] [--emit-dir DIR]
//! swarmrun --table1 [--quick] [--seed N] [--jobs N]
//!          [--topology NAME|file.json]
//!          [--trace-sample N] [--flight-recorder DIR] [--emit-dir DIR]
//! swarmrun --net [--seeds N] [--leechers N] [--pieces N] [--seed N]
//!          [--trace-sample N] [--emit-dir DIR]
//! ```
//!
//! Each mode reads the flags on its line and no others: any other flag,
//! a flag given twice, or a spec file given to `--scenario`, `--table1`
//! or `--net`, exits 2 naming it; so does a count (`--seeds`,
//! `--leechers`, `--pieces`, `--jobs`) of 0.
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
//! * `--emit-dir DIR` is the one way a run writes what it observed: one
//!   directory in the layout `btstat` loads (DESIGN.md §12) —
//!   `run.json` (manifest with scenario, seed, digest), `metrics.jsonl`
//!   (`bt-obs` registry snapshots, one JSON line per sampling period plus
//!   a final one), `series.json` (per-key `[t_micros, value]` rings plus
//!   the `live.*` health series), `profile.json` (the span call tree,
//!   whose report is printed too), the causal trace as sorted JSONL
//!   `trace.jsonl` and Chrome trace-event JSON `trace.json` (open it in
//!   Perfetto / `chrome://tracing`), both from one sort, and `local.jsonl`,
//!   the instrumented peer's `bt-instrument` trace, when the run has one.
//!   The causal tracer runs at rate 1 unless `--trace-sample` says
//!   otherwise. Simulated runs observe on the virtual clock, so every
//!   file is byte-identical for a given spec and seed, and any `--jobs`;
//!   `--table1` writes one such directory per torrent, `DIR/torrent-NN/`.
//!   `--net` runs sample a shared wall-clock registry every 250 ms and
//!   append each snapshot to `metrics.jsonl` as it is taken, so `tail -f`
//!   follows the run; their manifest has an empty digest and 0 events.
//!   If a run panics, unwinding appends a final snapshot. Run the same
//!   spec with two seeds and feed both directories to `btstat merge`,
//!   `diff` or `bisect`;
//! * `--trace-sample N` turns on the causal tracer at sampling rate
//!   `1/N` (piece lifecycles, choke-decision audits, message
//!   provenance; DESIGN.md §11; 0 and 1 both mean every chain).
//!   Sampling hashes ids with splitmix64 — it never touches the swarm
//!   RNG, so traced runs replay the same digest byte-for-byte. Works in
//!   every mode;
//! * `--flight-recorder DIR` dumps a self-contained crash bundle into
//!   DIR, holding the causal tracer's last 4 096 events, when a
//!   live-monitor invariant trips or the simulated swarm panics;
//!   `--table1` gives each torrent its own `DIR/<torrent label>/`. It
//!   turns on the registry (whose health monitors trip the dumps) and
//!   the causal tracer, at rate 1 unless `--trace-sample N` says
//!   otherwise: on a large swarm pass `--trace-sample N` to keep the
//!   trace small. `--net` runs have no health monitors and refuse it;
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
use bt_obs::{summary_text, ObserverSet, Observers, Snapshot, TimeSource};
use bt_sim::{BehaviorProfile, NetModel, Swarm, SwarmSpec, TopologySpec};
use bt_stat::artifacts::manifest_json;
use bt_torrents::RunConfig;
use bt_wire::time::Duration;
use std::io::Write;
use std::path::PathBuf;
use std::sync::mpsc::RecvTimeoutError;

/// One line per mode, and the one flag table: `main` reads off it which
/// flags exist, which take a value and which each mode reads.
const USAGE: &str = "usage: swarmrun <spec.json> [--seed N] [--topology NAME|file.json] [--trace-sample N] [--flight-recorder DIR] [--emit-dir DIR] [--example]
       swarmrun --scenario flash_crowd_1k|flash_crowd_10k|flash_crowd_100k [--peers N] [--seed N] [--topology NAME|file.json] [--trace-sample N] [--flight-recorder DIR] [--emit-dir DIR]
       swarmrun --table1 [--quick] [--seed N] [--jobs N] [--topology NAME|file.json] [--trace-sample N] [--flight-recorder DIR] [--emit-dir DIR]
       swarmrun --net [--seeds N] [--leechers N] [--pieces N] [--seed N] [--trace-sample N] [--emit-dir DIR]";

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
    // The mode is named by its flag (a spec-file run has none; no value
    // starts with `--`, so none is taken for one); a flag or a spec file
    // the mode does not read is refused, not ignored, and so is a flag
    // given twice.
    let mode = ["--scenario", "--table1", "--net"]
        .into_iter()
        .find(|m| args.iter().any(|a| a == m));
    let name = mode.unwrap_or("spec-file");
    let line = format!("swarmrun {} ", mode.unwrap_or("<spec.json>"));
    let reads = usage_flags(USAGE.lines().find(|l| l.contains(&line)).expect("in USAGE"));
    let known = usage_flags(USAGE);
    let (mut flags, mut spec_path) = (Vec::new(), None);
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if !a.starts_with("--") {
            spec_path = spec_path.or(Some(a));
        } else if !known.iter().any(|(flag, _)| flag == a) {
            usage_error(&format!("unknown flag `{a}` in {name} mode"));
        } else if !reads.iter().any(|(flag, _)| flag == a) {
            usage_error(&format!("{a} is not read in {name} mode"));
        } else if flags.contains(&a.as_str()) {
            usage_error(&format!("{a} given twice in {name} mode"));
        } else {
            let takes_value = reads.iter().any(|&(flag, value)| flag == a && value);
            if takes_value && iter.next().is_none_or(|v| v.starts_with("--")) {
                usage_error(&format!("{a} needs a value"));
            }
            flags.push(a.as_str());
        }
    }
    // A swarm needs a seed, a leecher and a piece, a crowd a leecher,
    // and a pool a worker.
    if let Some(flag) = ["--seeds", "--leechers", "--pieces", "--peers", "--jobs"]
        .into_iter()
        .find(|f| flag_u64(&args, f) == Some(0))
    {
        die(format!(
            "{flag} 0 in {name} mode: a count must be at least 1"
        ));
    }
    if flags.contains(&"--example") {
        print_example();
        return;
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
    let mut obs = Outputs::new(args, TimeSource::manual, seed);
    let swarm = bt_torrents::attach_observers(Swarm::new(spec), &obs.observers);

    let t0 = std::time::Instant::now();
    let result = swarm.run();
    let wall = t0.elapsed();

    if let Some(mut log) = obs.metrics_log() {
        result.metrics.iter().for_each(|s| log.append(s));
        obs.close_metrics(&log, result.metrics.last());
    }
    if let Some(health) = &result.health {
        println!("health           : {}", health.summary_line());
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
    let digest = format!("{:016x}", result.digest());
    println!("run digest       : {digest}");
    let scenario = flag_str(args, "--scenario").unwrap_or_else(|| "spec".to_string());
    let manifest = manifest_json(
        &scenario,
        seed,
        peers as u64,
        pieces,
        result.events_processed,
        result.completed_peers as u64,
        &digest,
    );
    obs.finish(&manifest, result.trace.as_ref());
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
        report_local_trace(trace, piece_len, true);
    }
}

/// `swarmrun --net` — a real-socket loopback swarm via `bt-net`.
fn run_net_swarm(args: &[String]) {
    let d = LoopbackSpec::default();
    let mut spec = LoopbackSpec {
        seeds: flag_u64(args, "--seeds").map_or(d.seeds, |n| n as usize),
        leechers: flag_u64(args, "--leechers").map_or(d.leechers, |n| n as usize),
        total_len: flag_u64(args, "--pieces").map_or(d.total_len, |n| n * u64::from(d.piece_len)),
        seed: flag_u64(args, "--seed").unwrap_or(d.seed),
        ..d
    };
    // Every runtime gets the shared tracer and samples itself by its
    // virtual-IP hash, and reports into the shared registry.
    let mut obs = Outputs::new(args, TimeSource::wall, spec.seed);
    spec.tracer = obs.observers.tracer.clone();
    spec.metrics = obs.observers.registry.clone();
    spec.profiler = obs.observers.profiler.clone();
    let piece_len = spec.piece_len;
    let (seeds, leechers, seed) = (spec.seeds, spec.leechers, spec.seed);
    let pieces = spec.total_len / u64::from(piece_len);
    eprintln!(
        "running {seeds} seed(s) + {leechers} leecher(s), {pieces} pieces over loopback TCP ..."
    );

    // Sampler thread: every 250 ms wall, snapshot the shared registry —
    // extend the time-series and append the snapshot to `metrics.jsonl`
    // as it is taken, so `tail -f` follows the run. Dropping `run_over`
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
    println!(
        "peers completed  : {} / {leechers} leechers in {:.2?} wall",
        result.completed_leechers, result.wall_elapsed
    );
    println!(
        "tracker          : {} started, {} completed announces",
        result.tracker_started, result.tracker_completed
    );
    // The first leecher's trace is the instrumented peer's.
    let local = result
        .outcomes
        .iter()
        .skip(seeds)
        .find_map(|o| o.trace.as_ref());
    // A socket run has no replay digest and counts no simulator events.
    let (peers, completed) = ((seeds + leechers) as u64, result.completed_leechers as u64);
    obs.finish(
        &manifest_json("net", seed, peers, pieces, 0, completed, ""),
        local,
    );
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
    // Analyse it with the same pipeline the simulator figures use.
    if let Some(trace) = local {
        report_local_trace(trace, piece_len, false);
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
    let jobs = flag_u64(args, "--jobs").map_or_else(bt_torrents::default_jobs, |n| n as usize);
    let (emit_dir, set) = observer_set(args);
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
    let Some(root) = emit_dir else { return };
    // One run directory per torrent, each a pure function of the seed
    // and the torrent: byte-identical for any `--jobs`.
    for o in &outcomes {
        let label = o.spec.label();
        let dir = format!("{root}/{label}");
        create_dir(&dir);
        let mut log = MetricsLog::create(format!("{dir}/metrics.jsonl"));
        o.result.metrics.iter().for_each(|s| log.append(s));
        let manifest = manifest_json(
            &label,
            cfg.seed,
            o.result.completion.len() as u64,
            u64::from(o.scaled.pieces),
            o.result.events_processed,
            o.result.completed_peers as u64,
            &format!("{:016x}", o.result.digest()),
        );
        write_run_dir(&dir, &o.observers, Some(&o.trace), &manifest);
    }
    println!(
        "artifacts        : {root}/torrent-NN/ ({} torrents)",
        outcomes.len()
    );
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

/// The string value following `name`, if present.
fn flag_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--emit-dir DIR`, created, and the observers a run carries: with a
/// directory, everything it holds (the causal tracer at rate 1, so its
/// `trace.jsonl` is bisectable, unless `--trace-sample` says otherwise);
/// without one, only what `--trace-sample` and `--flight-recorder` ask
/// for.
fn observer_set(args: &[String]) -> (Option<String>, ObserverSet) {
    let dir = flag_str(args, "--emit-dir");
    if let Some(dir) = &dir {
        create_dir(dir);
    }
    let set = ObserverSet {
        metrics: dir.is_some(),
        profile: dir.is_some(),
        trace_sample: flag_u64(args, "--trace-sample").or(dir.as_ref().map(|_| 1)),
        flight_dir: flag_str(args, "--flight-recorder").map(PathBuf::from),
    };
    (dir, set)
}

/// A single run's observers and the directory they are written to.
struct Outputs {
    observers: Observers,
    /// `--emit-dir DIR`.
    dir: Option<String>,
    /// `metrics.jsonl` holds the run's snapshots (see the `Drop` impl).
    metrics_written: bool,
}

impl Outputs {
    /// Read the output flags and build the observers they need on
    /// `clock`, seeded with the run's `seed`.
    fn new(args: &[String], clock: fn() -> TimeSource, seed: u64) -> Outputs {
        let (dir, set) = observer_set(args);
        Outputs {
            observers: set.build(clock, seed),
            dir,
            metrics_written: false,
        }
    }

    /// `DIR/metrics.jsonl`, created empty for the run's snapshots.
    fn metrics_log(&self) -> Option<MetricsLog> {
        let dir = self.dir.as_ref()?;
        Some(MetricsLog::create(format!("{dir}/metrics.jsonl")))
    }

    /// `metrics.jsonl` holds the whole run: say so, then print the last
    /// snapshot's summary.
    fn close_metrics(&mut self, log: &MetricsLog, last: Option<&Snapshot>) {
        self.metrics_written = true;
        println!("metrics          : {} snapshots", log.lines);
        if let Some(last) = last {
            print!("{}", summary_text(last));
        }
    }

    /// After the run: write the rest of the directory, if there is one,
    /// with the `manifest` and the instrumented peer's `local` trace;
    /// print the profile report and what the causal tracer holds.
    fn finish(&self, manifest: &str, local: Option<&Trace>) {
        if let Some(dir) = &self.dir {
            write_run_dir(dir, &self.observers, local, manifest);
            let local = if local.is_some() { ", local.jsonl" } else { "" };
            println!("artifacts        : {dir}/ (run.json, metrics.jsonl, series.json, profile.json, trace.jsonl, trace.json{local})");
        }
        if let Some(profiler) = &self.observers.profiler {
            print!("{}", profiler.snapshot().render());
        }
        let Some(t) = &self.observers.tracer else {
            return;
        };
        match &self.dir {
            Some(dir) => println!(
                "causal trace     : {dir}/trace.json (Chrome JSON) + {dir}/trace.jsonl (sorted JSONL), {} events",
                t.len()
            ),
            None => println!(
                "causal trace     : {} events sampled (pass --emit-dir DIR to export)",
                t.len()
            ),
        }
        if let Some(fr) = t.flight() {
            println!("flight recorder  : {} bundle(s) dumped", fr.dumps());
        }
    }
}

/// Write a finished run's directory, all but `metrics.jsonl`: what its
/// observers hold, the instrumented peer's trace, and the manifest last.
fn write_run_dir(dir: &str, observers: &Observers, local: Option<&Trace>, manifest: &str) {
    if let Some(store) = &observers.series {
        write_text(&format!("{dir}/series.json"), &store.to_json(None));
    }
    if let Some(profiler) = &observers.profiler {
        write_text(
            &format!("{dir}/profile.json"),
            &profiler.snapshot().to_json(),
        );
    }
    if let Some(t) = &observers.tracer {
        let jsonl = format!("{dir}/trace.jsonl");
        write_stream(&format!("{dir}/trace.json"), |chrome| {
            std::fs::File::create(&jsonl)
                .and_then(|mut lines| t.export(Some(&mut lines), Some(chrome)))
        });
    }
    if let Some(trace) = local {
        write_text(&format!("{dir}/local.jsonl"), &trace.to_jsonl());
    }
    write_text(&format!("{dir}/run.json"), manifest);
}

/// The paper's headline metrics for the instrumented peer's trace,
/// through the same pipeline the figures use (with the replication
/// state where the driver samples availability into the trace, as the
/// simulator does).
fn report_local_trace(trace: &Trace, piece_len: u32, availability: bool) {
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
}

/// Create the directory `dir` and its parents.
fn create_dir(dir: &str) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format!("cannot create {dir}: {e}")));
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

/// A run's `metrics.jsonl`: one JSON line per registry snapshot, each
/// written to the unbuffered file in one call as it is appended.
struct MetricsLog {
    path: String,
    file: std::fs::File,
    lines: usize,
}

impl MetricsLog {
    /// Create `path` empty.
    fn create(path: String) -> MetricsLog {
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        MetricsLog {
            path,
            file,
            lines: 0,
        }
    }

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
/// unwinding appends one final registry snapshot to `metrics.jsonl`
/// instead, so the last observed state is still on disk.
impl Drop for Outputs {
    fn drop(&mut self) {
        let (Some(reg), Some(dir), false) =
            (&self.observers.registry, &self.dir, self.metrics_written)
        else {
            return;
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(format!("{dir}/metrics.jsonl"));
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
