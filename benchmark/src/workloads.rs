//! The five workloads. Each repetition builds its inputs from a seed
//! (timed as set-up), runs the program through public `bt-*` functions
//! (the timed region, which includes the digest or exports a user of
//! the program would also pay for), and returns what it produced so the
//! caller can check it.
//!
//! Why these five is recorded in `BENCHMARK.json` and in
//! `benchmark/README.md`.

use bt_analysis::SessionSummary;
use bt_obs::{Profiler, Registry, SeriesStore, Snapshot, TimeSource, Tracer};
use bt_sim::{Swarm, SwarmResult};
use bt_torrents::scenarios::mega_flash_crowd;
use bt_torrents::{
    build_swarm_spec, run_scenario, run_scenarios_parallel, torrent, PresetOptions, RunConfig,
    ScenarioOutcome, ScenarioSpec,
};
use bt_wire::time::Duration;
use std::collections::BTreeMap;
use std::time::Instant;

/// How large the workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Table I torrent ids of the `table1_*` workloads.
    pub table1_ids: &'static [u32],
    /// Leechers in the flash crowd.
    pub crowd_peers: usize,
    /// Content bytes of the loopback transfer.
    pub net_bytes: u64,
}

impl Sizes {
    /// What the driver and `run` measure. One repetition takes 0.5–1.5 s,
    /// so a run holds enough of them for a steady median on a host whose
    /// speed changes every few seconds.
    pub const STD: Sizes = Sizes {
        // Two mid-size swarms of about equal cost (3: 1 seed, 13: 9
        // seeds), the unscaled three-peer torrent and the seed-heavy
        // 64-piece one: two jobs split them evenly.
        table1_ids: &[2, 3, 13, 19],
        crowd_peers: 2_000,
        net_bytes: 64 << 20,
    };

    /// The self-test's sizes (`--smoke`): seconds for everything.
    pub const SMOKE: Sizes = Sizes {
        table1_ids: &[2, 19],
        crowd_peers: 1_000,
        net_bytes: 16 << 20,
    };
}

/// Simulated session of the flash crowd; a leecher that has not
/// finished by then counts as failed.
pub const CROWD_SESSION_SECS: u64 = 900;
/// Pieces of the flash-crowd content (the picker is trivial there).
pub const CROWD_PIECES: u32 = 8;
/// Piece length of the loopback transfer: at 1 MiB the run is CPU-bound
/// and repeats; at the default 32 KiB it is mostly idle and does not.
pub const NET_PIECE_LEN: u32 = 1 << 20;

/// One of the five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Serial,
    Table1Parallel,
    Crowd,
    CrowdObserved,
    NetBulk,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::Table1Serial,
        Workload::Table1Parallel,
        Workload::Crowd,
        Workload::CrowdObserved,
        Workload::NetBulk,
    ];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Serial => "table1_serial",
            Workload::Table1Parallel => "table1_parallel",
            Workload::Crowd => "crowd",
            Workload::CrowdObserved => "crowd_observed",
            Workload::NetBulk => "net_bulk",
        }
    }

    /// Look a workload up by its `BENCHMARK.json` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the workload runs the program on; never above `nproc`.
    pub fn threads(self, jobs: usize) -> usize {
        match self {
            Workload::Table1Parallel => jobs,
            // One runtime thread for the seed and one for the leecher.
            Workload::NetBulk => 2,
            _ => 1,
        }
    }

    /// The workload whose output every repetition must reproduce:
    /// itself, except that the parallel sweep is checked
    /// against the serial one and the observed crowd against the bare.
    pub fn reference(self) -> Workload {
        match self {
            Workload::Table1Parallel => Workload::Table1Serial,
            Workload::CrowdObserved => Workload::Crowd,
            other => other,
        }
    }
}

/// Worker threads for `table1_parallel`: one per hardware thread, at
/// most four.
pub fn parallel_jobs() -> usize {
    bt_torrents::default_jobs().min(4)
}

/// Observers the traced run attaches through the program's public
/// seams: a wall-clock span profiler and a registry for the counts.
#[derive(Debug, Clone)]
pub struct Hooks {
    pub profiler: Profiler,
    pub registry: Registry,
}

impl Hooks {
    /// A wall-clock profiler and a registry whose clock the driver of
    /// the workload sets (virtual time in the simulator).
    pub fn new(manual_registry: bool) -> Hooks {
        Hooks {
            profiler: Profiler::new(TimeSource::wall()),
            registry: if manual_registry {
                Registry::new_manual()
            } else {
                Registry::new_wall()
            },
        }
    }
}

/// What a repetition produced, reduced to what the checks compare.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Output {
    /// Per-swarm run digests ([`SwarmResult::digest`]), in spec order.
    pub digests: Vec<u64>,
    /// Per-swarm event counts, in spec order.
    pub events: Vec<u64>,
    /// Per-swarm fingerprints of what the swarm *did* (completion times
    /// and tracker tallies) — equal with observers on or off, where the
    /// event count is not.
    pub behaviour: Vec<u64>,
}

/// One repetition of one workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds building the inputs, before the timed region.
    pub setup_s: f64,
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the whole repetition,
    /// set-up included.
    pub cpu_s: f64,
    /// Units of driver work done: simulator events, or engine inputs
    /// fed by the socket runtime.
    pub events: u64,
    /// Payload bytes whose download completed; `net_bulk` only.
    pub payload_bytes: u64,
    /// Operations attempted (see `failed`).
    pub attempted: u64,
    /// Operations failed: a leecher that did not finish, a scenario
    /// that produced no local-peer trace, a protocol error.
    pub failed: u64,
    pub output: Output,
    /// Counts from the program's public result and registry surfaces.
    pub counts: BTreeMap<&'static str, f64>,
    /// How much slower than the reference host the host was around this
    /// repetition ([`crate::calib`]); 0 when nobody measured it.
    pub host_factor: f64,
}

/// Process CPU seconds so far (user + system, all threads), from
/// `/proc/self/stat`; 0 where that file is missing.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 counted from after the parenthesised command
    // name, in clock ticks; USER_HZ is 100 on Linux.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

fn fnv1a64(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn behaviour(result: &SwarmResult) -> u64 {
    fnv1a64(
        [result.tracker_started, result.tracker_completed]
            .into_iter()
            .chain(
                result
                    .completion
                    .iter()
                    .map(|t| t.map_or(u64::MAX, |t| t.0)),
            ),
    )
}

fn record_swarm(rep: &mut Rep, result: &SwarmResult) {
    rep.events += result.events_processed;
    rep.output.digests.push(result.digest());
    rep.output.events.push(result.events_processed);
    rep.output.behaviour.push(behaviour(result));
}

fn crowd_opts(seed: u64) -> PresetOptions {
    PresetOptions {
        seed,
        pieces: CROWD_PIECES,
        duration: Duration::from_secs(CROWD_SESSION_SECS),
        ..PresetOptions::default()
    }
}

fn attach(swarm: Swarm, hooks: Option<&Hooks>) -> Swarm {
    match hooks {
        Some(h) => swarm
            .with_metrics(h.registry.clone())
            .with_profiler(h.profiler.clone()),
        None => swarm,
    }
}

/// Registry counters the traced run reports as per-layer counts.
const COUNTERS: [&str; 2] = ["sim.events", "sim.link_losses"];

/// Add the final registry snapshot's [`COUNTERS`] to the repetition's
/// counts (summed over swarms where a repetition runs several).
fn add_counters(rep: &mut Rep, snap: Option<&Snapshot>) {
    let Some(snap) = snap else { return };
    for name in COUNTERS {
        *rep.counts.entry(name).or_insert(0.0) += snap.counter_sum(name) as f64;
    }
    for (name, prefix) in [
        ("core.inputs", "core.inputs."),
        ("core.actions", "core.actions."),
    ] {
        let total: u64 = snap
            .counters
            .iter()
            .filter(|(n, _, _)| n.starts_with(prefix))
            .map(|(_, _, v)| *v)
            .sum();
        *rep.counts.entry(name).or_insert(0.0) += total as f64;
    }
}

/// One leecher per operation: failed when it has not finished within
/// the session.
fn count_crowd_ops(rep: &mut Rep, result: &SwarmResult, leechers: usize) {
    rep.attempted += leechers as u64;
    // Peer 0 is the initial seed and never "completes".
    let done = result.completion.iter().skip(1).flatten().count();
    rep.failed += (leechers - done.min(leechers)) as u64;
}

fn crowd(sizes: Sizes, seed: u64, hooks: Option<&Hooks>) -> Rep {
    let mut rep = Rep::default();
    let leechers = sizes.crowd_peers;
    let t0 = Instant::now();
    let spec = mega_flash_crowd(leechers, &crowd_opts(seed));
    let swarm = attach(Swarm::new(spec), hooks);
    rep.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let result = {
        let _span = hooks.map(|h| h.profiler.span("bench.run"));
        swarm.run()
    };
    record_swarm(&mut rep, &result);
    rep.wall_s = t1.elapsed().as_secs_f64();

    count_crowd_ops(&mut rep, &result, leechers);
    if hooks.is_some() {
        add_counters(&mut rep, result.metrics.last());
    }
    rep
}

/// The crowd with exactly the observer set `swarmrun --emit-dir`
/// attaches, every export serialised to memory inside the timed region.
fn crowd_observed(sizes: Sizes, seed: u64, hooks: Option<&Hooks>) -> Rep {
    let mut rep = Rep::default();
    let leechers = sizes.crowd_peers;
    let t0 = Instant::now();
    let spec = mega_flash_crowd(leechers, &crowd_opts(seed));
    let tracer = Tracer::new(seed, 1);
    let registry = hooks.map_or_else(Registry::new_manual, |h| h.registry.clone());
    let store = SeriesStore::new(&registry);
    // The traced run swaps the manual-clock profiler for its wall-clock
    // one; the span calls made are the same.
    let profiler = hooks.map_or_else(
        || Profiler::new(TimeSource::manual()),
        |h| h.profiler.clone(),
    );
    let swarm = Swarm::new(spec)
        .with_trace(tracer.clone())
        .with_metrics(registry)
        .with_health(bt_analysis::live::Thresholds::default())
        .with_series(store.clone())
        .with_profiler(profiler);
    rep.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let result = {
        let _span = hooks.map(|h| h.profiler.span("bench.run"));
        swarm.run()
    };
    let exported = {
        let _span = hooks.map(|h| h.profiler.span("bench.export"));
        let metrics: usize = result
            .metrics
            .iter()
            .map(|snap| snap.to_jsonl_line().len())
            .sum();
        tracer.flush_local();
        metrics
            + store.to_json(None).len()
            + tracer.to_jsonl().len()
            + result.profile.as_ref().map_or(0, |p| p.to_json().len())
    };
    record_swarm(&mut rep, &result);
    rep.wall_s = t1.elapsed().as_secs_f64();

    count_crowd_ops(&mut rep, &result, leechers);
    // One more operation: the observers reported. Healthy or not is the
    // paper's business; a missing report or an empty export means they
    // were not attached.
    rep.attempted += 1;
    if result.health.is_none() || exported == 0 {
        rep.failed += 1;
    }
    if hooks.is_some() {
        add_counters(&mut rep, result.metrics.last());
    }
    rep
}

fn table1_specs(sizes: Sizes) -> Vec<ScenarioSpec> {
    sizes.table1_ids.iter().map(|&id| torrent(id)).collect()
}

/// The Table I sweep, then the analysis pipeline on every local-peer
/// trace. Without `jobs` it is the program's serial sweep (`run_table1`
/// is this loop over all of Table I): on the measuring thread, no pool.
/// With `jobs` it goes through the program's runner pool.
fn table1(sizes: Sizes, seed: u64, jobs: Option<usize>) -> Rep {
    let mut rep = Rep::default();
    let specs = table1_specs(sizes);
    let cfg = RunConfig::builder().seed(seed).build();

    // The runner builds each swarm inside `run_scenario`, so the same
    // construction is timed here on its own: set-up a later change
    // could move work into.
    let t0 = Instant::now();
    let built: Vec<Swarm> = specs
        .iter()
        .map(|spec| Swarm::new(build_swarm_spec(spec, &cfg).0))
        .collect();
    rep.setup_s = t0.elapsed().as_secs_f64();
    drop(built);

    let t1 = Instant::now();
    let outcomes: Vec<ScenarioOutcome> = match jobs {
        None => specs.iter().map(|spec| run_scenario(spec, &cfg)).collect(),
        Some(jobs) => run_scenarios_parallel(&cfg, &specs, jobs, |_| {}),
    };
    let mut analysed = 0;
    for o in &outcomes {
        let summary = SessionSummary::from_trace(&o.trace, o.scaled.piece_len);
        analysed += usize::from(!summary.torrent.is_empty());
        record_swarm(&mut rep, &o.result);
    }
    rep.wall_s = t1.elapsed().as_secs_f64();

    // One operation per scenario: it ran, left a local-peer trace and
    // that trace went through the analysis pipeline.
    rep.attempted = specs.len() as u64;
    rep.failed = (specs.len() - analysed.min(specs.len())) as u64;
    rep
}

/// The Table I sweep with the traced run's hooks attached. The runner's
/// own profile switch is manual-clock, so each swarm is built through
/// `build_swarm_spec` + `Swarm::new`; without `jobs` they run in turn on
/// the calling thread, with `jobs` they are handed to that many threads
/// the way the runner's pool hands them out.
fn table1_traced(sizes: Sizes, seed: u64, jobs: Option<usize>, hooks: &Hooks) -> Rep {
    let mut rep = Rep::default();
    let specs = table1_specs(sizes);
    let cfg = RunConfig::builder().seed(seed).build();

    let t0 = Instant::now();
    let built: Vec<_> = specs
        .iter()
        .map(|spec| {
            let (swarm_spec, scaled) = build_swarm_spec(spec, &cfg);
            // A registry per swarm: each keeps its own virtual clock.
            let swarm = Swarm::new(swarm_spec)
                .with_metrics(Registry::new_manual())
                .with_profiler(hooks.profiler.clone());
            (swarm, scaled.piece_len)
        })
        .collect();
    rep.setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let queue = std::sync::Mutex::new(built.into_iter().enumerate());
    // Run scenarios off the queue until it is empty.
    let drain = || {
        let mut mine: Vec<(usize, SwarmResult, bool)> = Vec::new();
        loop {
            let claimed = queue.lock().expect("no worker panics").next();
            let Some((i, (swarm, piece_len))) = claimed else {
                break mine;
            };
            let result = {
                let _span = hooks.profiler.span("bench.run");
                swarm.run()
            };
            let _span = hooks.profiler.span("bench.analysis");
            let trace = result.trace.as_ref().expect("local peer recorded");
            let summary = SessionSummary::from_trace(trace, piece_len);
            let analysed = !summary.torrent.is_empty();
            mine.push((i, result, analysed));
        }
    };
    let mut done = match jobs {
        None => drain(),
        Some(jobs) => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs.clamp(1, specs.len()))
                .map(|_| scope.spawn(drain))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("no worker panics"))
                .collect()
        }),
    };
    done.sort_by_key(|(i, _, _)| *i);
    let mut analysed = 0;
    for (_, result, ok) in &done {
        analysed += usize::from(*ok);
        record_swarm(&mut rep, result);
        add_counters(&mut rep, result.metrics.last());
    }
    rep.wall_s = t1.elapsed().as_secs_f64();
    rep.attempted = specs.len() as u64;
    rep.failed = (specs.len() - analysed.min(specs.len())) as u64;
    rep
}

/// One seed, one leecher, one TCP connection over the host's loopback
/// interface; real bytes, SHA-1 at generation and at receipt.
fn net_bulk(sizes: Sizes, seed: u64, hooks: Option<&Hooks>) -> Rep {
    let mut rep = Rep::default();
    let spec = bt_net::LoopbackSpec {
        seeds: 1,
        leechers: 1,
        total_len: sizes.net_bytes,
        piece_len: NET_PIECE_LEN,
        seed,
        record: false,
        metrics: hooks.map(|h| h.registry.clone()),
        profiler: hooks.map(|h| h.profiler.clone()),
        ..bt_net::LoopbackSpec::default()
    };
    let pieces = spec.total_len.div_ceil(u64::from(spec.piece_len));
    let t0 = Instant::now();
    let result = bt_net::run_loopback_swarm(spec);
    let total_s = t0.elapsed().as_secs_f64();
    rep.attempted = 1;
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("net_bulk: loopback swarm failed: {e}");
            rep.failed = 1;
            rep.wall_s = total_s;
            return rep;
        }
    };
    // The harness generates and hashes the content and binds the
    // listeners before its own clock starts: that part is set-up.
    rep.wall_s = result.wall_elapsed.as_secs_f64();
    rep.setup_s = (total_s - rep.wall_s).max(0.0);

    let leecher = &result.outcomes[1];
    let errors: u64 = result
        .outcomes
        .iter()
        .map(|o| o.stats.protocol_errors)
        .sum();
    // `is_seed` means every piece arrived and passed its SHA-1 check.
    if !leecher.is_seed || u64::from(leecher.pieces) != pieces || errors > 0 {
        rep.failed = 1;
    } else {
        rep.payload_bytes = sizes.net_bytes;
    }
    let sum = |f: fn(&bt_net::NetStats) -> u64| -> f64 {
        result.outcomes.iter().map(|o| f(&o.stats)).sum::<u64>() as f64
    };
    let messages_in = sum(|s| s.messages_in);
    let blocks_sent = sum(|s| s.blocks_sent);
    let ticks = sum(|s| s.ticks);
    rep.events = (messages_in + blocks_sent + ticks) as u64;
    rep.counts.insert("net.messages_in", messages_in);
    rep.counts.insert("net.blocks_sent", blocks_sent);
    rep.counts.insert("net.ticks", ticks);
    rep.counts.insert("net.disconnects", sum(|s| s.disconnects));
    rep.counts
        .insert("net.dial_retries", sum(|s| s.dial_retries));
    if let Some(h) = hooks {
        add_counters(&mut rep, Some(&h.registry.snapshot()));
    }
    rep
}

/// Run one repetition of `workload` on inputs made from `seed`.
pub fn run_rep(
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    jobs: usize,
    hooks: Option<&Hooks>,
) -> Rep {
    let c0 = cpu_seconds();
    let mut rep = match (workload, hooks) {
        (Workload::Table1Serial, None) => table1(sizes, seed, None),
        (Workload::Table1Parallel, None) => table1(sizes, seed, Some(jobs)),
        (Workload::Table1Serial, Some(h)) => table1_traced(sizes, seed, None, h),
        (Workload::Table1Parallel, Some(h)) => table1_traced(sizes, seed, Some(jobs), h),
        (Workload::Crowd, h) => crowd(sizes, seed, h),
        (Workload::CrowdObserved, h) => crowd_observed(sizes, seed, h),
        (Workload::NetBulk, h) => net_bulk(sizes, seed, h),
    };
    rep.cpu_s = cpu_seconds() - c0;
    rep
}

/// Whether `rep`, a repetition of `workload`, reproduced `reference`,
/// a repetition of [`Workload::reference`] on the same seed: the whole
/// digest where the two must be the same run, what the swarm did where
/// observers add sampling events, and nothing for the socket run, whose
/// interleaving the kernel decides.
pub fn reproduces(workload: Workload, rep: &Rep, reference: &Rep) -> bool {
    match workload {
        Workload::NetBulk => true,
        Workload::CrowdObserved => rep.output.behaviour == reference.output.behaviour,
        _ => rep.output == reference.output,
    }
}

/// Table I outputs pinned at seed 42 under `RunConfig::default()`:
/// `(torrent id, run digest, events)`.
const TABLE1_PINS: [(u32, u64, u64); 4] = [
    (2, 0x5576_f09c_6b7f_1f3b, 50_159),
    (3, 0x164d_ca9f_3fec_a693, 709_207),
    (13, 0xd264_bc99_fdd1_6175, 869_898),
    (19, 0x7a40_e69d_a8c2_3173, 117_773),
];

/// Flash-crowd outputs pinned at seed 42: `(leechers, run digest,
/// events)`.
const CROWD_PINS: [(usize, u64, u64); 2] = [
    (1_000, 0xa48b_a1ce_14eb_b3c2, 376_760),
    (2_000, 0xc02a_395d_33f7_3906, 762_497),
];

/// The `(digest, events)` per swarm that a repetition must produce at
/// seed 42. A later change that alters what the simulator computes
/// trips these; one that only makes it faster does not. The observed
/// crowd is held to the bare one's behaviour instead (its event count
/// includes sampling events), the socket run to nothing.
pub fn pinned(workload: Workload, sizes: Sizes) -> Option<Vec<(u64, u64)>> {
    match workload {
        Workload::Table1Serial | Workload::Table1Parallel => sizes
            .table1_ids
            .iter()
            .map(|id| {
                TABLE1_PINS
                    .iter()
                    .find(|(pinned_id, _, _)| pinned_id == id)
                    .map(|&(_, digest, events)| (digest, events))
            })
            .collect(),
        Workload::Crowd => CROWD_PINS
            .iter()
            .find(|(peers, _, _)| *peers == sizes.crowd_peers)
            .map(|&(_, digest, events)| vec![(digest, events)]),
        Workload::CrowdObserved | Workload::NetBulk => None,
    }
}
