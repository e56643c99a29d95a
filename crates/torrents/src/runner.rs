//! Scenario runner: Table I rows → swarm specs → instrumented traces.
//!
//! Real torrents with thousands of peers and gigabytes of content cannot
//! be replayed at full scale on one machine, so the runner applies an
//! explicit, printed *scaling*: peer counts shrink proportionally
//! (preserving Table I's seed/leecher ratio — the quantity the paper
//! argues actually stresses the algorithms, §III-E.2) and content size
//! maps to a bounded piece count at the real 256 kB piece size. No
//! silent truncation: [`ScaledParams`] records exactly what ran.

use crate::table1::ScenarioSpec;
use bt_core::Config;
use bt_instrument::trace::Trace;
use bt_sim::behavior::{BehaviorProfile, CapacityClass, Role};
use bt_sim::swarm::{Swarm, SwarmResult, SwarmSpec};
use bt_sim::NetModel;
use bt_wire::peer_id::ClientKind;
use bt_wire::time::Duration;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Fraction of initial leechers that are free riders (§IV-B robustness).
const FREE_RIDER_FRACTION: f64 = 0.05;

/// Extra churner joins (the <10 s noise peers), as a fraction of the
/// initial leechers.
const CHURNER_FRACTION: f64 = 0.05;

/// Fraction of initial leechers that crash and restart mid-session,
/// returning with the same IP and a fresh peer-ID suffix (the §III-D
/// multi-ID noise: the paper saw 0–26 % of IPs with several IDs, mean
/// ≈ 9 %).
const RESTARTER_FRACTION: f64 = 0.08;

/// Extra leechers arriving during the session, as a fraction of the
/// initial leecher population: a one-shot trickle, not an arrival process.
const ARRIVAL_FRACTION: f64 = 1.0;

/// Fraction of pieces pre-replicated beyond the initial seed for
/// *transient* torrents (the rest stay rare).
const TRANSIENT_AVAILABLE: f64 = 0.35;

/// Scaling and session parameters for a scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Master seed (scenario seeds derive from it and the torrent ID).
    pub seed: u64,
    /// Cap on simulated peers (seeds + leechers, before arrivals).
    pub max_peers: usize,
    /// Piece-count bounds for the scaled content.
    pub min_pieces: u32,
    /// Upper bound on pieces.
    pub max_pieces: u32,
    /// Simulated session length. The paper ran 8 hours; the default here
    /// is shorter but long past the local peer's completion.
    pub session: Duration,
    /// Engine configuration shared by all peers (the local peer included).
    pub base_config: Config,
    /// Attach a manual-clock `bt-obs` registry to every swarm; the
    /// deterministic snapshots land in
    /// [`SwarmResult::metrics`](bt_sim::swarm::SwarmResult::metrics).
    pub metrics: bool,
    /// Attach a manual-clock span [`bt_obs::Profiler`] to every swarm;
    /// the deterministic call-tree profile lands in
    /// [`ScenarioOutcome::profile`]. Spans never touch engine RNG or
    /// traces, so profiled runs stay byte-identical to bare ones.
    pub profile: bool,
    /// Attach a [`bt_obs::SeriesStore`] plus the live health monitors to
    /// every swarm (implies a metrics registry). The deterministic
    /// time-series JSON lands in [`ScenarioOutcome::series`] and the
    /// final verdicts in
    /// [`SwarmResult::health`](bt_sim::swarm::SwarmResult::health).
    pub series: bool,
    /// Network model applied to every scenario swarm (`None` = the
    /// spec default: uniform latency). Set a full-duplex topology here
    /// to rerun Table I under WAN conditions — `swarmrun --table1
    /// --topology asymmetric_dsl` routes through this.
    pub net: Option<NetModel>,
    /// Attach a causal [`bt_obs::Tracer`] to every swarm, sampling one
    /// in `N` piece/peer ids (`Some(1)` = everything, `None` = off).
    /// The deterministic exports land in
    /// [`ScenarioOutcome::trace_jsonl`] /
    /// [`ScenarioOutcome::trace_chrome`]. Sampling hashes ids — never
    /// the swarm RNG — so traced runs stay byte-identical to bare ones.
    pub trace_sample: Option<u64>,
    /// Directory for a per-scenario [`bt_obs::FlightRecorder`]: recent
    /// trace events are kept in a bounded ring and dumped as a
    /// self-contained bundle on a live-monitor invariant trip (needs
    /// [`series`](RunConfig::series)) or on panic.
    pub flight_dir: Option<String>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 42,
            max_peers: 120,
            min_pieces: 64,
            max_pieces: 256,
            session: Duration::from_secs(3600),
            base_config: Config::default(),
            metrics: false,
            profile: false,
            series: false,
            net: None,
            trace_sample: None,
            flight_dir: None,
        }
    }
}

impl RunConfig {
    /// A smaller, faster profile for tests and examples.
    pub fn quick() -> RunConfig {
        RunConfig {
            max_peers: 40,
            min_pieces: 24,
            max_pieces: 48,
            session: Duration::from_secs(1800),
            ..RunConfig::default()
        }
    }

    /// `RunConfig::builder().seed(s).build()`: the one call the
    /// benchmark package makes. Everything else writes a
    /// `RunConfig { .., ..RunConfig::default() }` literal; this goes
    /// away once `benchmark/` is unpinned (ROADMAP item 7).
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder {
            cfg: RunConfig::default(),
        }
    }
}

/// See [`RunConfig::builder`].
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    /// Master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Finish: returns the assembled config.
    pub fn build(self) -> RunConfig {
        self.cfg
    }
}

/// What actually ran after scaling (printed by every harness).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaledParams {
    /// Torrent ID.
    pub id: u32,
    /// Simulated seeds.
    pub seeds: u32,
    /// Simulated leechers (initial population, local peer excluded).
    pub leechers: u32,
    /// Pieces in the scaled content.
    pub pieces: u32,
    /// Piece length (bytes).
    pub piece_len: u32,
    /// Scale factor applied to the peer population.
    pub peer_scale: f64,
    /// Session length in seconds.
    pub session_secs: u64,
}

/// A completed scenario: the local peer's trace plus swarm-level results.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The Table I row that was simulated.
    pub spec: ScenarioSpec,
    /// The scaling that was applied.
    pub scaled: ScaledParams,
    /// The instrumented local peer's trace.
    pub trace: Trace,
    /// Swarm-level results (completions, tracker stats).
    pub result: SwarmResult,
    /// Deterministic span profile, when [`RunConfig::profile`] was set.
    /// Per-scenario profiles merge commutatively
    /// ([`bt_obs::Profile::merge`]), so a sweep can aggregate them in
    /// spec order regardless of which worker ran what.
    pub profile: Option<bt_obs::Profile>,
    /// Time-series JSON export, when [`RunConfig::series`] was set. A
    /// pure function of the spec and seed: byte-identical across runs
    /// and worker counts.
    pub series: Option<String>,
    /// Sorted deterministic JSONL causal-trace export, when
    /// [`RunConfig::trace_sample`] was set. Byte-identical across runs
    /// and worker counts.
    pub trace_jsonl: Option<String>,
    /// Chrome trace-event JSON of the same causal events (open in
    /// Perfetto / `chrome://tracing`).
    pub trace_chrome: Option<String>,
}

/// Scale a Table I row under `cfg`.
pub fn scale(spec: &ScenarioSpec, cfg: &RunConfig) -> ScaledParams {
    let total = spec.seeds + spec.leechers;
    let peer_scale = if total as usize <= cfg.max_peers {
        1.0
    } else {
        cfg.max_peers as f64 / f64::from(total)
    };
    let mut seeds = (f64::from(spec.seeds) * peer_scale).round() as u32;
    if spec.seeds > 0 {
        seeds = seeds.max(1);
    }
    let mut leechers = (f64::from(spec.leechers) * peer_scale).round() as u32;
    if spec.leechers > 0 {
        leechers = leechers.max(2);
    }
    // 256 kB pieces: size → piece count, clamped. (Table I's sizes range
    // 6 MB – 3 GB; the *relative* sizes survive the clamp.)
    let pieces = (spec.size_mb * 4).clamp(cfg.min_pieces, cfg.max_pieces);
    ScaledParams {
        id: spec.id,
        seeds,
        leechers,
        pieces,
        piece_len: 256 * 1024,
        peer_scale,
        session_secs: cfg.session.0 / 1_000_000,
    }
}

/// Build the swarm spec for one Table I row. The *local* (instrumented)
/// peer is always the last entry and joins a torrent that is already
/// running, exactly like the paper's measurement client.
pub fn build_swarm_spec(spec: &ScenarioSpec, cfg: &RunConfig) -> (SwarmSpec, ScaledParams) {
    let scaled = scale(spec, cfg);
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed
            .wrapping_mul(2654435761)
            .wrapping_add(u64::from(spec.id)),
    );
    let mut peers: Vec<BehaviorProfile> = Vec::new();

    let clients = [
        ClientKind::Mainline402,
        ClientKind::Mainline400,
        ClientKind::Mainline362,
        ClientKind::Azureus,
        ClientKind::BitComet,
        ClientKind::LibTorrent,
    ];
    let pick_client = |rng: &mut SmallRng| clients[rng.random_range(0..clients.len())];

    // Initial seeds. The first is the *initial seed* of the torrent with
    // the paper's default 20 kB/s upload; later seeds get the usual mix.
    for i in 0..scaled.seeds {
        let capacity = if i == 0 {
            CapacityClass::Default
        } else {
            CapacityClass::sample(&mut rng)
        };
        peers.push(BehaviorProfile {
            role: Role::Seed,
            client: pick_client(&mut rng),
            capacity,
            join_at: Duration::ZERO,
            seed_linger: None,
            prepopulate: false,
            restart_after: None,
        });
    }
    // Initial leechers: capacity mix, some free riders, staggered joins
    // within the first minute (they were already present; the stagger
    // only avoids a same-instant thundering herd).
    for _ in 0..scaled.leechers {
        let role = if rng.random_range(0.0..1.0) < FREE_RIDER_FRACTION {
            Role::FreeRider
        } else {
            Role::Leecher
        };
        let restart_after = if rng.random_range(0.0..1.0) < RESTARTER_FRACTION {
            Some(Duration::from_secs(rng.random_range(300..1500)))
        } else {
            None
        };
        peers.push(BehaviorProfile {
            role,
            client: pick_client(&mut rng),
            capacity: CapacityClass::sample(&mut rng),
            join_at: Duration::from_millis(rng.random_range(0..60_000)),
            seed_linger: Some(Duration::from_secs(rng.random_range(300..1200))),
            prepopulate: true,
            restart_after,
        });
    }
    // Churners and later arrivals spread over the session.
    let churners = (f64::from(scaled.leechers) * CHURNER_FRACTION).round() as u32;
    for _ in 0..churners {
        peers.push(BehaviorProfile {
            role: Role::Churner,
            client: pick_client(&mut rng),
            capacity: CapacityClass::sample(&mut rng),
            join_at: Duration(rng.random_range(0..cfg.session.0)),
            seed_linger: None,
            prepopulate: false,
            restart_after: None,
        });
    }
    let arrivals = (f64::from(scaled.leechers) * ARRIVAL_FRACTION).round() as u32;
    for _ in 0..arrivals {
        peers.push(BehaviorProfile {
            role: Role::Leecher,
            client: pick_client(&mut rng),
            capacity: CapacityClass::sample(&mut rng),
            join_at: Duration(rng.random_range(60_000_000..cfg.session.0.max(120_000_000))),
            seed_linger: Some(Duration::from_secs(rng.random_range(300..1200))),
            prepopulate: false,
            restart_after: None,
        });
    }
    // The instrumented local peer: paper defaults, joins shortly after
    // the initial minute.
    let local_idx = peers.len();
    peers.push(BehaviorProfile {
        role: Role::Leecher,
        client: ClientKind::Mainline402,
        capacity: CapacityClass::Default,
        join_at: Duration::from_secs(90),
        seed_linger: None, // stays for the whole session, like the paper
        prepopulate: false,
        restart_after: None,
    });

    let swarm_spec = SwarmSpec {
        seed: cfg.seed.wrapping_add(u64::from(spec.id) * 1_000_003),
        total_len: u64::from(scaled.pieces) * u64::from(scaled.piece_len),
        piece_len: scaled.piece_len,
        duration: cfg.session,
        base_config: cfg.base_config.clone(),
        peers,
        local: Some(local_idx),
        available_fraction: if spec.transient {
            TRANSIENT_AVAILABLE
        } else {
            1.0
        },
        net: cfg.net.clone(),
        ..SwarmSpec::default()
    };
    (swarm_spec, scaled)
}

/// Run one Table I scenario end to end.
pub fn run_scenario(spec: &ScenarioSpec, cfg: &RunConfig) -> ScenarioOutcome {
    let (mut swarm_spec, scaled) = build_swarm_spec(spec, cfg);
    let mut swarm = Swarm::new(std::mem::take(&mut swarm_spec));
    let registry = (cfg.metrics || cfg.series).then(bt_obs::Registry::new_manual);
    if let Some(reg) = &registry {
        swarm = swarm.with_metrics(reg.clone());
    }
    let store = match (&registry, cfg.series) {
        (Some(reg), true) => Some(bt_obs::SeriesStore::new(reg)),
        _ => None,
    };
    if let Some(s) = &store {
        swarm = swarm
            .with_series(s.clone())
            .with_health(bt_analysis::live::Thresholds::default());
    }
    if cfg.profile {
        swarm = swarm.with_profiler(bt_obs::Profiler::new(bt_obs::TimeSource::manual()));
    }
    // Causal tracer + flight recorder, seeded like the swarm so the
    // sampled id set is a pure function of (cfg.seed, torrent id).
    let swarm_seed = cfg.seed.wrapping_add(u64::from(spec.id) * 1_000_003);
    let flight = cfg
        .flight_dir
        .as_ref()
        .map(|dir| bt_obs::FlightRecorder::new(dir, 4096, swarm_seed));
    let tracer = cfg.trace_sample.map(|rate| {
        let t = bt_obs::Tracer::new(swarm_seed, rate);
        match &flight {
            Some(fr) => t.with_flight(fr.clone()),
            None => t,
        }
    });
    if let Some(t) = &tracer {
        swarm = swarm.with_trace(t.clone());
    }
    if let Some(fr) = &flight {
        swarm = swarm.with_flight_recorder(fr.clone());
    }
    // Label the trace with the Table I identity.
    let mut result = swarm.run();
    let profile = result.profile.take();
    let mut trace = result.trace.as_ref().expect("local peer recorded").clone();
    trace.meta.torrent = spec.label();
    trace.meta.torrent_id = spec.id;
    // Both causal exports from one sort.
    let (trace_jsonl, trace_chrome) = tracer.as_ref().map_or((None, None), |t| {
        let (mut jsonl, mut chrome) = (Vec::new(), Vec::new());
        t.export(Some(&mut jsonl), Some(&mut chrome))
            .expect("writing to memory cannot fail");
        let text = |bytes| String::from_utf8(bytes).expect("the tracer writes UTF-8");
        (Some(text(jsonl)), Some(text(chrome)))
    });
    ScenarioOutcome {
        spec: *spec,
        scaled,
        trace,
        result,
        profile,
        series: store.map(|s| s.to_json(None)),
        trace_jsonl,
        trace_chrome,
    }
}

/// Run every Table I scenario in sequence, calling `progress` after each.
pub fn run_table1(
    cfg: &RunConfig,
    mut progress: impl FnMut(&ScenarioOutcome),
) -> Vec<ScenarioOutcome> {
    let mut out = Vec::new();
    for spec in crate::table1::table1() {
        let outcome = run_scenario(&spec, cfg);
        progress(&outcome);
        out.push(outcome);
    }
    out
}

/// The default worker count for parallel sweeps: one per hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `specs` across a pool of `jobs` worker threads.
///
/// Every scenario derives its RNG seeds from `(cfg.seed, spec.id)` alone
/// — nothing about worker count, scheduling, or completion order feeds
/// into a simulation — so each outcome is byte-identical to what
/// [`run_scenario`] produces sequentially, and the returned vector is in
/// `specs` order regardless of which worker finished first.
///
/// `progress` is invoked once per completed scenario, in *completion*
/// order, from whichever worker finished it (serialised by a lock).
///
/// With one job (or one scenario) no thread is spawned: the scenarios
/// run on the calling thread, so its CPU clock and thread-locals see
/// the work.
///
/// A panic inside one scenario does not tear down the pool: remaining
/// scenarios still run, and the panic is re-raised afterwards naming the
/// torrent ID that failed.
pub fn run_scenarios_parallel(
    cfg: &RunConfig,
    specs: &[ScenarioSpec],
    jobs: usize,
    progress: impl FnMut(&ScenarioOutcome) + Send,
) -> Vec<ScenarioOutcome> {
    run_specs_with(specs, jobs, progress, |spec| run_scenario(spec, cfg))
}

/// The worker-pool core behind [`run_scenarios_parallel`], generic over
/// the per-scenario function so panic isolation is testable.
fn run_specs_with(
    specs: &[ScenarioSpec],
    jobs: usize,
    progress: impl FnMut(&ScenarioOutcome) + Send,
    run: impl Fn(&ScenarioSpec) -> ScenarioOutcome + Sync,
) -> Vec<ScenarioOutcome> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let jobs = jobs.max(1).min(specs.len().max(1));
    let next = AtomicUsize::new(0);
    let progress = parking_lot::Mutex::new(progress);
    let slots: Vec<parking_lot::Mutex<Option<ScenarioOutcome>>> = specs
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let panics: parking_lot::Mutex<Vec<(u32, String)>> = parking_lot::Mutex::new(Vec::new());

    // Claim scenarios until none are left.
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(spec) = specs.get(i) else { break };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(spec))) {
            Ok(outcome) => {
                (progress.lock())(&outcome);
                *slots[i].lock() = Some(outcome);
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                panics.lock().push((spec.id, msg));
            }
        }
    };
    if jobs == 1 {
        worker();
    } else {
        crossbeam::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(worker);
            }
        })
        .expect("scenario panics are caught inside the workers");
    }

    let mut failures = panics.into_inner();
    if !failures.is_empty() {
        failures.sort_unstable();
        let ids: Vec<String> = failures.iter().map(|(id, _)| id.to_string()).collect();
        panic!(
            "scenario worker panicked for torrent(s) {}: {}",
            ids.join(", "),
            failures[0].1
        );
    }
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("no panic, so every slot filled"))
        .collect()
}

/// Run every Table I scenario across `jobs` workers. Outcomes come back
/// in Table I order and are byte-identical to [`run_table1`]'s; see
/// [`run_scenarios_parallel`].
pub fn run_table1_parallel(
    cfg: &RunConfig,
    jobs: usize,
    progress: impl FnMut(&ScenarioOutcome) + Send,
) -> Vec<ScenarioOutcome> {
    run_scenarios_parallel(cfg, &crate::table1::table1(), jobs, progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::torrent;

    #[test]
    fn scaling_preserves_ratio_direction() {
        let cfg = RunConfig::default();
        let s8 = scale(&torrent(8), &cfg); // 1 : 861
        assert_eq!(s8.seeds, 1, "single-seed torrents keep exactly one seed");
        assert!(s8.leechers > 50);
        let s25 = scale(&torrent(25), &cfg); // 11641 : 5418 (seed-heavy)
        assert!(
            s25.seeds > s25.leechers,
            "seed-heavy torrents stay seed-heavy"
        );
        let s2 = scale(&torrent(2), &cfg); // tiny torrent: unscaled
        assert_eq!(s2.peer_scale, 1.0);
        assert_eq!(s2.seeds, 1);
        assert_eq!(s2.leechers, 2);
        let s19 = scale(&torrent(19), &cfg); // 160 : 5, mildly scaled
        assert!(
            s19.seeds > 20 * s19.leechers,
            "ratio 32:1 preserved in direction"
        );
    }

    #[test]
    fn piece_counts_bounded_but_ordered() {
        let cfg = RunConfig::default();
        let small = scale(&torrent(19), &cfg); // 6 MB
        let large = scale(&torrent(8), &cfg); // 3000 MB
        assert_eq!(small.pieces, cfg.min_pieces);
        assert_eq!(large.pieces, cfg.max_pieces);
        assert!(small.pieces < large.pieces);
    }

    #[test]
    fn swarm_spec_marks_transient_availability() {
        let cfg = RunConfig::quick();
        let (spec8, _) = build_swarm_spec(&torrent(8), &cfg);
        assert!((spec8.available_fraction - TRANSIENT_AVAILABLE).abs() < 1e-9);
        let (spec7, _) = build_swarm_spec(&torrent(7), &cfg);
        assert_eq!(spec7.available_fraction, 1.0);
    }

    #[test]
    fn every_table1_spec_validates() {
        for cfg in [RunConfig::quick(), RunConfig::default()] {
            for row in crate::table1::table1() {
                let (spec, _) = build_swarm_spec(&row, &cfg);
                assert_eq!(spec.validate(), Ok(()), "torrent {}", row.id);
            }
        }
    }

    #[test]
    fn net_override_reaches_specs() {
        let wan = RunConfig {
            net: bt_sim::NetModel::preset("two_isp_bottleneck"),
            ..RunConfig::quick()
        };
        let (spec, _) = build_swarm_spec(&torrent(2), &wan);
        assert!(matches!(spec.net, Some(bt_sim::NetModel::FullDuplex(_))));
        let (plain, _) = build_swarm_spec(&torrent(2), &RunConfig::quick());
        assert_eq!(plain.net, None, "no override leaves the spec default");
    }

    #[test]
    fn local_peer_is_last_and_instrumented() {
        let cfg = RunConfig::quick();
        let (spec, _) = build_swarm_spec(&torrent(3), &cfg);
        assert_eq!(spec.local, Some(spec.peers.len() - 1));
        let local = &spec.peers[spec.peers.len() - 1];
        assert_eq!(local.client, ClientKind::Mainline402);
        assert_eq!(local.capacity, CapacityClass::Default);
    }

    #[test]
    fn quick_scenario_runs_and_labels_trace() {
        let cfg = RunConfig::quick();
        let outcome = run_scenario(&torrent(3), &cfg);
        assert_eq!(outcome.trace.meta.torrent_id, 3);
        assert_eq!(outcome.trace.meta.torrent, "torrent-03");
        assert!(!outcome.trace.is_empty());
        // The local peer should complete this small, seeded torrent.
        let local = outcome.result.completion.last().unwrap();
        assert!(local.is_some(), "local peer did not finish torrent 3");
    }

    #[test]
    fn deterministic_outcomes() {
        let cfg = RunConfig::quick();
        let a = run_scenario(&torrent(2), &cfg);
        let b = run_scenario(&torrent(2), &cfg);
        assert_eq!(a.trace.events, b.trace.events);
    }

    #[test]
    fn profiled_scenario_matches_bare_run_and_carries_profile() {
        let cfg = RunConfig::quick();
        let bare = run_scenario(&torrent(2), &cfg);
        assert!(bare.profile.is_none());
        let profiled_cfg = RunConfig {
            profile: true,
            ..RunConfig::quick()
        };
        let profiled = run_scenario(&torrent(2), &profiled_cfg);
        let profile = profiled.profile.as_ref().expect("profile requested");
        assert_eq!(
            bare.trace.events, profiled.trace.events,
            "span recording must not perturb the simulation"
        );
        let pops = profile.get(&["sim.event_pop"]).expect("root span present");
        assert_eq!(pops.count, profiled.result.events_processed);
    }

    #[test]
    fn traced_scenario_matches_bare_run_and_exports_lifecycles() {
        let bare = run_scenario(&torrent(2), &RunConfig::quick());
        let traced_cfg = RunConfig {
            trace_sample: Some(1),
            ..RunConfig::quick()
        };
        let traced = run_scenario(&torrent(2), &traced_cfg);
        assert_eq!(
            bare.trace.events, traced.trace.events,
            "causal tracing must not perturb the simulation"
        );
        let jsonl = traced.trace_jsonl.as_deref().expect("trace requested");
        assert!(jsonl.contains("\"injected\""), "{jsonl}");
        assert!(jsonl.contains("\"verified\""), "{jsonl}");
        assert!(jsonl.contains("\"round\""), "missing choke audit");
        let chrome = traced.trace_chrome.as_deref().expect("trace requested");
        assert!(chrome.contains("\"traceEvents\""));
        assert!(bare.trace_jsonl.is_none());
    }

    #[test]
    fn parallel_subset_matches_sequential_in_spec_order() {
        let cfg = RunConfig::quick();
        let specs = [torrent(2), torrent(19), torrent(3)];
        let sequential: Vec<ScenarioOutcome> =
            specs.iter().map(|s| run_scenario(s, &cfg)).collect();
        let progressed = parking_lot::Mutex::new(Vec::new());
        let parallel = run_scenarios_parallel(&cfg, &specs, 3, |o| {
            progressed.lock().push(o.spec.id);
        });
        assert_eq!(parallel.len(), specs.len());
        for (seq, par) in sequential.iter().zip(&parallel) {
            assert_eq!(seq.spec.id, par.spec.id, "outcome order follows specs");
            assert_eq!(seq.scaled, par.scaled);
            assert_eq!(seq.trace.events, par.trace.events);
            assert_eq!(seq.result.completion, par.result.completion);
        }
        let mut seen = progressed.into_inner();
        seen.sort_unstable();
        assert_eq!(seen, vec![2, 3, 19], "progress fired once per scenario");
    }

    /// Panic isolation holds on both paths, and the path is the one
    /// promised: one job works on the caller's thread, more do not.
    #[test]
    fn parallel_panic_reports_torrent_id_and_finishes_rest() {
        for jobs in [1, 2] {
            panic_is_isolated_with(jobs);
        }
    }

    fn panic_is_isolated_with(jobs: usize) {
        let cfg = RunConfig::quick();
        let specs = [torrent(2), torrent(19)];
        let completed = parking_lot::Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        let ran_on = parking_lot::Mutex::new(Vec::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            super::run_specs_with(
                &specs,
                jobs,
                |o| completed.lock().push(o.spec.id),
                |spec| {
                    ran_on.lock().push(std::thread::current().id());
                    if spec.id == 19 {
                        panic!("injected failure");
                    }
                    run_scenario(spec, &cfg)
                },
            )
        }));
        let ran_on = ran_on.into_inner();
        assert_eq!(ran_on.len(), specs.len());
        assert!(
            ran_on.iter().all(|&id| (id == caller) == (jobs == 1)),
            "jobs = {jobs}: scenarios ran on {ran_on:?}, caller is {caller:?}"
        );
        let payload = result.expect_err("the injected panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic message is a String");
        assert!(
            msg.contains("torrent(s) 19"),
            "panic names the torrent: {msg}"
        );
        assert!(
            msg.contains("injected failure"),
            "panic keeps the cause: {msg}"
        );
        assert_eq!(
            completed.into_inner(),
            vec![2],
            "the healthy scenario still completed"
        );
    }
}
