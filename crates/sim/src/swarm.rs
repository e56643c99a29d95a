//! The swarm simulator.
//!
//! A [`Swarm`] wires many [`bt_core::Engine`]s together through virtual
//! links, a simulated tracker, and a bandwidth model, advancing a
//! discrete-event clock. It substitutes for the live Internet torrents of
//! the paper (see DESIGN.md §2): the protocol code is the real engine;
//! only the transport is modelled.
//!
//! ## Bandwidth model
//!
//! Data transfers advance in fixed *transfer rounds* of 1 s: each
//! round, a peer's upload capacity is split equally across connections
//! with queued blocks, capped by each receiver's download budget for the
//! round (progressive filling, one pass). Whole 16 kB blocks complete
//! when their byte budget accumulates — matching the paper's observation
//! granularity, which is also the block (§IV-A.3).
//!
//! ## Determinism
//!
//! One seeded PRNG drives the swarm; engines get derived seeds. Events at
//! equal timestamps pop FIFO. Same spec + same seed ⇒ identical traces.

use crate::behavior::{BehaviorProfile, Role};
use crate::events::EventQueue;
use crate::links::{LinkModel, LinkParams, NetModel};
use crate::metrics::SimMetrics;
use crate::tracker::{PeerIdx, SimTracker};
use bt_analysis::live::{HealthMonitor, HealthReport, LiveSample, Thresholds};
use bt_core::{Action, Config, ConnId, DataMode, Engine, EngineBuilder, Input};
use bt_instrument::trace::{Trace, TraceMeta};
use bt_obs::trace::{DumpContext, FlightGuard, FlightRecorder, TraceCat, Tracer};
use bt_piece::{Bitfield, Geometry};
use bt_wire::handshake::Handshake;
use bt_wire::message::{BlockRef, Message};
use bt_wire::metainfo::SyntheticContent;
use bt_wire::peer_id::{IpAddr, PeerId};
use bt_wire::time::{Duration, Instant};
use bt_wire::tracker::{AnnounceEvent, PeerEntry};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pre-existing leechers hold at most this fraction of the available
/// pieces at construction (see [`Swarm::new`]).
const PREPOP_COMPLETION_MAX: f64 = 0.9;

/// Transfer round length (1 s; see the module docs' bandwidth model).
const TRANSFER_ROUND: Duration = Duration(1_000_000);

/// Sampling period (30 s): the instrumented peer's availability, the
/// global replication snapshots and the observers all ride it.
const SAMPLE_EVERY: Duration = Duration(30_000_000);

/// Specification of a swarm run.
///
/// Serialisable, so whole scenarios can live in JSON files and replay
/// bit-for-bit (see the `swarmrun` binary in `bt-bench`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SwarmSpec {
    /// Master PRNG seed.
    pub seed: u64,
    /// Content size in bytes.
    pub total_len: u64,
    /// Piece length in bytes.
    pub piece_len: u32,
    /// Carry and verify real content bytes (see [`DataMode`]).
    pub real_data: bool,
    /// Simulated session length.
    pub duration: Duration,
    /// Base engine configuration; per-peer profiles switch on their
    /// role's behaviour flag (see [`BehaviorProfile::engine_config`]).
    pub base_config: Config,
    /// Every peer in the swarm, in peer-table order. The *local*
    /// (instrumented) peer is `peers[local]` when `record_local` is set.
    pub peers: Vec<BehaviorProfile>,
    /// Index of the instrumented peer, if any.
    pub local: Option<usize>,
    /// Fraction of pieces considered *available* (already served by the
    /// initial seed) when pre-populating existing leechers. `1.0` models
    /// a steady-state torrent, small values a transient-state torrent
    /// (§IV-A.2).
    pub available_fraction: f64,
    /// Probability that a delivered block is corrupted in flight
    /// (exercises hash-failure recovery; only meaningful with real data).
    pub corrupt_block_prob: f64,
    /// Probability that a dial attempt fails before the handshake
    /// (models unreachable peers / NAT timeouts; exercises the engine's
    /// redial path).
    pub dial_failure_prob: f64,
    /// Cap on how many peers the tracker returns per announce (an
    /// overloaded or rationing tracker; `None` = the usual 50). The
    /// regime where BEP 11 peer exchange earns its keep.
    pub tracker_response_cap: Option<usize>,
    /// Use the tracker's O(num_want) incremental-shuffle sampling instead
    /// of the legacy full sort+shuffle per announce. Still deterministic,
    /// but a *different* deterministic draw sequence. Both samplers stay:
    /// the golden traces and the benchmark's Table I pins fix the
    /// sort+shuffle draws, the mega-swarm digests fix these, and
    /// `benchmark/` probes each (`sim.announce_ns.legacy` / `.scalable`).
    pub scalable_tracker: bool,
    /// Record *global* piece-replication snapshots alongside the local
    /// peer's availability samples. The paper repeatedly notes "we do
    /// not have global knowledge of the torrent"; the simulator does,
    /// which lets the harness validate the local-view inferences
    /// (transient classification, rare-piece counts) against ground
    /// truth.
    pub sample_global: bool,
    /// Typed network model (see [`NetModel`]): per-link delay, loss and
    /// per-direction bandwidth under a topology, or the flat uniform
    /// model. `None` — also what a JSON spec without a `net` section
    /// reads as — is the uniform 50 ms + U[0, 100 ms] model.
    pub net: Option<NetModel>,
}

impl SwarmSpec {
    /// Check every value range the simulator relies on, naming the first
    /// field that is out of range: at least one peer; non-zero
    /// `total_len` and `piece_len` with a piece count that fits the
    /// `u32` piece index; `local` indexing into `peers`; the three
    /// probabilities and fractions finite and in `[0, 1]`; and a
    /// full-duplex `net` passing
    /// [`TopologySpec::validate`](crate::TopologySpec::validate).
    /// [`Swarm::new`] calls it, so a spec that passes cannot panic or
    /// hang the run for being out of range.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers.is_empty() {
            return Err("peers: a swarm needs at least one peer".into());
        }
        if self.total_len == 0 {
            return Err("total_len: must be > 0".into());
        }
        if self.piece_len == 0 {
            return Err("piece_len: must be > 0".into());
        }
        let pieces = self.total_len.div_ceil(u64::from(self.piece_len));
        if pieces > u64::from(u32::MAX) {
            return Err(format!(
                "total_len: {pieces} pieces of piece_len {} overflow the u32 piece index",
                self.piece_len
            ));
        }
        if let Some(local) = self.local.filter(|&l| l >= self.peers.len()) {
            return Err(format!(
                "local: peer {local} does not exist ({} peers)",
                self.peers.len()
            ));
        }
        for (name, p) in [
            ("available_fraction", self.available_fraction),
            ("corrupt_block_prob", self.corrupt_block_prob),
            ("dial_failure_prob", self.dial_failure_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name}: {p} is not in [0, 1]"));
            }
        }
        if let Some(NetModel::FullDuplex(topology)) = &self.net {
            topology.validate().map_err(|e| format!("net: {e}"))?;
        }
        Ok(())
    }

    /// The effective network model: the [`net`](SwarmSpec::net) section
    /// when present, else [`NetModel::Uniform`] at 50 ms + U[0, 100 ms]
    /// (the delays every golden trace was recorded with).
    pub fn net_model(&self) -> NetModel {
        self.net.clone().unwrap_or(NetModel::Uniform {
            latency: Duration::from_millis(50),
            jitter: Duration::from_millis(100),
        })
    }
}

impl Default for SwarmSpec {
    fn default() -> Self {
        SwarmSpec {
            seed: 1,
            total_len: 4 * 1024 * 1024,
            piece_len: 256 * 1024,
            real_data: false,
            duration: Duration::from_secs(3600),
            base_config: Config::default(),
            peers: Vec::new(),
            local: None,
            available_fraction: 1.0,
            corrupt_block_prob: 0.0,
            dial_failure_prob: 0.0,
            tracker_response_cap: None,
            scalable_tracker: false,
            sample_global: false,
            net: None,
        }
    }
}

/// A ground-truth replication snapshot over every live peer's verified
/// pieces (seeds included).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GlobalSample {
    /// Snapshot time.
    pub at: Instant,
    /// Copies of the globally least replicated piece.
    pub min: u32,
    /// Mean copies over all pieces.
    pub mean: f64,
    /// Copies of the globally most replicated piece.
    pub max: u32,
    /// Pieces with exactly one global copy — the §II-A *rare pieces*
    /// when that copy sits on the initial seed.
    pub single_copy_pieces: u32,
    /// Live peers at the snapshot.
    pub live_peers: u32,
}

/// Outcome of a swarm run.
#[derive(Debug)]
pub struct SwarmResult {
    /// The instrumented peer's trace, when one was attached.
    pub trace: Option<Trace>,
    /// Per-peer completion times (`None` = did not finish within the run),
    /// indexed like `SwarmSpec::peers`.
    pub completion: Vec<Option<Instant>>,
    /// Number of peers that completed the download during the run.
    pub completed_peers: usize,
    /// Total events processed.
    pub events_processed: u64,
    /// Tracker statistics at the end of the run.
    pub tracker_started: u64,
    /// Completed announces observed by the tracker.
    pub tracker_completed: u64,
    /// Ground-truth replication snapshots (when `sample_global` is set).
    pub global_series: Vec<GlobalSample>,
    /// Deterministic metrics snapshots, one per sampling period plus a
    /// final one, when [`Swarm::with_metrics`] attached a registry.
    pub metrics: Vec<bt_obs::Snapshot>,
    /// Aggregated span profile, when [`Swarm::with_profiler`] attached
    /// an enabled profiler.
    pub profile: Option<bt_obs::Profile>,
    /// Final health verdicts, when [`Swarm::with_health`] attached
    /// live monitors. Not part of [`digest`](SwarmResult::digest):
    /// monitors are read-only observers of the run.
    pub health: Option<HealthReport>,
}

impl SwarmResult {
    /// A 64-bit FNV-1a fingerprint over every deterministic output of the
    /// run: event count, completions (with exact times), tracker tallies,
    /// the encoded trace (when instrumented), and the global replication
    /// series (when sampled). Two runs of the same spec must produce the
    /// same digest, whatever process, thread pool, or job count ran them
    /// — the mega-swarm golden and parallelism tests compare exactly
    /// this value, and `swarmrun` prints it after every simulator run.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        use std::fmt::Write as _;
        let _ = write!(
            text,
            "events={} completed={} started={} completed_ann={}",
            self.events_processed,
            self.completed_peers,
            self.tracker_started,
            self.tracker_completed
        );
        for (idx, t) in self.completion.iter().enumerate() {
            if let Some(t) = t {
                let _ = write!(text, " c{idx}={}", t.0);
            }
        }
        for g in &self.global_series {
            let _ = write!(
                text,
                " g{}={}:{}:{}:{}",
                g.at.0, g.min, g.max, g.single_copy_pieces, g.live_peers
            );
        }
        let mut hash = fnv1a64(text.as_bytes());
        if let Some(trace) = &self.trace {
            // Chain rather than concatenate: traces can be large, and the
            // jsonl encoding is already a byte-stable function of the run.
            hash ^= fnv1a64(trace.to_jsonl().as_bytes()).rotate_left(1);
        }
        hash
    }
}

/// FNV-1a, 64-bit — the same dependency-free fingerprint the golden
/// trace fixtures use.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

enum Ev {
    Join(PeerIdx),
    Depart(PeerIdx),
    Restart(PeerIdx),
    Deliver {
        to: PeerIdx,
        conn: ConnId,
        msg: Message,
    },
    DialArrive {
        from: PeerIdx,
        to_ip: IpAddr,
    },
    NotifyDisconnect {
        to: PeerIdx,
        conn: ConnId,
    },
    TrackerResponse {
        to: PeerIdx,
        peers: Vec<PeerEntry>,
    },
    /// A peer's engine timer ([`Action::SetTimer`]) came due: feed
    /// [`Input::Tick`]. Early/stale ticks are harmless no-ops by the
    /// driver contract, so superseded timers need no cancellation.
    EngineTick(PeerIdx),
    TransferRound,
    Sample,
}

/// Pooled per-connection state: the link topology, the upload queue and
/// the partial-block byte credit that used to live in three parallel
/// `HashMap<ConnId, _>`s. Engine connection IDs are small and sequential,
/// so a slot vector indexed by `ConnId` replaces hashing entirely, and
/// iteration in slot order *is* the ascending-`ConnId` order the
/// determinism contract requires (the old code sorted for it).
struct LinkSlot {
    to: PeerIdx,
    remote_conn: ConnId,
    /// This direction's link parameters (delay, loss, bandwidth),
    /// fixed at establishment by the [`LinkModel`].
    params: LinkParams,
    /// Earliest instant the next delivery on this direction may land:
    /// loss redelivery must not let later messages overtake earlier
    /// ones (the TCP in-order contract). On loss-free links delivery
    /// times are already monotonic, so the watermark never binds.
    next_free: Instant,
    /// Per-transfer-round byte cap derived from `params.bandwidth`
    /// (`u64::MAX` = uncapped).
    round_cap: u64,
    /// Blocks the engine asked us to upload on this connection, FIFO.
    queue: VecDeque<BlockRef>,
    /// Bytes granted to the head block but not yet covering it whole.
    head_credit: u64,
}

struct SimPeer {
    engine: Engine,
    alive: bool,
    was_seed: bool,
    /// Connection slots indexed by local `ConnId`; `None` = no link.
    links: Vec<Option<LinkSlot>>,
    /// Recycled upload queues from closed links (allocation pooling).
    spare_queues: Vec<VecDeque<BlockRef>>,
    port: u16,
    /// Times this client has crashed and restarted (drives the fresh
    /// peer-ID suffix of §III-D).
    restarts: u32,
}

impl SimPeer {
    fn link(&self, conn: ConnId) -> Option<&LinkSlot> {
        self.links.get(conn as usize).and_then(|s| s.as_ref())
    }

    fn link_mut(&mut self, conn: ConnId) -> Option<&mut LinkSlot> {
        self.links.get_mut(conn as usize).and_then(|s| s.as_mut())
    }

    fn insert_link(&mut self, conn: ConnId, to: PeerIdx, remote_conn: ConnId, params: LinkParams) {
        let i = conn as usize;
        if self.links.len() <= i {
            self.links.resize_with(i + 1, || None);
        }
        let queue = self.spare_queues.pop().unwrap_or_default();
        let round_cap = params.bandwidth.map_or(u64::MAX, |b| {
            ((b as f64 * TRANSFER_ROUND.as_secs_f64()) as u64).max(1)
        });
        self.links[i] = Some(LinkSlot {
            to,
            remote_conn,
            params,
            next_free: Instant(0),
            round_cap,
            queue,
            head_credit: 0,
        });
    }

    /// Tear down a link, recycling its queue; returns its far end, its
    /// delay and how many upload blocks were still queued (the caller
    /// keeps the swarm-level queued-block counters in sync).
    fn remove_link(&mut self, conn: ConnId) -> Option<(PeerIdx, ConnId, Duration, u32)> {
        let slot = self.links.get_mut(conn as usize)?.take()?;
        let LinkSlot {
            to,
            remote_conn,
            params,
            mut queue,
            ..
        } = slot;
        let dropped = queue.len() as u32;
        queue.clear();
        self.spare_queues.push(queue);
        Some((to, remote_conn, params.delay, dropped))
    }
}

/// Causal lifecycle state of one *sampled* piece (see
/// [`Swarm::with_trace`]): only pieces the tracer samples ever get an
/// entry, so the map stays tiny at any swarm scale.
#[derive(Default)]
struct PieceLife {
    /// An `injected` event has been recorded (first holder seen).
    injected: bool,
    /// A `first_have` event has been recorded.
    first_have: bool,
    /// Peers that verifiably hold the piece (join-time holders plus
    /// verified downloads).
    holders: HashSet<PeerIdx>,
    /// `k_replicated` recorded; provenance recording stops here.
    done: bool,
}

impl PieceLife {
    /// Verified holders that close a lifecycle.
    const K_TARGET: usize = 4;

    /// Close the lifecycle with `k_replicated` once enough verified
    /// holders exist.
    fn check_k_replicated(&mut self, tracer: &Tracer, now: Instant, piece: u32) {
        if !self.done && self.injected && self.holders.len() >= Self::K_TARGET {
            self.done = true;
            tracer.record(
                now.0,
                TraceCat::Piece,
                "k_replicated",
                piece.into(),
                &[("copies", self.holders.len() as i64)],
            );
        }
    }
}

/// Piece id a message concerns, if any (the provenance filter).
fn msg_piece(msg: &Message) -> Option<u32> {
    match msg {
        Message::Have(p) => Some(*p),
        Message::Request(b) | Message::Cancel(b) => Some(b.piece),
        Message::Piece { block, .. } => Some(block.piece),
        _ => None,
    }
}

/// Compact wire-kind code for trace args (stable across runs).
fn msg_code(msg: &Message) -> i64 {
    match msg {
        Message::Have(_) => 0,
        Message::Request(_) => 1,
        Message::Piece { .. } => 2,
        Message::Cancel(_) => 3,
        _ => 4,
    }
}

/// The swarm simulator. Build with [`Swarm::new`], run with
/// [`Swarm::run`].
pub struct Swarm {
    spec: SwarmSpec,
    /// The resolved per-link network model (see [`crate::links`]).
    link_model: Box<dyn LinkModel>,
    /// Control-plane one-way delay from the link model: dial setup and
    /// tracker responses.
    base_delay: Duration,
    geometry: Geometry,
    data: DataMode,
    queue: EventQueue<Ev>,
    /// Every peer's starting bitfield, drawn by [`Swarm::new`]; `run`
    /// builds the engines from them.
    initial_pieces: Vec<Bitfield>,
    /// Built when the run starts, so each engine has its observers
    /// from its first input on.
    peers: Vec<SimPeer>,
    ip_of: Vec<IpAddr>,
    by_ip: HashMap<IpAddr, PeerIdx>,
    tracker: SimTracker,
    rng: SmallRng,
    completion: Vec<Option<Instant>>,
    events_processed: u64,
    global_series: Vec<GlobalSample>,
    info_hash: [u8; 20],
    uses_global_picker: bool,
    metrics: Option<SimMetrics>,
    metric_snapshots: Vec<bt_obs::Snapshot>,
    series: Option<bt_obs::SeriesStore>,
    health: Option<HealthMonitor>,
    /// Clock reading (µs) when each peer last received a block (or
    /// joined); feeds the starvation monitor.
    last_progress: Vec<u64>,
    starvation_scratch: Vec<u64>,
    profiler: bt_obs::Profiler,
    // Reused per-round scratch buffers (see `do_transfers`): transfer
    // rounds run every virtual second over every peer, so they must not
    // allocate.
    budget_scratch: Vec<u64>,
    demand_scratch: Vec<(ConnId, PeerIdx, ConnId, u64)>,
    demand_bytes: Vec<u64>,
    grant_scratch: Vec<u64>,
    counts_scratch: Vec<u32>,
    // Dense per-peer round state, kept beside the peers rather than
    // inside them so the per-round sweep touches two small arrays instead
    // of one `SimPeer` cache line per peer (the mega-swarm win: idle
    // peers cost nothing per round).
    /// Upload blocks queued across each peer's links.
    queued_blocks: Vec<u32>,
    /// Static per-round download budget per peer (caps never change).
    download_budget: Vec<u64>,
    /// Static per-round upload budget per peer.
    upload_budget: Vec<u64>,
    /// Causal trace layer ([`Swarm::with_trace`]); disabled = one
    /// branch per hook.
    tracer: Tracer,
    /// Lifecycle state per sampled piece.
    piece_life: BTreeMap<u32, PieceLife>,
    /// Flight recorder ([`Swarm::with_flight_recorder`]): dumps a
    /// bundle when a live-monitor invariant trips or the run panics.
    flight: Option<FlightRecorder>,
    /// Previous health verdict, to edge-trigger flight dumps.
    was_healthy: bool,
    /// Events processed, mirrored for the panic flight guard.
    events_shared: Arc<AtomicU64>,
}

impl Swarm {
    /// Construct the swarm: validates the spec, draws every peer's
    /// starting bitfield (pre-populating existing leechers) and
    /// schedules joins. The engines are built when the run starts,
    /// with whichever observers the `with_*` calls attached.
    ///
    /// # Panics
    /// If [`SwarmSpec::validate`] rejects the spec, with its message.
    pub fn new(spec: SwarmSpec) -> Swarm {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid SwarmSpec: {e}"));
        let geometry = Geometry::new(spec.total_len, spec.piece_len);
        let mut rng = SmallRng::seed_from_u64(spec.seed);

        // In virtual mode this is a one-piece stub whose bytes no engine
        // reads. Its info-hash is still part of the output — the Fast
        // Extension derives each peer's allowed-fast set from it
        // (`fast::allowed_fast_set`) — so the stub piece is generated
        // and hashed in full.
        let content = Arc::new(SyntheticContent::generate(
            "swarm-content",
            spec.seed,
            if spec.real_data {
                spec.total_len
            } else {
                geometry.piece_len as u64
            },
            spec.piece_len,
        ));
        let info_hash = content.metainfo.info_hash;
        let data = if spec.real_data {
            DataMode::Real(content)
        } else {
            DataMode::Virtual
        };

        let num_pieces = geometry.num_pieces();
        // The available-pieces set for pre-population (§IV-A.2: rare
        // pieces exist only on the initial seed during the startup phase).
        let available: Vec<u32> = {
            let n = ((f64::from(num_pieces)) * spec.available_fraction.clamp(0.0, 1.0)).round()
                as usize;
            let mut all: Vec<u32> = (0..num_pieces).collect();
            // Deterministic subset: shuffle then truncate.
            use rand::seq::SliceRandom;
            all.shuffle(&mut rng);
            all.truncate(n);
            all
        };

        let uses_global_picker =
            matches!(spec.base_config.picker, bt_piece::PickerKind::GlobalRarest);

        let n = spec.peers.len();
        let ip_of: Vec<IpAddr> = (0..n)
            .map(|idx| IpAddr(0x0A00_0000 + idx as u32 + 1))
            .collect();
        let by_ip = ip_of
            .iter()
            .enumerate()
            .map(|(idx, &ip)| (ip, idx))
            .collect();
        let mut queue = EventQueue::new();
        for (idx, p) in spec.peers.iter().enumerate() {
            queue.schedule(Instant(p.join_at.0), Ev::Join(idx));
        }
        queue.schedule(Instant(TRANSFER_ROUND.0), Ev::TransferRound);
        if spec.local.is_some() || spec.sample_global {
            queue.schedule(Instant(SAMPLE_EVERY.0), Ev::Sample);
        }

        let mut tracker = SimTracker::new();
        tracker.scalable_sampling = spec.scalable_tracker;
        let round_secs = TRANSFER_ROUND.as_secs_f64();
        let download_budget: Vec<u64> = spec
            .peers
            .iter()
            .map(|p| match p.capacity.download() {
                u64::MAX => u64::MAX,
                cap => (cap as f64 * round_secs) as u64,
            })
            .collect();
        let upload_budget: Vec<u64> = spec
            .peers
            .iter()
            .map(|p| (p.capacity.upload() as f64 * round_secs) as u64)
            .collect();
        let link_model = spec.net_model().build(n, spec.seed);
        let base_delay = link_model.base_delay();
        let mut swarm = Swarm {
            spec,
            link_model,
            base_delay,
            geometry,
            data,
            queue,
            initial_pieces: Vec::new(),
            peers: Vec::new(),
            ip_of,
            by_ip,
            tracker,
            rng,
            completion: vec![None; n],
            events_processed: 0,
            global_series: Vec::new(),
            info_hash,
            uses_global_picker,
            metrics: None,
            metric_snapshots: Vec::new(),
            series: None,
            health: None,
            last_progress: vec![0; n],
            starvation_scratch: Vec::new(),
            profiler: bt_obs::Profiler::disabled(),
            budget_scratch: Vec::new(),
            demand_scratch: Vec::new(),
            demand_bytes: Vec::new(),
            grant_scratch: Vec::new(),
            counts_scratch: Vec::new(),
            queued_blocks: vec![0; n],
            download_budget,
            upload_budget,
            tracer: Tracer::disabled(),
            piece_life: BTreeMap::new(),
            flight: None,
            was_healthy: true,
            events_shared: Arc::new(AtomicU64::new(0)),
        };
        swarm.initial_pieces = (0..n)
            .map(|idx| swarm.initial_bitfield(idx, &available))
            .collect();
        swarm
    }

    /// Build peer `idx`'s engine for its `restarts`-th life, holding
    /// `pieces`. Peer ID suffix and engine RNG seed derive from the
    /// master seed, the index and the restart count (a restarted client
    /// has a fresh peer-ID suffix, §III-D); the instrumented peer gets
    /// its recorder; the engine is built with whichever of metrics,
    /// profiler and choke audit the swarm holds.
    fn build_engine(&self, idx: PeerIdx, restarts: u32, pieces: Bitfield) -> Engine {
        let spec = &self.spec;
        let profile = &spec.peers[idx];
        let restarts = u64::from(restarts);
        let peer_id = PeerId::new(
            profile.client,
            spec.seed
                .wrapping_add(idx as u64 * 7919)
                .wrapping_add(restarts * 104_729),
        );
        let mut builder = EngineBuilder::new(self.geometry, self.info_hash, peer_id)
            .config(profile.engine_config(&spec.base_config))
            .data(self.data.clone())
            .ip(self.ip_of[idx])
            .initial_pieces(pieces)
            .rng_seed(
                spec.seed
                    .wrapping_mul(31)
                    .wrapping_add(idx as u64)
                    .wrapping_add(restarts),
            )
            .profiler(self.profiler.clone())
            .choke_audit(self.tracer.sample_peer(idx as u64));
        if let Some(m) = &self.metrics {
            builder = builder.metrics(m.engine.clone());
        }
        if spec.local == Some(idx) {
            let initial_seeds = spec.peers.iter().filter(|p| p.is_initial_seed()).count() as u32;
            builder = builder.recorder(TraceMeta {
                torrent: "swarm".to_owned(),
                torrent_id: 0,
                num_pieces: self.geometry.num_pieces(),
                num_blocks: self.geometry.total_blocks(),
                initial_seeds,
                initial_leechers: spec.peers.len() as u32 - initial_seeds,
                session_end: Instant(spec.duration.0),
                seed_at: None,
            });
        }
        builder.build()
    }

    /// Attach a `bt-obs` registry: every engine reports aggregate
    /// `core.*` series into it, the swarm reports `sim.*` series, and
    /// [`SwarmResult::metrics`] carries one snapshot per sampling
    /// period. Pass a manual-clock registry
    /// ([`bt_obs::Registry::new_manual`]) for deterministic snapshots;
    /// the swarm keeps its clock in step with virtual time.
    #[must_use]
    pub fn with_metrics(mut self, registry: bt_obs::Registry) -> Swarm {
        // Snapshots ride the sampling period; make sure it fires even
        // when neither a local trace nor global sampling asked for it.
        // Scheduled here, not at run start: event sequence numbers are
        // part of the digest.
        if self.spec.local.is_none() && !self.spec.sample_global {
            self.queue.schedule(Instant(SAMPLE_EVERY.0), Ev::Sample);
        }
        self.metrics = Some(SimMetrics::register(&registry));
        self
    }

    /// Attach a time-series store: on every sampling period (and at the
    /// end of the run) the current registry snapshot's counters and
    /// gauges are appended as series points, and the health monitors'
    /// float series when [`with_health`](Swarm::with_health) is also
    /// attached. Needs [`with_metrics`](Swarm::with_metrics) too, in
    /// either order — the store should be built on the same registry so
    /// timestamps share the virtual clock.
    ///
    /// Under a manual clock the appended series are a pure function of
    /// spec + seed, so the serialized store is byte-identical across
    /// runs and job counts (see `tests/series_determinism.rs`).
    ///
    /// # Panics
    /// [`run`](Swarm::run) panics if no metrics registry is attached.
    #[must_use]
    pub fn with_series(mut self, store: bt_obs::SeriesStore) -> Swarm {
        self.series = Some(store);
        self
    }

    /// Attach live health monitors ([`bt_analysis::live`]): entropy,
    /// replication spread, reciprocation and starvation are re-judged
    /// on every sampling period from ground-truth swarm state, surfaced
    /// as `live.*` gauges (plus float series when
    /// [`with_series`](Swarm::with_series) is also attached), and the
    /// final [`HealthReport`] lands on [`SwarmResult::health`].
    /// Monitors only read swarm state — digests and traces are
    /// unchanged. Requires [`with_metrics`](Swarm::with_metrics) first:
    /// the monitor exists from this call on, so
    /// [`health_monitor`](Swarm::health_monitor) can serve it before
    /// the run.
    ///
    /// # Panics
    /// If no metrics registry is attached yet.
    #[must_use]
    pub fn with_health(mut self, thresholds: Thresholds) -> Swarm {
        let registry = self
            .metrics
            .as_ref()
            .expect("with_health requires with_metrics first")
            .registry()
            .clone();
        self.health = Some(HealthMonitor::new(&registry, thresholds));
        self
    }

    /// Attach a span profiler: the swarm records `sim.*` spans around
    /// event-queue pops and dispatch, every engine records
    /// `core.handle.*` / `core.choke_round` / `core.piece_pick` spans
    /// nested inside them, and [`SwarmResult::profile`] carries the
    /// aggregated [`bt_obs::Profile`]. Pass a manual-clock profiler
    /// ([`bt_obs::TimeSource::manual`]) for deterministic profiles —
    /// the swarm keeps its clock in step with virtual time, so span
    /// durations are 0 µs (the clock never moves *inside* an event) but
    /// the call tree and counts are byte-identical run to run. A
    /// wall-clock profiler measures real time instead.
    #[must_use]
    pub fn with_profiler(mut self, profiler: bt_obs::Profiler) -> Swarm {
        self.profiler = profiler;
        self
    }

    /// Attach a causal [`Tracer`]: sampled piece lifecycles
    /// (`injected → first_have → block_sent → verified →
    /// k_replicated`), per-round choke-decision audits on sampled
    /// peers, and message provenance (`request → send → deliver`)
    /// while a sampled lifecycle is open. Sampling decisions hash
    /// piece/peer ids (never the swarm RNG), so digests and §III-C
    /// traces are byte-identical whether tracing is on or off.
    #[must_use]
    pub fn with_trace(mut self, tracer: Tracer) -> Swarm {
        // Coverage guarantee: pin the minimal-hash piece and peer so
        // even a sampling rate above the id count (8-piece presets at
        // 1/64) exports ≥ 1 complete lifecycle and ≥ 1 audit.
        tracer.set_universe(
            u64::from(self.geometry.num_pieces()),
            self.spec.peers.len() as u64,
        );
        self.tracer = tracer;
        self
    }

    /// Attach a [`FlightRecorder`]: a bounded ring of recent trace
    /// events, dumped as a self-contained bundle when a live-monitor
    /// invariant trips ([`with_health`](Swarm::with_health)) or the run
    /// panics. Compose with [`with_trace`](Swarm::with_trace) via
    /// [`Tracer::with_flight`] so trace events reach the ring.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: FlightRecorder) -> Swarm {
        self.flight = Some(recorder);
        self
    }

    /// Peer `idx`'s bitfield at construction: full for a seed; for a
    /// pre-existing leecher, a skewed-low fraction (at most
    /// [`PREPOP_COMPLETION_MAX`]) of the `available` pieces, drawn with
    /// the master PRNG; empty otherwise. The skew models pre-session
    /// history: in a live swarm, peers spend most of their sojourn at
    /// low completion (slow ramp-up) and near-complete peers leave soon,
    /// so the peer progress distribution leans young.
    fn initial_bitfield(&mut self, idx: PeerIdx, available: &[u32]) -> Bitfield {
        let num_pieces = self.geometry.num_pieces();
        let profile = &self.spec.peers[idx];
        if profile.is_initial_seed() {
            return Bitfield::full(num_pieces);
        }
        let mut bf = Bitfield::new(num_pieces);
        if !profile.prepopulate || !matches!(profile.role, Role::Leecher | Role::FreeRider) {
            return bf;
        }
        let frac = self.rng.random_range(0.0..1.0f64).powf(1.5) * PREPOP_COMPLETION_MAX;
        let target = (available.len() as f64 * frac).round() as usize;
        if target == 0 {
            return bf;
        }
        use rand::seq::SliceRandom;
        let mut avail = available.to_vec();
        avail.shuffle(&mut self.rng);
        for &p in avail.iter().take(target) {
            bf.set(p);
        }
        bf
    }

    /// Geometry of the simulated torrent.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Run to completion: until the event queue drains or the configured
    /// duration elapses.
    ///
    /// # Panics
    /// If [`with_series`](Swarm::with_series) was called without
    /// [`with_metrics`](Swarm::with_metrics).
    pub fn run(mut self) -> SwarmResult {
        self.start();
        let _flight_guard = self
            .flight
            .clone()
            .map(|fr| FlightGuard::new(fr, self.events_shared.clone()));
        let end = Instant(self.spec.duration.0);
        while let Some(next) = self.queue.peek_time() {
            if next > end {
                break;
            }
            let (now, ev) = {
                let _span_guard = self.profiler.span("sim.event_pop");
                self.queue.pop().expect("peeked")
            };
            self.events_processed += 1;
            if self.flight.is_some() {
                self.events_shared
                    .store(self.events_processed, Ordering::Relaxed);
            }
            if let Some(m) = &self.metrics {
                m.registry().time().advance_to(now.0);
                m.events.inc();
            }
            if let Some(t) = self.profiler.time() {
                t.advance_to(now.0);
            }
            let _span_guard = self.profiler.span("sim.event");
            self.handle(now, ev);
        }
        self.finish(end)
    }

    /// Link the series store to the health monitors and build every
    /// engine with the swarm's observers, before the first event pops.
    fn start(&mut self) {
        if let Some(store) = &self.series {
            assert!(
                self.metrics.is_some(),
                "Swarm::with_series requires Swarm::with_metrics"
            );
            if let Some(monitor) = &self.health {
                monitor.set_series(store.clone());
            }
        }
        let initial = std::mem::take(&mut self.initial_pieces);
        let peers = initial.into_iter().enumerate().map(|(idx, pieces)| {
            let engine = self.build_engine(idx, 0, pieces);
            SimPeer {
                alive: false,
                was_seed: engine.is_seed(),
                engine,
                links: Vec::new(),
                spare_queues: Vec::new(),
                port: 6881,
                restarts: 0,
            }
        });
        self.peers = peers.collect();
    }

    fn finish(mut self, end: Instant) -> SwarmResult {
        self.tracer.flush_local();
        if let Some(t) = self.profiler.time() {
            t.advance_to(end.0);
        }
        if let Some(m) = &self.metrics {
            m.registry().time().advance_to(end.0);
        }
        self.sample_observers(end);
        let trace = self
            .spec
            .local
            .and_then(|idx| self.peers[idx].engine.take_trace())
            .map(|mut tr| {
                tr.meta.session_end = end;
                tr
            });
        let completed_peers = self.completion.iter().flatten().count();
        SwarmResult {
            trace,
            completion: self.completion,
            completed_peers,
            events_processed: self.events_processed,
            tracker_started: self.tracker.started,
            tracker_completed: self.tracker.completed,
            global_series: self.global_series,
            metrics: self.metric_snapshots,
            profile: self.profiler.is_enabled().then(|| self.profiler.snapshot()),
            health: self.health.as_ref().map(|m| m.report()),
        }
    }

    /// The live health monitor, when [`Swarm::with_health`] attached
    /// one. Clone it before [`run`](Swarm::run) to watch verdicts from
    /// another thread (e.g. an HTTP `/health` route).
    pub fn health_monitor(&self) -> Option<&HealthMonitor> {
        self.health.as_ref()
    }

    /// One observer round, a no-op without
    /// [`with_metrics`](Swarm::with_metrics). One walk over the live
    /// peers' connections counts the interest/unchoke matrices (directed
    /// edges) for the `sim.*` gauges and, over leechers, unchoke
    /// reciprocity (each engine's local tit-for-tat view) and
    /// starvation ages for the health monitors. Then, in this order, so
    /// the snapshot carries this round's gauges and `live.*` verdicts:
    /// set the gauges, let the monitors judge the sample (with per-piece
    /// replication over live peers), and snapshot the registry into the
    /// series store and the run's `metrics.jsonl` lines. Reads state
    /// only, so digests and traces are unchanged.
    fn sample_observers(&mut self, now: Instant) {
        let Some(m) = &self.metrics else { return };
        let (mut live, mut interested, mut unchoked) = (0i64, 0i64, 0i64);
        let (mut leecher_unchokes, mut reciprocated) = (0u64, 0u64);
        let mut worst_starved: Option<(PeerIdx, u64)> = None;
        self.starvation_scratch.clear();
        for (idx, p) in self.peers.iter().enumerate().filter(|(_, p)| p.alive) {
            live += 1;
            let leecher = !p.engine.is_seed();
            if leecher {
                let age = now.0.saturating_sub(self.last_progress[idx]) / 1_000_000;
                self.starvation_scratch.push(age);
                if worst_starved.is_none_or(|(_, w)| age > w) {
                    worst_starved = Some((idx, age));
                }
            }
            for conn in p.engine.connections() {
                interested += i64::from(conn.am_interested);
                unchoked += i64::from(!conn.am_choking);
                if leecher && !conn.am_choking {
                    leecher_unchokes += 1;
                    reciprocated += u64::from(!conn.peer_choking);
                }
            }
        }
        m.virtual_secs.set(now.as_secs_f64() as i64);
        m.live_peers.set(live);
        m.completed_peers
            .set(self.completion.iter().flatten().count() as i64);
        m.interested_pairs.set(interested);
        m.unchoked_pairs.set(unchoked);
        if let Some(monitor) = self.health.clone() {
            self.count_live_copies();
            let counts: &[u32] = if live > 0 { &self.counts_scratch } else { &[] };
            monitor.observe(
                now.0,
                &LiveSample {
                    counts,
                    leecher_unchokes,
                    reciprocated,
                    starvation_secs: &self.starvation_scratch,
                },
            );
            // Edge-triggered flight-recorder dump: the first observation
            // where any monitor turns unhealthy writes a bundle.
            if self.flight.is_some() {
                let report = monitor.report();
                let healthy = report.healthy();
                if self.was_healthy && !healthy {
                    self.dump_flight(&report, worst_starved);
                }
                self.was_healthy = healthy;
            }
        }
        let Some(m) = &self.metrics else { return };
        let snap = m.registry().snapshot();
        if let Some(store) = &self.series {
            store.append_snapshot(&snap);
        }
        self.metric_snapshots.push(snap);
    }

    /// Write a flight-recorder bundle for an invariant trip: reason
    /// names the tripped monitors, and the explanation is derived from
    /// the recorder's recent trace slice (worst-starved peer's choke
    /// history, rarest open sampled piece).
    fn dump_flight(&self, report: &HealthReport, worst: Option<(PeerIdx, u64)>) {
        let Some(fr) = &self.flight else { return };
        let tripped: Vec<&str> = report
            .monitors
            .iter()
            .filter(|m| !m.healthy)
            .map(|m| m.name)
            .collect();
        let reason = format!("invariant:{}", tripped.join("+"));
        let explanation = bt_analysis::explain::explain_unhealthy(report, worst, &fr.trace_slice());
        let health_json = report.to_json();
        let ctx = DumpContext {
            registry: self.metrics.as_ref().map(|m| m.registry()),
            health_json: Some(&health_json),
            explanation: Some(&explanation),
            events_processed: self.events_processed,
        };
        match fr.dump(&reason, &ctx) {
            Ok(path) => eprintln!("flight recorder: {reason} -> {}", path.display()),
            Err(e) => eprintln!("flight recorder: dump failed: {e}"),
        }
    }

    // ------------------------------------------------------------------
    // Causal trace hooks
    // ------------------------------------------------------------------

    /// Whether `piece` is sampled and its lifecycle has not reached
    /// `k_replicated` yet — the gate bounding per-message provenance.
    fn lifecycle_open(&self, piece: u32) -> bool {
        self.tracer.sample_piece(piece) && self.piece_life.get(&piece).is_none_or(|l| !l.done)
    }

    /// Record `injected` for sampled pieces a joining peer already
    /// holds (seeds and prepopulated leechers) and count the peer as a
    /// holder toward `k_replicated`.
    fn trace_join_pieces(&mut self, now: Instant, idx: PeerIdx) {
        let Swarm {
            peers,
            tracer,
            piece_life,
            ..
        } = self;
        let own = peers[idx].engine.own_pieces();
        for piece in own.iter_ones().filter(|&p| tracer.sample_piece(p)) {
            let life = piece_life.entry(piece).or_default();
            if life.done || !life.holders.insert(idx) {
                continue;
            }
            if !life.injected {
                life.injected = true;
                tracer.record(
                    now.0,
                    TraceCat::Piece,
                    "injected",
                    piece.into(),
                    &[("by", idx as i64)],
                );
            }
            life.check_k_replicated(tracer, now, piece);
        }
    }

    /// A sampled piece passed hash verification on `idx`.
    fn on_piece_verified(&mut self, now: Instant, idx: PeerIdx, piece: u32) {
        let life = self.piece_life.entry(piece).or_default();
        if life.done || !life.holders.insert(idx) {
            return;
        }
        let copies = life.holders.len();
        self.tracer.record(
            now.0,
            TraceCat::Piece,
            "verified",
            piece.into(),
            &[("peer", idx as i64), ("copies", copies as i64)],
        );
        life.check_k_replicated(&self.tracer, now, piece);
    }

    /// Message provenance on delivery, plus the `first_have` lifecycle
    /// edge (where rarest-first advertising becomes visible).
    fn trace_delivery(&mut self, now: Instant, to: PeerIdx, msg: &Message) {
        let Some(piece) = msg_piece(msg) else { return };
        if !self.lifecycle_open(piece) {
            return;
        }
        self.tracer.record(
            now.0,
            TraceCat::Msg,
            "deliver",
            piece.into(),
            &[("msg", msg_code(msg)), ("to", to as i64)],
        );
        if matches!(msg, Message::Have(_)) {
            let life = self.piece_life.entry(piece).or_default();
            if !life.first_have {
                life.first_have = true;
                self.tracer.record(
                    now.0,
                    TraceCat::Piece,
                    "first_have",
                    piece.into(),
                    &[("to", to as i64)],
                );
            }
        }
    }

    /// Copy the engine's audit surfaces into the trace, then clear
    /// them: piece-pick provenance (`request` events carrying the
    /// availability the picker saw) and the per-round choke audit
    /// (`round` plus one `audit` per ranked peer, remote resolved from
    /// the link table).
    fn trace_engine_audit(&mut self, now: Instant, idx: PeerIdx) {
        let peer = &self.peers[idx];
        for pick in peer.engine.pick_log() {
            if self.lifecycle_open(pick.piece) {
                self.tracer.record(
                    now.0,
                    TraceCat::Msg,
                    "request",
                    pick.piece.into(),
                    &[
                        ("peer", idx as i64),
                        ("avail", i64::from(pick.availability)),
                    ],
                );
            }
        }
        if let Some(audit) = peer.engine.choke_audit() {
            audit.trace(&self.tracer, now, idx as u64, |conn| {
                peer.link(conn).map_or(-1, |s| s.to as i64)
            });
        }
        self.peers[idx].engine.clear_audit();
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, now: Instant, ev: Ev) {
        match ev {
            Ev::Join(idx) => self.on_join(now, idx),
            Ev::Depart(idx) => self.on_depart(now, idx),
            Ev::Restart(idx) => self.on_restart(now, idx),
            Ev::Deliver { to, conn, msg } => {
                if self.peers[to].alive {
                    if matches!(msg, Message::Piece { .. }) {
                        self.last_progress[to] = now.0;
                    }
                    // A watched piece: sampled, lifecycle open, and not
                    // yet held by the receiver — if the engine holds it
                    // after `handle`, this delivery verified it.
                    let watched = if self.tracer.enabled() {
                        self.trace_delivery(now, to, &msg);
                        match &msg {
                            Message::Piece { block, .. } if self.lifecycle_open(block.piece) => {
                                let piece = block.piece;
                                (!self.peers[to].engine.own_pieces().get(piece)).then_some(piece)
                            }
                            _ => None,
                        }
                    } else {
                        None
                    };
                    self.peers[to]
                        .engine
                        .handle(now, Input::Message { conn, msg });
                    if let Some(piece) = watched {
                        if self.peers[to].engine.own_pieces().get(piece) {
                            self.on_piece_verified(now, to, piece);
                        }
                    }
                    self.process_actions(now, to);
                }
            }
            Ev::DialArrive { from, to_ip } => self.on_dial(now, from, to_ip),
            Ev::NotifyDisconnect { to, conn } => {
                let p = &mut self.peers[to];
                if p.alive {
                    p.engine.handle(now, Input::PeerDisconnected { conn });
                    if let Some((.., dropped)) = p.remove_link(conn) {
                        self.queued_blocks[to] -= dropped;
                    }
                    self.process_actions(now, to);
                }
            }
            Ev::TrackerResponse { to, peers } => {
                if self.peers[to].alive {
                    self.peers[to]
                        .engine
                        .handle(now, Input::TrackerResponse { peers });
                    self.process_actions(now, to);
                }
            }
            Ev::EngineTick(idx) => {
                if self.peers[idx].alive {
                    self.peers[idx].engine.handle(now, Input::Tick);
                    self.process_actions(now, idx);
                }
            }
            Ev::TransferRound => {
                self.do_transfers(now);
                if self.uses_global_picker {
                    self.push_global_counts();
                }
                if let Some(m) = &self.metrics {
                    m.transfer_rounds.inc();
                }
                self.queue.schedule(now + TRANSFER_ROUND, Ev::TransferRound);
            }
            Ev::Sample => {
                if let Some(idx) = self.spec.local {
                    if self.peers[idx].alive {
                        self.peers[idx].engine.sample_availability(now);
                    }
                }
                if self.spec.sample_global {
                    self.sample_global_truth(now);
                }
                self.sample_observers(now);
                self.queue.schedule(now + SAMPLE_EVERY, Ev::Sample);
            }
        }
    }

    fn on_join(&mut self, now: Instant, idx: PeerIdx) {
        {
            let p = &mut self.peers[idx];
            if p.alive {
                return;
            }
            p.alive = true;
        }
        self.last_progress[idx] = now.0;
        if self.tracer.enabled() {
            self.trace_join_pieces(now, idx);
        }
        self.peers[idx].engine.handle(now, Input::Start);
        self.process_actions(now, idx);
        // Stagger rechoke phases so the swarm's choke rounds do not all
        // fire on the same instant. This overrides the default first
        // deadline `Start` armed; the superseded timer event becomes a
        // stale no-op tick.
        let phase = Duration(self.rng.random_range(0..10_000_000));
        self.peers[idx]
            .engine
            .schedule_rechoke(now + phase + Duration::from_secs(1));
        self.process_actions(now, idx);
        let profile = &self.spec.peers[idx];
        if profile.role == Role::Churner {
            let at = now + Duration::from_millis(self.rng.random_range(1500..8000));
            self.queue.schedule(at, Ev::Depart(idx));
        }
        if let Some(period) = profile.restart_after {
            self.queue.schedule(now + period, Ev::Restart(idx));
        }
    }

    /// Crash-and-restart: drop every connection, then come back with the
    /// same IP, the downloaded pieces intact, and a *fresh peer-ID
    /// suffix* — the §III-D identification noise.
    fn on_restart(&mut self, now: Instant, idx: PeerIdx) {
        if !self.peers[idx].alive {
            return;
        }
        debug_assert!(
            self.spec.local != Some(idx),
            "restarting the instrumented peer would restart its trace"
        );
        // Tear down like a departure...
        self.tracker.remove(idx);
        self.drop_all_links(now, idx);
        // ...then rebuild the engine: same IP, same disk (bitfield), new
        // random peer-ID suffix.
        let restarts = self.peers[idx].restarts + 1;
        let surviving = self.peers[idx].engine.own_pieces().clone();
        let engine = self.build_engine(idx, restarts, surviving);
        let p = &mut self.peers[idx];
        p.restarts = restarts;
        let pending = p.engine.next_wakeup();
        p.engine = engine;
        p.was_seed = p.engine.is_seed();
        p.engine.handle(now, Input::Start);
        if let Some(at) = pending {
            // Continue the established choke-round chain instead of
            // phase-shifting it: a crash must not move the rechoke grid.
            p.engine.schedule_rechoke(at.max(now));
        }
        self.process_actions(now, idx);
        if let Some(period) = self.spec.peers[idx].restart_after {
            self.queue.schedule(now + period, Ev::Restart(idx));
        }
    }

    fn on_depart(&mut self, now: Instant, idx: PeerIdx) {
        if !self.peers[idx].alive {
            return;
        }
        self.peers[idx].alive = false;
        self.tracker.remove(idx);
        self.drop_all_links(now, idx);
    }

    /// Close every link of `idx`, notifying the far ends. Slot order is
    /// ascending `ConnId` — the same order the map-based code sorted
    /// into, so disconnect events keep their sequence numbers.
    fn drop_all_links(&mut self, now: Instant, idx: PeerIdx) {
        for conn in 0..self.peers[idx].links.len() {
            if let Some((to, remote_conn, lat, dropped)) =
                self.peers[idx].remove_link(conn as ConnId)
            {
                self.queued_blocks[idx] -= dropped;
                self.queue.schedule(
                    now + lat,
                    Ev::NotifyDisconnect {
                        to,
                        conn: remote_conn,
                    },
                );
            }
        }
    }

    fn on_dial(&mut self, now: Instant, from: PeerIdx, to_ip: IpAddr) {
        if self.spec.dial_failure_prob > 0.0
            && self.rng.random_range(0.0..1.0) < self.spec.dial_failure_prob
        {
            self.fail_dial(now, from);
            return;
        }
        let Some(&to) = self.by_ip.get(&to_ip) else {
            self.fail_dial(now, from);
            return;
        };
        if !self.peers[from].alive || !self.peers[to].alive || from == to {
            self.fail_dial(now, from);
            return;
        }
        // Real handshakes cross the wire (and the codec) in both
        // directions before the engines learn of the connection; reserved
        // bits carry the Fast Extension advertisement.
        let mut hs_a = Handshake::new(self.info_hash, self.peers[from].engine.peer_id());
        hs_a.reserved = self.peers[from].engine.handshake_reserved();
        let mut hs_b = Handshake::new(self.info_hash, self.peers[to].engine.peer_id());
        hs_b.reserved = self.peers[to].engine.handshake_reserved();
        let decoded_a = Handshake::decode(&hs_a.encode()).expect("handshake roundtrip");
        let decoded_b = Handshake::decode(&hs_b.encode()).expect("handshake roundtrip");
        debug_assert_eq!(decoded_a.info_hash, decoded_b.info_hash);
        let caps_a = bt_core::engine::PeerCaps::from_reserved(&decoded_a.reserved);
        let caps_b = bt_core::engine::PeerCaps::from_reserved(&decoded_b.reserved);

        let from_ip = self.ip_of[from];
        let to_conn = self.peers[to]
            .engine
            .handle(
                now,
                Input::PeerConnected {
                    ip: from_ip,
                    peer_id: decoded_a.peer_id,
                    initiated_by_us: false,
                    caps: caps_a,
                },
            )
            .take_accepted();
        let Some(to_conn) = to_conn else {
            self.fail_dial(now, from);
            return;
        };
        let from_conn = self.peers[from]
            .engine
            .handle(
                now,
                Input::PeerConnected {
                    ip: to_ip,
                    peer_id: decoded_b.peer_id,
                    initiated_by_us: true,
                    caps: caps_b,
                },
            )
            .take_accepted();
        let Some(from_conn) = from_conn else {
            // The initiator refused its own dial (duplicate IP race):
            // tear down the acceptor side.
            self.peers[to]
                .engine
                .handle(now, Input::PeerDisconnected { conn: to_conn });
            self.process_actions(now, to);
            return;
        };
        // The link model fixes both directions' parameters now, with
        // the master PRNG: this point in the draw sequence is part of
        // the golden-trace contract.
        let (fwd, rev) = self.link_model.establish(from, to, &mut self.rng);
        self.peers[from].insert_link(from_conn, to, to_conn, fwd);
        self.peers[to].insert_link(to_conn, from, from_conn, rev);
        self.process_actions(now, to);
        self.process_actions(now, from);
    }

    fn fail_dial(&mut self, now: Instant, from: PeerIdx) {
        if self.peers[from].alive {
            self.peers[from].engine.handle(now, Input::ConnectFailed);
            self.process_actions(now, from);
        }
    }

    // ------------------------------------------------------------------
    // Engine action processing
    // ------------------------------------------------------------------

    fn process_actions(&mut self, now: Instant, idx: PeerIdx) {
        // Seed transition bookkeeping (tracker stats + scheduled linger).
        if self.peers[idx].engine.is_seed() && !self.peers[idx].was_seed {
            self.peers[idx].was_seed = true;
            self.completion[idx] = Some(now);
            self.tracker.mark_seed(idx);
            if let Some(linger) = self.spec.peers[idx].seed_linger {
                self.queue.schedule(now + linger, Ev::Depart(idx));
            }
        }
        if self.tracer.enabled() {
            self.trace_engine_audit(now, idx);
        }
        let actions = self.peers[idx].engine.drain_actions();
        for action in actions {
            match action {
                Action::Send { conn, msg } => {
                    if matches!(msg, Message::Choke) {
                        // Choking drops this connection's queued uploads.
                        if let Some(slot) = self.peers[idx].link_mut(conn) {
                            self.queued_blocks[idx] -= slot.queue.len() as u32;
                            slot.queue.clear();
                            slot.head_credit = 0;
                        }
                    }
                    self.send_on_link(now, idx, conn, msg);
                }
                Action::SendBlock { conn, block } => {
                    if let Some(slot) = self.peers[idx].link_mut(conn) {
                        slot.queue.push_back(block);
                        self.queued_blocks[idx] += 1;
                    }
                }
                Action::CancelBlock { conn, block } => {
                    if let Some(slot) = self.peers[idx].link_mut(conn) {
                        if let Some(pos) = slot.queue.iter().position(|b| *b == block) {
                            // Keep the head's partial credit if the head
                            // itself is cancelled; the credit simply goes
                            // to the next block (capacity was spent).
                            slot.queue.remove(pos);
                            self.queued_blocks[idx] -= 1;
                        }
                    }
                }
                Action::Disconnect { conn } => {
                    if let Some((to, remote_conn, lat, dropped)) = self.peers[idx].remove_link(conn)
                    {
                        self.queued_blocks[idx] -= dropped;
                        self.queue.schedule(
                            now + lat,
                            Ev::NotifyDisconnect {
                                to,
                                conn: remote_conn,
                            },
                        );
                    }
                }
                Action::Announce { event } => self.do_announce(now, idx, event),
                Action::Connect { peer } => {
                    self.queue.schedule(
                        now + self.base_delay,
                        Ev::DialArrive {
                            from: idx,
                            to_ip: peer.ip,
                        },
                    );
                }
                Action::SetTimer { at } => {
                    self.queue.schedule(at, Ev::EngineTick(idx));
                }
            }
        }
    }

    /// Schedule `msg` for delivery over `idx`'s link `conn`: constant
    /// one-way delay, then the seeded loss draw (a lost transmission is
    /// redelivered one RTO late), then the per-link in-order watermark
    /// (later sends never overtake earlier ones — TCP above a lossy
    /// path). No-op when the link is already gone, like the old direct
    /// schedule. Loss draws only happen on links with `loss > 0`, so
    /// loss-free models consume no extra randomness.
    fn send_on_link(&mut self, now: Instant, idx: PeerIdx, conn: ConnId, msg: Message) {
        let Some(slot) = self.peers[idx]
            .links
            .get_mut(conn as usize)
            .and_then(|s| s.as_mut())
        else {
            return;
        };
        let mut at = now + slot.params.delay;
        let mut lost = false;
        if slot.params.loss > 0.0 && self.rng.random_range(0.0..1.0) < slot.params.loss {
            at += slot.params.rto;
            lost = true;
            if let Some(m) = &self.metrics {
                m.link_losses.inc();
            }
        }
        if at < slot.next_free {
            at = slot.next_free;
        }
        slot.next_free = at;
        let (to, remote_conn) = (slot.to, slot.remote_conn);
        if self.tracer.enabled() {
            if let Some(piece) = msg_piece(&msg) {
                if self.lifecycle_open(piece) {
                    self.tracer.record(
                        now.0,
                        TraceCat::Msg,
                        "send",
                        piece.into(),
                        &[
                            ("msg", msg_code(&msg)),
                            ("from", idx as i64),
                            ("to", to as i64),
                            ("delay_us", (at.0 - now.0) as i64),
                            ("lost", i64::from(lost)),
                        ],
                    );
                }
            }
        }
        self.queue.schedule(
            at,
            Ev::Deliver {
                to,
                conn: remote_conn,
                msg,
            },
        );
    }

    fn do_announce(&mut self, now: Instant, idx: PeerIdx, event: AnnounceEvent) {
        let ip = self.ip_of[idx];
        let port = self.peers[idx].port;
        let is_seed = self.peers[idx].engine.is_seed();
        let num_want = self
            .spec
            .tracker_response_cap
            .unwrap_or(bt_wire::tracker::DEFAULT_NUM_WANT as usize)
            .min(bt_wire::tracker::DEFAULT_NUM_WANT as usize);
        let response =
            self.tracker
                .announce(idx, ip, port, is_seed, event, num_want, &mut self.rng);
        if let Some(resp) = response {
            self.queue.schedule(
                now + self.base_delay,
                Ev::TrackerResponse {
                    to: idx,
                    peers: resp.peers,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Bandwidth model
    // ------------------------------------------------------------------

    fn do_transfers(&mut self, now: Instant) {
        let n = self.peers.len();
        // Per-receiver download budget for this round: a memcpy of the
        // precomputed caps (they never change mid-run).
        let mut budgets = std::mem::take(&mut self.budget_scratch);
        budgets.clone_from(&self.download_budget);
        let mut demand = std::mem::take(&mut self.demand_scratch);
        let mut demand_bytes = std::mem::take(&mut self.demand_bytes);
        let mut grants = std::mem::take(&mut self.grant_scratch);

        for idx in 0..n {
            // The dense queued-block counters make idle peers free: the
            // sweep reads one small array instead of every `SimPeer`.
            if self.queued_blocks[idx] == 0 {
                continue;
            }
            debug_assert!(self.peers[idx].alive, "queued uploads on a dead peer");
            // Max-min (water-filling) allocation: each connection demands
            // at most its queued bytes and its receiver's remaining
            // download budget; the sender's budget is split equally among
            // unsaturated connections, surplus flowing to the rest — the
            // fluid analogue of TCP filling whatever pipes have room.
            // Slot order is ascending ConnId, as the sort used to ensure.
            demand.clear();
            demand_bytes.clear();
            for (c, slot) in self.peers[idx].links.iter().enumerate() {
                let Some(slot) = slot else { continue };
                if slot.queue.is_empty() || !self.peers[slot.to].alive {
                    continue;
                }
                let queued: u64 = slot.queue.iter().map(|b| u64::from(b.length)).sum();
                // Demand is bounded by the receiver's round budget and
                // by this direction's own bandwidth (`round_cap`;
                // `u64::MAX` on uncapped links, i.e. a no-op).
                let d = queued
                    .saturating_sub(slot.head_credit)
                    .min(budgets[slot.to])
                    .min(slot.round_cap);
                if d > 0 {
                    demand.push((c as ConnId, slot.to, slot.remote_conn, d));
                    demand_bytes.push(d);
                }
            }
            if demand.is_empty() {
                continue;
            }
            water_fill_into(self.upload_budget[idx], &demand_bytes, &mut grants);
            for di in 0..demand.len() {
                let (conn, to, remote_conn, _) = demand[di];
                let grant = grants[di];
                if grant == 0 {
                    continue;
                }
                if budgets[to] != u64::MAX {
                    budgets[to] -= grant.min(budgets[to]);
                }
                // The link may have been torn down by an earlier grant's
                // engine reaction; credit on a gone link is simply lost
                // (capacity was spent), as with the map-based state.
                if let Some(slot) = self.peers[idx].link_mut(conn) {
                    slot.head_credit += grant;
                }
                // Complete as many whole blocks as the credit covers.
                while let Some(slot) = self.peers[idx].link_mut(conn) {
                    let Some(&head) = slot.queue.front() else {
                        slot.head_credit = 0;
                        break;
                    };
                    if slot.head_credit < u64::from(head.length) {
                        break;
                    }
                    slot.head_credit -= u64::from(head.length);
                    slot.queue.pop_front();
                    self.queued_blocks[idx] -= 1;
                    self.deliver_block(now, idx, conn, to, remote_conn, head);
                }
            }
        }
        self.budget_scratch = budgets;
        self.demand_scratch = demand;
        self.demand_bytes = demand_bytes;
        self.grant_scratch = grants;
    }

    fn deliver_block(
        &mut self,
        now: Instant,
        from: PeerIdx,
        from_conn: ConnId,
        to: PeerIdx,
        to_conn: ConnId,
        block: BlockRef,
    ) {
        if self.tracer.enabled() && self.lifecycle_open(block.piece) {
            self.tracer.record(
                now.0,
                TraceCat::Piece,
                "block_sent",
                block.piece.into(),
                &[
                    ("from", from as i64),
                    ("to", to as i64),
                    ("offset", i64::from(block.offset)),
                ],
            );
        }
        let mut data = self.data.block_bytes(block.piece, block.block_index());
        if self.spec.corrupt_block_prob > 0.0
            && !data.is_empty()
            && self.rng.random_range(0.0..1.0) < self.spec.corrupt_block_prob
        {
            let mut v = data.to_vec();
            let pos = self.rng.random_range(0..v.len());
            v[pos] ^= 0xFF;
            data = Bytes::from(v);
        }
        if let Some(m) = &self.metrics {
            m.blocks_delivered.inc();
        }
        self.peers[from].engine.handle(
            now,
            Input::BlockSent {
                conn: from_conn,
                block,
            },
        );
        self.process_actions(now, from);
        let msg = Message::Piece { block, data };
        if self.peers[from].link(from_conn).is_some() {
            self.send_on_link(now, from, from_conn, msg);
        } else {
            // The engine's reaction to `BlockSent` tore the link down;
            // the block was already on the wire, so it still arrives,
            // at the control-plane delay.
            self.queue.schedule(
                now + self.base_delay,
                Ev::Deliver {
                    to,
                    conn: to_conn,
                    msg,
                },
            );
        }
    }

    /// Fill `counts_scratch` with each piece's copies over live peers
    /// (seeds included); returns the number of live peers.
    fn count_live_copies(&mut self) -> u32 {
        let counts = &mut self.counts_scratch;
        counts.clear();
        counts.resize(self.geometry.num_pieces() as usize, 0);
        let mut live = 0;
        for p in self.peers.iter().filter(|p| p.alive) {
            live += 1;
            for piece in p.engine.own_pieces().iter_ones() {
                counts[piece as usize] += 1;
            }
        }
        live
    }

    /// Record a ground-truth replication snapshot over all live peers.
    fn sample_global_truth(&mut self, now: Instant) {
        let live = self.count_live_copies();
        if live == 0 {
            return;
        }
        let counts = &self.counts_scratch;
        let min = counts.iter().copied().min().unwrap_or(0);
        let max = counts.iter().copied().max().unwrap_or(0);
        let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / counts.len() as f64;
        let single = counts.iter().filter(|&&c| c == 1).count() as u32;
        self.global_series.push(GlobalSample {
            at: now,
            min,
            mean,
            max,
            single_copy_pieces: single,
            live_peers: live,
        });
    }

    fn push_global_counts(&mut self) {
        self.count_live_copies();
        for p in self.peers.iter_mut().filter(|p| p.alive) {
            p.engine.update_global_counts(&self.counts_scratch);
        }
    }
}

/// Max-min fair allocation of `budget` over `demands`: repeatedly split
/// the remaining budget equally among unsaturated entries; entries whose
/// demand is below their share are granted in full and their leftover is
/// redistributed. Exposed for property tests; the transfer rounds use it
/// every second.
pub fn water_fill(budget: u64, demands: &[u64]) -> Vec<u64> {
    let mut grants = Vec::new();
    water_fill_into(budget, demands, &mut grants);
    grants
}

/// [`water_fill`] into a caller-owned buffer, so the per-second transfer
/// rounds allocate nothing.
fn water_fill_into(budget: u64, demands: &[u64], grants: &mut Vec<u64>) {
    grants.clear();
    grants.resize(demands.len(), 0);
    let mut remaining = budget;
    let mut open: Vec<usize> = (0..demands.len()).filter(|&i| demands[i] > 0).collect();
    while remaining > 0 && !open.is_empty() {
        let share = (remaining / open.len() as u64).max(1);
        let mut saturated = Vec::new();
        for &i in &open {
            let want = demands[i] - grants[i];
            if want <= share {
                saturated.push(i);
            }
        }
        if saturated.is_empty() {
            // Everyone can absorb a full share: grant and finish.
            for &i in &open {
                let g = share.min(remaining);
                grants[i] += g;
                remaining -= g;
                if remaining == 0 {
                    break;
                }
            }
            break;
        }
        for i in saturated {
            let want = demands[i] - grants[i];
            let g = want.min(remaining);
            grants[i] += g;
            remaining -= g;
            open.retain(|&j| j != i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> SwarmSpec {
        let mut peers = vec![BehaviorProfile::seed()];
        for _ in 0..4 {
            peers.push(BehaviorProfile::leecher(Duration::ZERO));
        }
        SwarmSpec {
            seed,
            total_len: 8 * 256 * 1024, // 8 pieces
            piece_len: 256 * 1024,
            duration: Duration::from_secs(4000),
            peers,
            local: Some(1),
            ..SwarmSpec::default()
        }
    }

    #[test]
    fn validate_names_the_out_of_range_field() {
        assert_eq!(tiny_spec(1).validate(), Ok(()));
        type Edit = fn(&mut SwarmSpec);
        let cases: [(&str, Edit); 9] = [
            ("peers", |s| s.peers.clear()),
            ("total_len", |s| s.total_len = 0),
            ("piece_len", |s| s.piece_len = 0),
            ("total_len", |s| (s.total_len, s.piece_len) = (u64::MAX, 1)),
            ("local", |s| s.local = Some(50)),
            ("dial_failure_prob", |s| s.dial_failure_prob = 2.5),
            ("corrupt_block_prob", |s| s.corrupt_block_prob = f64::NAN),
            ("available_fraction", |s| s.available_fraction = -0.1),
            ("net", |s| {
                let mut topology = crate::TopologySpec::homogeneous();
                topology.classes.clear();
                s.net = Some(NetModel::FullDuplex(topology));
            }),
        ];
        for (field, edit) in cases {
            let mut spec = tiny_spec(1);
            edit(&mut spec);
            let err = spec.validate().expect_err(field);
            assert!(err.starts_with(&format!("{field}: ")), "{field}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid SwarmSpec: piece_len: must be > 0")]
    fn new_rejects_an_invalid_spec() {
        let mut spec = tiny_spec(1);
        spec.piece_len = 0;
        let _ = Swarm::new(spec);
    }

    #[test]
    #[should_panic(expected = "Swarm::with_series requires Swarm::with_metrics")]
    fn run_rejects_a_series_store_without_a_registry() {
        let store = bt_obs::SeriesStore::new(&bt_obs::Registry::new_manual());
        let _ = Swarm::new(tiny_spec(1)).with_series(store).run();
    }

    #[test]
    fn explicit_uniform_net_resolves_like_the_default() {
        let typed = SwarmSpec {
            net: Some(NetModel::uniform(
                Duration::from_millis(50),
                Duration::from_millis(100),
            )),
            ..SwarmSpec::default()
        };
        assert_eq!(SwarmSpec::default().net_model(), typed.net_model());
    }

    #[test]
    fn water_fill_properties() {
        // Budget below total demand: equal shares to the unsaturated.
        assert_eq!(water_fill(90, &[100, 100, 100]), vec![30, 30, 30]);
        // Small demands are granted in full; surplus flows on.
        assert_eq!(water_fill(90, &[10, 100, 100]), vec![10, 40, 40]);
        // Budget above total demand: everyone saturated.
        assert_eq!(water_fill(1000, &[10, 20, 30]), vec![10, 20, 30]);
        // Zero demand gets nothing.
        assert_eq!(water_fill(100, &[0, 50]), vec![0, 50]);
        assert_eq!(water_fill(0, &[10, 10]), vec![0, 0]);
        // Conservation: grants never exceed budget or demands.
        for (budget, demands) in [
            (77u64, vec![13u64, 5, 99, 42]),
            (1, vec![3, 3]),
            (12, vec![7]),
        ] {
            let g = water_fill(budget, &demands);
            assert!(g.iter().sum::<u64>() <= budget);
            for (gi, di) in g.iter().zip(&demands) {
                assert!(gi <= di);
            }
        }
    }

    #[test]
    fn dial_failures_are_survivable() {
        let mut spec = tiny_spec(9);
        spec.dial_failure_prob = 0.5;
        spec.duration = Duration::from_secs(8000);
        let result = Swarm::new(spec).run();
        // Half the dials fail, the redial path keeps the swarm connected
        // and everyone still finishes.
        assert_eq!(
            result.completed_peers, 4,
            "completed {}",
            result.completed_peers
        );
    }

    #[test]
    fn fast_extension_swarm_completes() {
        let mut spec = tiny_spec(10);
        spec.base_config.fast_extension = true;
        spec.real_data = true;
        let result = Swarm::new(spec).run();
        assert_eq!(result.completed_peers, 4);
        // The instrumented peer must have seen allowed-fast grants.
        let trace = result.trace.unwrap();
        // (Grants are sent, not received-events; check the first block
        // arrives earlier than the 30 s optimistic-unchoke horizon.)
        let first_block = trace
            .iter()
            .find(|(_, e)| matches!(e, bt_instrument::trace::TraceEvent::BlockReceived { .. }))
            .map(|(t, _)| t.as_secs_f64());
        assert!(first_block.is_some());
    }

    #[test]
    fn restarting_client_reappears_with_fresh_peer_id() {
        let mut spec = tiny_spec(12);
        // Peer 4 crashes and restarts every 150 s — early enough that
        // the swarm (and the instrumented peer) is still downloading.
        spec.peers[4].restart_after = Some(Duration::from_secs(150));
        spec.duration = Duration::from_secs(6000);
        let result = Swarm::new(spec).run();
        let trace = result.trace.unwrap();
        let reg = bt_instrument::identify::PeerRegistry::from_trace(&trace);
        // The local peer observed the restarting client under more than
        // one peer ID on the same IP (§III-D, footnote 3)...
        assert!(
            reg.multi_id_ip_fraction() > 0.0,
            "restart should produce multi-ID IPs"
        );
        // ...and the (IP, client-ID) rule folds them back together.
        assert!(reg.unique_peers() < reg.memberships.len());
        // Restarts keep downloaded pieces, so the swarm still finishes.
        assert!(
            result.completed_peers >= 3,
            "completed {}",
            result.completed_peers
        );
    }

    #[test]
    fn global_sampling_tracks_truth() {
        let mut spec = tiny_spec(14);
        spec.sample_global = true;
        let result = Swarm::new(spec).run();
        assert!(!result.global_series.is_empty());
        for g in &result.global_series {
            assert!(g.min <= g.max);
            assert!(f64::from(g.min) <= g.mean && g.mean <= f64::from(g.max));
            assert!(g.live_peers <= 5);
            // With the seed always alive, every piece has ≥ 1 copy.
            assert!(g.min >= 1);
        }
        // Early snapshots have rare (single-copy) pieces. While all five
        // peers are seeds (before linger expiry empties the swarm), none
        // remain; after everyone but the original seed departs, every
        // piece is single-copy again.
        let first = result.global_series.first().unwrap();
        let last = result.global_series.last().unwrap();
        assert!(
            first.single_copy_pieces > 0,
            "fresh swarm starts with rare pieces"
        );
        assert!(
            result
                .global_series
                .iter()
                .any(|g| g.live_peers == 5 && g.single_copy_pieces == 0),
            "a fully replicated phase must exist"
        );
        assert_eq!(last.live_peers, 1, "only the lingering seed remains");
        assert_eq!(
            last.single_copy_pieces, 8,
            "a lone seed holds every piece singly"
        );
    }

    #[test]
    fn metrics_are_deterministic_and_do_not_perturb_the_run() {
        let run = |with_metrics: bool| {
            let swarm = Swarm::new(tiny_spec(7));
            if with_metrics {
                swarm.with_metrics(bt_obs::Registry::new_manual()).run()
            } else {
                swarm.run()
            }
        };
        let a = run(true);
        let b = run(true);
        let bare = run(false);
        // Same spec + same seed ⇒ byte-identical snapshot lines.
        let lines_a: Vec<String> = a.metrics.iter().map(|s| s.to_jsonl_line()).collect();
        let lines_b: Vec<String> = b.metrics.iter().map(|s| s.to_jsonl_line()).collect();
        assert!(!lines_a.is_empty());
        assert_eq!(lines_a, lines_b);
        // Attaching metrics must not change what the engines do.
        assert_eq!(a.completion, bare.completion);
        assert_eq!(a.events_processed, bare.events_processed);
        assert_eq!(a.trace.unwrap().events, bare.trace.unwrap().events);
        // The aggregate engine and swarm series actually accumulated.
        let last = a.metrics.last().unwrap();
        assert!(last.counter_sum("core.inputs.message") > 0);
        assert!(last.counter_sum("core.actions.send") > 0);
        assert!(last.counter_sum("core.pieces_completed") > 0);
        assert!(last.counter_sum("sim.events") > 0);
        assert!(last.counter_sum("sim.blocks_delivered") > 0);
        assert_eq!(last.gauge("sim.completed_peers", ""), Some(4));
        // Virtual-clock registry: choke rounds observed, zero-width.
        let hist = last
            .histogram("core.choke_round_us", "")
            .expect("histogram");
        assert!(hist.count > 0);
    }

    #[test]
    fn series_and_health_are_deterministic_and_do_not_perturb_the_run() {
        let run = |with_obs: bool| {
            let swarm = Swarm::new(tiny_spec(7));
            if with_obs {
                let registry = bt_obs::Registry::new_manual();
                let store = bt_obs::SeriesStore::new(&registry);
                let swarm = swarm
                    .with_metrics(registry)
                    .with_series(store.clone())
                    .with_health(bt_analysis::live::Thresholds::default());
                (swarm.run(), Some(store))
            } else {
                (swarm.run(), None)
            }
        };
        let (a, store_a) = run(true);
        let (_b, store_b) = run(true);
        let (bare, _) = run(false);
        // Same spec + seed ⇒ byte-identical series JSON, filtered or not.
        let json_a = store_a.as_ref().unwrap().to_json(None);
        assert_eq!(json_a, store_b.as_ref().unwrap().to_json(None));
        assert_eq!(
            store_a.unwrap().to_json(Some("live.")),
            store_b.unwrap().to_json(Some("live."))
        );
        // Observers must not change what the engines do.
        assert_eq!(a.completion, bare.completion);
        assert_eq!(a.events_processed, bare.events_processed);
        assert_eq!(a.trace.unwrap().events, bare.trace.unwrap().events);
        assert!(bare.health.is_none());
        // Series carry both sampled instruments and monitor floats.
        assert!(json_a.contains("\"name\":\"sim.live_peers\""));
        assert!(json_a.contains("\"name\":\"core.choke.rounds\""));
        assert!(json_a.contains("\"name\":\"live.entropy\""));
        // The tiny swarm is healthy: seed present, tit-for-tat running.
        let health = a.health.expect("health attached");
        assert!(health.samples > 0);
        assert!(health.healthy(), "{}", health.summary_line());
        let snap = a.metrics.last().unwrap();
        assert!(snap.gauge("live.entropy_milli", "").unwrap() > 700);
        assert!(snap.counter_sum("core.choke.flips") > 0);
    }

    #[test]
    fn profiling_is_deterministic_and_does_not_perturb_the_run() {
        let run = |with_profiler: bool| {
            let swarm = Swarm::new(tiny_spec(7));
            if with_profiler {
                swarm
                    .with_profiler(bt_obs::Profiler::new(bt_obs::TimeSource::manual()))
                    .run()
            } else {
                swarm.run()
            }
        };
        let a = run(true);
        let b = run(true);
        let bare = run(false);
        // Same spec + same seed ⇒ byte-identical profile JSON.
        let pa = a.profile.as_ref().expect("profile attached");
        let pb = b.profile.as_ref().expect("profile attached");
        assert_eq!(pa.to_json(), pb.to_json());
        // Attaching a profiler must not change what the engines do.
        assert!(bare.profile.is_none());
        assert_eq!(a.completion, bare.completion);
        assert_eq!(a.events_processed, bare.events_processed);
        assert_eq!(a.trace.unwrap().events, bare.trace.unwrap().events);
        // The instrumented hot paths all recorded, with engine spans
        // nested under the sim dispatch span.
        assert_eq!(
            pa.get(&["sim.event_pop"]).expect("pop span").count,
            a.events_processed
        );
        assert!(pa.get(&["sim.event", "core.handle.message"]).is_some());
        assert!(pa
            .get(&["sim.event", "core.handle.tick", "core.choke_round"])
            .is_some());
        let flat: std::collections::BTreeMap<_, _> = pa.flat().into_iter().collect();
        assert!(flat["core.piece_pick"].count > 0);
    }

    #[test]
    fn small_swarm_completes() {
        let result = Swarm::new(tiny_spec(42)).run();
        assert_eq!(result.completed_peers, 4, "all four leechers finish");
        assert!(result.completion[1].is_some());
        assert!(result.tracker_started >= 5);
        assert!(result.tracker_completed >= 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Swarm::new(tiny_spec(7)).run();
        let b = Swarm::new(tiny_spec(7)).run();
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.completion, b.completion);
        let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
        assert_eq!(ta.events, tb.events);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Swarm::new(tiny_spec(1)).run();
        let b = Swarm::new(tiny_spec(2)).run();
        // Completion *times* will almost surely differ somewhere.
        assert_ne!(
            a.completion, b.completion,
            "two seeds giving identical completions is vanishingly unlikely"
        );
    }

    #[test]
    fn real_data_mode_verifies_hashes() {
        let mut spec = tiny_spec(3);
        spec.real_data = true;
        let result = Swarm::new(spec).run();
        assert_eq!(result.completed_peers, 4);
    }

    #[test]
    fn corruption_is_recovered_from() {
        let mut spec = tiny_spec(4);
        spec.real_data = true;
        spec.corrupt_block_prob = 0.05;
        spec.duration = Duration::from_secs(8000);
        let result = Swarm::new(spec).run();
        // Hash failures force re-downloads but the swarm still finishes.
        assert!(
            result.completed_peers >= 3,
            "completed {}",
            result.completed_peers
        );
        let trace = result.trace.unwrap();
        let failures = trace
            .iter()
            .filter(|(_, e)| matches!(e, bt_instrument::trace::TraceEvent::PieceFailed { .. }))
            .count();
        // With 5% corruption over ~128 blocks, some piece failures are
        // overwhelmingly likely across the swarm; the local peer sees a
        // share of them. (Not asserting > 0 strictly for tiny traces.)
        let _ = failures;
    }

    #[test]
    fn trace_records_essentials() {
        let result = Swarm::new(tiny_spec(5)).run();
        let trace = result.trace.unwrap();
        use bt_instrument::trace::TraceEvent as E;
        let has = |f: &dyn Fn(&E) -> bool| trace.iter().any(|(_, e)| f(e));
        assert!(has(&|e| matches!(e, E::PeerJoined { .. })));
        assert!(has(&|e| matches!(e, E::BlockReceived { .. })));
        assert!(has(&|e| matches!(e, E::PieceCompleted { .. })));
        assert!(has(&|e| matches!(e, E::BecameSeed)));
        assert!(has(&|e| matches!(e, E::LocalChoke { .. })));
        assert!(has(&|e| matches!(e, E::AvailabilitySample { .. })));
        assert_eq!(trace.meta.seed_at, result.completion[1]);
    }

    #[test]
    fn churners_leave_quickly() {
        let mut spec = tiny_spec(6);
        spec.peers.push(BehaviorProfile {
            role: Role::Churner,
            ..BehaviorProfile::leecher(Duration::from_secs(5))
        });
        let result = Swarm::new(spec).run();
        // The churner (index 5) must not complete.
        assert_eq!(result.completion[5], None);
        assert_eq!(result.completed_peers, 4);
    }

    #[test]
    fn free_rider_still_completes_via_excess_capacity() {
        let mut spec = tiny_spec(8);
        spec.peers.push(BehaviorProfile {
            role: Role::FreeRider,
            ..BehaviorProfile::leecher(Duration::ZERO)
        });
        spec.duration = Duration::from_secs(12_000);
        let result = Swarm::new(spec).run();
        // §IV-B: the choke algorithm lets free riders use excess capacity
        // (they are not starved outright), they just must not beat
        // contributors. In this tiny swarm it should eventually finish.
        assert!(
            result.completion[5].is_some(),
            "free rider starved entirely"
        );
    }
}
