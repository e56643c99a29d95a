//! The BitTorrent client engine.
//!
//! An [`Engine`] is one peer's complete protocol brain: peer-set
//! management (§II-B), interest tracking, the piece pipeline (rarest
//! first + strict priority + end game via `bt-piece`), and the choke
//! algorithm (`bt-choke`). It is transport-agnostic and clock-agnostic:
//! a *driver* — the discrete-event simulator in `bt-sim`, the real
//! socket runtime in `bt-net`, or a test — feeds it [`Input`] events
//! through the single [`Engine::handle`] entry point and executes the
//! [`Action`]s it emits. See [`crate::driver`] for the full contract.
//!
//! The engine is what the paper instruments; constructing it with
//! [`crate::EngineBuilder::recorder`] attaches the §III-C trace log.

use crate::builder::EngineBuilder;
use crate::config::Config;
use crate::connection::{ConnId, ConnTable, Connection};
use crate::content::{DataMode, PieceBuffer};
use crate::driver::{Actions, Input};
use crate::error::EngineError;
use crate::metrics::EngineMetrics;
use bt_choke::{Choker, PeerSnapshot, RECHOKE_PERIOD};
use bt_instrument::trace::{Trace, TraceEvent, UnchokeRole};
use bt_obs::{Profiler, TraceCat, Tracer};
use bt_piece::{Availability, Bitfield, Geometry, PickContext, PiecePicker, RequestScheduler};
use bt_wire::fast;
use bt_wire::message::{BlockRef, Message};
use bt_wire::peer_id::{IpAddr, PeerId};
use bt_wire::sha1::Digest;
use bt_wire::time::{Duration, Instant};
use bt_wire::tracker::{AnnounceEvent, PeerEntry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};

/// Outstanding block requests kept in flight per unchoked peer.
const PIPELINE_DEPTH: usize = 8;

/// A connection the local peer has sent nothing on for this long gets a
/// keep-alive.
const KEEPALIVE: Duration = Duration(120_000_000);

/// Minimum spacing between `ut_pex` gossips per connection.
const PEX_INTERVAL: Duration = Duration(60_000_000);

/// Capabilities a remote peer advertised in its handshake reserved bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerCaps {
    /// Fast Extension (BEP 6, `reserved[7] & 0x04`).
    pub fast: bool,
    /// Extension protocol (BEP 10, `reserved[5] & 0x10`).
    pub extended: bool,
}

impl PeerCaps {
    /// Decode capabilities from handshake reserved bytes.
    pub fn from_reserved(reserved: &[u8; 8]) -> PeerCaps {
        PeerCaps {
            fast: bt_wire::fast::supports_fast(reserved),
            extended: bt_wire::extension::supports_extended(reserved),
        }
    }
}

/// An effect the engine wants the outside world to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Transmit a control message on a connection (low latency path).
    Send {
        /// Target connection.
        conn: ConnId,
        /// The message.
        msg: Message,
    },
    /// Enqueue a block for upload on a connection; the transport paces it
    /// at the peer's upload capacity and delivers it as a `piece` message.
    SendBlock {
        /// Target connection.
        conn: ConnId,
        /// Which block to serve.
        block: BlockRef,
    },
    /// Drop a queued-but-unsent block (remote sent `cancel`).
    CancelBlock {
        /// Target connection.
        conn: ConnId,
        /// Which block.
        block: BlockRef,
    },
    /// Close a connection (engine already cleaned up its state).
    Disconnect {
        /// The connection to close.
        conn: ConnId,
    },
    /// Announce to the tracker.
    Announce {
        /// The announce event.
        event: AnnounceEvent,
    },
    /// Open a connection to a peer learned from the tracker.
    Connect {
        /// The peer to dial.
        peer: PeerEntry,
    },
    /// The engine (re)armed its periodic timer: feed [`Input::Tick`] at
    /// (or any time after) `at`. Supersedes any earlier `SetTimer`; the
    /// current deadline is also readable via [`Engine::next_wakeup`].
    /// Ticking early or on a stale deadline is a harmless no-op, so
    /// drivers need not cancel superseded timers.
    SetTimer {
        /// Absolute deadline for the next [`Input::Tick`].
        at: Instant,
    },
}

/// One peer's protocol engine.
pub struct Engine {
    config: Config,
    geometry: Geometry,
    data: DataMode,
    info_hash: Digest,
    peer_id: PeerId,
    ip: IpAddr,

    own: Bitfield,
    availability: Availability,
    scheduler: RequestScheduler<ConnId>,
    picker: Box<dyn PiecePicker>,
    leecher_choker: Box<dyn Choker>,
    seed_choker: Box<dyn Choker>,

    conns: ConnTable,
    connected_ips: HashSet<IpAddr>,
    initiated_open: usize,
    pending_dials: usize,
    candidate_pool: VecDeque<PeerEntry>,

    buffers: HashMap<u32, PieceBuffer>,
    is_seed: bool,
    seed_at: Option<Instant>,
    endgame_recorded: bool,
    last_announce: Instant,
    /// Deadline of the next periodic (rechoke) round; `None` until the
    /// session starts. Armed by [`Engine::handle`] on [`Input::Start`],
    /// re-armed after every round, overridable via
    /// [`Engine::schedule_rechoke`].
    next_rechoke: Option<Instant>,
    /// Super-seed state: how many peers each piece has been revealed
    /// to, used to pick the least-revealed piece next (what was revealed
    /// to whom is on the [`Connection`]).
    reveal_counts: Vec<u32>,
    /// Reused by [`Engine::fill_requests`] so a top-up allocates nothing.
    request_buf: Vec<BlockRef>,

    rng: SmallRng,
    actions: Actions,
    trace: Option<Trace>,
    metrics: Option<EngineMetrics>,
    profiler: Profiler,
    /// When set, every rechoke round leaves a full per-peer audit in
    /// `choke_audit` and every piece pick appends to `pick_log`.
    audit_choke: bool,
    /// The last round's audit; `entries` is refilled in place.
    choke_audit: ChokeAudit,
    /// A round has run since [`Engine::clear_audit`].
    choke_audit_fresh: bool,
    pick_log: Vec<PickEvent>,
}

/// One peer's line in a [`ChokeAudit`]: the rate inputs the choker
/// saw, the rank it earned, and the slot outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChokeAuditEntry {
    /// Connection audited.
    pub conn: ConnId,
    /// Remote interest at decision time.
    pub interested: bool,
    /// Snub state at decision time (§II-C.2 anti-snubbing).
    pub snubbed: bool,
    /// Download rate input (B/s, the leecher-state ranking signal).
    pub download_rate: f64,
    /// Upload rate input (B/s).
    pub upload_rate: f64,
    /// 0-based position in the round's download-rate ranking.
    pub rank: u32,
    /// Slot held after the round; `None` = choked.
    pub outcome: Option<UnchokeRole>,
}

/// Full audit of one rechoke round: every connection's inputs,
/// ranking, and outcome — the raw material of the choke-decision
/// audit trail. Produced only by an engine built with
/// [`EngineBuilder::choke_audit`]; read through
/// [`Engine::choke_audit`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChokeAudit {
    /// When the round ran.
    pub at: Instant,
    /// Whether the seed-state algorithm decided this round.
    pub is_seed: bool,
    /// Holder of the optimistic (leecher) / seed-random slot.
    pub optimistic: Option<ConnId>,
    /// Choke-state changes sent this round.
    pub flips: u32,
    /// One entry per connection, in rank order.
    pub entries: Vec<ChokeAuditEntry>,
}

impl ChokeAudit {
    /// Copy the round into a causal tracer on chain `id`: one `round`
    /// record, then one `audit` per ranked peer. `resolve` names a
    /// connection in the trace — the simulator maps it to the remote's
    /// global peer index, the socket runtime has only the local id.
    pub fn trace(&self, tracer: &Tracer, now: Instant, id: u64, resolve: impl Fn(ConnId) -> i64) {
        tracer.record(
            now.0,
            TraceCat::Choke,
            "round",
            id,
            &[
                ("is_seed", i64::from(self.is_seed)),
                ("flips", i64::from(self.flips)),
                ("peers", self.entries.len() as i64),
                ("optimistic", self.optimistic.map_or(-1, &resolve)),
            ],
        );
        for e in &self.entries {
            tracer.record(
                now.0,
                TraceCat::Choke,
                "audit",
                id,
                &[
                    ("peer", resolve(e.conn)),
                    ("rank", i64::from(e.rank)),
                    ("down_bps", e.download_rate as i64),
                    ("up_bps", e.upload_rate as i64),
                    ("interested", i64::from(e.interested)),
                    ("snubbed", i64::from(e.snubbed)),
                    ("outcome", UnchokeRole::outcome_code(e.outcome)),
                ],
            );
        }
    }
}

/// One piece pick, recorded when the choke audit is enabled — the
/// picker-side input (`availability` at pick time) of a
/// request-provenance chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PickEvent {
    /// Connection the request was scheduled on.
    pub conn: ConnId,
    /// Piece picked.
    pub piece: u32,
    /// Local availability count of that piece at pick time (the
    /// rarest-first ranking input).
    pub availability: u32,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("peer_id", &self.peer_id)
            .field("ip", &self.ip)
            .field(
                "pieces",
                &format!("{}/{}", self.own.count_ones(), self.own.len()),
            )
            .field("conns", &self.conns.len())
            .field("is_seed", &self.is_seed)
            .finish()
    }
}

/// Span name for one [`Input`] variant (`core.handle.*`), so profiles
/// break engine time down per input kind. See DESIGN.md §"Observability"
/// for the naming convention.
fn input_span_name(input: &Input) -> &'static str {
    match input {
        Input::Start => "core.handle.start",
        Input::Tick => "core.handle.tick",
        Input::TrackerResponse { .. } => "core.handle.tracker_response",
        Input::PeerConnected { .. } => "core.handle.peer_connected",
        Input::ConnectFailed => "core.handle.connect_failed",
        Input::PeerDisconnected { .. } => "core.handle.peer_disconnected",
        Input::Message { .. } => "core.handle.message",
        Input::BlockSent { .. } => "core.handle.block_sent",
    }
}

impl Engine {
    /// Construct from an [`EngineBuilder`] (the only constructor).
    pub(crate) fn from_builder(b: EngineBuilder) -> Engine {
        let EngineBuilder {
            config,
            geometry,
            data,
            info_hash,
            peer_id,
            ip,
            initial_pieces,
            seed,
            recorder,
            metrics,
            profiler,
            choke_audit,
        } = b;
        let num_pieces = geometry.num_pieces();
        let initial_pieces = initial_pieces.unwrap_or_else(|| Bitfield::new(num_pieces));
        assert_eq!(initial_pieces.len(), num_pieces);
        let is_seed = initial_pieces.is_complete();
        let picker = config.picker.build(num_pieces);
        let leecher_choker = config.choker.build_leecher();
        let seed_choker = config.choker.build_seed();
        let config_endgame = config.endgame_enabled;
        Engine {
            config,
            geometry,
            data,
            info_hash,
            peer_id,
            ip,
            own: initial_pieces,
            availability: Availability::new(num_pieces),
            scheduler: {
                let mut s = RequestScheduler::new(geometry);
                s.set_endgame_enabled(config_endgame);
                s
            },
            picker,
            leecher_choker,
            seed_choker,
            conns: ConnTable::default(),
            connected_ips: HashSet::new(),
            initiated_open: 0,
            pending_dials: 0,
            candidate_pool: VecDeque::new(),
            buffers: HashMap::new(),
            is_seed,
            seed_at: if is_seed { Some(Instant::ZERO) } else { None },
            endgame_recorded: false,
            last_announce: Instant::ZERO,
            next_rechoke: None,
            reveal_counts: vec![0; num_pieces as usize],
            request_buf: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            actions: Actions::default(),
            trace: recorder.map(Trace::new),
            metrics,
            profiler,
            audit_choke: choke_audit,
            choke_audit: ChokeAudit::default(),
            choke_audit_fresh: false,
            pick_log: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The engine's peer ID.
    pub fn peer_id(&self) -> PeerId {
        self.peer_id
    }

    /// The torrent's info-hash.
    pub fn info_hash(&self) -> Digest {
        self.info_hash
    }

    /// Reserved bytes to advertise in outgoing handshakes.
    pub fn handshake_reserved(&self) -> [u8; 8] {
        let mut reserved = [0u8; 8];
        if self.config.fast_extension {
            fast::advertise_fast(&mut reserved);
        }
        if self.config.pex_enabled {
            bt_wire::extension::advertise_extended(&mut reserved);
        }
        reserved
    }

    /// The engine's IP address.
    pub fn ip(&self) -> IpAddr {
        self.ip
    }

    /// Where block payloads come from: a socket driver materialises
    /// [`Action::SendBlock`] from it.
    pub fn data(&self) -> &DataMode {
        &self.data
    }

    /// The local bitfield.
    pub fn own_pieces(&self) -> &Bitfield {
        &self.own
    }

    /// Number of verified pieces.
    pub fn num_pieces_have(&self) -> u32 {
        self.own.count_ones()
    }

    /// True once the download completed (or the engine started as seed).
    pub fn is_seed(&self) -> bool {
        self.is_seed
    }

    /// When the engine became a seed.
    pub fn seed_at(&self) -> Option<Instant> {
        self.seed_at
    }

    /// Current peer set size.
    pub fn peer_set_size(&self) -> usize {
        self.conns.len()
    }

    /// Piece availability over the current peer set.
    pub fn availability(&self) -> &Availability {
        &self.availability
    }

    /// Whether end game mode is active.
    pub fn in_endgame(&self) -> bool {
        self.scheduler.in_endgame()
    }

    /// Iterate over connections in ascending [`ConnId`] (read-only view
    /// for the harness).
    pub fn connections(&self) -> impl Iterator<Item = &Connection> {
        self.conns.iter()
    }

    /// Connection by id.
    pub fn connection(&self, conn: ConnId) -> Option<&Connection> {
        self.conns.get(conn)
    }

    /// Take ownership of the recorded trace (ends recording).
    pub fn take_trace(&mut self) -> Option<Trace> {
        let mut trace = self.trace.take();
        if let Some(tr) = trace.as_mut() {
            tr.meta.seed_at = self.seed_at;
        }
        trace
    }

    /// Drain accumulated actions (equivalent to
    /// [`Actions::take`] on the buffer returned by [`Engine::handle`]).
    pub fn drain_actions(&mut self) -> Vec<Action> {
        self.actions.take()
    }

    /// Feed global per-piece copy counts to the picker (only the
    /// global-rarest oracle baseline consumes them).
    pub fn update_global_counts(&mut self, counts: &[u32]) {
        self.picker.update_global(counts);
    }

    fn record(&mut self, now: Instant, event: TraceEvent) {
        if let Some(tr) = self.trace.as_mut() {
            tr.push(now, event);
        }
    }

    // ------------------------------------------------------------------
    // The sans-io entry point
    // ------------------------------------------------------------------

    /// Feed one [`Input`] event through the state machine and return the
    /// accumulated [`Actions`] for the driver to execute.
    ///
    /// This is the engine's single entry point; see [`crate::driver`]
    /// for the full contract. Malformed remote input never panics: the
    /// offending connection is removed, [`Action::Disconnect`] is
    /// emitted, and the [`EngineError`] is readable via
    /// [`Actions::take_error`].
    pub fn handle(&mut self, now: Instant, input: Input) -> &mut Actions {
        let _span_guard = self.profiler.span(input_span_name(&input));
        self.actions.accepted = None;
        self.actions.error = None;
        let emitted_before = self.actions.items.len();
        if let Some(m) = &self.metrics {
            m.count_input(&input);
        }
        match input {
            Input::Start => self.do_start(now),
            Input::Tick => self.do_tick(now),
            Input::TrackerResponse { peers } => self.do_tracker_response(now, peers),
            Input::PeerConnected {
                ip,
                peer_id,
                initiated_by_us,
                caps,
            } => {
                self.actions.accepted =
                    self.do_peer_connected(now, ip, peer_id, initiated_by_us, caps);
            }
            Input::ConnectFailed => self.do_connect_failed(now),
            Input::PeerDisconnected { conn } => self.do_peer_disconnected(now, conn),
            Input::Message { conn, msg } => {
                if let Err(err) = self.do_message(now, conn, msg) {
                    let conn = err.conn();
                    self.cleanup_conn(now, conn);
                    self.actions.push(Action::Disconnect { conn });
                    if let Some(m) = &self.metrics {
                        m.count_error(&err);
                    }
                    self.actions.error = Some(err);
                }
            }
            Input::BlockSent { conn, block } => self.do_block_sent(now, conn, block),
        }
        if let Some(m) = &self.metrics {
            for action in &self.actions.items[emitted_before..] {
                m.count_action(action);
            }
        }
        &mut self.actions
    }

    /// The deadline of the next pending timer, for pull-style drivers
    /// (push-style drivers follow [`Action::SetTimer`] instead). `None`
    /// until [`Input::Start`] arms the periodic round.
    pub fn next_wakeup(&self) -> Option<Instant> {
        self.next_rechoke
    }

    /// Override the next periodic-round deadline (emits
    /// [`Action::SetTimer`]). Drivers use this to stagger choke rounds
    /// across a swarm, or to keep an established round cadence across an
    /// engine rebuild.
    pub fn schedule_rechoke(&mut self, at: Instant) {
        self.arm_rechoke(at);
    }

    fn arm_rechoke(&mut self, at: Instant) {
        self.next_rechoke = Some(at);
        self.actions.push(Action::SetTimer { at });
    }

    /// Run every periodic duty whose deadline has passed; early or stale
    /// ticks fall through untouched.
    fn do_tick(&mut self, now: Instant) {
        if let Some(at) = self.next_rechoke {
            if now >= at {
                self.rechoke(now);
                self.arm_rechoke(now + RECHOKE_PERIOD);
            }
        }
    }

    // ------------------------------------------------------------------
    // Session lifecycle
    // ------------------------------------------------------------------

    fn do_start(&mut self, now: Instant) {
        self.last_announce = now;
        self.actions.push(Action::Announce {
            event: AnnounceEvent::Started,
        });
        self.arm_rechoke(now + RECHOKE_PERIOD);
    }

    fn do_tracker_response(&mut self, _now: Instant, peers: Vec<PeerEntry>) {
        for p in peers {
            if p.ip != self.ip && !self.connected_ips.contains(&p.ip) {
                self.candidate_pool.push_back(p);
            }
        }
        self.dial_candidates();
    }

    fn dial_candidates(&mut self) {
        while self.initiated_open + self.pending_dials < self.config.max_initiated
            && self.conns.len() + self.pending_dials < self.config.max_peer_set
        {
            let Some(peer) = self.candidate_pool.pop_front() else {
                break;
            };
            if self.connected_ips.contains(&peer.ip) {
                continue;
            }
            self.pending_dials += 1;
            self.actions.push(Action::Connect { peer });
        }
    }

    /// Does the peer set have room for a connection to `ip`? It is full
    /// at `max_peer_set`, and it never holds two connections to one
    /// address (§III-D: mainline's one-connection-per-IP default).
    fn admits(&self, ip: IpAddr) -> bool {
        self.conns.len() < self.config.max_peer_set && !self.connected_ips.contains(&ip)
    }

    fn do_peer_connected(
        &mut self,
        now: Instant,
        ip: IpAddr,
        peer_id: PeerId,
        initiated_by_us: bool,
        caps: PeerCaps,
    ) -> Option<ConnId> {
        if initiated_by_us {
            self.pending_dials = self.pending_dials.saturating_sub(1);
        }
        if !self.admits(ip) {
            return None;
        }
        let id = self.conns.next_id();
        let mut conn = Connection::new(
            id,
            ip,
            peer_id,
            initiated_by_us,
            self.geometry.num_pieces(),
            now,
        );
        conn.fast = self.config.fast_extension && caps.fast;
        conn.extended = self.config.pex_enabled && caps.extended;
        let is_fast = conn.fast;
        let is_extended = conn.extended;
        self.conns.insert(conn);
        self.connected_ips.insert(ip);
        if initiated_by_us {
            self.initiated_open += 1;
        }
        // Advertise our pieces. A super seed hides them and reveals via
        // `have` messages instead (§IV-A.1's entropy artefact). With the
        // Fast Extension, full and empty maps use the compact forms.
        if self.config.super_seed {
            let empty = Bitfield::new(self.geometry.num_pieces());
            if is_fast {
                self.send(now, id, Message::HaveNone);
            } else {
                self.send(now, id, Message::Bitfield(empty.to_wire()));
            }
        } else if is_fast && self.own.is_complete() {
            self.send(now, id, Message::HaveAll);
        } else if is_fast && self.own.count_ones() == 0 {
            self.send(now, id, Message::HaveNone);
        } else {
            let bits = self.own.to_wire();
            self.send(now, id, Message::Bitfield(bits));
        }
        // Fast Extension: grant the canonical allowed-fast set (BEP 6),
        // the bootstrap for the paper's §VI first-blocks problem.
        if is_fast && !self.config.super_seed {
            let grants = fast::allowed_fast_set(
                ip,
                &self.info_hash,
                self.geometry.num_pieces(),
                fast::DEFAULT_ALLOWED_FAST,
            );
            for &piece in &grants {
                self.send(now, id, Message::AllowedFast(piece));
            }
            self.conns
                .get_mut(id)
                .expect("just inserted")
                .allowed_fast_sent = grants;
        }
        // Extension protocol: advertise ut_pex in the extension handshake.
        if is_extended {
            let hs = bt_wire::extension::ExtendedHandshake::with_pex();
            self.send(
                now,
                id,
                Message::Extended {
                    ext_id: bt_wire::extension::HANDSHAKE_ID,
                    payload: hs.encode(),
                },
            );
        }
        // Super seeding: advertise nothing, then reveal exactly one piece
        // (the globally least-revealed) to the new peer via `have`.
        if self.config.super_seed {
            self.reveal_next_piece(now, id);
        }
        Some(id)
    }

    /// Send `ut_pex` deltas (current peer set vs. last gossip) to every
    /// pex-capable connection whose interval elapsed.
    fn send_pex_rounds(&mut self, now: Instant) {
        let current: Vec<IpAddr> = {
            let mut v: Vec<IpAddr> = self.conns.iter().map(|c| c.ip).collect();
            v.sort_unstable();
            v
        };
        for id in 0..self.conns.next_id() {
            let (ext_id, added, dropped) = {
                let Some(c) = self.conns.get_mut(id) else {
                    continue;
                };
                let Some(ext_id) = c.remote_pex_id else {
                    continue;
                };
                if now.saturating_since(c.last_pex) < PEX_INTERVAL {
                    continue;
                }
                c.last_pex = now;
                let own_ip = c.ip;
                let added: Vec<PeerEntry> = current
                    .iter()
                    .filter(|ip| **ip != own_ip && !c.pex_sent.contains(ip))
                    .map(|&ip| PeerEntry { ip, port: 6881 })
                    .collect();
                let dropped: Vec<PeerEntry> = c
                    .pex_sent
                    .iter()
                    .filter(|ip| !current.contains(ip))
                    .map(|&ip| PeerEntry { ip, port: 6881 })
                    .collect();
                c.pex_sent = current.iter().copied().filter(|ip| *ip != own_ip).collect();
                (ext_id, added, dropped)
            };
            if added.is_empty() && dropped.is_empty() {
                continue;
            }
            let payload = bt_wire::extension::PexPayload { added, dropped }.encode();
            self.send(now, id, Message::Extended { ext_id, payload });
        }
    }

    /// Super-seeding: offer `conn` the least-revealed piece it has not
    /// been offered yet. Minimising reveal counts is what keeps the
    /// initial seed's duplicate-piece ratio low (§IV-A.4).
    fn reveal_next_piece(&mut self, now: Instant, conn: ConnId) {
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        let mut best: Option<(u32, u32)> = None; // (count, piece)
        for piece in self.own.iter_ones() {
            if c.revealed.contains(&piece) {
                continue;
            }
            let count = self.reveal_counts[piece as usize];
            if best.is_none_or(|(c, p)| count < c || (count == c && piece < p)) {
                best = Some((count, piece));
            }
        }
        if let Some((_, piece)) = best {
            self.reveal_counts[piece as usize] += 1;
            c.revealed.insert(piece);
            self.send(now, conn, Message::Have(piece));
        }
    }

    fn do_connect_failed(&mut self, _now: Instant) {
        self.pending_dials = self.pending_dials.saturating_sub(1);
        self.dial_candidates();
    }

    fn do_peer_disconnected(&mut self, now: Instant, conn: ConnId) {
        self.cleanup_conn(now, conn);
        self.dial_candidates();
    }

    fn cleanup_conn(&mut self, now: Instant, conn: ConnId) {
        let Some(c) = self.conns.remove(conn) else {
            return;
        };
        self.connected_ips.remove(&c.ip);
        if c.initiated_by_us {
            self.initiated_open = self.initiated_open.saturating_sub(1);
        }
        if c.in_peer_set {
            self.availability.remove_peer(&c.bitfield);
            self.record(now, TraceEvent::PeerLeft { peer: conn });
        }
        let _dropped = self.scheduler.on_peer_gone(conn);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn do_message(&mut self, now: Instant, conn: ConnId, msg: Message) -> Result<(), EngineError> {
        if self.conns.get(conn).is_none() {
            return Ok(()); // raced a disconnect, or an id never issued
        }
        if self.trace.is_some() {
            // §III-C: a log of each message received. Piece payloads and
            // choke/interest transitions also get dedicated richer events.
            let kind = msg.kind();
            self.record(
                now,
                TraceEvent::Message {
                    peer: conn,
                    kind,
                    sent: false,
                },
            );
        }
        match msg {
            Message::KeepAlive | Message::Port(_) => {}
            Message::Bitfield(bits) => self.on_bitfield(now, conn, &bits)?,
            Message::Have(piece) => self.on_have(now, conn, piece)?,
            Message::Interested => self.on_remote_interest(now, conn, true),
            Message::NotInterested => self.on_remote_interest(now, conn, false),
            Message::Choke => self.on_remote_choke(now, conn, true),
            Message::Unchoke => self.on_remote_choke(now, conn, false),
            Message::Request(block) => self.on_request(now, conn, block)?,
            Message::Piece { block, data } => self.on_piece(now, conn, block, data)?,
            Message::Cancel(block) => {
                self.check_block(conn, block)?;
                self.actions.push(Action::CancelBlock { conn, block });
            }
            Message::Suggest(_) => {
                // Advisory only; the rarest-first picker ignores hints.
            }
            Message::HaveAll => {
                let full = Bitfield::full(self.geometry.num_pieces());
                self.on_bitfield(now, conn, &full.to_wire())?;
            }
            Message::HaveNone => {
                let empty = Bitfield::new(self.geometry.num_pieces());
                self.on_bitfield(now, conn, &empty.to_wire())?;
            }
            Message::RejectRequest(block) => self.on_reject(now, conn, block),
            Message::AllowedFast(piece) => self.on_allowed_fast(now, conn, piece),
            Message::Extended { ext_id, payload } => self.on_extended(now, conn, ext_id, &payload),
        }
        Ok(())
    }

    /// Validate that `block` lies on the torrent's 16 kB block grid —
    /// the precondition [`Geometry::block_ref`] debug-asserts. A remote
    /// peer can ship arbitrary `(piece, offset, length)` triples, so
    /// every block arriving off the wire passes through here before any
    /// geometry arithmetic.
    fn check_block(&self, conn: ConnId, block: BlockRef) -> Result<(), EngineError> {
        let malformed = EngineError::MalformedBlock { conn, block };
        if block.piece >= self.geometry.num_pieces() {
            return Err(malformed);
        }
        if !block.offset.is_multiple_of(bt_wire::metainfo::BLOCK_LEN)
            || block.block_index() >= self.geometry.blocks_in_piece(block.piece)
        {
            return Err(malformed);
        }
        if self.geometry.block_ref(block.piece, block.block_index()) != block {
            return Err(malformed);
        }
        Ok(())
    }

    fn on_extended(&mut self, now: Instant, conn: ConnId, ext_id: u8, payload: &[u8]) {
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        if !c.extended {
            return; // extension frames without negotiation: ignore
        }
        if ext_id == bt_wire::extension::HANDSHAKE_ID {
            if let Ok(hs) = bt_wire::extension::ExtendedHandshake::decode(payload) {
                c.remote_pex_id = hs.ut_pex_id();
            }
            return;
        }
        // ut_pex gossip arrives under the ID *we* advertised.
        if ext_id == bt_wire::extension::UT_PEX_LOCAL_ID {
            if let Ok(pex) = bt_wire::extension::PexPayload::decode(payload) {
                let _ = now;
                for p in pex.added {
                    if p.ip != self.ip && !self.connected_ips.contains(&p.ip) {
                        self.candidate_pool.push_back(p);
                    }
                }
                self.dial_candidates();
            }
        }
    }

    fn on_bitfield(&mut self, now: Instant, conn: ConnId, bits: &[u8]) -> Result<(), EngineError> {
        let num_pieces = self.geometry.num_pieces();
        let Some(bf) = Bitfield::from_wire(bits, num_pieces) else {
            // Protocol violation: `handle` drops the peer.
            return Err(EngineError::BadBitfield {
                conn,
                len: bits.len(),
            });
        };
        let c = self.conns.get_mut(conn).expect("checked");
        c.bitfield = bf;
        if !c.in_peer_set {
            c.in_peer_set = true;
            self.availability.add_peer(&c.bitfield);
            let joined = TraceEvent::PeerJoined {
                peer: conn,
                ip: c.ip,
                peer_id: c.peer_id,
                pieces_on_arrival: c.bitfield.count_ones(),
                total_pieces: num_pieces,
            };
            self.record(now, joined);
        }
        self.after_remote_pieces_changed(now, conn);
        Ok(())
    }

    fn on_have(&mut self, now: Instant, conn: ConnId, piece: u32) -> Result<(), EngineError> {
        if piece >= self.geometry.num_pieces() {
            return Err(EngineError::PieceOutOfRange {
                conn,
                piece,
                num_pieces: self.geometry.num_pieces(),
            });
        }
        let c = self.conns.get_mut(conn).expect("checked");
        let newly = c.bitfield.set(piece);
        if newly && c.in_peer_set {
            self.availability.add_have(piece);
        }
        // Super seeding: a peer confirming a piece we revealed to it is
        // the trigger to offer it the next one.
        if self.config.super_seed && newly && c.revealed.contains(&piece) {
            self.reveal_next_piece(now, conn);
        }
        self.after_remote_pieces_changed(now, conn);
        Ok(())
    }

    /// Remote gained pieces: refresh interest, drop seed↔seed links, and
    /// top up the request pipeline.
    fn after_remote_pieces_changed(&mut self, now: Instant, conn: ConnId) {
        if self.is_seed && self.conns.get(conn).is_some_and(Connection::is_seed) {
            // Seeds have nothing to exchange (§IV-A.2.b: "when a leecher
            // becomes a seed, it closes its connections to all the seeds").
            self.cleanup_conn(now, conn);
            self.actions.push(Action::Disconnect { conn });
            return;
        }
        self.update_local_interest(now, conn);
        self.fill_requests(now, conn);
    }

    fn on_remote_interest(&mut self, now: Instant, conn: ConnId, interested: bool) {
        {
            let c = self.conns.get_mut(conn).expect("checked");
            if c.peer_interested == interested {
                return;
            }
            c.peer_interested = interested;
        }
        self.record(
            now,
            TraceEvent::RemoteInterest {
                peer: conn,
                interested,
            },
        );
    }

    fn on_remote_choke(&mut self, now: Instant, conn: ConnId, choked: bool) {
        {
            let c = self.conns.get_mut(conn).expect("checked");
            if c.peer_choking == choked {
                return;
            }
            c.peer_choking = choked;
        }
        self.record(now, TraceEvent::RemoteChoke { peer: conn, choked });
        if choked {
            // Mainline drops outstanding requests on choke.
            let _ = self.scheduler.on_choked(conn);
            // Allowed-fast pieces remain requestable while choked.
            if self.conns.get(conn).is_some_and(|c| c.fast) {
                self.fill_requests(now, conn);
            }
        } else {
            self.fill_requests(now, conn);
        }
    }

    fn on_reject(&mut self, now: Instant, conn: ConnId, block: BlockRef) {
        let Some(c) = self.conns.get(conn) else {
            return;
        };
        if !c.fast {
            return; // protocol violation outside the Fast Extension
        }
        let _ = self.scheduler.on_request_rejected(conn, block);
        let _ = now;
    }

    fn on_allowed_fast(&mut self, now: Instant, conn: ConnId, piece: u32) {
        if piece >= self.geometry.num_pieces() {
            return;
        }
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        if !c.fast {
            return;
        }
        c.allowed_fast_received.insert(piece);
        // The grant may make a choked connection usable right away.
        self.fill_requests(now, conn);
    }

    fn on_request(
        &mut self,
        now: Instant,
        conn: ConnId,
        block: BlockRef,
    ) -> Result<(), EngineError> {
        // Off-grid requests are protocol violations (and would trip the
        // geometry arithmetic); a request for a piece we merely don't
        // have is a legitimate race and stays a reject/ignore below.
        self.check_block(conn, block)?;
        if self.config.upload_disabled {
            return Ok(()); // free rider: silently ignore
        }
        let Some(c) = self.conns.get(conn) else {
            return Ok(());
        };
        if !self.own.get(block.piece) {
            if c.fast {
                self.send(now, conn, Message::RejectRequest(block));
            }
            return Ok(());
        }
        if c.am_choking {
            // Fast Extension: allowed-fast pieces are served even while
            // choked; everything else gets an explicit reject (the base
            // protocol silently drops).
            if c.fast {
                if c.allowed_fast_sent.contains(&block.piece) {
                    self.actions.push(Action::SendBlock { conn, block });
                    return Ok(());
                }
                self.send(now, conn, Message::RejectRequest(block));
            }
            return Ok(());
        }
        let _ = now;
        self.actions.push(Action::SendBlock { conn, block });
        Ok(())
    }

    fn do_block_sent(&mut self, now: Instant, conn: ConnId, block: BlockRef) {
        if let Some(c) = self.conns.get_mut(conn) {
            c.upload.record(now, u64::from(block.length));
            c.last_sent = now;
        }
        if self.trace.is_some() {
            self.record(
                now,
                TraceEvent::Message {
                    peer: conn,
                    kind: bt_wire::message::MessageKind::Piece,
                    sent: true,
                },
            );
        }
        self.record(now, TraceEvent::BlockSent { peer: conn, block });
    }

    fn on_piece(
        &mut self,
        now: Instant,
        conn: ConnId,
        block: BlockRef,
        data: bytes::Bytes,
    ) -> Result<(), EngineError> {
        self.check_block(conn, block)?;
        {
            let Some(c) = self.conns.get_mut(conn) else {
                return Ok(());
            };
            c.download.record(now, u64::from(block.length));
            c.last_block_received = Some(now);
        }
        let receipt = self.scheduler.on_block_received(conn, block);
        if !receipt.accepted {
            return Ok(());
        }
        self.record(now, TraceEvent::BlockReceived { peer: conn, block });
        if self.data.is_real() {
            let buf = self
                .buffers
                .entry(block.piece)
                .or_insert_with(|| PieceBuffer::new(self.geometry.blocks_in_piece(block.piece)));
            buf.store(block.block_index(), data);
        }
        for (other, cancel) in receipt.cancels {
            self.send(now, other, Message::Cancel(cancel));
        }
        if let Some(piece) = receipt.completed_piece {
            self.on_piece_complete(now, piece);
        }
        self.fill_requests(now, conn);
        Ok(())
    }

    fn on_piece_complete(&mut self, now: Instant, piece: u32) {
        let ok = if self.data.is_real() {
            let assembled = self
                .buffers
                .remove(&piece)
                .and_then(|b| b.assemble())
                .unwrap_or_default();
            self.data.verify_piece(piece, &assembled)
        } else {
            true
        };
        if !ok {
            self.scheduler.on_piece_failed(piece);
            self.record(now, TraceEvent::PieceFailed { piece });
            if let Some(m) = &self.metrics {
                m.pieces_failed.inc();
            }
            return;
        }
        self.scheduler.on_piece_verified(piece);
        self.own.set(piece);
        self.record(now, TraceEvent::PieceCompleted { piece });
        if let Some(m) = &self.metrics {
            m.pieces_completed.inc();
        }
        // Table order is ascending `ConnId`, the order runs must reproduce.
        for id in 0..self.conns.next_id() {
            if self.conns.get(id).is_some() {
                self.send(now, id, Message::Have(piece));
            }
        }
        // Our interest in peers may lapse now.
        for id in 0..self.conns.next_id() {
            self.update_local_interest(now, id);
        }
        if self.own.is_complete() {
            self.become_seed(now);
        }
    }

    fn become_seed(&mut self, now: Instant) {
        self.is_seed = true;
        self.seed_at = Some(now);
        self.record(now, TraceEvent::BecameSeed);
        self.actions.push(Action::Announce {
            event: AnnounceEvent::Completed,
        });
        // Close connections to other seeds.
        for id in 0..self.conns.next_id() {
            if self.conns.get(id).is_some_and(Connection::is_seed) {
                self.cleanup_conn(now, id);
                self.actions.push(Action::Disconnect { conn: id });
            }
        }
    }

    // ------------------------------------------------------------------
    // Interest and requests
    // ------------------------------------------------------------------

    fn update_local_interest(&mut self, now: Instant, conn: ConnId) {
        let Some(c) = self.conns.get_mut(conn) else {
            return;
        };
        let want = !self.is_seed && self.own.is_interested_in(&c.bitfield);
        if want == c.am_interested {
            return;
        }
        c.am_interested = want;
        let msg = if want {
            Message::Interested
        } else {
            Message::NotInterested
        };
        self.send(now, conn, msg);
        self.record(
            now,
            TraceEvent::LocalInterest {
                peer: conn,
                interested: want,
            },
        );
    }

    fn fill_requests(&mut self, now: Instant, conn: ConnId) {
        let Some(c) = self.conns.get(conn) else {
            return;
        };
        if self.is_seed {
            return;
        }
        // While choked, only the Fast Extension's allowed-fast pieces are
        // requestable; restrict the visible remote bitfield to the grant.
        let choked_fast = c.peer_choking && c.fast && !c.allowed_fast_received.is_empty();
        if c.peer_choking && !choked_fast {
            return;
        }
        if !c.peer_choking && !c.am_interested {
            return;
        }
        let room = PIPELINE_DEPTH.saturating_sub(self.scheduler.outstanding_to(conn));
        if room == 0 {
            return;
        }
        let restricted;
        let remote = if choked_fast {
            let mut granted = Bitfield::new(self.geometry.num_pieces());
            for &p in &c.allowed_fast_received {
                if c.bitfield.get(p) {
                    granted.set(p);
                }
            }
            restricted = granted;
            &restricted
        } else {
            &c.bitfield
        };
        let never = |_p: u32| false; // the scheduler tracks in-progress itself
        let ctx = PickContext {
            own: &self.own,
            remote,
            availability: &self.availability,
            in_progress: &never,
            downloaded_pieces: self.own.count_ones(),
        };
        let pick_started = self.metrics.as_ref().map(|m| m.registry.now_micros());
        let mut reqs = std::mem::take(&mut self.request_buf);
        {
            let _span_guard = self.profiler.span("core.piece_pick");
            self.scheduler.next_requests_into(
                conn,
                &ctx,
                self.picker.as_mut(),
                &mut self.rng,
                room,
                &mut reqs,
            );
        }
        if let (Some(m), Some(t0)) = (&self.metrics, pick_started) {
            m.piece_pick_us
                .observe(m.registry.now_micros().saturating_sub(t0));
        }
        if self.scheduler.in_endgame() && !self.endgame_recorded {
            self.endgame_recorded = true;
            self.record(now, TraceEvent::EndGameEntered);
        }
        if self.audit_choke {
            for block in &reqs {
                self.pick_log.push(PickEvent {
                    conn,
                    piece: block.piece,
                    availability: self.availability.count(block.piece),
                });
            }
        }
        for &block in &reqs {
            self.send(now, conn, Message::Request(block));
        }
        reqs.clear();
        self.request_buf = reqs;
    }

    // ------------------------------------------------------------------
    // Choke rounds and periodic duties
    // ------------------------------------------------------------------

    /// Run one 10-second rechoke round (§II-C.2) immediately.
    ///
    /// Normally the round is driven by [`Input::Tick`] against the
    /// deadline the engine arms itself ([`Action::SetTimer`] /
    /// [`Engine::next_wakeup`]); calling this directly is for tests and
    /// harnesses that want an out-of-band round. It does **not** move
    /// the armed deadline.
    pub fn rechoke(&mut self, now: Instant) {
        let _span_guard = self.profiler.span("core.choke_round");
        let round_started = self.metrics.as_ref().map(|m| m.registry.now_micros());
        let snapshots: Vec<PeerSnapshot> = self.conns.iter_mut().map(|c| c.snapshot(now)).collect();
        let decision = if self.is_seed {
            self.seed_choker.rechoke(now, &snapshots, &mut self.rng)
        } else {
            self.leecher_choker.rechoke(now, &snapshots, &mut self.rng)
        };
        let (regular, optimistic) = if self.is_seed {
            (UnchokeRole::SeedKept, UnchokeRole::SeedRandom)
        } else {
            (UnchokeRole::Regular, UnchokeRole::Optimistic)
        };
        let mut flips = 0u32;
        if self.audit_choke {
            self.choke_audit.entries.clear();
        }
        // One snapshot per open connection, in id order.
        for s in &snapshots {
            let id = s.key;
            // Choker decisions never put the optimistic peer among the
            // regular ones (`choker_props` checks every kind), so the
            // order of these two tests does not matter.
            let role = if decision.regular.contains(&id) {
                Some(regular)
            } else if decision.optimistic == Some(id) {
                Some(optimistic)
            } else {
                None
            };
            let choked = role.is_none();
            let c = self
                .conns
                .get_mut(id)
                .expect("snapshot of an open connection");
            // Only a flip is sent and traced. A retained slot does NOT
            // refresh `last_unchoked` — the new seed-state algorithm
            // orders by the time a peer was last *granted* an unchoke, so
            // kept peers age and each new SRU "tak[es] an unchoke slot
            // off the oldest SKU peer" (§II-C.2).
            if c.am_choking != choked {
                c.am_choking = choked;
                if !choked {
                    c.last_unchoked = Some(now);
                }
                flips += 1;
                let msg = if choked {
                    Message::Choke
                } else {
                    Message::Unchoke
                };
                self.send(now, id, msg);
                self.record(
                    now,
                    TraceEvent::LocalChoke {
                        peer: id,
                        choked,
                        role,
                    },
                );
            }
            if self.audit_choke {
                self.choke_audit.entries.push(ChokeAuditEntry {
                    conn: id,
                    interested: s.interested,
                    snubbed: s.snubbed,
                    download_rate: s.download_rate,
                    upload_rate: s.upload_rate,
                    rank: 0,
                    outcome: role,
                });
            }
        }
        if self.audit_choke {
            let entries = &mut self.choke_audit.entries;
            // Rank by the leecher-state ranking signal (download rate),
            // ties broken by key: a total order, so the audit is
            // deterministic.
            entries.sort_unstable_by(|a, b| {
                b.download_rate
                    .partial_cmp(&a.download_rate)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.conn.cmp(&b.conn))
            });
            for (rank, e) in entries.iter_mut().enumerate() {
                e.rank = rank as u32;
            }
            self.choke_audit.at = now;
            self.choke_audit.is_seed = self.is_seed;
            self.choke_audit.optimistic = decision.optimistic;
            self.choke_audit.flips = flips;
            self.choke_audit_fresh = true;
        }
        if let (Some(m), Some(t0)) = (&self.metrics, round_started) {
            let mut unchoked = 0u32;
            let mut reciprocal = 0u32;
            for c in self.conns.iter() {
                if !c.am_choking {
                    unchoked += 1;
                    if !c.peer_choking {
                        reciprocal += 1;
                    }
                }
            }
            m.choke_rounds.inc();
            m.choke_flips.add(u64::from(flips));
            m.choke_unchoked_slots.add(u64::from(unchoked));
            m.choke_reciprocal_slots.add(u64::from(reciprocal));
            m.choke_round_us
                .observe(m.registry.now_micros().saturating_sub(t0));
        }
        self.periodic_duties(now);
    }

    /// The audit of the most recent rechoke round, if one has run since
    /// [`clear_audit`](Engine::clear_audit). Drivers read this after
    /// each input that may have run a round, then clear.
    pub fn choke_audit(&self) -> Option<&ChokeAudit> {
        self.choke_audit_fresh.then_some(&self.choke_audit)
    }

    /// Piece picks recorded since the last
    /// [`clear_audit`](Engine::clear_audit) (audit enabled only).
    pub fn pick_log(&self) -> &[PickEvent] {
        &self.pick_log
    }

    /// Mark the choke audit and the pick log as read; both keep their
    /// buffers for the next round.
    pub fn clear_audit(&mut self) {
        self.choke_audit_fresh = false;
        self.pick_log.clear();
    }

    fn periodic_duties(&mut self, now: Instant) {
        // Rate-estimator log for active peers (§III-C).
        if let Some(trace) = self.trace.as_mut() {
            for c in self.conns.iter_mut() {
                if c.in_active_set() || !c.peer_choking {
                    let sample = TraceEvent::RateSample {
                        peer: c.id,
                        download_rate: c.download.rate(now),
                        upload_rate: c.upload.rate(now),
                    };
                    trace.push(now, sample);
                }
            }
        }
        // Keep-alives after 2 minutes of silence.
        for id in 0..self.conns.next_id() {
            let quiet = |c: &Connection| now.saturating_since(c.last_sent) >= KEEPALIVE;
            if self.conns.get(id).is_some_and(quiet) {
                self.send(now, id, Message::KeepAlive);
            }
        }
        // Peer exchange: gossip peer-set deltas to ut_pex-capable peers.
        if self.config.pex_enabled {
            self.send_pex_rounds(now);
        }
        // Tracker refresh when the peer set runs low (§II-B: threshold 20).
        if self.conns.len() < self.config.min_peer_set
            && now.saturating_since(self.last_announce) >= Duration::from_secs(60)
        {
            self.last_announce = now;
            self.actions.push(Action::Announce {
                event: AnnounceEvent::Periodic,
            });
        }
    }

    /// Record a periodic availability snapshot (figures 2–6 source data).
    pub fn sample_availability(&mut self, now: Instant) {
        if self.trace.is_none() {
            return;
        }
        let stats = self.availability.stats();
        let rarest = self.availability.rarest_set_size();
        let peers = self.conns.len() as u32;
        self.record(
            now,
            TraceEvent::AvailabilitySample {
                min: stats.min,
                mean: stats.mean,
                max: stats.max,
                rarest_set_size: rarest,
                peer_set_size: peers,
            },
        );
    }

    fn send(&mut self, now: Instant, conn: ConnId, msg: Message) {
        if let Some(c) = self.conns.get_mut(conn) {
            c.last_sent = now;
        }
        if self.trace.is_some() {
            let kind = msg.kind();
            self.record(
                now,
                TraceEvent::Message {
                    peer: conn,
                    kind,
                    sent: true,
                },
            );
        }
        self.actions.push(Action::Send { conn, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choke_audit_traces_a_round_then_one_line_per_ranked_peer() {
        let entry = |conn, rank, outcome| ChokeAuditEntry {
            conn,
            interested: true,
            snubbed: false,
            download_rate: 2048.9,
            upload_rate: 10.0,
            rank,
            outcome,
        };
        let audit = ChokeAudit {
            at: Instant(7),
            is_seed: false,
            optimistic: Some(4),
            flips: 2,
            entries: vec![
                entry(9, 0, Some(UnchokeRole::Regular)),
                entry(4, 1, Some(UnchokeRole::Optimistic)),
            ],
        };
        let tracer = Tracer::new(1, 1);
        audit.trace(&tracer, Instant(7), 33, |conn| i64::from(conn) * 100);
        assert_eq!(
            tracer.to_jsonl(),
            "{\"t\":7,\"cat\":\"choke\",\"name\":\"round\",\"id\":33,\
             \"is_seed\":0,\"flips\":2,\"peers\":2,\"optimistic\":400}\n\
             {\"t\":7,\"cat\":\"choke\",\"name\":\"audit\",\"id\":33,\"peer\":900,\"rank\":0,\
             \"down_bps\":2048,\"up_bps\":10,\"interested\":1,\"snubbed\":0,\"outcome\":0}\n\
             {\"t\":7,\"cat\":\"choke\",\"name\":\"audit\",\"id\":33,\"peer\":400,\"rank\":1,\
             \"down_bps\":2048,\"up_bps\":10,\"interested\":1,\"snubbed\":0,\"outcome\":1}\n"
        );
    }
    use bt_wire::metainfo::BLOCK_LEN;
    use bt_wire::peer_id::ClientKind;
    use bytes::Bytes;

    /// 4 pieces × 2 blocks.
    fn geometry() -> Geometry {
        Geometry::new(u64::from(8 * BLOCK_LEN), 2 * BLOCK_LEN)
    }

    fn leecher(seed: u64) -> Engine {
        EngineBuilder::new(
            geometry(),
            [9u8; 20],
            PeerId::new(ClientKind::Mainline402, seed),
        )
        .ip(IpAddr(100 + seed as u32))
        .rng_seed(seed)
        .build()
    }

    fn feed(e: &mut Engine, now: Instant, conn: ConnId, msg: Message) {
        e.handle(now, Input::Message { conn, msg });
    }

    fn connect_with(e: &mut Engine, now: Instant, ip: u32, caps: PeerCaps) -> Option<ConnId> {
        e.handle(
            now,
            Input::PeerConnected {
                ip: IpAddr(ip),
                peer_id: PeerId::new(ClientKind::Azureus, u64::from(ip)),
                initiated_by_us: false,
                caps,
            },
        )
        .take_accepted()
    }

    fn connect_peer(e: &mut Engine, now: Instant, ip: u32, pieces: &[u32]) -> ConnId {
        let id = connect_with(e, now, ip, PeerCaps::default()).expect("accepted");
        let mut bf = Bitfield::new(4);
        for &p in pieces {
            bf.set(p);
        }
        feed(e, now, id, Message::Bitfield(bf.to_wire()));
        id
    }

    fn actions_of(e: &mut Engine) -> Vec<Action> {
        e.drain_actions()
    }

    #[test]
    fn start_announces_and_arms_timer() {
        let mut e = leecher(1);
        e.handle(Instant::ZERO, Input::Start);
        assert_eq!(
            actions_of(&mut e),
            vec![
                Action::Announce {
                    event: AnnounceEvent::Started
                },
                Action::SetTimer {
                    at: Instant::from_secs(10)
                },
            ]
        );
        assert_eq!(e.next_wakeup(), Some(Instant::from_secs(10)));
    }

    #[test]
    fn tick_runs_due_rechoke_and_rearms() {
        let mut e = EngineBuilder::new(
            geometry(),
            [9u8; 20],
            PeerId::new(ClientKind::Mainline402, 9),
        )
        .initial_pieces(Bitfield::full(4))
        .rng_seed(9)
        .build();
        e.handle(Instant::ZERO, Input::Start);
        let _ = e.drain_actions();
        let id = connect_with(&mut e, Instant::ZERO, 2, PeerCaps::default()).unwrap();
        feed(
            &mut e,
            Instant::ZERO,
            id,
            Message::Bitfield(Bitfield::new(4).to_wire()),
        );
        feed(&mut e, Instant::ZERO, id, Message::Interested);
        let _ = e.drain_actions();
        // An early tick is a harmless no-op: nothing runs, deadline keeps.
        e.handle(Instant::from_secs(5), Input::Tick);
        assert!(e.drain_actions().is_empty());
        assert_eq!(e.next_wakeup(), Some(Instant::from_secs(10)));
        // A due tick runs the choke round and re-arms the timer.
        e.handle(Instant::from_secs(10), Input::Tick);
        let acts = e.drain_actions();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::Unchoke,
                ..
            }
        )));
        assert!(acts.contains(&Action::SetTimer {
            at: Instant::from_secs(20)
        }));
        assert_eq!(e.next_wakeup(), Some(Instant::from_secs(20)));
    }

    #[test]
    fn sends_bitfield_and_interest_on_connect() {
        let mut e = leecher(1);
        let t = Instant::from_secs(1);
        let id = connect_peer(&mut e, t, 7, &[0, 1]);
        let acts = actions_of(&mut e);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Send { conn, msg: Message::Bitfield(_) } if *conn == id)));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Send { conn, msg: Message::Interested } if *conn == id)));
    }

    #[test]
    fn rejects_duplicate_ip() {
        let mut e = leecher(1);
        let t = Instant::ZERO;
        let _ = connect_peer(&mut e, t, 7, &[0]);
        assert!(!e.admits(IpAddr(7)));
        assert!(connect_with(&mut e, t, 7, PeerCaps::default()).is_none());
        // A different IP is fine.
        assert!(e.admits(IpAddr(8)));
    }

    #[test]
    fn requests_flow_after_unchoke() {
        let mut e = leecher(1);
        let t = Instant::from_secs(1);
        let id = connect_peer(&mut e, t, 7, &[0, 1, 2, 3]);
        let _ = actions_of(&mut e);
        feed(&mut e, t, id, Message::Unchoke);
        let acts = actions_of(&mut e);
        let reqs: Vec<&BlockRef> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Message::Request(b),
                    ..
                } => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(reqs.len(), 8, "pipeline fills to depth or block count");
    }

    #[test]
    fn download_completes_and_becomes_seed() {
        let mut e = leecher(1);
        let t = Instant::from_secs(1);
        let id = connect_peer(&mut e, t, 7, &[0, 1, 2, 3]);
        feed(&mut e, t, id, Message::Unchoke);
        // Serve every requested block until the pipeline drains.
        let mut served = std::collections::HashSet::new();
        let mut all_actions = Vec::new();
        loop {
            let acts = actions_of(&mut e);
            let mut any = false;
            for a in acts {
                if let Action::Send {
                    msg: Message::Request(b),
                    ..
                } = a
                {
                    if served.insert(b) {
                        any = true;
                        feed(
                            &mut e,
                            t,
                            id,
                            Message::Piece {
                                block: b,
                                data: Bytes::new(),
                            },
                        );
                    }
                } else {
                    all_actions.push(a);
                }
            }
            if !any {
                break;
            }
        }
        assert!(e.is_seed(), "all pieces served → seed");
        assert_eq!(e.num_pieces_have(), 4);
        all_actions.extend(actions_of(&mut e));
        assert!(all_actions.iter().any(|a| matches!(
            a,
            Action::Announce {
                event: AnnounceEvent::Completed
            }
        )));
    }

    #[test]
    fn seed_disconnects_from_seeds() {
        let mut e = leecher(1);
        let t = Instant::from_secs(1);
        let id = connect_peer(&mut e, t, 7, &[0, 1, 2, 3]);
        feed(&mut e, t, id, Message::Unchoke);
        loop {
            let acts = actions_of(&mut e);
            let reqs: Vec<BlockRef> = acts
                .iter()
                .filter_map(|a| match a {
                    Action::Send {
                        msg: Message::Request(b),
                        ..
                    } => Some(*b),
                    _ => None,
                })
                .collect();
            if reqs.is_empty() {
                break;
            }
            for b in reqs {
                feed(
                    &mut e,
                    t,
                    id,
                    Message::Piece {
                        block: b,
                        data: Bytes::new(),
                    },
                );
            }
        }
        assert!(e.is_seed());
        // The remote was a seed; the engine must have dropped it.
        assert_eq!(e.peer_set_size(), 0);
    }

    #[test]
    fn serves_requests_only_when_unchoked() {
        let mut seed_engine = EngineBuilder::new(
            geometry(),
            [9u8; 20],
            PeerId::new(ClientKind::Mainline402, 9),
        )
        .ip(IpAddr(1))
        .initial_pieces(Bitfield::full(4))
        .rng_seed(9)
        .build();
        let t = Instant::from_secs(1);
        let id = connect_with(&mut seed_engine, t, 2, PeerCaps::default()).unwrap();
        feed(
            &mut seed_engine,
            t,
            id,
            Message::Bitfield(Bitfield::new(4).to_wire()),
        );
        feed(&mut seed_engine, t, id, Message::Interested);
        let _ = seed_engine.drain_actions();
        let block = geometry().block_ref(0, 0);
        // Choked: request ignored.
        feed(&mut seed_engine, t, id, Message::Request(block));
        assert!(seed_engine.drain_actions().is_empty());
        // After a rechoke the interested peer gets unchoked and served.
        seed_engine.rechoke(Instant::from_secs(10));
        let acts = seed_engine.drain_actions();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::Unchoke,
                ..
            }
        )));
        feed(&mut seed_engine, t, id, Message::Request(block));
        let acts = seed_engine.drain_actions();
        assert_eq!(acts, vec![Action::SendBlock { conn: id, block }]);
    }

    #[test]
    fn free_rider_never_serves() {
        let mut fr =
            EngineBuilder::new(geometry(), [9u8; 20], PeerId::new(ClientKind::FreeRider, 3))
                .config(Config::free_rider())
                .ip(IpAddr(3))
                .initial_pieces(Bitfield::full(4))
                .rng_seed(3)
                .build();
        let t = Instant::ZERO;
        let id = connect_with(&mut fr, t, 4, PeerCaps::default()).unwrap();
        feed(
            &mut fr,
            t,
            id,
            Message::Bitfield(Bitfield::new(4).to_wire()),
        );
        feed(&mut fr, t, id, Message::Interested);
        fr.rechoke(Instant::from_secs(10));
        let _ = fr.drain_actions();
        feed(&mut fr, t, id, Message::Request(geometry().block_ref(0, 0)));
        assert!(fr
            .drain_actions()
            .iter()
            .all(|a| !matches!(a, Action::SendBlock { .. })));
    }

    #[test]
    fn tracker_dialing_respects_limits() {
        let cfg = Config {
            max_initiated: 3,
            ..Config::default()
        };
        let mut e = EngineBuilder::new(
            geometry(),
            [9u8; 20],
            PeerId::new(ClientKind::Mainline402, 5),
        )
        .config(cfg)
        .ip(IpAddr(50))
        .rng_seed(5)
        .build();
        let peers: Vec<PeerEntry> = (1..10)
            .map(|i| PeerEntry {
                ip: IpAddr(i),
                port: 6881,
            })
            .collect();
        e.handle(Instant::ZERO, Input::TrackerResponse { peers });
        let dials = e
            .drain_actions()
            .into_iter()
            .filter(|a| matches!(a, Action::Connect { .. }))
            .count();
        assert_eq!(dials, 3);
        // A failed dial frees a slot and redials.
        e.handle(Instant::ZERO, Input::ConnectFailed);
        let redials = e
            .drain_actions()
            .into_iter()
            .filter(|a| matches!(a, Action::Connect { .. }))
            .count();
        assert_eq!(redials, 1);
    }

    #[test]
    fn self_and_duplicate_candidates_skipped() {
        let mut e = leecher(6);
        let own_ip = e.ip();
        e.handle(
            Instant::ZERO,
            Input::TrackerResponse {
                peers: vec![
                    PeerEntry {
                        ip: own_ip,
                        port: 1,
                    },
                    PeerEntry {
                        ip: IpAddr(9),
                        port: 1,
                    },
                ],
            },
        );
        let dials: Vec<Action> = e
            .drain_actions()
            .into_iter()
            .filter(|a| matches!(a, Action::Connect { .. }))
            .collect();
        assert_eq!(dials.len(), 1);
        assert!(matches!(&dials[0], Action::Connect { peer } if peer.ip == IpAddr(9)));
    }

    #[test]
    fn malformed_bitfield_drops_peer() {
        let mut e = leecher(1);
        let t = Instant::ZERO;
        let id = connect_with(&mut e, t, 7, PeerCaps::default()).unwrap();
        let err = e
            .handle(
                t,
                Input::Message {
                    conn: id,
                    msg: Message::Bitfield(vec![0xFF, 0xFF, 0xFF]),
                },
            )
            .take_error();
        assert_eq!(err, Some(EngineError::BadBitfield { conn: id, len: 3 }));
        let acts = e.drain_actions();
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Disconnect { conn } if *conn == id)));
        assert_eq!(e.peer_set_size(), 0);
    }

    #[test]
    fn out_of_range_have_drops_peer() {
        let mut e = leecher(1);
        let t = Instant::ZERO;
        let id = connect_peer(&mut e, t, 7, &[0]);
        let _ = e.drain_actions();
        let err = e
            .handle(
                t,
                Input::Message {
                    conn: id,
                    msg: Message::Have(99),
                },
            )
            .take_error();
        assert_eq!(
            err,
            Some(EngineError::PieceOutOfRange {
                conn: id,
                piece: 99,
                num_pieces: 4
            })
        );
        assert!(e
            .drain_actions()
            .iter()
            .any(|a| matches!(a, Action::Disconnect { conn } if *conn == id)));
        assert_eq!(e.peer_set_size(), 0);
    }

    #[test]
    fn off_grid_request_drops_peer() {
        let mut e = EngineBuilder::new(
            geometry(),
            [9u8; 20],
            PeerId::new(ClientKind::Mainline402, 9),
        )
        .ip(IpAddr(1))
        .initial_pieces(Bitfield::full(4))
        .rng_seed(9)
        .build();
        let t = Instant::ZERO;
        let id = connect_with(&mut e, t, 2, PeerCaps::default()).unwrap();
        feed(&mut e, t, id, Message::Bitfield(Bitfield::new(4).to_wire()));
        feed(&mut e, t, id, Message::Interested);
        e.rechoke(Instant::from_secs(10));
        let _ = e.drain_actions();
        let bad = BlockRef {
            piece: 0,
            offset: 7,
            length: BLOCK_LEN,
        };
        let err = e
            .handle(
                t,
                Input::Message {
                    conn: id,
                    msg: Message::Request(bad),
                },
            )
            .take_error();
        assert_eq!(
            err,
            Some(EngineError::MalformedBlock {
                conn: id,
                block: bad
            })
        );
        assert!(e
            .drain_actions()
            .iter()
            .any(|a| matches!(a, Action::Disconnect { conn } if *conn == id)));
        assert_eq!(e.peer_set_size(), 0);
    }

    #[test]
    fn remote_choke_drops_outstanding_requests() {
        let mut e = leecher(1);
        let t = Instant::from_secs(1);
        let id = connect_peer(&mut e, t, 7, &[0, 1, 2, 3]);
        feed(&mut e, t, id, Message::Unchoke);
        let _ = e.drain_actions();
        feed(&mut e, t, id, Message::Choke);
        // After re-unchoke the pipeline refills from scratch.
        feed(&mut e, t, id, Message::Unchoke);
        let acts = e.drain_actions();
        let reqs = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: Message::Request(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(reqs, 8);
    }

    fn fast_engine(seed: u64, pieces: Bitfield) -> Engine {
        let cfg = Config {
            fast_extension: true,
            ..Config::default()
        };
        EngineBuilder::new(
            geometry(),
            [9u8; 20],
            PeerId::new(ClientKind::Mainline402, seed),
        )
        .config(cfg)
        .ip(IpAddr(200 + seed as u32))
        .initial_pieces(pieces)
        .rng_seed(seed)
        .build()
    }

    const FAST_CAPS: PeerCaps = PeerCaps {
        fast: true,
        extended: false,
    };

    #[test]
    fn fast_negotiation_sends_grants_and_compact_maps() {
        let mut seed_engine = fast_engine(1, Bitfield::full(4));
        let t = Instant::ZERO;
        let id = connect_with(&mut seed_engine, t, 7, FAST_CAPS).unwrap();
        let acts = seed_engine.drain_actions();
        // A complete fast peer advertises HaveAll, not a bitfield.
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Send { conn, msg: Message::HaveAll } if *conn == id)));
        assert!(!acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::Bitfield(_),
                ..
            }
        )));
        let grants: Vec<u32> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Message::AllowedFast(p),
                    ..
                } => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(grants.len(), 4, "default allowed-fast count");
        assert_eq!(
            grants,
            seed_engine.connection(id).unwrap().allowed_fast_sent,
            "grants recorded on the connection"
        );
    }

    #[test]
    fn fast_disabled_when_remote_lacks_it() {
        let mut e = fast_engine(2, Bitfield::new(4));
        let id = connect_with(&mut e, Instant::ZERO, 7, PeerCaps::default()).unwrap();
        assert!(!e.connection(id).unwrap().fast);
        let acts = e.drain_actions();
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::Bitfield(_),
                ..
            }
        )));
        assert!(!acts.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Message::AllowedFast(_),
                ..
            }
        )));
    }

    #[test]
    fn allowed_fast_requests_served_while_choked() {
        let mut seed_engine = fast_engine(3, Bitfield::full(4));
        let t = Instant::ZERO;
        let id = connect_with(&mut seed_engine, t, 7, FAST_CAPS).unwrap();
        let granted = seed_engine
            .connection(id)
            .unwrap()
            .allowed_fast_sent
            .clone();
        let _ = seed_engine.drain_actions();
        feed(
            &mut seed_engine,
            t,
            id,
            Message::Bitfield(Bitfield::new(4).to_wire()),
        );
        let _ = seed_engine.drain_actions();
        // Request a granted piece while choked → served.
        let ok_block = geometry().block_ref(granted[0], 0);
        feed(&mut seed_engine, t, id, Message::Request(ok_block));
        let acts = seed_engine.drain_actions();
        assert!(acts.contains(&Action::SendBlock {
            conn: id,
            block: ok_block
        }));
        // Request a non-granted piece while choked → explicit reject.
        let other = (0..4).find(|p| !granted.contains(p));
        if let Some(p) = other {
            let bad_block = geometry().block_ref(p, 0);
            feed(&mut seed_engine, t, id, Message::Request(bad_block));
            let acts = seed_engine.drain_actions();
            assert!(acts.iter().any(|a| matches!(
                a,
                Action::Send { msg: Message::RejectRequest(b), .. } if *b == bad_block
            )));
            assert!(!acts.iter().any(|a| matches!(a, Action::SendBlock { .. })));
        }
    }

    #[test]
    fn allowed_fast_grant_bootstraps_choked_download() {
        let mut e = fast_engine(4, Bitfield::new(4));
        let t = Instant::ZERO;
        let id = connect_with(&mut e, t, 7, FAST_CAPS).unwrap();
        feed(&mut e, t, id, Message::HaveAll);
        let _ = e.drain_actions();
        // Still choked, but the remote grants piece 2: requests flow for
        // exactly that piece.
        feed(&mut e, t, id, Message::AllowedFast(2));
        let acts = e.drain_actions();
        let reqs: Vec<BlockRef> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Message::Request(b),
                    ..
                } => Some(*b),
                _ => None,
            })
            .collect();
        assert!(
            !reqs.is_empty(),
            "choked peer must request allowed-fast piece"
        );
        assert!(
            reqs.iter().all(|b| b.piece == 2),
            "only the granted piece: {reqs:?}"
        );
    }

    #[test]
    fn reject_releases_block_for_rerequest() {
        let mut e = fast_engine(5, Bitfield::new(4));
        let t = Instant::ZERO;
        let id = connect_with(&mut e, t, 7, FAST_CAPS).unwrap();
        feed(&mut e, t, id, Message::HaveAll);
        feed(&mut e, t, id, Message::AllowedFast(1));
        let reqs: Vec<BlockRef> = e
            .drain_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Message::Request(b),
                    ..
                } => Some(b),
                _ => None,
            })
            .collect();
        assert!(!reqs.is_empty());
        // The remote rejects the first request; after an unchoke the same
        // block is requested again.
        feed(&mut e, t, id, Message::RejectRequest(reqs[0]));
        feed(&mut e, t, id, Message::Unchoke);
        let again: Vec<BlockRef> = e
            .drain_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: Message::Request(b),
                    ..
                } => Some(b),
                _ => None,
            })
            .collect();
        assert!(
            again.contains(&reqs[0]),
            "rejected block must be re-requested"
        );
    }

    #[test]
    fn pex_handshake_and_gossip() {
        let cfg = Config {
            pex_enabled: true,
            ..Config::default()
        };
        let mut e = EngineBuilder::new(
            geometry(),
            [9u8; 20],
            PeerId::new(ClientKind::Mainline402, 1),
        )
        .config(cfg)
        .ip(IpAddr(50))
        .rng_seed(1)
        .build();
        let caps = PeerCaps {
            fast: false,
            extended: true,
        };
        let t = Instant::ZERO;
        let a = e
            .handle(
                t,
                Input::PeerConnected {
                    ip: IpAddr(60),
                    peer_id: PeerId::new(ClientKind::LibTorrent, 6),
                    initiated_by_us: false,
                    caps,
                },
            )
            .take_accepted()
            .unwrap();
        // The engine advertises ut_pex in its extension handshake.
        let acts = e.drain_actions();
        let ext_hs = acts.iter().find_map(|x| match x {
            Action::Send {
                msg: Message::Extended { ext_id: 0, payload },
                ..
            } => Some(payload.clone()),
            _ => None,
        });
        let hs = bt_wire::extension::ExtendedHandshake::decode(&ext_hs.expect("handshake sent"))
            .unwrap();
        assert_eq!(hs.ut_pex_id(), Some(bt_wire::extension::UT_PEX_LOCAL_ID));
        // The remote replies with its own handshake advertising pex id 1.
        feed(
            &mut e,
            t,
            a,
            Message::Extended {
                ext_id: 0,
                payload: bt_wire::extension::ExtendedHandshake::with_pex().encode(),
            },
        );
        // Connect a second peer, then run a rechoke past the pex interval:
        // the first peer is gossiped the second's address.
        let _b = e
            .handle(
                t,
                Input::PeerConnected {
                    ip: IpAddr(61),
                    peer_id: PeerId::new(ClientKind::Azureus, 7),
                    initiated_by_us: false,
                    caps,
                },
            )
            .take_accepted()
            .unwrap();
        let _ = e.drain_actions();
        e.rechoke(Instant::from_secs(70));
        let acts = e.drain_actions();
        let pex = acts.iter().find_map(|x| match x {
            Action::Send {
                conn,
                msg: Message::Extended { ext_id: 1, payload },
            } if *conn == a => Some(payload.clone()),
            _ => None,
        });
        let pex = bt_wire::extension::PexPayload::decode(&pex.expect("gossip sent")).unwrap();
        assert_eq!(pex.added.len(), 1);
        assert_eq!(pex.added[0].ip, IpAddr(61), "peer A learns about peer B");
        // Receiving gossip about an unknown peer triggers a dial.
        let payload = bt_wire::extension::PexPayload {
            added: vec![bt_wire::tracker::PeerEntry {
                ip: IpAddr(99),
                port: 6881,
            }],
            dropped: vec![],
        }
        .encode();
        feed(&mut e, t, a, Message::Extended { ext_id: 1, payload });
        let acts = e.drain_actions();
        assert!(
            acts.iter()
                .any(|x| matches!(x, Action::Connect { peer } if peer.ip == IpAddr(99))),
            "pex-learned peer must be dialled: {acts:?}"
        );
    }

    #[test]
    fn pex_disabled_ignores_extended_frames() {
        let mut e = leecher(1);
        let t = Instant::ZERO;
        let id = connect_peer(&mut e, t, 7, &[0]);
        let _ = e.drain_actions();
        feed(
            &mut e,
            t,
            id,
            Message::Extended {
                ext_id: 1,
                payload: bt_wire::extension::PexPayload {
                    added: vec![bt_wire::tracker::PeerEntry {
                        ip: IpAddr(99),
                        port: 6881,
                    }],
                    dropped: vec![],
                }
                .encode(),
            },
        );
        assert!(
            e.drain_actions().is_empty(),
            "un-negotiated extension frames are ignored"
        );
    }

    #[test]
    fn super_seed_reveals_one_piece_at_a_time() {
        let cfg = Config {
            super_seed: true,
            ..Config::default()
        };
        let mut e = EngineBuilder::new(
            geometry(),
            [9u8; 20],
            PeerId::new(ClientKind::SuperSeeder, 1),
        )
        .config(cfg)
        .ip(IpAddr(1))
        .initial_pieces(Bitfield::full(4))
        .rng_seed(1)
        .build();
        let t = Instant::ZERO;
        let a = e
            .handle(
                t,
                Input::PeerConnected {
                    ip: IpAddr(2),
                    peer_id: PeerId::new(ClientKind::Azureus, 2),
                    initiated_by_us: false,
                    caps: PeerCaps::default(),
                },
            )
            .take_accepted()
            .unwrap();
        let acts = e.drain_actions();
        // An empty bitfield (not the real one), plus exactly one Have.
        let haves: Vec<u32> = acts
            .iter()
            .filter_map(|x| match x {
                Action::Send {
                    msg: Message::Have(p),
                    ..
                } => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(haves.len(), 1, "exactly one reveal on connect: {acts:?}");
        let bitfields: Vec<&Vec<u8>> = acts
            .iter()
            .filter_map(|x| match x {
                Action::Send {
                    msg: Message::Bitfield(b),
                    ..
                } => Some(b),
                _ => None,
            })
            .collect();
        assert!(
            bitfields.iter().all(|b| b.iter().all(|byte| *byte == 0)),
            "super seed must hide its pieces"
        );
        // A second peer is offered a *different* piece (least-revealed).
        let b = e
            .handle(
                t,
                Input::PeerConnected {
                    ip: IpAddr(3),
                    peer_id: PeerId::new(ClientKind::BitComet, 3),
                    initiated_by_us: false,
                    caps: PeerCaps::default(),
                },
            )
            .take_accepted()
            .unwrap();
        let haves2: Vec<u32> = e
            .drain_actions()
            .iter()
            .filter_map(|x| match x {
                Action::Send {
                    conn,
                    msg: Message::Have(p),
                } if *conn == b => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(haves2.len(), 1);
        assert_ne!(haves2[0], haves[0], "second peer gets a different piece");
        // When peer A confirms the revealed piece, the next one is offered.
        feed(&mut e, t, a, Message::Bitfield(Bitfield::new(4).to_wire()));
        let _ = e.drain_actions();
        feed(&mut e, t, a, Message::Have(haves[0]));
        let haves3: Vec<u32> = e
            .drain_actions()
            .iter()
            .filter_map(|x| match x {
                Action::Send {
                    conn,
                    msg: Message::Have(p),
                } if *conn == a => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(haves3.len(), 1, "confirmation triggers the next reveal");
        assert_ne!(haves3[0], haves[0]);
    }

    #[test]
    fn recorder_captures_session() {
        use bt_instrument::trace::TraceMeta;
        let meta = TraceMeta {
            torrent: "unit".into(),
            torrent_id: 0,
            num_pieces: 4,
            num_blocks: 8,
            initial_seeds: 1,
            initial_leechers: 1,
            session_end: Instant::from_secs(100),
            seed_at: None,
        };
        let mut e = EngineBuilder::new(
            geometry(),
            [9u8; 20],
            PeerId::new(ClientKind::Mainline402, 1),
        )
        .ip(IpAddr(101))
        .rng_seed(1)
        .recorder(meta)
        .build();
        let t = Instant::from_secs(1);
        let id = connect_peer(&mut e, t, 7, &[0, 1, 2, 3]);
        feed(&mut e, t, id, Message::Unchoke);
        let trace = e.take_trace().unwrap();
        assert!(trace
            .iter()
            .any(|(_, ev)| matches!(ev, TraceEvent::PeerJoined { peer, .. } if *peer == id)));
        assert!(trace.iter().any(|(_, ev)| matches!(
            ev,
            TraceEvent::LocalInterest {
                interested: true,
                ..
            }
        )));
    }

    /// Metrics attachment must observe inputs, actions and protocol
    /// errors without changing engine behaviour: an instrumented engine
    /// and a bare one fed identical inputs emit identical actions.
    #[test]
    fn metrics_count_without_perturbing() {
        let registry = bt_obs::Registry::new_manual();
        let metrics = crate::metrics::EngineMetrics::register(&registry);
        let builder = || {
            EngineBuilder::new(
                geometry(),
                [9u8; 20],
                PeerId::new(ClientKind::Mainline402, 7),
            )
            .ip(IpAddr(107))
            .rng_seed(7)
        };
        let mut bare = builder().build();
        let mut instrumented = builder().metrics(metrics).build();

        let t0 = Instant::ZERO;
        let peer_id = PeerId::new(ClientKind::Azureus, 9);
        let inputs = vec![
            (t0, Input::Start),
            (
                t0,
                Input::PeerConnected {
                    ip: IpAddr(9),
                    peer_id,
                    initiated_by_us: false,
                    caps: PeerCaps::default(),
                },
            ),
            (
                t0,
                Input::Message {
                    conn: 0,
                    msg: Message::Bitfield(Bitfield::full(4).to_wire()),
                },
            ),
            (
                t0,
                Input::Message {
                    conn: 0,
                    msg: Message::Unchoke,
                },
            ),
            // Late enough to fire the armed rechoke round.
            (Instant::from_secs(11), Input::Tick),
            // Protocol violation: off-range `have`.
            (
                Instant::from_secs(11),
                Input::Message {
                    conn: 0,
                    msg: Message::Have(999),
                },
            ),
        ];
        for (t, input) in inputs {
            let a = bare.handle(t, input.clone()).take();
            let b = instrumented.handle(t, input).take();
            assert_eq!(a, b, "metrics changed engine behaviour");
        }

        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.inputs.start", ""), Some(1));
        assert_eq!(snap.counter("core.inputs.message", ""), Some(3));
        assert_eq!(snap.counter("core.inputs.peer_connected", ""), Some(1));
        assert_eq!(snap.counter("core.errors.piece_out_of_range", ""), Some(1));
        // The violation forced a disconnect action.
        assert_eq!(snap.counter("core.actions.disconnect", ""), Some(1));
        // Start armed the rechoke timer; actions were counted by variant.
        assert!(snap.counter("core.actions.set_timer", "").unwrap() >= 1);
        assert!(snap.counter("core.actions.send", "").unwrap() >= 1);
        // The choke round on Tick observed a (zero-width, virtual-clock)
        // latency sample.
        assert!(snap.histogram("core.choke_round_us", "").unwrap().count >= 1);
    }
}
