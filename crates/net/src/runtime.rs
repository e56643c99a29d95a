//! A non-blocking TCP driver for the sans-io [`Engine`].
//!
//! One `NetRuntime` owns one engine, one listening socket, and every
//! connection the engine holds. `drive` runs every runtime of a swarm
//! from one loop on the calling thread — a pass over each runtime's
//! sockets in turn, then one `poll(2)` wait over all of them until a
//! socket or a deadline is ready — and each runtime follows the driver
//! contract from [`bt_core::driver`]:
//!
//! 1. feed [`Input::Start`] once;
//! 2. translate socket events into [`Input`]s (accepted handshakes,
//!    decoded frames, EOFs, dial failures);
//! 3. drain and execute the [`Action`]s after every `handle` call —
//!    encode outbound frames, dial, announce, close;
//! 4. feed [`Input::Tick`] whenever the virtual clock passes
//!    [`Engine::next_wakeup`] (the deadline bounds the wait, so
//!    [`Action::SetTimer`] needs no dedicated timer machinery).
//!
//! Handshaking, framing, keep-alives and timeouts all live here; the
//! engine never sees a byte of transport.

use crate::clock::AccelClock;
use crate::loopback::PeerOutcome;
use crate::metrics::NetMetrics;
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::tracker::LoopbackTracker;
use bt_core::engine::PeerCaps;
use bt_core::{Action, ConnId, Engine, Input};
use bt_obs::{Profiler, Registry, Tracer};
use bt_wire::handshake::{Handshake, HANDSHAKE_LEN};
use bt_wire::message::{BlockRef, Decoder, Message, DEFAULT_MAX_FRAME};
use bt_wire::peer_id::{IpAddr, PeerId};
use bt_wire::time::{Duration, Instant};
use bt_wire::tracker::{AnnounceEvent, DEFAULT_NUM_WANT};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// Derive a peer's engine-level address from its peer ID (FNV-1a, 32
/// bit). Both ends of a TCP connection compute the same value from the
/// handshake, so the engine's per-address bookkeeping (one connection
/// per IP, candidate de-duplication) works without real addressing.
pub fn peer_ip(peer_id: &PeerId) -> IpAddr {
    let mut h: u32 = 0x811c_9dc5;
    for &b in peer_id.0.iter() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    IpAddr(h)
}

/// Counters a runtime accumulates while driving its engine.
///
/// A *snapshot view*: the live values are `net.*` counters in the
/// runtime's [`Registry`], and [`NetMetrics::stats`] reports what this
/// runtime added to them.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetStats {
    /// `Input::Tick`s fed (choke rounds and other timer work).
    pub ticks: u64,
    /// Wire messages decoded and fed to the engine.
    pub messages_in: u64,
    /// `piece` frames fully flushed to a socket.
    pub blocks_sent: u64,
    /// Dials that exhausted their retry budget.
    pub dial_failures: u64,
    /// Protocol violations reported by the engine (peer dropped).
    pub protocol_errors: u64,
    /// Connections closed for any reason.
    pub disconnects: u64,
    /// Framed bytes read off sockets.
    pub bytes_in: u64,
    /// Framed bytes written to sockets.
    pub bytes_out: u64,
    /// Individual dial attempts that failed and were re-queued.
    pub dial_retries: u64,
    /// Handshakes that completed and were offered to the engine.
    pub handshakes_ok: u64,
}

/// How many times to try one dial before reporting
/// [`Input::ConnectFailed`].
const DIAL_ATTEMPTS: u32 = 3;

/// Wall-clock wait before the first dial retry; doubles per retry.
const DIAL_BACKOFF: std::time::Duration = std::time::Duration::from_millis(2);

/// Wall-clock budget for a handshake to complete both directions.
const HANDSHAKE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Virtual-time silence after which a connection is dropped (1 800 s):
/// well above the engine's 120 s keep-alive interval.
const IDLE_TIMEOUT: Duration = Duration(1_800_000_000);

/// One length-prefixed frame queued for write, with an optional block
/// marker so the engine learns when the upload actually left the socket.
struct OutFrame {
    buf: Vec<u8>,
    written: usize,
    block: Option<BlockRef>,
}

/// An established connection: socket, incremental decoder, write queue.
struct NetConn {
    stream: TcpStream,
    decoder: Decoder,
    out: VecDeque<OutFrame>,
    last_recv: Instant,
}

/// A connection still exchanging 68-byte handshakes.
struct Pending {
    stream: TcpStream,
    out: [u8; HANDSHAKE_LEN],
    out_written: usize,
    inbuf: Vec<u8>,
    initiated: bool,
    deadline: std::time::Instant,
    /// Virtual time the handshake began (handshake-latency histogram).
    started: Instant,
}

/// An outbound dial with remaining retry budget.
struct Dial {
    addr: SocketAddr,
    attempts_left: u32,
    backoff: std::time::Duration,
    next_try: std::time::Instant,
}

/// Drives one [`Engine`] over real TCP sockets.
pub(crate) struct NetRuntime {
    engine: Engine,
    listener: TcpListener,
    tracker: Arc<LoopbackTracker>,
    clock: AccelClock,
    conns: HashMap<ConnId, NetConn>,
    pending: Vec<Pending>,
    dials: Vec<Dial>,
    metrics: NetMetrics,
    profiler: Profiler,
    tracer: Tracer,
}

impl NetRuntime {
    /// Wrap an engine with its transport and its observers. The runtime
    /// reports its `net.*` series into `registry` under `label` (e.g.
    /// `"peer3"`), which keeps per-peer series apart when a swarm shares
    /// one registry; records `net.*` and `wire.encode`/`wire.decode`
    /// spans into `profiler`, inside which an engine built with the same
    /// profiler nests its `core.handle.*` spans; and drains every choke
    /// round of an engine built with
    /// [`choke_audit`](bt_core::EngineBuilder::choke_audit) into `tracer`
    /// as a `round` + per-peer `audit` chain. The engine's own observers
    /// are the ones it was built with ([`bt_core::EngineBuilder`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        engine: Engine,
        listener: TcpListener,
        tracker: Arc<LoopbackTracker>,
        clock: AccelClock,
        registry: &Registry,
        label: &str,
        profiler: Profiler,
        tracer: Tracer,
    ) -> std::io::Result<NetRuntime> {
        listener.set_nonblocking(true)?;
        let metrics = NetMetrics::register(registry, label);
        Ok(NetRuntime {
            engine,
            listener,
            tracker,
            clock,
            conns: HashMap::new(),
            pending: Vec::new(),
            dials: Vec::new(),
            metrics,
            profiler,
            tracer,
        })
    }

    /// The engine being driven.
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// One pass over every socket, inside a `net.poll` span: accept,
    /// dial, handshakes, read, write, timers, idle check. Returns
    /// whether it moved bytes or left any queued.
    fn pass(&mut self) -> bool {
        let _span_guard = self.profiler.span("net.poll");
        let now = self.clock.now();
        // Keep a manual (virtual-time) registry in step with the
        // accelerated clock; a no-op on wall-clock registries.
        self.metrics.registry().time().advance_to(now.0);
        self.accept_pass(now);
        self.dial_pass(now);
        self.pending_pass(now);
        let read = self.read_pass(now);
        let written = self.write_pass(now);
        self.timer_pass(now);
        self.idle_pass(now);
        read || written
    }

    /// List this runtime's sockets in `fds` and return the wall time to
    /// the nearest of `bound` and its own deadlines: the engine's next
    /// wake-up, a dial retry, a handshake deadline. Readable is asked of
    /// every socket, writable only of those with bytes queued — an idle
    /// socket is always writable.
    fn watch(&self, fds: &mut Vec<PollFd>, bound: std::time::Duration) -> std::time::Duration {
        let wall = std::time::Instant::now();
        let until = |at: std::time::Instant| at.saturating_duration_since(wall);
        let wakeup = self.engine.next_wakeup();
        fds.push(PollFd::new(&self.listener, POLLIN));
        fds.extend(self.pending.iter().map(|p| {
            let unsent = p.out_written < HANDSHAKE_LEN;
            PollFd::new(&p.stream, if unsent { POLLIN | POLLOUT } else { POLLIN })
        }));
        fds.extend(self.conns.values().map(|c| {
            let queued = !c.out.is_empty();
            PollFd::new(&c.stream, if queued { POLLIN | POLLOUT } else { POLLIN })
        }));
        (wakeup.map(|at| self.clock.wall_until(at)).into_iter())
            .chain(self.dials.iter().map(|d| until(d.next_try)))
            .chain(self.pending.iter().map(|p| until(p.deadline)))
            .fold(bound, std::cmp::min)
    }

    /// Announce `Stopped` and report the peer as the run left it, its
    /// trace closed at the current virtual time.
    pub(crate) fn finish(mut self) -> PeerOutcome {
        self.tracker
            .announce(self.engine.ip(), AnnounceEvent::Stopped, 0);
        let mut trace = self.engine.take_trace();
        if let Some(tr) = trace.as_mut() {
            tr.meta.session_end = self.clock.now();
        }
        PeerOutcome {
            is_seed: self.engine.is_seed(),
            pieces: self.engine.num_pieces_have(),
            trace,
            stats: self.metrics.stats(),
        }
    }

    /// Feed one input and execute everything the engine asks for.
    fn feed(&mut self, now: Instant, input: Input) {
        let actions = self.engine.handle(now, input);
        if actions.take_error().is_some() {
            self.metrics.protocol_errors.inc();
        }
        let batch = actions.take();
        self.trace_choke_audit(now);
        self.execute(now, batch);
    }

    /// Copy the engine's choke audit into the causal tracer (`round`
    /// plus one `audit` per ranked peer). On the socket path the chain
    /// id is the local peer's virtual-IP hash and `peer` args are local
    /// [`ConnId`]s — there is no global peer index to resolve to.
    fn trace_choke_audit(&mut self, now: Instant) {
        let Some(audit) = self.engine.choke_audit() else {
            return;
        };
        let id = u64::from(peer_ip(&self.engine.peer_id()).0);
        audit.trace(&self.tracer, now, id, i64::from);
        self.engine.clear_audit();
    }

    fn execute(&mut self, now: Instant, batch: Vec<Action>) {
        for action in batch {
            match action {
                Action::Send { conn, msg } => self.queue_msg(conn, msg, None),
                Action::SendBlock { conn, block } => {
                    let data = self
                        .engine
                        .data()
                        .block_bytes(block.piece, block.block_index());
                    self.queue_msg(conn, Message::Piece { block, data }, Some(block));
                }
                Action::CancelBlock { conn, block } => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        // Honour the cancel only if no byte of the frame
                        // has left the socket yet.
                        if let Some(pos) = c.out.iter().position(|f| f.block == Some(block)) {
                            if c.out[pos].written == 0 {
                                c.out.remove(pos);
                            }
                        }
                    }
                }
                Action::Disconnect { conn } => {
                    // Engine-initiated close: its state is already gone.
                    if self.conns.remove(&conn).is_some() {
                        self.metrics.disconnects.inc();
                        self.metrics.conns.set(self.conns.len() as i64);
                    }
                }
                Action::Announce { event } => {
                    let peers =
                        self.tracker
                            .announce(self.engine.ip(), event, DEFAULT_NUM_WANT as usize);
                    self.feed(now, Input::TrackerResponse { peers });
                }
                Action::Connect { peer } => match self.tracker.resolve(peer.ip) {
                    Some(addr) => self.dials.push(Dial {
                        addr,
                        attempts_left: DIAL_ATTEMPTS,
                        backoff: DIAL_BACKOFF,
                        next_try: std::time::Instant::now(),
                    }),
                    None => {
                        self.metrics.dial_failures.inc();
                        self.feed(now, Input::ConnectFailed);
                    }
                },
                // Pull-style timers: every pass compares the clock against
                // `next_wakeup()`, and every wait ends by it, so the event
                // needs no storage.
                Action::SetTimer { .. } => {}
            }
        }
    }

    fn queue_msg(&mut self, conn: ConnId, msg: Message, block: Option<BlockRef>) {
        let profiler = self.profiler.clone();
        if let Some(c) = self.conns.get_mut(&conn) {
            if matches!(msg, Message::KeepAlive) {
                self.metrics.keepalives_out.inc();
            }
            let buf = {
                let _span_guard = profiler.span("wire.encode");
                msg.encode_to_vec()
            };
            c.out.push_back(OutFrame {
                buf,
                written: 0,
                block,
            });
        }
    }

    /// Accept every waiting inbound connection into the handshake stage.
    fn accept_pass(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.start_handshake(now, stream, false),
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Try every due dial; retry with doubled backoff, then give up.
    fn dial_pass(&mut self, now: Instant) {
        let wall = std::time::Instant::now();
        let due: Vec<usize> = (0..self.dials.len())
            .filter(|&i| self.dials[i].next_try <= wall)
            .collect();
        // Process from the back so removals keep earlier indices valid.
        for i in due.into_iter().rev() {
            let d = self.dials.remove(i);
            match TcpStream::connect(d.addr) {
                Ok(stream) => self.start_handshake(now, stream, true),
                Err(_) if d.attempts_left > 1 => {
                    self.metrics.dial_retries.inc();
                    self.dials.push(Dial {
                        addr: d.addr,
                        attempts_left: d.attempts_left - 1,
                        backoff: d.backoff * 2,
                        next_try: wall + d.backoff,
                    });
                }
                Err(_) => {
                    self.metrics.dial_failures.inc();
                    self.feed(now, Input::ConnectFailed);
                }
            }
        }
    }

    fn start_handshake(&mut self, now: Instant, stream: TcpStream, initiated: bool) {
        // No Nagle: a `request` is 17 bytes one way with nothing coming
        // back to carry its ACK, so a delayed segment stalls the pipeline.
        let configured = stream
            .set_nonblocking(true)
            .and_then(|()| stream.set_nodelay(true));
        if configured.is_err() {
            if initiated {
                self.metrics.dial_failures.inc();
                self.feed(now, Input::ConnectFailed);
            }
            return;
        }
        let mut hs = Handshake::new(self.engine.info_hash(), self.engine.peer_id());
        hs.reserved = self.engine.handshake_reserved();
        self.pending.push(Pending {
            stream,
            out: hs.encode(),
            out_written: 0,
            inbuf: Vec::with_capacity(HANDSHAKE_LEN),
            initiated,
            deadline: std::time::Instant::now() + HANDSHAKE_TIMEOUT,
            started: now,
        });
    }

    /// Pump every pending handshake; promote completed ones.
    fn pending_pass(&mut self, now: Instant) {
        let wall = std::time::Instant::now();
        let mut pending = std::mem::take(&mut self.pending);
        let mut keep = Vec::with_capacity(pending.len());
        for mut p in pending.drain(..) {
            let mut failed = wall >= p.deadline;
            // Push our handshake out.
            while !failed && p.out_written < HANDSHAKE_LEN {
                match p.stream.write(&p.out[p.out_written..]) {
                    Ok(0) => failed = true,
                    Ok(n) => p.out_written += n,
                    Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => failed = true,
                }
            }
            // Pull theirs in.
            while !failed && p.inbuf.len() < HANDSHAKE_LEN {
                let mut buf = [0u8; HANDSHAKE_LEN];
                let want = HANDSHAKE_LEN - p.inbuf.len();
                match p.stream.read(&mut buf[..want]) {
                    Ok(0) => failed = true,
                    Ok(n) => p.inbuf.extend_from_slice(&buf[..n]),
                    Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => failed = true,
                }
            }
            if failed {
                if p.initiated {
                    self.metrics.dial_failures.inc();
                    self.feed(now, Input::ConnectFailed);
                }
                continue;
            }
            if p.out_written == HANDSHAKE_LEN && p.inbuf.len() == HANDSHAKE_LEN {
                match Handshake::decode(&p.inbuf) {
                    Ok(hs) if hs.info_hash == self.engine.info_hash() => {
                        self.promote(now, p.stream, hs, p.initiated, p.started);
                    }
                    _ => {
                        // Wrong torrent or garbage: silently drop, as the
                        // reference client does.
                        if p.initiated {
                            self.metrics.dial_failures.inc();
                            self.feed(now, Input::ConnectFailed);
                        }
                    }
                }
            } else {
                keep.push(p);
            }
        }
        self.pending = keep;
    }

    /// Hand a completed handshake to the engine; wire up the connection
    /// if it accepts, drop the socket if it refuses.
    fn promote(
        &mut self,
        now: Instant,
        stream: TcpStream,
        hs: Handshake,
        initiated: bool,
        started: Instant,
    ) {
        self.metrics.handshakes_ok.inc();
        self.metrics
            .handshake_us
            .observe(now.0.saturating_sub(started.0));
        let caps = PeerCaps::from_reserved(&hs.reserved);
        let actions = self.engine.handle(
            now,
            Input::PeerConnected {
                ip: peer_ip(&hs.peer_id),
                peer_id: hs.peer_id,
                initiated_by_us: initiated,
                caps,
            },
        );
        let accepted = actions.take_accepted();
        let batch = actions.take();
        if let Some(conn) = accepted {
            // Insert before executing: the batch already carries this
            // connection's bitfield sends.
            self.conns.insert(
                conn,
                NetConn {
                    stream,
                    decoder: Decoder::new(DEFAULT_MAX_FRAME),
                    out: VecDeque::new(),
                    last_recv: now,
                },
            );
            self.metrics.conns.set(self.conns.len() as i64);
        }
        // On refusal (duplicate address, peer-set full) the socket drops
        // here; the remote sees EOF and tells its own engine.
        self.execute(now, batch);
    }

    /// Read available bytes on every connection and feed decoded frames.
    /// Returns whether any byte was read.
    fn read_pass(&mut self, now: Instant) -> bool {
        let profiler = self.profiler.clone();
        let _span_guard = profiler.span("net.read_pass");
        let mut buffered: i64 = 0;
        let mut read_any = false;
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for id in ids {
            let mut msgs = Vec::new();
            let mut dead = false;
            let mut framing_error = false;
            let Some(c) = self.conns.get_mut(&id) else {
                continue;
            };
            let mut buf = [0u8; 16 * 1024];
            let mut read_bytes: u64 = 0;
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        c.decoder.feed(&buf[..n]);
                        c.last_recv = now;
                        read_bytes += n as u64;
                    }
                    Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            {
                let _span_guard = profiler.span("wire.decode");
                loop {
                    match c.decoder.next_message() {
                        Ok(Some(msg)) => msgs.push(msg),
                        Ok(None) => break,
                        Err(_) => {
                            // Framing violation: the stream is unrecoverable.
                            framing_error = true;
                            dead = true;
                            break;
                        }
                    }
                }
            }
            buffered += c.decoder.pending() as i64;
            if read_bytes > 0 {
                read_any = true;
                self.metrics.bytes_in.add(read_bytes);
            }
            if framing_error {
                self.metrics.protocol_errors.inc();
            }
            for msg in msgs {
                // The engine may drop the peer mid-batch (protocol
                // error); discard the rest of its frames if so.
                if self.conns.contains_key(&id) {
                    self.metrics.messages_in.inc();
                    if matches!(msg, Message::KeepAlive) {
                        self.metrics.keepalives_in.inc();
                    }
                    self.feed(now, Input::Message { conn: id, msg });
                }
            }
            if dead && self.conns.contains_key(&id) {
                self.drop_conn(now, id);
            }
        }
        self.metrics.read_buffer_bytes.set(buffered);
        read_any
    }

    /// Flush write queues; report fully-sent blocks to the engine.
    /// Returns whether any byte was written or is still queued.
    fn write_pass(&mut self, now: Instant) -> bool {
        let _span_guard = self.profiler.span("net.write_pass");
        let mut queued_frames: i64 = 0;
        let mut queued_bytes: i64 = 0;
        let mut wrote_any = false;
        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
        for id in ids {
            let mut sent_blocks = Vec::new();
            let mut dead = false;
            let Some(c) = self.conns.get_mut(&id) else {
                continue;
            };
            let mut wrote_bytes: u64 = 0;
            while let Some(front) = c.out.front_mut() {
                match c.stream.write(&front.buf[front.written..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        front.written += n;
                        wrote_bytes += n as u64;
                        if front.written == front.buf.len() {
                            if let Some(block) = front.block {
                                sent_blocks.push(block);
                            }
                            c.out.pop_front();
                        }
                    }
                    Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            queued_frames += c.out.len() as i64;
            queued_bytes += c
                .out
                .iter()
                .map(|f| (f.buf.len() - f.written) as i64)
                .sum::<i64>();
            if wrote_bytes > 0 {
                wrote_any = true;
                self.metrics.bytes_out.add(wrote_bytes);
            }
            for block in sent_blocks {
                self.metrics.blocks_sent.inc();
                if self.conns.contains_key(&id) {
                    self.feed(now, Input::BlockSent { conn: id, block });
                }
            }
            if dead && self.conns.contains_key(&id) {
                self.drop_conn(now, id);
            }
        }
        self.metrics.write_queue_frames.set(queued_frames);
        self.metrics.write_queue_bytes.set(queued_bytes);
        wrote_any || queued_frames > 0
    }

    /// Feed ticks for every elapsed engine deadline.
    fn timer_pass(&mut self, now: Instant) {
        // `do_tick` re-arms strictly later than `now`, so this loop
        // terminates; the guard caps pathological catch-up bursts.
        let mut guard = 0;
        while let Some(at) = self.engine.next_wakeup() {
            if now < at || guard >= 64 {
                break;
            }
            guard += 1;
            self.metrics.ticks.inc();
            self.feed(now, Input::Tick);
        }
    }

    /// Drop connections that have been silent too long (virtual time).
    fn idle_pass(&mut self, now: Instant) {
        let stale: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| now.saturating_since(c.last_recv) > IDLE_TIMEOUT)
            .map(|(id, _)| *id)
            .collect();
        for id in stale {
            self.drop_conn(now, id);
        }
    }

    /// Transport-initiated close: remove the socket, then tell the engine.
    fn drop_conn(&mut self, now: Instant, id: ConnId) {
        self.conns.remove(&id);
        self.metrics.disconnects.inc();
        self.metrics.conns.set(self.conns.len() as i64);
        self.feed(now, Input::PeerDisconnected { conn: id });
    }
}

/// Drive `runtimes` from one loop on the calling thread. Feed
/// [`Input::Start`] to each in index order, so each `Started` announce
/// sees every earlier peer; then repeat a pass over each runtime in
/// index order and one `poll(2)` wait over every socket of every
/// runtime, until a round of passes moves no bytes and `done` holds, or
/// `max_wall` is spent. The wait ends at the nearest runtime deadline
/// or at the end of the budget, whichever comes first.
pub(crate) fn drive(
    runtimes: &mut [NetRuntime],
    profiler: &Profiler,
    max_wall: std::time::Duration,
    done: impl Fn(&[NetRuntime]) -> bool,
) {
    let started = std::time::Instant::now();
    for rt in runtimes.iter_mut() {
        let now = rt.clock.now();
        rt.feed(now, Input::Start);
    }
    let mut fds = Vec::new();
    loop {
        let moved = runtimes
            .iter_mut()
            .fold(false, |moved, rt| rt.pass() | moved);
        let left = max_wall.saturating_sub(started.elapsed());
        if (!moved && done(runtimes)) || left.is_zero() {
            return;
        }
        // A sibling of `net.poll`, not a child: `net.poll` self time is
        // real work, `net.wait` is time blocked on the peers.
        let _span_guard = profiler.span("net.wait");
        fds.clear();
        let timeout = runtimes.iter().fold(left, |t, rt| rt.watch(&mut fds, t));
        sys::wait(&mut fds, timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_core::{DataMode, EngineBuilder};
    use bt_piece::Geometry;
    use bt_wire::metainfo::SyntheticContent;
    use bt_wire::peer_id::ClientKind;

    #[test]
    fn peer_ip_is_deterministic_and_spreads() {
        let a = PeerId::new(ClientKind::Mainline402, 1);
        let b = PeerId::new(ClientKind::Mainline402, 2);
        assert_eq!(peer_ip(&a), peer_ip(&a));
        assert_ne!(peer_ip(&a), peer_ip(&b));
        assert_ne!(peer_ip(&a), IpAddr(0));
    }

    /// An empty-handed peer `index` of a four-piece torrent, registered
    /// with `tracker`.
    fn leecher(
        index: u64,
        tracker: &Arc<LoopbackTracker>,
        clock: AccelClock,
        registry: &Registry,
    ) -> NetRuntime {
        let content = Arc::new(SyntheticContent::generate(
            "rt",
            7,
            4 * 32 * 1024,
            32 * 1024,
        ));
        let peer_id = PeerId::new(ClientKind::Mainline402, 2 * index);
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        tracker.register(peer_ip(&peer_id), listener.local_addr().expect("addr"));
        let geometry = Geometry::from(&content.metainfo);
        let engine = EngineBuilder::new(geometry, content.metainfo.info_hash, peer_id)
            .data(DataMode::Real(content))
            .ip(peer_ip(&peer_id))
            .rng_seed(index)
            .build();
        let label = format!("peer{index}");
        NetRuntime::new(
            engine,
            listener,
            tracker.clone(),
            clock,
            registry,
            &label,
            Profiler::disabled(),
            Tracer::disabled(),
        )
        .expect("runtime")
    }

    /// Two leechers with nothing to trade stay connected, so the
    /// sockets can be inspected once both handshakes have completed.
    #[test]
    fn both_ends_of_a_connection_disable_nagle() {
        let tracker = Arc::new(LoopbackTracker::new());
        let clock = AccelClock::default();
        let registry = Registry::new_wall();
        // Started in index order: the second announce names the first
        // peer, which the second then dials.
        let mut runtimes = [
            leecher(0, &tracker, clock, &registry),
            leecher(1, &tracker, clock, &registry),
        ];
        drive(
            &mut runtimes,
            &Profiler::disabled(),
            std::time::Duration::from_secs(30),
            |_| registry.snapshot().counter_sum("net.handshakes_ok") >= 2,
        );
        for (side, rt) in ["accepting", "dialling"].into_iter().zip(&runtimes) {
            assert_eq!(rt.conns.len(), 1, "{side} side holds the connection");
            for c in rt.conns.values() {
                assert!(c.stream.nodelay().expect("nodelay"), "{side} side");
            }
        }
    }
}
