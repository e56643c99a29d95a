//! Layer probes: each times calls into one layer's public functions
//! over inputs shaped like the workload that leans on the layer.
//!
//! A probe runs its operation in a few batches and reports the median
//! batch, so a stall in one batch does not move the number. The whole
//! set takes a few seconds. Which end-to-end metric each probe should
//! move, and on which workload, is tabled in `benchmark/README.md`.

use crate::stats::median;
use bt_choke::{Choker, LeecherChoker, PeerSnapshot, RateEstimator, SeedChokerNew};
use bt_core::{Action, ConnId, Engine, EngineBuilder, Input, PeerCaps};
use bt_obs::{buckets, Profiler, Registry, SeriesStore, TimeSource, TraceCat, Tracer};
use bt_piece::{Availability, Bitfield, Geometry, PickContext, PickerKind, RequestScheduler};
use bt_sim::{EventQueue, HeapEventQueue, SimTracker, Swarm};
use bt_wire::message::{BlockRef, Decoder, Message};
use bt_wire::peer_id::{ClientKind, IpAddr, PeerId};
use bt_wire::time::{Duration, Instant};
use bt_wire::tracker::{AnnounceEvent, AnnounceResponse, PeerEntry};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant as Wall;

const BATCHES: usize = 7;

/// Calls per batch are divided by this: 1 when measuring, 10 at the
/// self-test's smoke sizes, where only the names matter.
static DIVISOR: AtomicUsize = AtomicUsize::new(1);

/// Median over [`BATCHES`] batches of the time one call of `op` takes,
/// in nanoseconds; each batch makes `iters` calls.
fn ns_per_op(iters: usize, mut op: impl FnMut()) -> f64 {
    let iters = (iters / DIVISOR.load(Ordering::Relaxed)).max(1);
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Wall::now();
        for _ in 0..iters {
            op();
        }
        batches.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&batches)
}

/// The interval two back-to-back clock reads measure, so probes that
/// time single calls can take it off.
fn clock_ns() -> f64 {
    let reads = 100_000;
    let total: f64 = (0..reads)
        .map(|_| black_box(Wall::now()).elapsed().as_nanos() as f64)
        .sum();
    total / f64::from(reads)
}

type Out = Vec<(&'static str, f64)>;

fn wire(out: &mut Out) {
    let block = BlockRef {
        piece: 3,
        offset: 16_384,
        length: 16_384,
    };
    let piece = Message::Piece {
        block,
        data: Bytes::from(vec![0xA5u8; 16_384]),
    };
    let encoded = piece.encode_to_vec();
    out.push((
        "wire.encode_piece_ns",
        ns_per_op(2_000, || {
            black_box(piece.encode_to_vec());
        }),
    ));
    let mut decoder = Decoder::default();
    out.push((
        "wire.decode_piece_ns",
        ns_per_op(2_000, || {
            decoder.feed(&encoded);
            black_box(decoder.next_message().expect("well-formed frame"));
        }),
    ));

    // The control mix of a busy connection: have, request, interested,
    // choke.
    let ctrl = [
        Message::Have(7),
        Message::Request(block),
        Message::Interested,
        Message::Choke,
    ];
    out.push((
        "wire.encode_ctrl_ns",
        ns_per_op(5_000, || {
            for m in &ctrl {
                black_box(m.encode_to_vec());
            }
        }) / ctrl.len() as f64,
    ));
    let ctrl_bytes: Vec<u8> = ctrl.iter().flat_map(Message::encode_to_vec).collect();
    out.push((
        "wire.decode_ctrl_ns",
        ns_per_op(5_000, || {
            decoder.feed(&ctrl_bytes);
            while let Some(m) = decoder.next_message().expect("well-formed frames") {
                black_box(m);
            }
        }) / ctrl.len() as f64,
    ));

    let mib = vec![0x5Au8; 1 << 20];
    let ns = ns_per_op(2, || {
        black_box(bt_wire::sha1::sha1(black_box(&mib)));
    });
    out.push(("wire.sha1_mib_s", 1e9 / ns));

    let response = AnnounceResponse {
        interval: 1800,
        complete: 1,
        incomplete: 49,
        peers: (0..50)
            .map(|i| PeerEntry {
                ip: IpAddr(0x0A00_0000 + i),
                port: 6881,
            })
            .collect(),
    };
    out.push((
        "wire.bencode_tracker_ns",
        ns_per_op(2_000, || {
            let bytes = response.encode_compact();
            black_box(AnnounceResponse::decode_compact(&bytes).expect("round trip"));
        }),
    ));
}

fn random_bitfield(pieces: u32, density: f64, rng: &mut SmallRng) -> Bitfield {
    let mut bf = Bitfield::new(pieces);
    for p in 0..pieces {
        if rng.random_bool(density) {
            bf.set(p);
        }
    }
    bf
}

/// Rarest-first pick over `pieces` pieces with `peers` half-full remote
/// bitfields counted in, the local peer holding every fourth piece.
fn pick_ns(pieces: u32, peers: usize) -> f64 {
    let mut rng = SmallRng::seed_from_u64(9);
    let mut availability = Availability::new(pieces);
    for _ in 0..peers {
        availability.add_peer(&random_bitfield(pieces, 0.5, &mut rng));
    }
    let mut own = Bitfield::new(pieces);
    for p in (0..pieces).step_by(4) {
        own.set(p);
    }
    let remote = Bitfield::full(pieces);
    let mut picker = PickerKind::RarestFirst.build(pieces);
    let never = |_p: u32| false;
    ns_per_op(5_000, || {
        let ctx = PickContext {
            own: &own,
            remote: &remote,
            availability: &availability,
            in_progress: &never,
            downloaded_pieces: pieces / 4,
        };
        black_box(picker.pick(&ctx, &mut rng));
    })
}

fn piece(out: &mut Out) {
    // Table I shape: 256 pieces, a peer set of 80. Crowd shape: 8
    // pieces, 12 peers.
    out.push(("piece.pick_ns.p256", pick_ns(256, 80)));
    out.push(("piece.pick_ns.p8", pick_ns(8, 12)));

    let pieces = 256;
    let mut rng = SmallRng::seed_from_u64(11);
    let mut availability = Availability::new(pieces);
    let mut next = 0;
    out.push((
        "piece.avail_have_ns",
        ns_per_op(50_000, || {
            availability.add_have(next);
            next = (next + 1) % pieces;
        }),
    ));
    let joiner = random_bitfield(pieces, 0.5, &mut rng);
    out.push((
        "piece.avail_peer_ns",
        ns_per_op(2_000, || {
            availability.add_peer(&joiner);
            availability.remove_peer(&joiner);
        }),
    ));
    let own = random_bitfield(pieces, 0.9, &mut rng);
    let remote = random_bitfield(pieces, 0.9, &mut rng);
    out.push((
        "piece.interest_ns",
        ns_per_op(50_000, || {
            black_box(black_box(&own).is_interested_in(black_box(&remote)));
        }),
    ));

    // One whole 256-piece download through the request scheduler, five
    // requests in flight: `next_requests` timed per call,
    // `on_block_received` per block.
    let (mut next_ns, mut recv_ns) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let geometry = Geometry::new(u64::from(pieces) * 256 * 1024, 256 * 1024);
        let mut scheduler: RequestScheduler<u32> = RequestScheduler::new(geometry);
        let mut picker = PickerKind::RarestFirst.build(pieces);
        let mut own = Bitfield::new(pieces);
        let remote = Bitfield::full(pieces);
        let never = |_p: u32| false;
        let (mut next_total, mut calls) = (0.0, 0u64);
        let (mut recv_total, mut blocks) = (0.0, 0u64);
        while !own.is_complete() {
            let downloaded = own.count_ones();
            let t0 = Wall::now();
            let requests = {
                let ctx = PickContext {
                    own: &own,
                    remote: &remote,
                    availability: &availability,
                    in_progress: &never,
                    downloaded_pieces: downloaded,
                };
                scheduler.next_requests(0, &ctx, picker.as_mut(), &mut rng, 5)
            };
            next_total += t0.elapsed().as_nanos() as f64;
            calls += 1;
            assert!(
                !requests.is_empty(),
                "an incomplete torrent has a block to ask for"
            );
            let t1 = Wall::now();
            let mut done = Vec::new();
            for block in &requests {
                done.extend(scheduler.on_block_received(0, *block).completed_piece);
            }
            recv_total += t1.elapsed().as_nanos() as f64;
            blocks += requests.len() as u64;
            for p in done {
                scheduler.on_piece_verified(p);
                own.set(p);
            }
        }
        next_ns.push(next_total / calls as f64);
        recv_ns.push(recv_total / blocks as f64);
    }
    out.push(("piece.sched_next_ns", median(&next_ns)));
    out.push(("piece.sched_recv_ns", median(&recv_ns)));
}

fn choke(out: &mut Out) {
    let mut rng = SmallRng::seed_from_u64(13);
    let peers: Vec<PeerSnapshot> = (0..80)
        .map(|key| PeerSnapshot {
            key,
            interested: rng.random_bool(0.6),
            unchoked: key < 4,
            download_rate: rng.random_range(0.0..200_000.0),
            upload_rate: rng.random_range(0.0..200_000.0),
            last_unchoked: (key % 3 == 0).then(|| Instant::from_secs(u64::from(key))),
            uploaded_to: u64::from(key) * 16_384,
            downloaded_from: u64::from(key) * 8_192,
            snubbed: key % 17 == 0,
        })
        .collect();
    let mut now = Instant::from_secs(100);
    let mut leecher = LeecherChoker::default();
    out.push((
        "choke.leecher_round_ns.p80",
        ns_per_op(2_000, || {
            now += Duration::from_secs(10);
            black_box(leecher.rechoke(now, &peers, &mut rng));
        }),
    ));
    let mut seed = SeedChokerNew::default();
    out.push((
        "choke.seed_round_ns.p80",
        ns_per_op(2_000, || {
            now += Duration::from_secs(10);
            black_box(seed.rechoke(now, &peers, &mut rng));
        }),
    ));
    // A block every 50 ms into the default 20 s window.
    let mut estimator = RateEstimator::default();
    out.push((
        "choke.rate_record_ns",
        ns_per_op(50_000, || {
            now += Duration::from_millis(50);
            estimator.record(now, 16_384);
        }),
    ));
}

/// Per-variant cost of `Engine::handle`, measured on two engines wired
/// back to back by an in-process pump (no driver): a seed serving a
/// fresh leecher a 256-piece torrent in virtual-data mode.
struct HandleTimer {
    /// `(name, total ns, calls)` per input variant.
    by_variant: Vec<(&'static str, f64, u64)>,
    inputs: u64,
    actions: u64,
}

impl HandleTimer {
    /// Feed `input`, timing the `handle` call; `read` sees the returned
    /// buffer before the actions are drained.
    fn feed<T>(
        &mut self,
        engine: &mut Engine,
        now: Instant,
        input: Input,
        read: impl FnOnce(&mut bt_core::Actions) -> T,
    ) -> (T, Vec<Action>) {
        let name = match &input {
            Input::Message { msg, .. } => match msg {
                Message::Have(_) => "core.handle_ns.have",
                Message::Piece { .. } => "core.handle_ns.piece",
                Message::Request(_) => "core.handle_ns.request",
                _ => "",
            },
            Input::Tick => "core.handle_ns.tick",
            Input::BlockSent { .. } => "core.handle_ns.block_sent",
            Input::PeerConnected { .. } => "core.handle_ns.peer_connected",
            Input::PeerDisconnected { .. } => "core.handle_ns.peer_disconnected",
            Input::TrackerResponse { .. } => "core.handle_ns.tracker_response",
            Input::Start | Input::ConnectFailed => "",
        };
        let t0 = Wall::now();
        let buffer = engine.handle(now, input);
        let ns = t0.elapsed().as_nanos() as f64;
        let seen = read(buffer);
        let actions = engine.drain_actions();
        self.inputs += 1;
        self.actions += actions.len() as u64;
        if !name.is_empty() {
            match self.by_variant.iter_mut().find(|(n, _, _)| *n == name) {
                Some(slot) => {
                    slot.1 += ns;
                    slot.2 += 1;
                }
                None => self.by_variant.push((name, ns, 1)),
            }
        }
        (seen, actions)
    }

    fn handle(&mut self, engine: &mut Engine, now: Instant, input: Input) -> Vec<Action> {
        self.feed(engine, now, input, |_| ()).1
    }

    fn connect(
        &mut self,
        engine: &mut Engine,
        now: Instant,
        remote: &Engine,
        initiated_by_us: bool,
    ) -> (ConnId, Vec<Action>) {
        let input = Input::PeerConnected {
            ip: remote.ip(),
            peer_id: remote.peer_id(),
            initiated_by_us,
            caps: PeerCaps::from_reserved(&remote.handshake_reserved()),
        };
        let (accepted, actions) = self.feed(engine, now, input, bt_core::Actions::take_accepted);
        (
            accepted.expect("an engine with room accepts a new address"),
            actions,
        )
    }
}

fn core(out: &mut Out) {
    let pieces = 256u32;
    let geometry = Geometry::new(u64::from(pieces) * 256 * 1024, 256 * 1024);
    let build = |id: u64, have: Bitfield| {
        EngineBuilder::new(
            geometry,
            [7u8; 20],
            PeerId::new(ClientKind::Mainline402, id),
        )
        .ip(IpAddr(id as u32))
        .initial_pieces(have)
        .rng_seed(id)
        .build()
    };
    let clock_ns = clock_ns();
    let mut timer = HandleTimer {
        by_variant: Vec::new(),
        inputs: 0,
        actions: 0,
    };
    let mut now = Instant::ZERO;
    let mut seed = build(1, Bitfield::full(pieces));
    let mut leecher = build(2, Bitfield::new(pieces));
    timer.handle(&mut seed, now, Input::Start);
    timer.handle(&mut leecher, now, Input::Start);
    let (conn_at_seed, a0) = timer.connect(&mut seed, now, &leecher, false);
    let (conn_at_leecher, a1) = timer.connect(&mut leecher, now, &seed, true);

    // Messages in flight, each tagged with the side it is going to.
    let mut wire: VecDeque<(bool, Message)> = VecDeque::new();
    let mut rounds = 0;
    let mut pending = vec![(true, a0), (false, a1)];
    while !leecher.is_seed() && rounds < 64 {
        loop {
            // Turn actions into traffic: a `SendBlock` leaves the
            // sender as a `piece` message and comes back as `BlockSent`.
            while let Some((from_seed, actions)) = pending.pop() {
                for action in actions {
                    match action {
                        Action::Send { msg, .. } => wire.push_back((!from_seed, msg)),
                        Action::SendBlock { block, .. } => {
                            let (engine, conn) = if from_seed {
                                (&mut seed, conn_at_seed)
                            } else {
                                (&mut leecher, conn_at_leecher)
                            };
                            let more = timer.handle(engine, now, Input::BlockSent { conn, block });
                            pending.push((from_seed, more));
                            wire.push_back((
                                !from_seed,
                                Message::Piece {
                                    block,
                                    data: Bytes::new(),
                                },
                            ));
                        }
                        _ => {}
                    }
                }
            }
            let Some((to_seed, msg)) = wire.pop_front() else {
                break;
            };
            let (engine, conn) = if to_seed {
                (&mut seed, conn_at_seed)
            } else {
                (&mut leecher, conn_at_leecher)
            };
            let actions = timer.handle(engine, now, Input::Message { conn, msg });
            pending.push((to_seed, actions));
        }
        // Nothing in flight: let ten seconds pass and tick both, which
        // is where the seed's choke round unchokes the leecher.
        now += Duration::from_secs(10);
        rounds += 1;
        pending.push((true, timer.handle(&mut seed, now, Input::Tick)));
        pending.push((false, timer.handle(&mut leecher, now, Input::Tick)));
    }
    assert!(
        leecher.is_seed(),
        "the pumped leecher completes the torrent"
    );

    // Variants the transfer itself feeds only once or twice.
    for i in 0..200u64 {
        now += Duration::from_secs(10);
        timer.handle(&mut seed, now, Input::Tick);
        let visitor = build(100 + i, Bitfield::new(pieces));
        let (conn, _) = timer.connect(&mut seed, now, &visitor, false);
        timer.handle(&mut seed, now, Input::PeerDisconnected { conn });
    }
    let mut fresh = build(3, Bitfield::new(pieces));
    timer.handle(&mut fresh, now, Input::Start);
    for round in 0..200u32 {
        let peers = (0..50)
            .map(|i| PeerEntry {
                ip: IpAddr(0x0B00_0000 + round * 50 + i),
                port: 6881,
            })
            .collect();
        timer.handle(&mut fresh, now, Input::TrackerResponse { peers });
    }

    for (name, ns, calls) in timer.by_variant {
        out.push((name, (ns / calls as f64 - clock_ns).max(0.0)));
    }
    out.push((
        "core.actions_per_input",
        timer.actions as f64 / timer.inputs as f64,
    ));
}

/// The two event queues behind one interface, so one hold-model loop
/// times both.
trait Queue {
    fn schedule(&mut self, at: Instant, event: u32);
    fn pop(&mut self) -> Option<(Instant, u32)>;
}
impl Queue for EventQueue<u32> {
    fn schedule(&mut self, at: Instant, event: u32) {
        EventQueue::schedule(self, at, event);
    }
    fn pop(&mut self) -> Option<(Instant, u32)> {
        EventQueue::pop(self)
    }
}
impl Queue for HeapEventQueue<u32> {
    fn schedule(&mut self, at: Instant, event: u32) {
        HeapEventQueue::schedule(self, at, event);
    }
    fn pop(&mut self) -> Option<(Instant, u32)> {
        HeapEventQueue::pop(self)
    }
}

/// Hold model: `pending` events stay scheduled; each step pops the
/// earliest and schedules a successor. Delays are message latencies
/// (50–150 ms) with one in sixteen a 10 s timer, as in the swarm loop.
fn queue_ns(mut queue: impl Queue, pending: u32) -> f64 {
    let mut rng = SmallRng::seed_from_u64(17);
    let mut delay = move || {
        if rng.random_range(0..16u32) == 0 {
            Duration::from_secs(10)
        } else {
            Duration(rng.random_range(50_000..150_000u64))
        }
    };
    for e in 0..pending {
        queue.schedule(Instant::ZERO + delay(), e);
    }
    ns_per_op(100_000, || {
        let (at, e) = queue.pop().expect("the hold model never drains");
        queue.schedule(at + delay(), e);
    })
}

fn tracker_ns(registered: usize, scalable: bool, num_want: usize) -> f64 {
    let mut rng = SmallRng::seed_from_u64(19);
    let mut tracker = SimTracker::new();
    tracker.scalable_sampling = scalable;
    for peer in 0..registered {
        tracker.announce(
            peer,
            IpAddr(peer as u32),
            6881,
            peer == 0,
            AnnounceEvent::Started,
            num_want,
            &mut rng,
        );
    }
    let mut peer = 0;
    ns_per_op(1_000, || {
        peer = (peer + 1) % registered;
        black_box(tracker.announce(
            peer,
            IpAddr(peer as u32),
            6881,
            peer == 0,
            AnnounceEvent::Periodic,
            num_want,
            &mut rng,
        ));
    })
}

fn sim(out: &mut Out) {
    // Dense: the 10k crowd keeps ~20k events pending. Sparse: a Table I
    // swarm keeps a few hundred.
    out.push(("sim.queue_ns.dense", queue_ns(EventQueue::new(), 20_000)));
    out.push(("sim.queue_ns.sparse", queue_ns(EventQueue::new(), 300)));
    out.push((
        "sim.heap_queue_ns.dense",
        queue_ns(HeapEventQueue::new(), 20_000),
    ));
    out.push((
        "sim.heap_queue_ns.sparse",
        queue_ns(HeapEventQueue::new(), 300),
    ));
    // The crowd's tracker rations to 10 peers over 10 001 registered;
    // Table I's answers 50 over a swarm of 250.
    out.push(("sim.announce_ns.scalable", tracker_ns(10_001, true, 10)));
    out.push(("sim.announce_ns.legacy", tracker_ns(250, false, 50)));

    let opts = bt_torrents::PresetOptions {
        pieces: crate::workloads::CROWD_PIECES,
        duration: Duration::from_secs(crate::workloads::CROWD_SESSION_SECS),
        ..bt_torrents::PresetOptions::default()
    };
    let new_s: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Wall::now();
            let swarm = Swarm::new(bt_torrents::scenarios::mega_flash_crowd(10_000, &opts));
            let s = t0.elapsed().as_secs_f64();
            drop(swarm);
            s
        })
        .collect();
    out.push(("sim.new_s.p10k", median(&new_s)));
}

fn obs(out: &mut Out) {
    let registry = Registry::new_manual();
    let counter = registry.counter("bench.counter");
    out.push((
        "obs.counter_inc_ns",
        ns_per_op(200_000, || black_box(&counter).inc()),
    ));
    let histogram = registry.histogram("bench.histogram_us", buckets::LATENCY_US);
    let mut v = 0u64;
    out.push((
        "obs.histogram_observe_ns",
        ns_per_op(200_000, || {
            v = (v + 37) % 5_000;
            black_box(&histogram).observe(v);
        }),
    ));

    // Leaf spans under an open root, as `core.*` spans sit under
    // `sim.event`: nothing is flushed until the root closes.
    let enabled = Profiler::new(TimeSource::wall());
    {
        let _root = enabled.span("bench.root");
        out.push((
            "obs.span_ns.enabled",
            ns_per_op(20_000, || drop(black_box(&enabled).span("bench.leaf"))),
        ));
    }
    let disabled = Profiler::disabled();
    out.push((
        "obs.span_ns.disabled",
        ns_per_op(200_000, || drop(black_box(&disabled).span("bench.leaf"))),
    ));

    // The call sites gate on the sampling predicate, then record.
    let trace_one = |tracer: &Tracer, piece: u32| {
        if tracer.sample_piece(piece) {
            tracer.record(
                u64::from(piece),
                TraceCat::Msg,
                "deliver",
                u64::from(piece),
                &[("from", 1), ("to", 2)],
            );
        }
    };
    let sampled = Tracer::new(42, 1);
    let mut p = 0u32;
    out.push((
        "obs.tracer_record_ns.sampled",
        ns_per_op(20_000, || {
            p = p.wrapping_add(1);
            trace_one(&sampled, p);
        }),
    ));
    sampled.flush_local();
    let t0 = Wall::now();
    let exported = sampled.to_jsonl();
    let export_s = t0.elapsed().as_secs_f64();
    let recorded = exported.lines().count();
    assert!(recorded > 0, "the sampled tracer recorded its events");
    let unsampled = Tracer::new(42, u64::MAX);
    out.push((
        "obs.tracer_record_ns.unsampled",
        ns_per_op(200_000, || {
            p = p.wrapping_add(1);
            trace_one(&unsampled, p);
        }),
    ));
    // Export of the events just recorded, per 100 000 of them.
    out.push(("obs.trace_export_s", export_s * 100_000.0 / recorded as f64));

    // A registry the size the observed crowd's is: the simulator's and
    // the engines' shared instruments.
    let crowd_registry = Registry::new_manual();
    let _instruments = bt_sim::SimMetrics::register(&crowd_registry);
    let store = SeriesStore::new(&crowd_registry);
    let mut at = 0u64;
    out.push((
        "obs.series_sample_us",
        ns_per_op(500, || {
            at += 30_000_000;
            crowd_registry.time().advance_to(at);
            store.sample_registry();
        }) / 1e3,
    ));
    out.push((
        "obs.snapshot_jsonl_us",
        ns_per_op(500, || {
            black_box(crowd_registry.snapshot().to_jsonl_line());
        }) / 1e3,
    ));
}

fn analysis(out: &mut Out) {
    // The live monitors over a 10k-peer swarm's ground truth.
    let registry = Registry::new_manual();
    let monitor = bt_analysis::HealthMonitor::new(&registry, bt_analysis::Thresholds::default());
    let mut rng = SmallRng::seed_from_u64(23);
    let counts: Vec<u32> = (0..crate::workloads::CROWD_PIECES)
        .map(|_| rng.random_range(1..10_000u32))
        .collect();
    let starvation: Vec<u64> = (0..10_000).map(|_| rng.random_range(0..120u64)).collect();
    let sample = bt_analysis::LiveSample {
        counts: &counts,
        leecher_unchokes: 30_000,
        reciprocated: 21_000,
        starvation_secs: &starvation,
    };
    let mut at = 0u64;
    out.push((
        "analysis.live_observe_us",
        ns_per_op(200, || {
            at += 30_000_000;
            monitor.observe(at, &sample);
        }) / 1e3,
    ));

    // The offline pipeline and the trace format, on a real local-peer
    // trace (Table I torrent 19 at the quick profile).
    let outcome =
        bt_torrents::run_scenario(&bt_torrents::torrent(19), &bt_torrents::RunConfig::quick());
    let trace = outcome.trace;
    let kevents = trace.len() as f64 / 1e3;
    out.push((
        "analysis.summary_us_per_kevent",
        ns_per_op(3, || {
            black_box(bt_analysis::SessionSummary::from_trace(
                &trace,
                outcome.scaled.piece_len,
            ));
        }) / 1e3
            / kevents,
    ));
    out.push((
        "instrument.push_ns",
        ns_per_op(3, || {
            let mut copy = bt_instrument::Trace::new(trace.meta.clone());
            for (at, event) in &trace.events {
                copy.push(*at, event.clone());
            }
            black_box(copy);
        }) / trace.len() as f64,
    ));
    out.push((
        "instrument.jsonl_us_per_kevent",
        ns_per_op(3, || {
            black_box(trace.to_jsonl());
        }) / 1e3
            / kevents,
    ));
}

/// Run every probe; `(metric name, value)` in the unit `BENCHMARK.json`
/// gives the metric.
pub fn run_all(smoke: bool) -> Vec<(&'static str, f64)> {
    DIVISOR.store(if smoke { 10 } else { 1 }, Ordering::Relaxed);
    let mut out = Vec::new();
    wire(&mut out);
    piece(&mut out);
    choke(&mut out);
    core(&mut out);
    sim(&mut out);
    obs(&mut out);
    analysis(&mut out);
    out
}
