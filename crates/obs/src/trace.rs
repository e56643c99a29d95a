//! Causal trace layer + crash flight recorder.
//!
//! Where the registry aggregates (counters, histograms) and the
//! profiler times spans, this module records *individual* causal
//! events whose ids chain across layers:
//!
//! * **piece lifecycle** — one trace per piece id:
//!   `injected → first_have → block_sent(from,to) → verified →
//!   k_replicated`;
//! * **choke audit** — per rechoke round, per peer: the upload-rate
//!   inputs, the rank the choker assigned, and the
//!   unchoke/optimistic/snub outcome;
//! * **message provenance** — `request → send (delay/loss/cap
//!   outcome) → deliver → have` propagation.
//!
//! Three invariants, all CI-enforced:
//!
//! 1. **Determinism** — sampling decisions are pure
//!    [`splitmix64`] hashes of `(seed, id)`; a [`Tracer`] never draws
//!    from any simulation RNG, so golden traces and digests are
//!    byte-identical with tracing off *and* with sampling on.
//! 2. **Zero cost when off** — [`Tracer::disabled`] is a `None`
//!    inner; every hot-path call is a single branch.
//! 3. **Deterministic export** — events append to one store per
//!    tracer and export as a stably-sorted JSONL plus Chrome
//!    trace-event JSON (open in Perfetto / `chrome://tracing`).
//!
//! The store keeps an event in a 16-byte record (time, shape index,
//! byte offset) plus its chain id and arg values as varints in a byte
//! column. Choke audits, seven small values each, are the bulk of a
//! traced run; a traced 2 000-peer crowd holds about 32 heap bytes an
//! event, chunk slack included.
//!
//! The [`FlightRecorder`] dumps a self-contained JSON bundle — the
//! tracer's last events ([`Tracer::recent`]), registry snapshot, health
//! verdicts, RNG seed + event count for replay — when a live-monitor
//! invariant trips or the run panics.

use crate::registry::Registry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// SplitMix64 finalizer — the same injective mixer `PeerId::new` and
/// the PR 8 peer-class placement use. Sampling decisions hash through
/// this so they cost no RNG draws and never perturb a run.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash-domain separators so piece ids and peer ids sample
/// independently even when the integer ids collide.
const DOMAIN_PIECE: u64 = 0x7069_6563_6500_0001;
const DOMAIN_PEER: u64 = 0x7065_6572_0000_0002;

/// Trace category: which causal chain an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceCat {
    /// Piece lifecycle; `id` is the piece index.
    Piece = 0,
    /// Choke-decision audit; `id` is the deciding peer's chain id (its
    /// index in the simulator, its virtual IP on sockets).
    Choke = 1,
    /// Message provenance; `id` is the piece the message concerns.
    Msg = 2,
}

impl TraceCat {
    /// Lowercase category name used by both exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceCat::Piece => "piece",
            TraceCat::Choke => "choke",
            TraceCat::Msg => "msg",
        }
    }
}

/// One causal trace event. `id` is the chain the event belongs to
/// (piece index for `Piece`/`Msg`, deciding peer for `Choke`); `args`
/// carry the small named integers that make the record self-contained
/// (peers, rates, ranks, delays in µs, outcomes).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual-clock reading (µs).
    pub at_micros: u64,
    /// Causal chain category.
    pub cat: TraceCat,
    /// Event name, e.g. `"block_sent"` or `"audit"`.
    pub name: &'static str,
    /// Chain id.
    pub id: u64,
    /// Named integer payload.
    pub args: Vec<(&'static str, i64)>,
}

impl TraceEvent {
    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let (keys, vals): (Vec<_>, Vec<_>) = self.args.iter().copied().unzip();
        let (at, id) = (self.at_micros, self.id);
        let mut out = Vec::with_capacity(96);
        push_event(&mut out, false, at, self.cat, self.name, id, &keys, &vals);
        String::from_utf8(out).expect("built from strs and digits")
    }
}

fn push_strs(out: &mut Vec<u8>, parts: &[&str]) {
    for part in parts {
        out.extend_from_slice(part.as_bytes());
    }
}

fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The Chrome document's head: the three pid tracks, named once.
const CHROME_HEAD: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
    {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"piece lifecycle\"}},\
    {\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"choke audit\"}},\
    {\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"message provenance\"}}";

/// One event, hand-formatted: a JSONL object
/// `{"t":..,"cat":"..","name":"..","id":..,<args>}`, or with `chrome`
/// a Chrome trace event. The metadata records of [`CHROME_HEAD`]
/// always come first, so every Chrome event, the first too, opens with
/// a separator and an empty trace leaves no dangling comma.
#[allow(clippy::too_many_arguments)]
fn push_event(
    out: &mut Vec<u8>,
    chrome: bool,
    at_micros: u64,
    cat: TraceCat,
    name: &str,
    id: u64,
    keys: &[&str],
    vals: &[i64],
) {
    if chrome {
        let (pid, ph) = match (cat, name) {
            (TraceCat::Piece, "injected") => ("1", "b"),
            (TraceCat::Piece, "k_replicated") => ("1", "e"),
            (TraceCat::Piece, _) => ("1", "n"),
            (TraceCat::Choke, _) => ("2", "i"),
            (TraceCat::Msg, _) => ("3", "i"),
        };
        let lifecycle = ph == "b" || ph == "e";
        let shown = if lifecycle { "lifecycle" } else { name };
        push_strs(out, &[",{\"ph\":\"", ph, "\",\"cat\":\"", cat.as_str()]);
        push_strs(out, &["\",\"name\":\"", shown, "\",\"ts\":"]);
        push_u64(out, at_micros);
        push_strs(out, &[",\"pid\":", pid, ",\"tid\":"]);
        push_u64(out, id);
        if ph == "i" {
            push_strs(out, &[",\"s\":\"t\""]);
        } else {
            push_strs(out, &[",\"id\":"]);
            push_u64(out, id);
        }
        push_strs(out, &[",\"args\":{\"event\":\"", name, "\""]);
    } else {
        push_strs(out, &["{\"t\":"]);
        push_u64(out, at_micros);
        push_strs(out, &[",\"cat\":\"", cat.as_str(), "\",\"name\":\"", name]);
        push_strs(out, &["\",\"id\":"]);
        push_u64(out, id);
    }
    for (k, v) in keys.iter().zip(vals) {
        push_strs(out, &[",\"", k, if *v < 0 { "\":-" } else { "\":" }]);
        push_u64(out, v.unsigned_abs());
    }
    push_strs(out, &[if chrome { "}}" } else { "}" }]);
}

/// One call site as the store sees it: category, event name and arg
/// keys, so an event carries an index in place of them.
#[derive(Clone)]
struct Shape {
    cat: TraceCat,
    name: &'static str,
    keys: Box<[&'static str]>,
}

impl Shape {
    /// Whether a `record` call has this shape. Strings are compared by
    /// address: a call site passes the same literals every time, and
    /// two sites that spell a shape alike at worst hold two copies.
    fn fits(&self, cat: TraceCat, name: &'static str, args: &[(&'static str, i64)]) -> bool {
        let mut keys = self.keys.iter().zip(args);
        self.cat == cat
            && std::ptr::eq(self.name, name)
            && self.keys.len() == args.len()
            && keys.all(|(k, a)| std::ptr::eq(*k, a.0))
    }
}

/// One event: 16 bytes. Its chain id and arg values sit in its chunk's
/// byte column from offset `vals` on: the id as unsigned LEB128, then
/// the `keys.len()` values, each as zigzag LEB128.
#[derive(Clone, Copy)]
struct Rec {
    at_micros: u64,
    shape: u32,
    vals: u32,
}

/// Events a chunk has room for (32 KiB of [`Rec`]s).
const CHUNK_RECS: usize = 2048;

/// Bytes a chunk's byte column has room for (32 KiB): 16 an event, so a
/// chunk of seven-arg choke-audit lines, about 14 bytes each, fills
/// both columns about evenly.
const CHUNK_BYTES: usize = 16 * CHUNK_RECS;

/// The most bytes one LEB128 varint of a `u64` takes.
const VARINT_MAX: usize = 10;

/// Append `v` as unsigned LEB128: seven bits a byte, low bits first,
/// the top bit set on every byte but the last.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read the LEB128 varint at `*at` and step past it.
fn read_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Zigzag: small magnitudes of either sign map to small codes
/// (0, -1, 1, -2, … → 0, 1, 2, 3, …).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// A batch of events in two columns, each allocated at full size: the
/// records, and the bytes their ids and values are encoded in. The
/// store starts a new chunk rather than move a recorded event.
#[derive(Clone)]
struct Chunk {
    recs: Vec<Rec>,
    bytes: Vec<u8>,
}

/// Position of an event in the store: chunk index, then index within.
type Pos = (u32, u32);

/// A tracer's events in the order they were recorded: one shape table
/// and the chunks whose events index it.
#[derive(Clone, Default)]
struct Store {
    shapes: Vec<Shape>,
    chunks: Vec<Chunk>,
}

impl Store {
    /// Append one event to the newest chunk, bytes before the record
    /// that indexes them, so the store is whole between any two steps.
    /// A chunk takes the event only if its byte column has room for the
    /// event's worst case, ten bytes for the id and for each value, so
    /// no event straddles two chunks.
    fn push(
        &mut self,
        at_micros: u64,
        cat: TraceCat,
        name: &'static str,
        id: u64,
        args: &[(&'static str, i64)],
    ) {
        let found = self.shapes.iter().position(|s| s.fits(cat, name, args));
        let shape = found.unwrap_or_else(|| {
            let keys = args.iter().map(|a| a.0).collect();
            self.shapes.push(Shape { cat, name, keys });
            self.shapes.len() - 1
        });
        let need = VARINT_MAX * (1 + args.len());
        let room = |c: &Chunk| c.recs.len() < CHUNK_RECS && c.bytes.len() + need <= CHUNK_BYTES;
        if !self.chunks.last().is_some_and(room) {
            self.chunks.push(Chunk {
                recs: Vec::with_capacity(CHUNK_RECS),
                bytes: Vec::with_capacity(CHUNK_BYTES),
            });
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        let vals = u32::try_from(chunk.bytes.len()).expect("a chunk holds under 2^32 bytes");
        push_varint(&mut chunk.bytes, id);
        for a in args {
            push_varint(&mut chunk.bytes, zigzag(a.1));
        }
        chunk.recs.push(Rec {
            at_micros,
            shape: shape as u32,
            vals,
        });
    }

    /// Events stored.
    fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.recs.len()).sum()
    }

    /// Every position from chunk `first` on, in recording order.
    fn positions(&self, first: usize) -> impl Iterator<Item = Pos> + '_ {
        let chunks = self.chunks.iter().enumerate().skip(first);
        chunks.flat_map(|(c, chunk)| (0..chunk.recs.len() as u32).map(move |i| (c as u32, i)))
    }

    /// The last `n` positions (all of them if fewer), in recording
    /// order: found from the newest chunk back, so a short tail of a
    /// long store walks one or two chunks.
    fn tail(&self, n: usize) -> impl Iterator<Item = Pos> + '_ {
        let (mut first, mut held) = (self.chunks.len(), 0);
        while first > 0 && held < n {
            first -= 1;
            held += self.chunks[first].recs.len();
        }
        self.positions(first).skip(held.saturating_sub(n))
    }

    /// The event at `pos`: its record, its shape and its chain id, with
    /// its arg values decoded into `vals`.
    fn event(&self, (c, i): Pos, vals: &mut Vec<i64>) -> (&Rec, &Shape, u64) {
        let chunk = &self.chunks[c as usize];
        let r = &chunk.recs[i as usize];
        let s = &self.shapes[r.shape as usize];
        let mut at = r.vals as usize;
        let id = read_varint(&chunk.bytes, &mut at);
        vals.clear();
        vals.extend((0..s.keys.len()).map(|_| unzigzag(read_varint(&chunk.bytes, &mut at))));
        (r, s, id)
    }

    /// The event at `pos` as an owned value, decoded through `vals`.
    fn owned(&self, pos: Pos, vals: &mut Vec<i64>) -> TraceEvent {
        let (r, s, id) = self.event(pos, vals);
        TraceEvent {
            at_micros: r.at_micros,
            cat: s.cat,
            name: s.name,
            id,
            args: s.keys.iter().copied().zip(vals.iter().copied()).collect(),
        }
    }

    /// The export order: every position, stable by (time, category,
    /// chain id), so a chain's causal emission order (`injected` before
    /// `first_have` at one instant) survives — which is why the event
    /// name is not part of the key. Time is not assumed monotone: a
    /// shared tracer takes events from several threads and clocks.
    fn sorted(&self) -> Vec<Pos> {
        let mut order = Vec::with_capacity(self.len());
        order.extend(self.positions(0));
        order.sort_by_key(|&(c, i)| {
            let chunk = &self.chunks[c as usize];
            let r = &chunk.recs[i as usize];
            let id = read_varint(&chunk.bytes, &mut (r.vals as usize));
            (r.at_micros, self.shapes[r.shape as usize].cat, id)
        });
        order
    }
}

/// Bytes rendered between two writes to an export's sink.
const EXPORT_CHUNK: usize = 64 << 10;

/// Render the events at `order` into `out`, calling `full` whenever a
/// chunk's worth of text has built up.
fn render(
    store: &Store,
    order: &[Pos],
    chrome: bool,
    out: &mut Vec<u8>,
    mut full: impl FnMut(&mut Vec<u8>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    if chrome {
        out.extend_from_slice(CHROME_HEAD.as_bytes());
    }
    let mut vals = Vec::new();
    for &pos in order {
        let (r, s, id) = store.event(pos, &mut vals);
        push_event(out, chrome, r.at_micros, s.cat, s.name, id, &s.keys, &vals);
        if !chrome {
            out.push(b'\n');
        }
        if out.len() >= EXPORT_CHUNK {
            full(out)?;
        }
    }
    if chrome {
        out.extend_from_slice(b"]}");
    }
    Ok(())
}

/// Sentinel for "no pinned id" in the coverage-guarantee atomics.
const UNPINNED: u64 = u64::MAX;

struct TracerInner {
    seed: u64,
    /// Sample 1-in-`rate` chains; 1 = everything.
    rate: u64,
    /// Coverage guarantee ([`Tracer::set_universe`]): the piece id with
    /// the minimal sampling hash is always sampled, so a rate far above
    /// the piece count still exports ≥ 1 complete lifecycle.
    /// Interior-mutable (set once by the driver after clones exist);
    /// `UNPINNED` = no guarantee.
    pinned_piece: AtomicU64,
    /// Same guarantee for choke audits: the minimal-hash peer id.
    pinned_peer: AtomicU64,
    /// Every event recorded, from every thread.
    events: Mutex<Store>,
    flight: Option<FlightRecorder>,
}

impl TracerInner {
    /// The store. It is whole between any two steps of an update, so
    /// it is valid even if a holder of the lock panicked.
    fn store(&self) -> MutexGuard<'_, Store> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle to the causal trace buffer. Cheap to clone (`Arc`-backed);
/// [`Tracer::disabled`] is a no-op handle whose every call is one
/// branch.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(i) => write!(f, "Tracer(seed={}, rate={})", i.seed, i.rate),
        }
    }
}

impl Tracer {
    /// An enabled tracer sampling 1-in-`rate` chains (`rate` 0 and 1
    /// both mean "every chain"). `seed` keys the sampling hash — use
    /// the swarm seed so reruns sample identical chains.
    pub fn new(seed: u64, rate: u64) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                seed,
                rate: rate.max(1),
                pinned_piece: AtomicU64::new(UNPINNED),
                pinned_peer: AtomicU64::new(UNPINNED),
                events: Mutex::new(Store::default()),
                flight: None,
            })),
        }
    }

    /// The no-op tracer: records nothing, samples nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Attach a flight recorder, whose bundles carry this tracer's last
    /// events. Consumes `self` so the recorder is wired before the
    /// tracer is cloned into drivers. A handle that already has clones
    /// cannot change under them: it becomes a tracer of its own,
    /// starting from a copy of what was recorded so far.
    #[must_use]
    pub fn with_flight(self, recorder: FlightRecorder) -> Tracer {
        let Some(arc) = self.inner else { return self };
        let mut inner = Arc::try_unwrap(arc).unwrap_or_else(|shared| TracerInner {
            seed: shared.seed,
            rate: shared.rate,
            pinned_piece: AtomicU64::new(shared.pinned_piece.load(Ordering::Relaxed)),
            pinned_peer: AtomicU64::new(shared.pinned_peer.load(Ordering::Relaxed)),
            events: Mutex::new(shared.store().clone()),
            flight: None,
        });
        inner.flight = Some(recorder);
        Tracer {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Whether any recording can happen at all.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The flight recorder wired via [`with_flight`](Tracer::with_flight):
    /// drivers reach a run's recorder only here.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.inner.as_ref().and_then(|i| i.flight.as_ref())
    }

    /// Coverage guarantee: given the id universes (`0..num_pieces`,
    /// `0..num_peers`), pin the piece and the peer whose sampling hash
    /// is minimal so they are *always* sampled — a rate far above the
    /// id count still exports ≥ 1 complete lifecycle and ≥ 1 audited
    /// choker. The argmin is over the same splitmix64 hashes sampling
    /// already uses, so it is a pure function of (seed, universe):
    /// deterministic across runs and `--jobs`, and it never consumes
    /// RNG draws. Drivers call this once before the run on a shared
    /// handle (interior mutation — clones see the pin).
    pub fn set_universe(&self, num_pieces: u64, num_peers: u64) {
        let Some(i) = &self.inner else { return };
        if i.rate > 1 {
            if let Some(p) = (0..num_pieces).min_by_key(|&p| splitmix64(i.seed ^ DOMAIN_PIECE ^ p))
            {
                i.pinned_piece.store(p, Ordering::Relaxed);
            }
            if let Some(p) = (0..num_peers).min_by_key(|&p| splitmix64(i.seed ^ DOMAIN_PEER ^ p)) {
                i.pinned_peer.store(p, Ordering::Relaxed);
            }
        }
    }

    fn sample(&self, domain: u64, id: u64, pin: u64) -> bool {
        match &self.inner {
            None => false,
            Some(i) => {
                i.rate == 1 || id == pin || splitmix64(i.seed ^ domain ^ id).is_multiple_of(i.rate)
            }
        }
    }

    /// Is piece `piece`'s lifecycle (and its message provenance) traced?
    pub fn sample_piece(&self, piece: u32) -> bool {
        let pin = self
            .inner
            .as_ref()
            .map_or(UNPINNED, |i| i.pinned_piece.load(Ordering::Relaxed));
        self.sample(DOMAIN_PIECE, u64::from(piece), pin)
    }

    /// Are peer `peer`'s choke decisions audited?
    pub fn sample_peer(&self, peer: u64) -> bool {
        let pin = self
            .inner
            .as_ref()
            .map_or(UNPINNED, |i| i.pinned_peer.load(Ordering::Relaxed));
        self.sample(DOMAIN_PEER, peer, pin)
    }

    /// Record one event into the store. Callers gate on the `sample_*`
    /// predicates; `record` itself never filters.
    pub fn record(
        &self,
        at_micros: u64,
        cat: TraceCat,
        name: &'static str,
        id: u64,
        args: &[(&'static str, i64)],
    ) {
        let Some(inner) = &self.inner else { return };
        inner.store().push(at_micros, cat, name, id, args);
    }

    /// Does nothing: every event is in the store once `record` returns.
    pub fn flush_local(&self) {}

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.store().len())
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The last `n` events recorded (all of them if fewer), oldest
    /// first, in the order `record` was called: what a flight bundle
    /// carries and `bt_analysis::explain_unhealthy` reads.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let store = inner.store();
        let mut vals = Vec::new();
        store.tail(n).map(|p| store.owned(p, &mut vals)).collect()
    }

    /// Run `f` on the store (held locked meanwhile) and its events'
    /// positions in the canonical export order.
    fn with_sorted<R>(&self, f: impl FnOnce(&Store, &[Pos]) -> R) -> R {
        let Some(inner) = &self.inner else {
            return f(&Store::default(), &[]);
        };
        let store = inner.store();
        f(&store, &store.sorted())
    }

    /// Stream the sorted deterministic JSONL (one event object per
    /// line) and/or the Chrome trace-event JSON into the given sinks,
    /// both from one sort, rendered straight from the store and handed
    /// over a chunk of text at a time.
    pub fn export(
        &self,
        jsonl: Option<&mut dyn std::io::Write>,
        chrome: Option<&mut dyn std::io::Write>,
    ) -> std::io::Result<()> {
        self.with_sorted(|store, order| {
            let mut buf = Vec::with_capacity(EXPORT_CHUNK + 1024);
            let mut stream = |is_chrome, sink: Option<&mut dyn std::io::Write>| {
                let Some(w) = sink else { return Ok(()) };
                buf.clear();
                render(store, order, is_chrome, &mut buf, |buf| {
                    w.write_all(buf)?;
                    buf.clear();
                    Ok(())
                })?;
                w.write_all(&buf)
            };
            stream(false, jsonl)?;
            stream(true, chrome)
        })
    }

    /// One export built in memory, in a single buffer.
    fn to_string(&self, chrome: bool) -> String {
        self.with_sorted(|store, order| {
            let mut out = Vec::with_capacity(order.len() * if chrome { 224 } else { 160 });
            render(store, order, chrome, &mut out, |_| Ok(())).expect("nothing is written");
            String::from_utf8(out).expect("built from strs and digits")
        })
    }

    /// Sorted deterministic JSONL export: one event object per line.
    pub fn to_jsonl(&self) -> String {
        self.to_string(false)
    }

    /// Chrome trace-event JSON export (open in Perfetto or
    /// `chrome://tracing`). Piece lifecycles render as async tracks
    /// (`b`/`n`/`e` per piece id), choke audits and message provenance
    /// as instant events on per-id tracks.
    pub fn to_chrome_json(&self) -> String {
        self.to_string(true)
    }
}

/// Context handed to [`FlightRecorder::dump`]: everything a bundle
/// holds besides the recorder's seed.
#[derive(Default)]
pub struct DumpContext<'a> {
    /// The run's last trace events, oldest first: the tracer's
    /// [`recent`](Tracer::recent)`(`[`capacity`](FlightRecorder::capacity)`)`.
    pub trace: &'a [TraceEvent],
    /// Registry whose snapshot is embedded, when one is attached.
    pub registry: Option<&'a Registry>,
    /// Health verdicts JSON (`HealthReport::to_json`), verbatim.
    pub health_json: Option<&'a str>,
    /// Human-readable causal explanation (`bt-analysis` explainer).
    pub explanation: Option<&'a str>,
    /// Events processed so far — with the seed, enough to replay.
    pub events_processed: u64,
}

#[derive(Debug)]
struct FlightInner {
    dir: PathBuf,
    capacity: usize,
    seed: u64,
    dumps: AtomicU64,
}

/// Where and how a run dumps self-contained crash bundles; it holds no
/// events, a bundle's trace is the tracer's own tail. Clone-cheap, and
/// clones share the bundle count.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl FlightRecorder {
    /// Recorder writing bundles under `dir`, each with the last
    /// `capacity` trace events.
    pub fn new(dir: impl Into<PathBuf>, capacity: usize, seed: u64) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                dir: dir.into(),
                capacity: capacity.max(1),
                seed,
                dumps: AtomicU64::new(0),
            }),
        }
    }

    /// Directory bundles are written to.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Seed recorded for replay.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Trace events a bundle carries.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Bundles dumped so far.
    pub fn dumps(&self) -> u64 {
        self.inner.dumps.load(Ordering::Relaxed)
    }

    /// The self-contained bundle as a JSON string: reason, seed and
    /// event count (replay coordinates), the trace slice, the registry
    /// snapshot, health verdicts, and the causal explanation.
    pub fn bundle_json(&self, reason: &str, ctx: &DumpContext<'_>) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        out.push_str("{\"reason\":\"");
        crate::export::escape_json_into(&mut out, reason);
        let _ = write!(
            out,
            "\",\"seed\":{},\"events_processed\":{},\"trace\":[",
            self.inner.seed, ctx.events_processed
        );
        for (i, e) in ctx.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("],\"registry\":");
        match ctx.registry {
            Some(reg) => out.push_str(&reg.snapshot().to_jsonl_line()),
            None => out.push_str("null"),
        }
        out.push_str(",\"health\":");
        match ctx.health_json {
            Some(h) => out.push_str(h),
            None => out.push_str("null"),
        }
        out.push_str(",\"explanation\":");
        match ctx.explanation {
            Some(e) => {
                out.push('"');
                crate::export::escape_json_into(&mut out, e);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Write the bundle to `dir/flightrec-<n>.json` (`n` = dump
    /// ordinal — deterministic, no wall clock) and return its path.
    pub fn dump(&self, reason: &str, ctx: &DumpContext<'_>) -> std::io::Result<PathBuf> {
        let bundle = self.bundle_json(reason, ctx);
        std::fs::create_dir_all(&self.inner.dir)?;
        let n = self.inner.dumps.fetch_add(1, Ordering::Relaxed);
        let path = self.inner.dir.join(format!("flightrec-{n}.json"));
        std::fs::write(&path, bundle)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeSource;

    impl Tracer {
        /// All recorded events in the canonical export order (stable by
        /// time, category, chain id), as owned values. Non-destructive.
        fn snapshot_sorted(&self) -> Vec<TraceEvent> {
            self.with_sorted(|store, order| {
                let mut vals = Vec::new();
                order.iter().map(|&p| store.owned(p, &mut vals)).collect()
            })
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert!(!t.sample_piece(0));
        assert!(!t.sample_peer(0));
        t.record(1, TraceCat::Piece, "injected", 0, &[]);
        assert!(t.snapshot_sorted().is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn rate_one_samples_everything() {
        let t = Tracer::new(42, 1);
        for i in 0..100 {
            assert!(t.sample_piece(i));
            assert!(t.sample_peer(u64::from(i)));
        }
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_one_in_rate() {
        let a = Tracer::new(7, 16);
        let b = Tracer::new(7, 16);
        let hits: Vec<u32> = (0..10_000).filter(|&i| a.sample_piece(i)).collect();
        let hits_b: Vec<u32> = (0..10_000).filter(|&i| b.sample_piece(i)).collect();
        assert_eq!(hits, hits_b, "same seed+rate must sample identically");
        // 10_000 / 16 = 625 expected; allow a generous band.
        assert!(
            (300..1000).contains(&hits.len()),
            "1-in-16 sampling hit {} of 10000",
            hits.len()
        );
        // Different seed samples a different set.
        let c = Tracer::new(8, 16);
        let hits_c: Vec<u32> = (0..10_000).filter(|&i| c.sample_piece(i)).collect();
        assert_ne!(hits, hits_c);
    }

    #[test]
    fn universe_pin_guarantees_one_piece_and_peer_at_any_rate() {
        // 8 pieces at 1-in-1024: hash sampling alone would almost
        // certainly pick nothing; the pin must still cover one of each.
        let t = Tracer::new(42, 1024);
        t.set_universe(8, 16);
        let pieces: Vec<u32> = (0..8).filter(|&p| t.sample_piece(p)).collect();
        let peers: Vec<u64> = (0..16).filter(|&p| t.sample_peer(p)).collect();
        assert!(!pieces.is_empty(), "no piece pinned");
        assert!(!peers.is_empty(), "no peer pinned");
        // The pin is a pure function of (seed, universe): same again.
        let u = Tracer::new(42, 1024);
        u.set_universe(8, 16);
        assert_eq!(
            pieces,
            (0..8).filter(|&p| u.sample_piece(p)).collect::<Vec<_>>()
        );
        assert_eq!(
            peers,
            (0..16).filter(|&p| u.sample_peer(p)).collect::<Vec<_>>()
        );
        // A different seed pins differently (piece domain, 1 of 8 — use
        // a universe large enough that equal argmins are implausible).
        let v = Tracer::new(43, 1 << 30);
        v.set_universe(100_000, 100_000);
        let w = Tracer::new(44, 1 << 30);
        w.set_universe(100_000, 100_000);
        let vp: Vec<u32> = (0..100_000).filter(|&p| v.sample_piece(p)).collect();
        let wp: Vec<u32> = (0..100_000).filter(|&p| w.sample_piece(p)).collect();
        assert_ne!(vp, wp);
        // An empty universe pins nothing and samples nothing.
        let e = Tracer::new(1, 64);
        e.set_universe(0, 0);
        assert!((0..1000).all(|p| !e.sample_piece(p) || splitmix_hit(1, p)));
    }

    /// Whether plain hash sampling (rate 64, seed 1) would hit `p`.
    fn splitmix_hit(seed: u64, p: u32) -> bool {
        splitmix64(seed ^ super::DOMAIN_PIECE ^ u64::from(p)).is_multiple_of(64)
    }

    #[test]
    fn export_sorts_stably_and_renders_jsonl() {
        let t = Tracer::new(1, 1);
        t.record(20, TraceCat::Msg, "deliver", 3, &[("to", 2)]);
        t.record(10, TraceCat::Piece, "injected", 3, &[]);
        t.record(10, TraceCat::Piece, "first_have", 3, &[("to", 1)]);
        let events = t.snapshot_sorted();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "injected");
        assert_eq!(events[1].name, "first_have");
        assert_eq!(events[2].name, "deliver");
        let jsonl = t.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"t\":10,\"cat\":\"piece\",\"name\":\"injected\",\"id\":3}\n\
             {\"t\":10,\"cat\":\"piece\",\"name\":\"first_have\",\"id\":3,\"to\":1}\n\
             {\"t\":20,\"cat\":\"msg\",\"name\":\"deliver\",\"id\":3,\"to\":2}\n"
        );
    }

    /// Chunk lengths, in events.
    fn chunk_lens(t: &Tracer) -> Vec<usize> {
        let store = t.inner.as_ref().unwrap().store();
        store.chunks.iter().map(|c| c.recs.len()).collect()
    }

    #[test]
    fn store_starts_a_chunk_when_one_is_full() {
        // Small events fill the record column first: 2 048 a chunk.
        let t = Tracer::new(1, 1);
        let n = 2 * CHUNK_RECS + 10;
        for i in 0..n as u64 {
            let args: &[(&'static str, i64)] = if i % 2 == 0 { &[] } else { &[("i", 7)] };
            t.record(i, TraceCat::Choke, "audit", 0, args);
        }
        assert_eq!(chunk_lens(&t), [CHUNK_RECS, CHUNK_RECS, 10]);
        assert_eq!(t.inner.as_ref().unwrap().store().shapes.len(), 2);
        assert_eq!(t.snapshot_sorted().len(), n);
        // Snapshot again: nothing lost, nothing duplicated.
        assert_eq!(t.snapshot_sorted().len(), n);
        assert_eq!(t.len(), n);

        // Wide events fill the byte column first: a ten-byte id and nine
        // ten-byte values, 100 bytes an event, which a chunk takes while
        // it has 100 bytes free and never reallocates for.
        let t = Tracer::new(1, 1);
        let args = [("v", i64::MIN); 9];
        for i in 0..1_000 {
            t.record(i, TraceCat::Choke, "audit", u64::MAX, &args);
        }
        let per_chunk = CHUNK_BYTES / 100;
        assert_eq!(
            chunk_lens(&t),
            [per_chunk, per_chunk, per_chunk, 1_000 - 3 * per_chunk]
        );
        let store = t.inner.as_ref().unwrap().store();
        assert!(store
            .chunks
            .iter()
            .all(|c| c.bytes.capacity() == CHUNK_BYTES));
        drop(store);
        let events = t.snapshot_sorted();
        assert!(events.iter().all(|e| e.id == u64::MAX && e.args == args));
    }

    /// A source of test inputs: successive `splitmix64` outputs.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 += 1;
            splitmix64(self.0)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Full-range or extreme with odds 1 in `wide`, else small.
        fn value(&mut self, wide: u64) -> i64 {
            match (self.below(wide), self.below(5)) {
                (0, 0) => i64::MIN,
                (0, 1) => i64::MAX,
                (0, 2) => -1,
                (0, 3) => 0,
                (0, _) => self.next() as i64,
                _ => self.below(200) as i64 - 100,
            }
        }

        fn id(&mut self, wide: u64) -> u64 {
            match (self.below(wide), self.below(2)) {
                (0, 0) => u64::MAX,
                (0, _) => self.next(),
                _ => self.below(4),
            }
        }
    }

    static NAMES: [&str; 4] = ["injected", "k_replicated", "audit", "deliver"];
    static KEYS: [&str; 9] = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];

    /// The store against a plain list of the events pushed: exports,
    /// sorted by a stable sort of that list and rendered event by event,
    /// and `recent`, its tail.
    #[test]
    fn store_matches_a_plain_event_list() {
        // Mostly small values fill the record column first; mostly wide
        // ones, the byte column.
        for (seed, wide, records_fill) in [(1, 16, true), (2, 2, false)] {
            let mut draw = Draw(seed);
            let t = Tracer::new(seed, 1);
            let mut pushed = Vec::new();
            let mut at = 1_000u64;
            for _ in 0..3 * CHUNK_RECS + 100 {
                // Time mostly stands or steps on, and now and then goes back.
                at = match draw.below(8) {
                    0 => at.saturating_sub(draw.below(500)),
                    1 | 2 => at,
                    _ => at + draw.below(20),
                };
                let cat = [TraceCat::Piece, TraceCat::Choke, TraceCat::Msg][draw.below(3) as usize];
                let name = NAMES[draw.below(4) as usize];
                let id = draw.id(wide);
                let nargs = draw.below(10) as usize;
                let args: Vec<_> = KEYS[..nargs]
                    .iter()
                    .map(|&k| (k, draw.value(wide)))
                    .collect();
                t.record(at, cat, name, id, &args);
                pushed.push(TraceEvent {
                    at_micros: at,
                    cat,
                    name,
                    id,
                    args,
                });
            }

            let lens = chunk_lens(&t);
            let full = &lens[..lens.len() - 1];
            assert!(full.len() >= 3, "{lens:?}");
            assert_eq!(
                full.iter().all(|&n| n == CHUNK_RECS),
                records_fill,
                "{lens:?}"
            );

            let mut sorted = pushed.clone();
            sorted.sort_by_key(|e| (e.at_micros, e.cat, e.id));
            let jsonl: String = sorted.iter().map(|e| e.to_json() + "\n").collect();
            assert_eq!(t.to_jsonl(), jsonl);
            let mut chrome = CHROME_HEAD.as_bytes().to_vec();
            for e in &sorted {
                let (keys, vals): (Vec<_>, Vec<_>) = e.args.iter().copied().unzip();
                push_event(
                    &mut chrome,
                    true,
                    e.at_micros,
                    e.cat,
                    e.name,
                    e.id,
                    &keys,
                    &vals,
                );
            }
            chrome.extend_from_slice(b"]}");
            assert_eq!(t.to_chrome_json().as_bytes(), chrome);

            let len = pushed.len();
            for n in [
                0,
                1,
                5,
                CHUNK_RECS - 1,
                CHUNK_RECS,
                CHUNK_RECS + 1,
                len - 1,
                len,
                len + 5,
            ] {
                assert_eq!(t.recent(n), pushed[len.saturating_sub(n)..], "recent({n})");
            }
        }
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let t = Tracer::new(1, 1);
        t.record(5, TraceCat::Piece, "injected", 7, &[("by", 0)]);
        t.record(
            9,
            TraceCat::Piece,
            "block_sent",
            7,
            &[("from", 0), ("to", 3)],
        );
        t.record(12, TraceCat::Piece, "k_replicated", 7, &[("copies", 4)]);
        t.record(6, TraceCat::Choke, "audit", 2, &[("peer", 9), ("rank", 1)]);
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"n\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"event\":\"block_sent\",\"from\":0,\"to\":3"));
        // Balanced braces/brackets — cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn chrome_export_of_empty_snapshot_has_no_dangling_comma() {
        // A tracer that recorded nothing still exports valid JSON (no
        // `},]` tail).
        let t = Tracer::new(1, 1);
        let json = t.to_chrome_json();
        assert!(json.ends_with("}}]}"), "unexpected tail: {json}");
        assert!(!json.contains(",]"));
        t.record(1, TraceCat::Msg, "send", 0, &[]);
        assert!(!t.to_chrome_json().contains(",]"));
        assert_eq!(Tracer::disabled().to_chrome_json(), json);
    }

    #[test]
    fn negative_and_extreme_values_render_as_fmt_would() {
        let t = Tracer::new(1, 1);
        let args = [("lo", i64::MIN), ("hi", i64::MAX), ("neg", -1), ("zero", 0)];
        t.record(u64::MAX, TraceCat::Choke, "audit", u64::MAX, &args);
        let expected = format!(
            "{{\"t\":{0},\"cat\":\"choke\",\"name\":\"audit\",\"id\":{0},\"lo\":{1},\"hi\":{2},\"neg\":-1,\"zero\":0}}",
            u64::MAX,
            i64::MIN,
            i64::MAX
        );
        assert_eq!(t.to_jsonl(), format!("{expected}\n"));
        assert_eq!(t.snapshot_sorted()[0].to_json(), expected);
        assert_eq!(t.snapshot_sorted()[0].args, args);
    }

    #[test]
    fn one_export_call_streams_both_documents() {
        let t = Tracer::new(1, 1);
        // Enough events that the writer hands over several chunks.
        for i in 0..5_000u64 {
            t.record(
                5_000 - i,
                TraceCat::Piece,
                "verified",
                i % 7,
                &[("peer", 3)],
            );
            t.record(
                i,
                TraceCat::Choke,
                "round",
                1,
                &[("flips", -2), ("peers", 9)],
            );
        }
        assert_eq!((t.len(), t.is_empty()), (10_000, false));
        let (mut jsonl, mut chrome) = (Vec::new(), Vec::new());
        t.export(Some(&mut jsonl), Some(&mut chrome)).unwrap();
        assert!(jsonl.len() > 2 * EXPORT_CHUNK);
        assert_eq!(String::from_utf8(jsonl).unwrap(), t.to_jsonl());
        assert_eq!(String::from_utf8(chrome).unwrap(), t.to_chrome_json());
        assert_eq!(t.to_jsonl().lines().count(), t.len());
        let times: Vec<u64> = t.snapshot_sorted().iter().map(|e| e.at_micros).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Either sink alone, and a disabled tracer's (empty) documents.
        let mut only = Vec::new();
        t.export(None, Some(&mut only)).unwrap();
        assert_eq!(String::from_utf8(only).unwrap(), t.to_chrome_json());
        let (mut jsonl, mut chrome) = (Vec::new(), Vec::new());
        let off = Tracer::disabled();
        off.export(Some(&mut jsonl), Some(&mut chrome)).unwrap();
        assert!(jsonl.is_empty() && (off.len(), off.is_empty()) == (0, true));
        assert_eq!(String::from_utf8(chrome).unwrap(), off.to_chrome_json());
    }

    #[test]
    fn events_from_several_threads_merge_in_export_order() {
        let t = Tracer::new(1, 1);
        let handles: Vec<_> = (0..4u64)
            .map(|w| {
                let t = t.clone();
                std::thread::spawn(move || {
                    // Each worker has shapes of its own and shared ones.
                    for i in 0..700u64 {
                        t.record(i, TraceCat::Msg, "deliver", w, &[("to", w as i64)]);
                        if w % 2 == 0 {
                            t.record(i, TraceCat::Piece, "verified", w, &[]);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = t.snapshot_sorted();
        assert_eq!(events.len(), 4 * 700 + 2 * 700);
        assert!(events
            .windows(2)
            .all(|w| (w[0].at_micros, w[0].cat, w[0].id) <= (w[1].at_micros, w[1].cat, w[1].id)));
        for e in &events {
            match e.name {
                "deliver" => assert_eq!(e.args, [("to", e.id as i64)]),
                _ => assert!(e.args.is_empty() && e.cat == TraceCat::Piece),
            }
        }
    }

    /// A thread's events are in the store as soon as it recorded them,
    /// whether or not it says so before it exits.
    #[test]
    fn a_thread_that_exits_without_flushing_loses_no_event() {
        let t = Tracer::new(1, 1);
        let worker = t.clone();
        std::thread::spawn(move || {
            for i in 0..10u64 {
                worker.record(i, TraceCat::Msg, "send", i, &[("to", 1)]);
            }
        })
        .join()
        .unwrap();
        assert_eq!(t.len(), 10);
        assert_eq!(t.to_jsonl().lines().count(), 10);
    }

    /// `with_flight` on a handle that has clones gives it a store of its
    /// own: the clones keep recording into the shared one.
    #[test]
    fn reconfiguring_a_cloned_handle_makes_an_independent_tracer() {
        let a = Tracer::new(5, 1);
        a.record(1, TraceCat::Msg, "send", 0, &[("who", 0)]);
        let dir = std::env::temp_dir().join("bt-trace-reconfigured-unused");
        let b = a.clone().with_flight(FlightRecorder::new(&dir, 4, 5));
        let c = b.clone().with_flight(FlightRecorder::new(&dir, 4, 5));
        a.record(2, TraceCat::Msg, "send", 0, &[("who", 0)]);
        b.record(3, TraceCat::Msg, "send", 0, &[("who", 1)]);
        c.record(4, TraceCat::Msg, "send", 0, &[("who", 2)]);
        let who = |t: &Tracer| -> Vec<(u64, i64)> {
            let events = t.snapshot_sorted();
            events.iter().map(|e| (e.at_micros, e.args[0].1)).collect()
        };
        // Each starts from what was recorded before it split off and
        // then holds only its own.
        assert_eq!(who(&b), [(1, 0), (3, 1)]);
        assert_eq!(who(&a), [(1, 0), (2, 0)]);
        assert_eq!(who(&c), [(1, 0), (4, 2)]);
        // So does what each one's flight bundles would carry.
        let tail = |t: &Tracer| -> Vec<u64> {
            let recent = t.recent(t.flight().unwrap().capacity());
            recent.iter().map(|e| e.at_micros).collect()
        };
        assert_eq!((tail(&b), tail(&c)), (vec![1, 3], vec![1, 4]));
        assert!(a.flight().is_none());
    }

    /// A bundle's trace is the tracer's last `capacity` events, oldest
    /// first in recording order (not export order), across chunks.
    #[test]
    fn bundle_trace_is_the_tracers_last_capacity_events() {
        let dir = std::env::temp_dir().join(format!("bt-flightrec-{}", std::process::id()));
        let fr = FlightRecorder::new(&dir, 4, 99);
        let t = Tracer::new(99, 1).with_flight(fr.clone());
        for i in 0..10u64 {
            t.record(i * 7 % 10, TraceCat::Msg, "send", i, &[]);
        }
        let recent = t.recent(fr.capacity());
        let times = |events: &[TraceEvent]| events.iter().map(|e| e.at_micros).collect::<Vec<_>>();
        assert_eq!(times(&recent), [2, 9, 6, 3]);
        assert_eq!(t.recent(100).len(), 10);
        assert!(Tracer::disabled().recent(4).is_empty());
        let reg = Registry::new(TimeSource::manual());
        reg.counter("x").add(3);
        let ctx = DumpContext {
            trace: &recent,
            registry: Some(&reg),
            health_json: Some("{\"healthy\":false}"),
            explanation: Some("peer 3 starved"),
            events_processed: 1234,
        };
        let bundle = fr.bundle_json("invariant:starvation", &ctx);
        assert!(bundle.contains("\"reason\":\"invariant:starvation\""));
        assert!(bundle.contains("\"seed\":99"));
        assert!(bundle.contains("\"events_processed\":1234"));
        assert!(bundle.contains("\"healthy\":false"));
        assert!(bundle.contains("peer 3 starved"));
        assert!(bundle.contains("\"x\":3"));
        let trace = serde::json::parse(&bundle)
            .unwrap()
            .get("trace")
            .unwrap()
            .clone();
        let bundled = trace
            .as_array()
            .unwrap()
            .iter()
            .map(|e| e.get("t").unwrap().as_u64());
        assert_eq!(bundled.collect::<Option<Vec<_>>>().unwrap(), [2, 9, 6, 3]);
        let path = fr.dump("invariant:starvation", &ctx).unwrap();
        assert!(path.ends_with("flightrec-0.json"));
        let read_back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read_back, bundle);
        let _ = std::fs::remove_dir_all(&dir);
        // Past a chunk boundary the tail still runs oldest first.
        for i in 10..CHUNK_RECS as u64 + 12 {
            t.record(i, TraceCat::Msg, "send", i, &[]);
        }
        let last = CHUNK_RECS as u64 + 11;
        assert_eq!(times(&t.recent(4)), [last - 3, last - 2, last - 1, last]);
    }

    #[test]
    fn bundle_members_are_exactly_the_documented_seven_in_order() {
        let fr = FlightRecorder::new(std::env::temp_dir(), 4, 99);
        // Order: the bare bundle, byte for byte.
        assert_eq!(
            fr.bundle_json("http", &DumpContext::default()),
            "{\"reason\":\"http\",\"seed\":99,\"events_processed\":0,\"trace\":[],\
             \"registry\":null,\"health\":null,\"explanation\":null}"
        );
        // Membership and well-formedness with every member populated.
        let t = Tracer::new(99, 1).with_flight(fr.clone());
        t.record(1, TraceCat::Msg, "send", 0, &[("to", 2)]);
        let reg = Registry::new(TimeSource::manual());
        reg.counter("x").inc();
        let recent = t.recent(fr.capacity());
        let ctx = DumpContext {
            trace: &recent,
            registry: Some(&reg),
            health_json: Some("{\"healthy\":true}"),
            explanation: Some("a \"quoted\"\nline"),
            events_processed: 7,
        };
        let bundle = fr.bundle_json("invariant:starvation", &ctx);
        let parsed = serde::json::parse(&bundle).expect("bundle is valid JSON");
        let members = parsed.as_object().expect("bundle is an object");
        assert_eq!(
            members.keys().collect::<Vec<_>>(),
            [
                "events_processed",
                "explanation",
                "health",
                "reason",
                "registry",
                "seed",
                "trace"
            ],
            "the parser sorts keys"
        );
        assert_eq!(
            parsed
                .get("trace")
                .and_then(|t| t.as_array())
                .map(<[_]>::len),
            Some(1)
        );
    }
}
