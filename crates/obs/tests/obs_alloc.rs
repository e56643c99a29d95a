//! What the observers cost the heap on their hot paths, counted per
//! thread by a wrapping global allocator (so the test harness's own
//! threads do not show up in the count):
//!
//! * a span enter/exit pair under an open root allocates nothing once
//!   its call-tree node exists;
//! * `Tracer::record` allocates a chunk now and then, never per event;
//! * an export allocates per shape and per buffer, never per event;
//! * the trace store holds at most 40 heap bytes an event, counted as
//!   live bytes, chunk slack included.

use bt_obs::{Profiler, TimeSource, TraceCat, Tracer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching them inside
    // the allocator never allocates or runs after thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread and not yet freed (on any thread).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn grow(bytes: i64) {
    LIVE.with(|l| l.set(l.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        grow(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `sim.event` → `core.handle.message` → `core.piece_pick`, as the
/// simulator nests them, plus a second child so lookups walk siblings.
fn nested_spans(prof: &Profiler, clock: &TimeSource, now: u64) {
    let _handle = prof.span("core.handle.message");
    {
        let _pick = prof.span("core.piece_pick");
        clock.advance_to(now);
    }
    let _round = prof.span("core.choke_round");
}

#[test]
fn nested_spans_under_an_open_root_do_not_allocate() {
    let prof = Profiler::new(TimeSource::manual());
    let clock = prof.time().unwrap().clone();
    let root = prof.span("sim.event");
    nested_spans(&prof, &clock, 1); // warm-up: the three nodes
    let before = allocations();
    assert!(before > 0, "the warm-up allocated, and the counter saw it");
    for i in 0..10_000u64 {
        nested_spans(&prof, &clock, 2 + i);
    }
    assert_eq!(
        allocations() - before,
        0,
        "span enter/exit touched the heap"
    );
    drop(root);
    let profile = prof.snapshot();
    let pick = profile
        .get(&["sim.event", "core.handle.message", "core.piece_pick"])
        .unwrap();
    assert_eq!((pick.count, pick.total_us), (10_001, 10_001));
}

const TWO: [(&str, i64); 2] = [("from", 1), ("to", 2)];
const SEVEN: [(&str, i64); 7] = [
    ("peer", 1_234),
    ("rank", 3),
    ("down_bps", 123_456),
    ("up_bps", 23_456),
    ("interested", 1),
    ("snubbed", 0),
    ("outcome", 4),
];

#[test]
fn recording_allocates_per_chunk_and_exporting_per_buffer() {
    let tracer = Tracer::new(42, 1);
    tracer.record(0, TraceCat::Msg, "deliver", 0, &TWO); // warm-up: the arena
    tracer.record(0, TraceCat::Choke, "audit", 0, &SEVEN);
    let before = allocations();
    assert!(before > 0, "the warm-up allocated, and the counter saw it");
    for i in 0..10_000u64 {
        tracer.record(i, TraceCat::Msg, "deliver", i % 8, &TWO);
        tracer.record(i, TraceCat::Choke, "audit", i % 2_000, &SEVEN);
    }
    let recording = allocations() - before;
    assert!(
        recording <= 64,
        "20 000 records made {recording} allocations"
    );

    for i in 10_000..50_000u64 {
        tracer.record(i, TraceCat::Msg, "deliver", i % 8, &TWO);
        tracer.record(i, TraceCat::Choke, "audit", i % 2_000, &SEVEN);
    }
    assert_eq!(tracer.len(), 100_002);
    let before = allocations();
    let jsonl = tracer.to_jsonl();
    let exporting = allocations() - before;
    assert_eq!(jsonl.lines().count(), 100_002);
    assert!(
        exporting <= 64,
        "exporting 100 002 events made {exporting} allocations"
    );
}

#[test]
fn trace_store_holds_at_most_40_bytes_per_event() {
    let before = live();
    let tracer = Tracer::new(42, 1);
    for i in 0..50_000u64 {
        tracer.record(i, TraceCat::Msg, "deliver", i % 8, &TWO);
        tracer.record(i, TraceCat::Choke, "audit", i % 2_000, &SEVEN);
    }
    let held = live() - before;
    let per_event = held as f64 / tracer.len() as f64;
    println!(
        "{held} bytes live for {} events: {per_event:.1} per event",
        tracer.len()
    );
    assert!(
        per_event <= 40.0,
        "{held} bytes live for {} events: {per_event:.1} per event",
        tracer.len()
    );
}
