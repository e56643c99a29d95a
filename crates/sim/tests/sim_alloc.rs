//! The simulator's per-event path stays off the heap, and its heap stays
//! small: a small instrumented swarm, run to the end and fingerprinted,
//! makes at most one allocation per simulator event, and a 1 000-leecher
//! flash crowd peaks at a bounded number of heap bytes per peer. Counted
//! per thread by a wrapping global allocator, so the test harness's own
//! threads do not show up in the counts.

use bt_core::Config;
use bt_sim::{BehaviorProfile, CapacityClass, Role, Swarm, SwarmSpec};
use bt_wire::peer_id::ClientKind;
use bt_wire::time::Duration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching them inside
    // the allocator never allocates or runs after thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread and not yet freed (on any thread).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last `reset_peak`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

fn reset_peak() {
    PEAK.with(|p| p.set(live()));
}

fn grow(bytes: i64) {
    let now = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(now)));
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

#[test]
fn instrumented_swarm_allocates_at_most_once_per_event() {
    // A Table I-sized swarm: one seed, twenty leechers joining over the
    // first minute, 64 pieces, peer 1 instrumented.
    let mut peers = vec![BehaviorProfile::seed()];
    for i in 0..20 {
        peers.push(BehaviorProfile::leecher(Duration::from_secs(3 * i)));
    }
    let spec = SwarmSpec {
        seed: 7,
        total_len: 64 * 256 * 1024,
        piece_len: 256 * 1024,
        duration: Duration::from_secs(1_800),
        peers,
        local: Some(1),
        ..SwarmSpec::default()
    };

    let before = allocations();
    let result = Swarm::new(spec).run();
    let digest = result.digest();
    let allocated = allocations() - before;

    let events = result.events_processed;
    assert!(events > 50_000, "too small to measure: {events} events");
    assert!(result.trace.is_some_and(|t| !t.is_empty()));
    assert_ne!(digest, 0);
    let per_event = allocated as f64 / events as f64;
    println!("{allocated} allocations over {events} events: {per_event:.3} per event");
    assert!(
        per_event <= 1.0,
        "{allocated} allocations over {events} events: {per_event:.3} per event"
    );
}

#[test]
fn flash_crowd_peaks_under_10_kib_of_heap_per_peer() {
    // The shape of `bt_torrents::scenarios::mega_flash_crowd` (1 000
    // leechers arriving over a minute, 8 × 64 kB pieces, capped peer
    // sets, a rationing scalable tracker), written out here because
    // bt-sim cannot depend on bt-torrents.
    let leechers = 1_000;
    let mut peers = vec![BehaviorProfile::seed()];
    for i in 0..leechers {
        peers.push(BehaviorProfile {
            role: Role::Leecher,
            client: ClientKind::Mainline402,
            capacity: CapacityClass::Dsl,
            join_at: Duration::from_secs(i % 60),
            seed_linger: Some(Duration::from_secs(180)),
            prepopulate: false,
            restart_after: None,
        });
    }
    let spec = SwarmSpec {
        seed: 42,
        total_len: 8 * 64 * 1024,
        piece_len: 64 * 1024,
        duration: Duration::from_secs(900),
        base_config: Config {
            max_peer_set: 12,
            min_peer_set: 4,
            max_initiated: 6,
            ..Config::default()
        },
        peers,
        available_fraction: 0.0,
        tracker_response_cap: Some(10),
        scalable_tracker: true,
        ..SwarmSpec::default()
    };

    let before = live();
    reset_peak();
    let result = Swarm::new(spec).run();
    let peak_bytes = peak() - before;

    assert!(result.events_processed > 100_000);
    assert_ne!(result.digest(), 0);
    let per_peer = peak_bytes as f64 / 1024.0 / (leechers + 1) as f64;
    println!("peak heap {peak_bytes} bytes: {per_peer:.1} KiB per peer");
    assert!(
        per_peer <= 10.0,
        "peak heap {peak_bytes} bytes: {per_peer:.1} KiB per peer"
    );
}
