//! The simulator's per-event path stays off the heap: a small
//! instrumented swarm, run to the end and fingerprinted, makes at most
//! one allocation per simulator event. Counted per thread by a wrapping
//! global allocator, so the test harness's own threads do not show up
//! in the count.

use bt_sim::{BehaviorProfile, Swarm, SwarmSpec};
use bt_wire::time::Duration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading it inside
    // the allocator never allocates or runs after thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
