//! A Table I outcome holds its local-peer trace once: the heap a
//! finished [`run_scenario`] outcome keeps alive is its trace's events
//! plus a small, fixed remainder, not a second copy of the trace left
//! behind in the swarm result. Counted per thread by a wrapping global
//! allocator, so the test harness's own threads do not show up.

use bt_torrents::runner::{run_scenario, RunConfig};
use bt_torrents::table1::torrent;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it inside
    // the allocator never allocates or runs after thread teardown.
    /// Bytes allocated on this thread and not yet freed (on any thread).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn grow(bytes: i64) {
    LIVE.with(|l| l.set(l.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn an_outcome_holds_its_trace_once() {
    let cfg = RunConfig::quick();
    // A first run sets up whatever the process initialises once, so the
    // measured run counts only what its outcome keeps.
    drop(run_scenario(&torrent(2), &cfg));

    let before = live();
    let outcome = run_scenario(&torrent(3), &cfg);
    let kept = live() - before;

    let events = outcome.trace.events.len();
    assert!(events > 5_000, "too small to measure: {events} events");
    let trace_bytes =
        (outcome.trace.events.capacity() * std::mem::size_of_val(&outcome.trace.events[0])) as i64;
    // The trace's bytes are its event buffer as grown, capacity and all.
    // Everything else an outcome keeps — completion times, the trace's
    // metadata — is a few KiB on a Table I torrent.
    let slack = 64 * 1024;
    let ratio = kept as f64 / trace_bytes as f64;
    println!("outcome keeps {kept} heap bytes for {trace_bytes} bytes of trace events ({events} events): {ratio:.2}x");
    assert!(
        kept <= trace_bytes + trace_bytes / 4 + slack,
        "outcome keeps {kept} heap bytes for {trace_bytes} bytes of trace events: {ratio:.2}x"
    );
    assert!(outcome.result.trace.is_none(), "the result kept its trace");
    assert_ne!(outcome.result.digest(), 0);
}
