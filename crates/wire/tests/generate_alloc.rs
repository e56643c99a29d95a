//! Making a torrent's metainfo holds one small run buffer per hashing
//! thread, not a whole piece: the live heap `SyntheticContent::generate`
//! reaches above what its result keeps does not grow with the piece
//! length. The pieces are hashed on worker threads too, so the wrapping
//! global allocator counts every thread, and this binary holds one test.

use bt_wire::metainfo::SyntheticContent;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct Counting;

/// Bytes allocated and not yet freed, on any thread.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The most `LIVE` has been since the last `reset_peak`.
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: i64) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn reset_peak() -> i64 {
    let now = LIVE.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are the only addition.
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
fn generating_4_mib_pieces_peaks_under_512_kib_above_the_result() {
    // A first run sets up whatever the process initialises once.
    drop(SyntheticContent::generate("warm", 1, 3 << 20, 1 << 20));

    let before = reset_peak();
    let content = SyntheticContent::generate("alloc", 3, 16 << 20, 4 << 20);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let kept = LIVE.load(Ordering::Relaxed) - before;

    assert_eq!(content.metainfo.num_pieces(), 4);
    let transient = peak - kept;
    println!("generate peaks at {peak} heap bytes, keeps {kept}: {transient} above its result");
    assert!(
        transient <= 512 << 10,
        "generate peaks at {transient} heap bytes above the {kept} its result keeps"
    );
}
