//! The request → receive cycle inside an open piece touches the heap
//! zero times once its buffers have grown: counted per thread by a
//! wrapping global allocator, so the test harness's own threads do not
//! show up in the count.

use bt_piece::{Availability, Bitfield, Geometry, PickContext, PickerKind, RequestScheduler};
use bt_wire::message::BlockRef;
use bt_wire::metainfo::BLOCK_LEN;
use rand::rngs::SmallRng;
use rand::SeedableRng;
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
fn steady_state_cycle_does_not_allocate() {
    // Two pieces of 64 blocks; two peers, eight requests in flight each.
    const DEPTH: usize = 8;
    let blocks = 64;
    let geometry = Geometry::new(2 * u64::from(blocks * BLOCK_LEN), blocks * BLOCK_LEN);
    let mut scheduler: RequestScheduler<u32> = RequestScheduler::new(geometry);
    let mut picker = PickerKind::RarestFirst.build(2);
    let mut rng = SmallRng::seed_from_u64(3);
    let own = Bitfield::new(2);
    let remote = Bitfield::full(2);
    let mut availability = Availability::new(2);
    availability.add_peer(&remote);
    let never = |_p: u32| false;
    let ctx = PickContext {
        own: &own,
        remote: &remote,
        availability: &availability,
        in_progress: &never,
        downloaded_pieces: 0,
    };

    // Warm-up: both pipelines filled (this opens the first piece and
    // grows every buffer), and the caller's buffers at their size.
    let mut requests: Vec<BlockRef> = Vec::with_capacity(DEPTH);
    let mut in_flight: [Vec<BlockRef>; 2] = [Vec::with_capacity(DEPTH), Vec::with_capacity(DEPTH)];
    for peer in 0..2u32 {
        scheduler.next_requests_into(peer, &ctx, picker.as_mut(), &mut rng, DEPTH, &mut requests);
        in_flight[peer as usize].append(&mut requests);
    }
    assert_eq!(scheduler.total_outstanding(), 2 * DEPTH);

    let before = allocations();
    assert!(before > 0, "the warm-up allocated, and the counter saw it");
    let mut cycles = 0;
    for round in 0..20 {
        for peer in 0..2u32 {
            let mine = &mut in_flight[peer as usize];
            let block = mine.swap_remove(round % mine.len());
            let receipt = scheduler.on_block_received(peer, block);
            assert!(receipt.accepted && receipt.completed_piece.is_none());
            let room = DEPTH - scheduler.outstanding_to(peer);
            scheduler.next_requests_into(
                peer,
                &ctx,
                picker.as_mut(),
                &mut rng,
                room,
                &mut requests,
            );
            assert_eq!(requests.len(), 1, "one block in, one request out");
            mine.append(&mut requests);
            cycles += 1;
        }
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "{cycles} cycles touched the heap");
    assert_eq!(
        scheduler.in_progress().count(),
        1,
        "still in the first piece"
    );
}
