//! Differential tests: the calendar [`EventQueue`] against the
//! single-`BinaryHeap` [`HeapEventQueue`] reference.
//!
//! The simulator's determinism contract is "pop order is exactly
//! (time, seq) ascending" — the calendar queue only exists to make that
//! order cheap at mega-swarm scale. These tests drive both queues with
//! identical schedule/pop interleavings — including same-instant ties,
//! pushes landing mid-drain at the just-popped instant, peeks that
//! rotate the calendar window, offsets that straddle the wheel's
//! overflow horizon, and bursts of hundreds of events into one far slot
//! whose wheel nodes are freed and reused — and require identical
//! `(time, payload)` streams
//! and identical `now()`/`len()` evolution throughout.

use bt_sim::{EventQueue, HeapEventQueue};
use bt_wire::time::Instant;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + offset` µs. Offsets mix sub-slot values, exact
    /// slot boundaries, multi-slot gaps, and beyond-horizon jumps.
    Push(u64),
    /// Schedule `n` events at the same instant (`now + offset`).
    PushTies(u64, u8),
    /// Schedule `n` events into the one slot at `now + offset`, spread
    /// over its 1 024 µs: a burst that fills many wheel nodes at once,
    /// to be freed and reused as the window crosses the wrap and the
    /// overflow horizon.
    Burst(u64, u16),
    /// Pop one event.
    Pop,
    /// Pop one event, then immediately schedule at the popped instant —
    /// the push-during-pop case that must still fire before anything
    /// later.
    PopThenPushAtNow,
    /// Peek (may rotate the calendar window; must not perturb order).
    Peek,
}

fn arb_offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..2_000,                     // within a slot or two
        2 => 1_020u64..1_030,                 // straddling a slot boundary
        2 => 100_000u64..4_000_000,           // deep into the wheel
        1 => 4_194_304u64..20_000_000,        // past the 4 s overflow horizon
        1 => Just(0u64),                      // exactly now
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => arb_offset().prop_map(Op::Push),
        2 => (arb_offset(), 2u8..6).prop_map(|(o, n)| Op::PushTies(o, n)),
        1 => (2_000_000u64..5_000_000, 1u16..=300).prop_map(|(o, n)| Op::Burst(o, n)),
        4 => Just(Op::Pop),
        1 => Just(Op::PopThenPushAtNow),
        1 => Just(Op::Peek),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any interleaving of schedules, pops, peeks and same-instant
    /// re-schedules produces identical pop streams from both queues.
    #[test]
    fn calendar_matches_heap(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        let mut next_id: u32 = 0;

        for op in ops {
            match op {
                Op::Push(off) => {
                    let at = Instant(cal.now().0 + off);
                    cal.schedule(at, next_id);
                    heap.schedule(at, next_id);
                    next_id += 1;
                }
                Op::PushTies(off, n) => {
                    let at = Instant(cal.now().0 + off);
                    for _ in 0..n {
                        cal.schedule(at, next_id);
                        heap.schedule(at, next_id);
                        next_id += 1;
                    }
                }
                Op::Burst(off, n) => {
                    let slot_start = (cal.now().0 + off) & !1_023;
                    for k in 0..u64::from(n) {
                        let at = Instant(slot_start + k * 389 % 1_024);
                        cal.schedule(at, next_id);
                        heap.schedule(at, next_id);
                        next_id += 1;
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
                Op::PopThenPushAtNow => {
                    let popped = cal.pop();
                    prop_assert_eq!(popped, heap.pop());
                    if popped.is_some() {
                        // Same instant as the event just delivered: must
                        // sort after it (higher seq) but before anything
                        // at a later time.
                        let at = cal.now();
                        cal.schedule(at, next_id);
                        heap.schedule(at, next_id);
                        next_id += 1;
                    }
                }
                Op::Peek => {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                }
            }
            prop_assert_eq!(cal.now(), heap.now());
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.is_empty(), heap.is_empty());
        }

        // Drain whatever is left: the full residual streams must match.
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Heavy same-instant contention: many events at few distinct times
    /// pop in exact insertion (seq) order from both queues.
    #[test]
    fn tie_storms_stay_fifo(
        times in proptest::collection::vec(0u64..5_000_000, 1..6),
        per_time in 1usize..40,
    ) {
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        let mut id = 0u32;
        // Interleave the tie groups so insertion order crosses times.
        for round in 0..per_time {
            for &t in &times {
                let _ = round;
                cal.schedule(Instant(t), id);
                heap.schedule(Instant(t), id);
                id += 1;
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// Pop both queues dry, requiring identical `(time, payload)` streams
/// and identical clocks throughout.
fn drain_both(cal: &mut EventQueue<u32>, heap: &mut HeapEventQueue<u32>) -> Vec<(Instant, u32)> {
    let mut popped = Vec::new();
    loop {
        assert_eq!(cal.peek_time(), heap.peek_time());
        let (a, b) = (cal.pop(), heap.pop());
        assert_eq!(a, b);
        assert_eq!(cal.now(), heap.now());
        let Some(item) = a else { break };
        popped.push(item);
    }
    popped
}

/// Schedule `at` on both queues under the same payload.
fn push_both(cal: &mut EventQueue<u32>, heap: &mut HeapEventQueue<u32>, at: u64, id: u32) {
    cal.schedule(Instant(at), id);
    heap.schedule(Instant(at), id);
}

/// A push into the slot being drained, later than `now` but inside the
/// same 1 024 µs bucket, lands between the bucket's remaining events.
#[test]
fn push_into_draining_slot_at_a_later_instant() {
    let mut cal: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    for (id, at) in [(0, 100), (1, 400), (2, 900), (3, 400), (4, 2_000)] {
        push_both(&mut cal, &mut heap, at, id);
    }
    assert_eq!(cal.pop(), heap.pop()); // t = 100; the bucket is now open
                                       // Later than now, same bucket: before, between and after the rest.
    for (id, at) in [(5, 300), (6, 400), (7, 901), (8, 1_023), (9, 100)] {
        push_both(&mut cal, &mut heap, at, id);
    }
    assert_eq!(cal.pop(), heap.pop()); // t = 100 again (id 9)
    push_both(&mut cal, &mut heap, 650, 10);
    let order: Vec<u32> = drain_both(&mut cal, &mut heap)
        .into_iter()
        .map(|(_, id)| id)
        .collect();
    assert_eq!(order, vec![5, 1, 3, 6, 10, 2, 7, 8, 4]);
}

/// More than 64 events in one slot, scheduled out of time order and
/// interleaved with ties, pop in (time, seq) order.
#[test]
fn more_than_64_events_in_one_slot() {
    let mut cal: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    let base = 5 * 1_024;
    for id in 0..200u32 {
        // A permutation of offsets within the slot, with repeats.
        let off = u64::from(id * 37 % 97) * 10;
        push_both(&mut cal, &mut heap, base + off, id);
    }
    let popped = drain_both(&mut cal, &mut heap);
    assert_eq!(popped.len(), 200);
    assert!(popped.iter().all(|(t, _)| t.0 / 1_024 == 5));
}

/// Neighbouring slots 63 and 64 sit in different occupancy words: the
/// scan must cross the word boundary in both directions of use.
#[test]
fn offsets_straddle_an_occupancy_word_boundary() {
    let mut cal: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    let slot = |s: u64, off: u64| s * 1_024 + off;
    let mut id = 0;
    for at in [
        slot(64, 0),
        slot(63, 1_023),
        slot(64, 5),
        slot(63, 0),
        slot(127, 7),
        slot(128, 0),
        slot(62, 512),
    ] {
        push_both(&mut cal, &mut heap, at, id);
        id += 1;
    }
    // Drain to slot 63, then schedule into 63 (draining) and 64 (next word).
    assert_eq!(cal.pop(), heap.pop());
    assert_eq!(cal.pop(), heap.pop());
    push_both(&mut cal, &mut heap, slot(63, 1_000), id);
    push_both(&mut cal, &mut heap, slot(64, 1), id + 1);
    let popped = drain_both(&mut cal, &mut heap);
    assert_eq!(popped.len(), 7);
}

/// Events across the wheel's wrap (slot 4 095 then slot 0 of the next
/// turn) and just beyond the horizon keep their order.
#[test]
fn offsets_cross_the_wheel_wrap() {
    let mut cal: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    let slot = |s: u64, off: u64| s * 1_024 + off;
    // Move the window to slot 4 000 so 4 095 and 4 096 (wheel index 0)
    // are both inside it.
    push_both(&mut cal, &mut heap, slot(4_000, 3), 0);
    assert_eq!(cal.pop(), heap.pop());
    let mut id = 1;
    for at in [
        slot(4_096, 0),
        slot(4_095, 1_023),
        slot(4_097, 9),
        slot(4_095, 0),
        slot(4_096, 0),
        slot(8_095, 2), // the window's last slot
        slot(8_096, 0), // beyond the horizon: overflow
        slot(4_001, 0),
    ] {
        push_both(&mut cal, &mut heap, at, id);
        id += 1;
    }
    // Pop into slot 4 095, then push into it and past the wrap.
    for _ in 0..2 {
        assert_eq!(cal.pop(), heap.pop());
    }
    push_both(&mut cal, &mut heap, slot(4_095, 1_000), id);
    push_both(&mut cal, &mut heap, slot(4_096, 1), id + 1);
    let popped = drain_both(&mut cal, &mut heap);
    assert_eq!(popped.len(), 8);
    assert_eq!(popped.last().unwrap().0, Instant(slot(8_096, 0)));

    // The next-slot scan itself wraps: from slot 4 050 (last word) with
    // slots 4 051..=4 095 empty, the next event sits at wheel index 3.
    let mut cal: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    push_both(&mut cal, &mut heap, slot(4_050, 0), 0);
    assert_eq!(cal.pop(), heap.pop());
    for (id, at) in [
        (1, slot(4_099, 8)),
        (2, slot(4_099, 2)),
        (3, slot(8_145, 0)),
    ] {
        push_both(&mut cal, &mut heap, at, id);
    }
    let order: Vec<u32> = drain_both(&mut cal, &mut heap)
        .into_iter()
        .map(|(_, id)| id)
        .collect();
    assert_eq!(order, vec![2, 1, 3]);
}
