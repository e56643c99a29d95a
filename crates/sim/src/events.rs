//! The discrete-event queue.
//!
//! Timestamped events with a monotonically increasing sequence number as
//! tie-break, so same-instant events pop in insertion order — this keeps
//! per-link message delivery FIFO and makes whole-swarm runs bit-for-bit
//! reproducible for a given seed.
//!
//! [`EventQueue`] is a calendar queue: a wheel of fixed-width time
//! buckets in front of an overflow heap. The bucket being drained is
//! sorted once, latest first, and popped from its end; a one-bit-per-slot
//! occupancy bitmap finds the next non-empty bucket a word at a time.
//! The buckets waiting on the wheel are linked lists through one slab
//! whose freed nodes are reused, so the wheel's memory is bounded by the
//! most events it has held at once, not by every bucket's high-water
//! mark.
//! Near-term scheduling and popping are O(1) amortized (plus one sort per
//! bucket) instead of the O(log n) of a single global heap — the
//! difference that keeps 100k-peer swarms at millions of events per
//! second. The original single-heap queue is retained as
//! [`HeapEventQueue`]; `tests/event_queue_diff.rs` holds the two to
//! identical pop order (including same-instant ties and pushes
//! interleaved with pops), which is the determinism contract every golden
//! trace relies on.

use bt_wire::time::Instant;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queued entry: fire time, insertion sequence, payload.
struct Entry<E> {
    at: Instant,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. The same
        // order sorts a bucket ascending with its earliest event last.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// Calendar bucket width: 2^10 µs ≈ 1 ms, matching the link-latency and
/// sub-round timescale where most simulator events cluster.
const SLOT_BITS: u32 = 10;
/// Number of wheel slots; the wheel spans `NUM_SLOTS << SLOT_BITS` µs
/// (≈ 4 s). Anything scheduled further out waits in the overflow heap.
const NUM_SLOTS: u64 = 4096;
/// Words of the occupancy bitmap, one bit per wheel slot.
const WORDS: usize = (NUM_SLOTS / 64) as usize;
/// The end of a slot's list and of the free list.
const NIL: u32 = u32::MAX;

/// Earliest-first event queue with FIFO tie-breaking.
///
/// ```
/// use bt_sim::EventQueue;
/// use bt_wire::time::Instant;
/// let mut q = EventQueue::new();
/// q.schedule(Instant::from_secs(5), "later");
/// q.schedule(Instant::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.now(), Instant::from_secs(1)); // clock follows pops
/// ```
///
/// # Invariants
///
/// With `slot(t) = t / 2^SLOT_BITS` and `cur_slot` the slot being
/// drained:
///
/// * `cur` holds every pending event with `slot(at) <= cur_slot`, sorted
///   on (time, seq) with the earliest last — so pops within the current
///   bucket are exact;
/// * `wheel[s % NUM_SLOTS]` is the `(head, tail)` of the list of slab
///   nodes holding the events of slot `s` for
///   `cur_slot < s < cur_slot + NUM_SLOTS`, in insertion order — strictly
///   later than everything in `cur` — and bit `s % NUM_SLOTS` of
///   `occupied` is set exactly when that list is non-empty;
/// * every slab node is either on exactly one slot's list, holding an
///   entry, or on the free list, empty; a node is added only when the
///   free list is empty, so `slab.len()` is the most events the wheel has
///   held at once;
/// * `overflow` holds events with `slot(at) >= cur_slot + NUM_SLOTS`,
///   migrated into the wheel as the window advances — strictly later
///   than everything in the wheel.
///
/// Every ordering decision compares (time, seq), so pop order is
/// identical to a single global heap's.
pub struct EventQueue<E> {
    cur: Vec<Entry<E>>,
    cur_slot: u64,
    /// `(head, tail)` slab indices of each slot's list, `NIL` when empty.
    wheel: Vec<(u32, u32)>,
    /// Wheel-resident entries, each linked to the next node of its slot
    /// or, when empty, of the free list.
    slab: Vec<(Option<Entry<E>>, u32)>,
    free: u32,
    occupied: [u64; WORDS],
    wheel_count: usize,
    overflow: BinaryHeap<Entry<E>>,
    len: usize,
    next_seq: u64,
    now: Instant,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            cur: Vec::new(),
            cur_slot: 0,
            wheel: vec![(NIL, NIL); NUM_SLOTS as usize],
            slab: Vec::new(),
            free: NIL,
            occupied: [0; WORDS],
            wheel_count: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            now: Instant::ZERO,
        }
    }

    fn slot(at: Instant) -> u64 {
        at.0 >> SLOT_BITS
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time (events cannot fire in
    /// the past).
    pub fn schedule(&mut self, at: Instant, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry { at, seq, event };
        let s = Self::slot(at);
        if s <= self.cur_slot {
            // Into the bucket being drained: keep it sorted. Entries
            // before `pos` fire later than this one.
            let pos = self.cur.partition_point(|e| *e < entry);
            self.cur.insert(pos, entry);
        } else if s < self.cur_slot + NUM_SLOTS {
            self.push_wheel(s, entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Append `entry` to slot `s`'s list, in a node off the free list
    /// when there is one.
    fn push_wheel(&mut self, s: u64, entry: Entry<E>) {
        let node = match self.free {
            NIL => {
                let node = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&n| n != NIL)
                    .expect("fewer than 2^32 - 1 events on the wheel");
                self.slab.push((Some(entry), NIL));
                node
            }
            node => {
                let free = &mut self.slab[node as usize];
                self.free = free.1;
                *free = (Some(entry), NIL);
                node
            }
        };
        let i = (s % NUM_SLOTS) as usize;
        let (head, tail) = &mut self.wheel[i];
        if *head == NIL {
            *head = node;
        } else {
            self.slab[*tail as usize].1 = node;
        }
        *tail = node;
        self.occupied[i / 64] |= 1 << (i % 64);
        self.wheel_count += 1;
    }

    /// The first occupied wheel slot after `cur_slot`. Caller guarantees
    /// the wheel holds an event; all of them lie within `NUM_SLOTS` of
    /// `cur_slot`, so the circular scan visits at most `WORDS + 1` words.
    fn next_occupied(&self) -> u64 {
        let start = self.cur_slot + 1;
        let p = (start % NUM_SLOTS) as usize;
        let mut word = p / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (p % 64));
        while bits == 0 {
            word = (word + 1) % WORDS;
            bits = self.occupied[word];
        }
        let i = word * 64 + bits.trailing_zeros() as usize;
        start + ((i + NUM_SLOTS as usize - p) % NUM_SLOTS as usize) as u64
    }

    /// Advance `cur_slot` to the next slot holding events and refill
    /// `cur` from the wheel and the overflow horizon. Caller guarantees
    /// `cur` is empty and at least one event is pending.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty() && self.len > 0);
        let target = if self.wheel_count > 0 {
            self.next_occupied()
        } else {
            Self::slot(self.overflow.peek().expect("len > 0").at)
        };
        self.cur_slot = target;
        // Move the bucket's entries into `cur`, which keeps its capacity,
        // and put each node back on the free list.
        let i = (target % NUM_SLOTS) as usize;
        let (mut node, _) = std::mem::replace(&mut self.wheel[i], (NIL, NIL));
        while node != NIL {
            let (slot, next) = &mut self.slab[node as usize];
            self.cur
                .push(slot.take().expect("a listed node holds an entry"));
            let after = std::mem::replace(next, self.free);
            self.free = node;
            node = after;
        }
        self.occupied[i / 64] &= !(1 << (i % 64));
        self.wheel_count -= self.cur.len();
        // The window moved forward: migrate overflow events that now fall
        // inside it, restoring the overflow-beyond-horizon invariant.
        while self
            .overflow
            .peek()
            .is_some_and(|e| Self::slot(e.at) < target + NUM_SLOTS)
        {
            let entry = self.overflow.pop().unwrap();
            let s = Self::slot(entry.at);
            if s <= target {
                self.cur.push(entry);
            } else {
                self.push_wheel(s, entry);
            }
        }
        self.cur.sort_unstable();
        debug_assert!(!self.cur.is_empty());
    }

    /// Pop the earliest event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            self.advance();
        }
        let e = self.cur.pop().expect("advance refills cur");
        self.len -= 1;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Peek at the next fire time without advancing the clock.
    ///
    /// Takes `&mut self` because peeking may rotate the calendar window
    /// to the next occupied bucket (the clock and pop order are
    /// unaffected).
    pub fn peek_time(&mut self) -> Option<Instant> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            self.advance();
        }
        self.cur.last().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The original single-`BinaryHeap` event queue, kept as the reference
/// implementation the calendar [`EventQueue`] is differentially tested
/// against. Same API, obviously-correct ordering.
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Instant,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Instant::ZERO,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current time.
    pub fn schedule(&mut self, at: Instant, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Pop the earliest event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Peek at the next fire time without advancing the clock.
    pub fn peek_time(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_wire::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(5), "c");
        q.schedule(Instant::from_secs(1), "a");
        q.schedule(Instant::from_secs(3), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_secs(2);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(4), ());
        assert_eq!(q.now(), Instant::ZERO);
        assert_eq!(q.peek_time(), Some(Instant::from_secs(4)));
        q.pop();
        assert_eq!(q.now(), Instant::from_secs(4));
        // Scheduling relative to the new now is fine.
        q.schedule(q.now() + Duration::from_secs(1), ());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(10), ());
        q.pop();
        q.schedule(Instant::from_secs(5), ());
    }

    #[test]
    fn far_future_events_cross_the_overflow_horizon() {
        let mut q = EventQueue::new();
        // Spread events well past the wheel span (≈ 4 s) in shuffled
        // order, plus same-slot companions scheduled later.
        let times: Vec<u64> = vec![3_600_000_000, 7, 4_194_304, 1, 9_999_999, 4_194_305, 0];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Instant(t), i);
        }
        let mut sorted: Vec<u64> = times.clone();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.0)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn push_during_pop_lands_in_order() {
        let mut q = EventQueue::new();
        q.schedule(Instant(10), "first");
        q.schedule(Instant(5_000_000), "far");
        let (t, _) = q.pop().unwrap();
        // Same instant as the popped event: fires before "far".
        q.schedule(t, "again");
        q.schedule(Instant(20), "soon");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["again", "soon", "far"]);
    }

    #[test]
    fn peek_after_empty_bucket_rotates_window() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(100), ());
        assert_eq!(q.peek_time(), Some(Instant::from_secs(100)));
        assert_eq!(q.len(), 1);
        // Scheduling after the peek-driven rotation must still be exact.
        q.schedule(Instant::from_secs(100), ());
        q.schedule(Instant::from_secs(200), ());
        assert_eq!(q.pop().unwrap().0, Instant::from_secs(100));
        assert_eq!(q.pop().unwrap().0, Instant::from_secs(100));
        assert_eq!(q.pop().unwrap().0, Instant::from_secs(200));
        assert!(q.is_empty());
    }

    /// Nodes on the free list, each checked to hold no entry.
    fn free_nodes<E>(q: &EventQueue<E>) -> usize {
        let mut n = 0;
        let mut node = q.free;
        while node != NIL {
            let (slot, next) = &q.slab[node as usize];
            assert!(slot.is_none(), "a free node holds an entry");
            n += 1;
            node = *next;
        }
        n
    }

    #[test]
    fn slab_is_bounded_by_the_most_wheel_resident_events() {
        let mut q = EventQueue::new();
        let (mut most, mut scheduled) = (0, 0);
        for round in 0..24u64 {
            // Bursts of up to 300 events into one far slot, one near and
            // one beyond the horizon, at a clock that walks past the
            // wheel's wrap.
            let now = q.now().0;
            let far = now + 1_000_000 + round * 150_000;
            for k in 0..(round * 37 % 300) {
                q.schedule(Instant(far + k % 7), k);
                q.schedule(Instant(now + 3_000 + k), k);
                q.schedule(Instant(now + 4_500_000 + k * 1_024), k);
                scheduled += 3;
                most = most.max(q.wheel_count);
                assert!(q.slab.len() <= most);
            }
            // Drain fully every third round, half-way otherwise.
            let keep = if round % 3 == 2 { 0 } else { q.len() / 2 };
            while q.len() > keep {
                q.pop();
                assert!(q.slab.len() <= most);
            }
            if q.is_empty() {
                assert_eq!(free_nodes(&q), q.slab.len(), "drained, yet nodes in use");
                assert!(q.wheel.iter().all(|&slot| slot == (NIL, NIL)));
            }
        }
        assert!(q.slab.len() < scheduled / 4, "nodes were not reused");
    }

    #[test]
    fn heap_reference_queue_behaves_identically() {
        let mut q = HeapEventQueue::new();
        q.schedule(Instant::from_secs(5), "c");
        q.schedule(Instant::from_secs(1), "a");
        assert_eq!(q.peek_time(), Some(Instant::from_secs(1)));
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.now(), Instant::from_secs(1));
        assert_eq!(q.len(), 1);
    }
}
