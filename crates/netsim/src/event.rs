//! The event queue.
//!
//! A hierarchical calendar (bucket) queue ordered by `(time, key)`, where
//! the [`EventKey`] is *intrinsic* to the event: the node that created it
//! plus that node's private creation counter. Intrinsic keys are what make
//! the sharded simulator bit-reproducible — a key does not depend on the
//! global interleaving of pushes, so any partition of the events across
//! shard queues pops in exactly the order one big queue would produce
//! (the shard-equivalence contract pinned by `tests/shard_determinism.rs`).
//!
//! # Structure
//!
//! Near-future events — the overwhelming majority: frame hops a few
//! microseconds to a few milliseconds out — land in a ring of
//! 1024 buckets, each [`BUCKET_WIDTH_NS`] wide, giving a
//! ~67 ms scheduling window with O(1) amortized push and pop. A 1024-bit
//! occupancy bitmap (16 words) finds the next non-empty bucket without
//! scanning vectors. Events beyond the window — the campaign's planned
//! ping timers, spread over simulated minutes — fall back to a binary
//! heap; each pop compares the earliest bucketed entry against the heap
//! top, so the merge is exact and no migration pass is ever needed.
//!
//! The window's base advances monotonically with popped event times
//! (simulated time never runs backwards, and devices never schedule into
//! the past), so a bucket index always maps to a unique time slot.

use crate::frame::FrameId;
use crate::sim::{NodeId, PortId};
use rp_types::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled occurrence.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A frame finishing its traversal of a link, arriving at a port.
    FrameArrival {
        /// Receiving node.
        node: NodeId,
        /// Receiving port.
        port: PortId,
        /// The arriving frame, resident in the owning shard's frame arena.
        frame: FrameId,
    },
    /// An application timer (hosts use these to send planned pings).
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Opaque token chosen at scheduling time.
        token: u64,
    },
}

/// Intrinsic tie-break key of an event: who created it and how many events
/// that creator had produced before. Unlike a queue-global insertion
/// counter, the pair is a pure function of the creator's own execution
/// history, so it is identical at every shard count — the property that
/// lets cross-shard handoffs merge into a byte-identical trace.
///
/// Simultaneous events order by `(creator, seq)`; keys are globally unique
/// because each creator numbers its events densely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Node index of the creating device, or [`EventKey::PLAN_CREATOR`]
    /// for events planned before the run (scheduler pings, traceroutes).
    pub creator: u32,
    /// The creator's event-creation counter at push time.
    pub seq: u64,
}

impl EventKey {
    /// Sentinel creator for events scheduled during construction (before
    /// any device has run); their `seq` comes from the network-wide plan
    /// counter, which is fixed by construction order.
    pub const PLAN_CREATOR: u32 = u32::MAX;
}

/// Number of calendar buckets (must be a power of two).
const BUCKET_COUNT: usize = 1024;
const BUCKET_WORDS: usize = BUCKET_COUNT / 64;
/// log2 of each bucket's width in nanoseconds: 2^16 ns = 65.536 µs per
/// bucket, for a 67.1 ms scheduling window.
const WIDTH_SHIFT: u64 = 16;
/// Width of one bucket in nanoseconds.
pub const BUCKET_WIDTH_NS: u64 = 1 << WIDTH_SHIFT;

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    key: EventKey,
    event: Event,
}

impl Entry {
    #[inline]
    fn sort_key(&self) -> (SimTime, EventKey) {
        (self.at, self.key)
    }
}

/// Overflow-heap wrapper: reversed so `BinaryHeap` (a max-heap) pops the
/// earliest `(at, key)` first.
#[derive(Debug)]
struct HeapEntry(Entry);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.sort_key() == other.0.sort_key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.sort_key().cmp(&self.0.sort_key())
    }
}

/// Deterministic time-ordered event queue.
#[derive(Debug)]
pub struct EventQueue {
    /// Ring of buckets covering `[base_slot, base_slot + BUCKET_COUNT)`
    /// time slots. Pushes append unsorted (O(1) even for a burst of
    /// simultaneous arrivals in one slot, such as a broadcast ARP request
    /// for an address no device owns, which still floods a fabric); a
    /// bucket is sorted *descending* by `(at, key)` the first time it is
    /// drained, after which its minimum is `last()` and popping is O(1).
    /// Keys are unique — each creator numbers its events densely — so the
    /// lazily sorted order is exactly the order eager insertion would have
    /// produced.
    buckets: Vec<Vec<Entry>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occ: [u64; BUCKET_WORDS],
    /// One bit per bucket: set iff the bucket has unsorted appends.
    dirty: [u64; BUCKET_WORDS],
    /// Absolute slot index (`nanos >> WIDTH_SHIFT`) of the earliest slot
    /// the ring can currently hold. Monotonically non-decreasing.
    base_slot: u64,
    /// Events resident in buckets (excludes the overflow heap).
    in_buckets: usize,
    /// Events at or beyond the ring's horizon.
    overflow: BinaryHeap<HeapEntry>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            occ: [0; BUCKET_WORDS],
            dirty: [0; BUCKET_WORDS],
            base_slot: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
        }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at` under its intrinsic `key`.
    pub fn push(&mut self, at: SimTime, key: EventKey, event: Event) {
        let entry = Entry { at, key, event };
        // Devices never schedule into the past; the clamp is defensive
        // (a pre-base time would otherwise alias a future slot).
        let slot = (at.nanos() >> WIDTH_SHIFT).max(self.base_slot);
        if slot - self.base_slot >= BUCKET_COUNT as u64 {
            self.overflow.push(HeapEntry(entry));
            return;
        }
        let idx = (slot as usize) & (BUCKET_COUNT - 1);
        let bucket = &mut self.buckets[idx];
        bucket.push(entry);
        if bucket.len() > 1 {
            self.dirty[idx >> 6] |= 1 << (idx & 63);
        }
        self.occ[idx >> 6] |= 1 << (idx & 63);
        self.in_buckets += 1;
    }

    /// Restore the descending `(at, key)` order of `idx` if pushes have
    /// appended to it since it was last drained.
    #[inline]
    fn ensure_sorted(&mut self, idx: usize) {
        let mask = 1u64 << (idx & 63);
        if self.dirty[idx >> 6] & mask != 0 {
            self.buckets[idx].sort_unstable_by_key(|e| std::cmp::Reverse(e.sort_key()));
            self.dirty[idx >> 6] &= !mask;
        }
    }

    /// Ring index of the bucket holding the earliest bucketed event.
    #[inline]
    fn first_bucket(&self) -> Option<usize> {
        if self.in_buckets == 0 {
            return None;
        }
        // Scan the occupancy bitmap starting at the base slot's ring
        // index; bits below it belong to *later* slots (one lap ahead)
        // and are checked after the wrap.
        let start = (self.base_slot as usize) & (BUCKET_COUNT - 1);
        let mut widx = start >> 6;
        let mut word = self.occ[widx] & (!0u64 << (start & 63));
        for _ in 0..=BUCKET_WORDS {
            if word != 0 {
                return Some((widx << 6) | word.trailing_zeros() as usize);
            }
            widx = (widx + 1) & (BUCKET_WORDS - 1);
            word = self.occ[widx];
        }
        unreachable!("in_buckets > 0 but no occupancy bit set")
    }

    /// Key of the earliest entry in `idx` (sorting the bucket if needed).
    #[inline]
    fn bucket_min(&mut self, idx: usize) -> (SimTime, EventKey) {
        self.ensure_sorted(idx);
        self.buckets[idx]
            .last()
            .expect("occupied bucket")
            .sort_key()
    }

    fn pop_bucket(&mut self, idx: usize) -> (SimTime, Event) {
        let entry = self.buckets[idx].pop().expect("occupied bucket");
        if self.buckets[idx].is_empty() {
            self.occ[idx >> 6] &= !(1 << (idx & 63));
        }
        self.in_buckets -= 1;
        self.advance(entry.at);
        (entry.at, entry.event)
    }

    fn pop_overflow(&mut self) -> (SimTime, Event) {
        let entry = self.overflow.pop().expect("occupied overflow").0;
        self.advance(entry.at);
        (entry.at, entry.event)
    }

    /// Advance the ring base past everything already popped. Every
    /// remaining event is `>=` the one just popped, so remapping the ring
    /// origin never moves an occupied bucket.
    #[inline]
    fn advance(&mut self, at: SimTime) {
        let slot = at.nanos() >> WIDTH_SHIFT;
        if slot > self.base_slot {
            self.base_slot = slot;
        }
    }

    /// Pop the earliest event (ties broken by [`EventKey`] order).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let bucketed = self.first_bucket().map(|idx| (idx, self.bucket_min(idx)));
        let overflow = self.overflow.peek().map(|e| e.0.sort_key());
        match (bucketed, overflow) {
            (None, None) => None,
            (Some((idx, _)), None) => Some(self.pop_bucket(idx)),
            (None, Some(_)) => Some(self.pop_overflow()),
            (Some((idx, b)), Some(o)) => {
                if b <= o {
                    Some(self.pop_bucket(idx))
                } else {
                    Some(self.pop_overflow())
                }
            }
        }
    }

    /// Pop the earliest event if it lies strictly before `horizon`.
    ///
    /// Exactly `peek_time()` followed by `pop()` when the peeked time is
    /// under the horizon — fused so the drain loop pays for one bitmap
    /// scan and one bucket-min lookup per event instead of two. Pop order
    /// (and therefore the simulation digest) is identical by construction:
    /// the candidate selection below is the same comparison `pop` makes.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        let bucketed = self.first_bucket().map(|idx| (idx, self.bucket_min(idx)));
        let overflow = self.overflow.peek().map(|e| e.0.sort_key());
        match (bucketed, overflow) {
            (None, None) => None,
            (Some((idx, b)), None) => (b.0 < horizon).then(|| self.pop_bucket(idx)),
            (None, Some(o)) => (o.0 < horizon).then(|| self.pop_overflow()),
            (Some((idx, b)), Some(o)) => {
                if b <= o {
                    (b.0 < horizon).then(|| self.pop_bucket(idx))
                } else {
                    (o.0 < horizon).then(|| self.pop_overflow())
                }
            }
        }
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let bucketed = self.first_bucket().map(|idx| self.bucket_min(idx));
        let overflow = self.overflow.peek().map(|e| e.0.sort_key());
        match (bucketed, overflow) {
            (None, None) => None,
            (Some(b), None) => Some(b.0),
            (None, Some(o)) => Some(o.0),
            (Some(b), Some(o)) => Some(b.min(o).0),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    /// Exact heap bytes retained by the queue: the bucket spine, every
    /// bucket's capacity, and the overflow heap's capacity. Capacity, not
    /// occupancy — drained buckets keep their high-water allocation until
    /// [`EventQueue::shrink_retained`] releases it.
    pub fn retained_bytes(&self) -> u64 {
        let spine = self.buckets.capacity() * std::mem::size_of::<Vec<Entry>>();
        let entries: usize = self
            .buckets
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<Entry>())
            .sum();
        let heap = self.overflow.capacity() * std::mem::size_of::<HeapEntry>();
        (spine + entries + heap) as u64
    }

    /// Release retained capacity down toward `max_bytes`, returning the
    /// bytes actually freed. Only empty buckets (and an empty overflow
    /// heap) give up their allocation; pending events are never moved or
    /// dropped, so pop order — and therefore every simulation result — is
    /// untouched. Buckets are visited in fixed index order, keeping the
    /// shrink itself deterministic.
    pub fn shrink_retained(&mut self, max_bytes: u64) -> u64 {
        let before = self.retained_bytes();
        if before <= max_bytes {
            return 0;
        }
        let mut freed = 0u64;
        for b in &mut self.buckets {
            if b.is_empty() && b.capacity() > 0 {
                freed += (b.capacity() * std::mem::size_of::<Entry>()) as u64;
                *b = Vec::new();
                if before - freed <= max_bytes {
                    return freed;
                }
            }
        }
        if self.overflow.is_empty() && self.overflow.capacity() > 0 {
            freed += (self.overflow.capacity() * std::mem::size_of::<HeapEntry>()) as u64;
            self.overflow = BinaryHeap::new();
        }
        freed
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, token: u64) -> Event {
        Event::Timer {
            node: NodeId(node),
            token,
        }
    }

    fn key(creator: u32, seq: u64) -> EventKey {
        EventKey { creator, seq }
    }

    fn token_of(e: Event) -> u64 {
        match e {
            Event::Timer { token, .. } => token,
            Event::FrameArrival { .. } => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), key(0, 0), timer(0, 0));
        q.push(SimTime(10), key(0, 1), timer(0, 1));
        q.push(SimTime(20), key(0, 2), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_key_not_push_order() {
        // Push keys in reverse: pops must follow (creator, seq) order, not
        // arrival order — the property the sharded barrier merge relies on.
        let mut q = EventQueue::new();
        for i in (0..100u64).rev() {
            q.push(SimTime(5), key(0, i), timer(0, i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn simultaneous_events_order_by_creator_then_seq() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), key(2, 0), timer(2, 20));
        q.push(SimTime(5), key(0, 9), timer(0, 9));
        q.push(SimTime(5), key(1, 3), timer(1, 13));
        q.push(SimTime(5), key(0, 2), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![2, 9, 13, 20]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(7), key(1, 0), timer(1, 1));
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_and_buckets_merge_exactly() {
        // Events far beyond the ring horizon (heap), inside the window
        // (buckets), and straddling ties across the two must pop in
        // global (time, key) order.
        let mut q = EventQueue::new();
        let horizon = BUCKET_WIDTH_NS * BUCKET_COUNT as u64;
        q.push(SimTime(horizon * 3), key(0, 0), timer(0, 0)); // far future: heap
        q.push(SimTime(40), key(0, 1), timer(0, 1)); // near: bucket
        q.push(SimTime(horizon + 5), key(0, 2), timer(0, 2)); // past horizon: heap
        q.push(SimTime(horizon - 1), key(0, 3), timer(0, 3)); // last bucket
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime(40)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn ties_across_heap_and_bucket_respect_key_order() {
        // An event lands in the heap (beyond the horizon); later, after
        // the window advances, an event at the *same time* but a smaller
        // key lands in a bucket. The bucketed one pops first: key order
        // wins regardless of which structure holds the entry.
        let mut q = EventQueue::new();
        let horizon = BUCKET_WIDTH_NS * BUCKET_COUNT as u64;
        let t = horizon + 100;
        q.push(SimTime(t), key(0, 7), timer(0, 0)); // heap (beyond horizon)
        q.push(SimTime(horizon - 1), key(0, 1), timer(0, 1)); // bucket
        let (at, e) = q.pop().unwrap();
        assert_eq!((at, token_of(e)), (SimTime(horizon - 1), 1));
        // Window has advanced near `t`; this push lands in a bucket with a
        // key *below* the heap-resident entry's.
        q.push(SimTime(t), key(0, 3), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![2, 0]);
    }

    #[test]
    fn window_advances_across_many_laps() {
        // Repeated pop-then-push cycles walk the window far past one
        // ring lap; ordering must hold throughout.
        let mut q = EventQueue::new();
        q.push(SimTime(0), key(0, 0), timer(0, 0));
        let mut popped = Vec::new();
        let mut next_token = 1;
        while let Some((at, e)) = q.pop() {
            popped.push((at, token_of(e)));
            if next_token <= 50 {
                // Hop ~1/3 of the ring forward each step: crosses the
                // ring boundary several times over the run.
                let jump = BUCKET_WIDTH_NS * 341 + 17;
                q.push(
                    SimTime(at.nanos() + jump),
                    key(0, next_token),
                    timer(0, next_token),
                );
                next_token += 1;
            }
        }
        assert_eq!(popped.len(), 51);
        for w in popped.windows(2) {
            assert!(w[0].0 < w[1].0, "out of order: {w:?}");
        }
    }

    #[test]
    fn shrink_releases_drained_capacity_and_preserves_order() {
        let mut q = EventQueue::new();
        // A burst in one near bucket, plus survivors in a later bucket and
        // the overflow heap.
        for i in 0..256 {
            q.push(SimTime(10 + i), key(0, i), timer(0, i));
        }
        let horizon = BUCKET_WIDTH_NS * BUCKET_COUNT as u64;
        q.push(SimTime(horizon - 1), key(0, 1_000), timer(0, 1_000));
        q.push(SimTime(horizon * 2), key(0, 1_001), timer(0, 1_001));
        // Drain the burst so its bucket is empty but still holds capacity.
        for _ in 0..256 {
            q.pop();
        }
        let grown = q.retained_bytes();
        let freed = q.shrink_retained(0);
        assert!(freed > 0, "drained bucket capacity must be released");
        assert!(q.retained_bytes() < grown);
        // Pending events are untouched and still pop in global order.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![1_000, 1_001]);
    }

    #[test]
    fn shrink_is_a_noop_under_budget() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), key(0, 0), timer(0, 0));
        q.pop();
        assert_eq!(q.shrink_retained(u64::MAX), 0);
    }

    #[test]
    fn pop_before_is_exactly_peek_then_pop() {
        // Same event stream through both drain styles, including entries
        // straddling the bucket/overflow boundary and ties at one time.
        let horizon = BUCKET_WIDTH_NS * BUCKET_COUNT as u64;
        let times = [
            40,
            40,
            1_000,
            horizon - 1,
            horizon + 5,
            horizon * 2,
            horizon * 3,
        ];
        let fill = || {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), key(0, i as u64), timer(0, i as u64));
            }
            q
        };
        for cut in [0, 41, 1_000, horizon, horizon * 2 + 1, u64::MAX] {
            let mut a = fill();
            let mut b = fill();
            let via_fused: Vec<_> = std::iter::from_fn(|| a.pop_before(SimTime(cut)))
                .map(|(at, e)| (at, token_of(e)))
                .collect();
            let mut via_peek = Vec::new();
            while b.peek_time().is_some_and(|t| t < SimTime(cut)) {
                let (at, e) = b.pop().unwrap();
                via_peek.push((at, token_of(e)));
            }
            assert_eq!(via_fused, via_peek, "divergence at horizon {cut}");
            assert_eq!(a.len(), b.len(), "leftover count at horizon {cut}");
        }
        // The horizon is exclusive: an event exactly at it stays queued.
        let mut q = EventQueue::new();
        q.push(SimTime(50), key(0, 0), timer(0, 0));
        assert!(q.pop_before(SimTime(50)).is_none());
        assert!(q.pop_before(SimTime(51)).is_some());
    }

    #[test]
    fn dense_same_bucket_events_pop_in_key_order() {
        // Many events inside one bucket width with interleaved times.
        let mut q = EventQueue::new();
        for i in 0..32 {
            q.push(SimTime((i * 7) % 19), key(0, i), timer(0, i));
        }
        let mut last = (SimTime(0), 0);
        let mut n = 0;
        while let Some((at, e)) = q.pop() {
            let k = (at, token_of(e));
            if n > 0 {
                assert!(k.0 > last.0 || (k.0 == last.0 && k.1 > last.1));
            }
            last = k;
            n += 1;
        }
        assert_eq!(n, 32);
    }
}
