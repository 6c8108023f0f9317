//! The event queue.
//!
//! A deterministic queue ordered by `(time, key)`, where the [`EventKey`]
//! is *intrinsic* to the event: the node that created it plus that node's
//! private creation counter. Intrinsic keys are what make the sharded
//! simulator bit-reproducible — a key does not depend on the global
//! interleaving of pushes, so any partition of the events across shard
//! queues pops in exactly the order one big queue would produce (the
//! shard-equivalence contract pinned by `tests/shard_determinism.rs`).
//!
//! # Structure
//!
//! The measured traffic has two shapes. The campaign plans its pings
//! before the run — rate-limited looking-glass queries spread over
//! simulated minutes, the bulk of every queue — while the frames they
//! trigger keep only a handful of events in flight at once. So the queue
//! holds two structures:
//!
//! - the **plan run**: every event keyed by [`EventKey::PLAN_CREATOR`],
//!   in a `Vec` drained front to back by a cursor. Its unconsumed tail is
//!   sorted once, at the first pop after an out-of-order push; plans
//!   pushed in order never sort at all.
//! - a **binary heap** for everything else: frame arrivals, device
//!   timers and cross-shard handoffs.
//!
//! Each pop compares the two fronts on the full `(time, key)` pair, so
//! the merge is exact. Keys are unique (each creator numbers its events
//! densely), so the pop order is the total order whichever structure
//! holds an event.

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

/// Heap wrapper: reversed so `BinaryHeap` (a max-heap) pops the earliest
/// `(at, key)` first.
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
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Planned events; `plans[cursor..]` are pending. Emptied (keeping its
    /// capacity) whenever the cursor reaches the end.
    plans: Vec<Entry>,
    cursor: usize,
    /// Set when a push broke the ascending order of `plans[cursor..]`;
    /// the next look at the front sorts that tail.
    unsorted: bool,
    /// Every event not keyed by [`EventKey::PLAN_CREATOR`].
    heap: BinaryHeap<HeapEntry>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at` under its intrinsic `key`.
    pub fn push(&mut self, at: SimTime, key: EventKey, event: Event) {
        let entry = Entry { at, key, event };
        if key.creator != EventKey::PLAN_CREATOR {
            self.heap.push(HeapEntry(entry));
            return;
        }
        if let Some(last) = self.plans.last() {
            self.unsorted |= entry.sort_key() < last.sort_key();
        }
        self.plans.push(entry);
    }

    /// Time of the earliest pending event, and whether the plan run (not
    /// the heap) holds it.
    #[inline]
    fn front(&mut self) -> Option<(SimTime, bool)> {
        if self.unsorted {
            self.plans[self.cursor..].sort_unstable_by_key(Entry::sort_key);
            self.unsorted = false;
        }
        let plan = self.plans.get(self.cursor).map(Entry::sort_key);
        let other = self.heap.peek().map(|e| e.0.sort_key());
        match (plan, other) {
            (None, None) => None,
            (Some(p), Some(h)) if h < p => Some((h.0, false)),
            (Some(p), _) => Some((p.0, true)),
            (None, Some(h)) => Some((h.0, false)),
        }
    }

    /// Remove the front of the plan run or of the heap.
    #[inline]
    fn take(&mut self, from_plans: bool) -> (SimTime, Event) {
        let entry = if from_plans {
            let entry = self.plans[self.cursor];
            self.cursor += 1;
            if self.cursor == self.plans.len() {
                self.plans.clear();
                self.cursor = 0;
            }
            entry
        } else {
            self.heap.pop().expect("peeked heap entry").0
        };
        (entry.at, entry.event)
    }

    /// Pop the earliest event (ties broken by [`EventKey`] order).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (_, from_plans) = self.front()?;
        Some(self.take(from_plans))
    }

    /// Pop the earliest event if it lies strictly before `horizon`.
    ///
    /// Exactly `peek_time()` followed by `pop()` when the peeked time is
    /// under the horizon, fused so the drain loop compares the two fronts
    /// once per event instead of twice.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        let (at, from_plans) = self.front()?;
        (at < horizon).then(|| self.take(from_plans))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.front().map(|(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.plans.len() - self.cursor + self.heap.len()
    }

    /// Exact heap bytes retained by the queue: the plan run's and the
    /// heap's capacity. Capacity, not occupancy — both keep their
    /// high-water allocation for the queue's lifetime.
    pub fn retained_bytes(&self) -> u64 {
        let plans = self.plans.capacity() * std::mem::size_of::<Entry>();
        let heap = self.heap.capacity() * std::mem::size_of::<HeapEntry>();
        (plans + heap) as u64
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

    fn plan(seq: u64) -> EventKey {
        key(EventKey::PLAN_CREATOR, seq)
    }

    /// Event `i` of a mixed stream: even ones planned, odd ones from node 0.
    fn mixed(i: u64) -> EventKey {
        if i % 2 == 0 {
            plan(i)
        } else {
            key(0, i)
        }
    }

    #[test]
    fn plans_and_heap_merge_exactly() {
        // Planned events (the plan run) far out and near, device events
        // (the heap) in between, must pop in global (time, key) order.
        let mut q = EventQueue::new();
        q.push(SimTime(3_000_000_000), plan(0), timer(0, 0));
        q.push(SimTime(40), key(0, 1), timer(0, 1));
        q.push(SimTime(1_000_000_005), plan(1), timer(0, 2));
        q.push(SimTime(999_999_999), key(0, 3), timer(0, 3));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime(40)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn ties_across_plan_run_and_heap_respect_key_order() {
        // A planned event and a device event at the *same time*: the
        // device key (any creator below PLAN_CREATOR) pops first, whichever
        // was pushed first and whichever structure holds it — also when
        // the device event arrives after the run has started.
        let mut q = EventQueue::new();
        let t = 1_000_000_100;
        q.push(SimTime(t), plan(7), timer(0, 0));
        q.push(SimTime(t - 1), key(0, 1), timer(0, 1));
        let (at, e) = q.pop().unwrap();
        assert_eq!((at, token_of(e)), (SimTime(t - 1), 1));
        q.push(SimTime(t), key(5, 3), timer(5, 2));
        q.push(SimTime(t), plan(8), timer(0, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![2, 0, 3]);
    }

    #[test]
    fn window_advances_across_many_laps() {
        // Repeated pop-then-push cycles walk simulated time far forward
        // while a plan run with out-of-order and late pushes drains beside
        // the heap; ordering must hold throughout.
        let mut q = EventQueue::new();
        q.push(SimTime(0), key(0, 0), timer(0, 0));
        for p in (0..20u64).rev() {
            q.push(SimTime(p * 3_000_017), plan(p), timer(1, 1_000 + p));
        }
        let mut popped = Vec::new();
        let mut next_token = 1;
        while let Some((at, e)) = q.pop() {
            popped.push((at, token_of(e)));
            if next_token <= 50 {
                let jump = 22_347_793;
                q.push(
                    SimTime(at.nanos() + jump),
                    key(0, next_token),
                    timer(0, next_token),
                );
                // A plan pushed mid-run, behind the pending tail's end.
                q.push(
                    SimTime(at.nanos() + jump / 2),
                    plan(100 + next_token),
                    timer(1, 2_000 + next_token),
                );
                next_token += 1;
            }
        }
        assert_eq!(popped.len(), 51 + 20 + 50);
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "out of order: {w:?}");
        }
    }

    #[test]
    fn pop_before_is_exactly_peek_then_pop() {
        // Same event stream through both drain styles, with plan and
        // device events interleaved and ties at one time.
        let far = 1_000_000_000;
        let times = [40, 40, 1_000, far - 1, far + 5, far * 2, far * 3];
        let fill = || {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), mixed(i as u64), timer(0, i as u64));
            }
            q
        };
        for cut in [0, 41, 1_000, far, far * 2 + 1, u64::MAX] {
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
        // Many events within a few nanoseconds, interleaved times, half of
        // them plans pushed out of order.
        let mut q = EventQueue::new();
        for i in 0..32 {
            q.push(SimTime((i * 7) % 19), mixed(i), timer(0, i));
        }
        let mut last = (SimTime(0), key(0, 0));
        let mut n = 0;
        while let Some((at, e)) = q.pop() {
            let k = (at, mixed(token_of(e)));
            if n > 0 {
                assert!(k > last, "{k:?} after {last:?}");
            }
            last = k;
            n += 1;
        }
        assert_eq!(n, 32);
    }
}
