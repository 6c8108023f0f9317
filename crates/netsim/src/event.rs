//! The event queue.
//!
//! A deterministic queue ordered by `(time, key)`, where the [`EventKey`]
//! is *intrinsic* to the event: the node that created it plus that node's
//! private creation counter. Intrinsic keys are what make the simulator
//! bit-reproducible — a key does not depend on the global interleaving
//! of pushes, so the pop order is a pure function of what each device
//! did (pinned by the trace digests and `tests/artifact_determinism.rs`).
//!
//! # Structure
//!
//! The measured traffic has two shapes. The campaign plans its pings
//! before the run — rate-limited looking-glass queries spread over
//! simulated minutes, the bulk of every queue — while the frames they
//! trigger keep only a handful of events in flight at once. So the queue
//! holds two structures:
//!
//! - the **plan run**: every timer keyed by [`EventKey::PLAN_CREATOR`],
//!   in a `Vec` drained front to back by a cursor. Its unconsumed tail is
//!   sorted once, at the first pop after an out-of-order push; plans
//!   pushed in order never sort at all. The run is the queue's bulk, so
//!   it stores a 24-byte `PlanEntry` (time, `u32` plan sequence, node,
//!   token) instead of the heap's 40-byte generic entry, and rebuilds the
//!   [`Event::Timer`] on pop.
//! - a **binary heap** for everything else: frame arrivals, device
//!   timers, and any non-timer event that carries a plan key.
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
        /// The arriving frame, resident in the network's frame arena.
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
/// history, so it does not depend on the order in which events were
/// pushed.
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

/// A heap event: any event, under its full key.
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

/// A planned timer in the plan run: the creator is implied
/// ([`EventKey::PLAN_CREATOR`]) and the sequence narrowed to `u32`, so an
/// entry is 24 bytes where the heap's generic [`Entry`] is 40.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    at: SimTime,
    seq: u32,
    node: NodeId,
    token: u64,
}

impl PlanEntry {
    /// Order within the plan run: every entry shares the creator.
    #[inline]
    fn run_key(&self) -> (SimTime, u32) {
        (self.at, self.seq)
    }

    /// The full `(time, key)` pair, for the merge with the heap.
    #[inline]
    fn sort_key(&self) -> (SimTime, EventKey) {
        let key = EventKey {
            creator: EventKey::PLAN_CREATOR,
            seq: u64::from(self.seq),
        };
        (self.at, key)
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
    /// Planned timers; `plans[cursor..]` are pending. Emptied (keeping
    /// its capacity) whenever the cursor reaches the end.
    plans: Vec<PlanEntry>,
    cursor: usize,
    /// Set when a push broke the ascending order of `plans[cursor..]`;
    /// the next look at the front sorts that tail.
    unsorted: bool,
    /// Every event the plan run does not hold.
    heap: BinaryHeap<HeapEntry>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at` under its intrinsic `key`.
    ///
    /// # Panics
    /// When a timer keyed by [`EventKey::PLAN_CREATOR`] carries a `seq`
    /// past `u32::MAX`: the plan run numbers its entries in 32 bits, and
    /// a wrapped sequence would silently reorder ties.
    pub fn push(&mut self, at: SimTime, key: EventKey, event: Event) {
        let (node, token) = match event {
            Event::Timer { node, token } if key.creator == EventKey::PLAN_CREATOR => (node, token),
            _ => return self.heap.push(HeapEntry(Entry { at, key, event })),
        };
        let seq = u32::try_from(key.seq).unwrap_or_else(|_| {
            panic!(
                "plan seq {} past u32::MAX: the plan run numbers at most 2^32 planned timers",
                key.seq
            )
        });
        let entry = PlanEntry {
            at,
            seq,
            node,
            token,
        };
        if let Some(last) = self.plans.last() {
            self.unsorted |= entry.run_key() < last.run_key();
        }
        self.plans.push(entry);
    }

    /// Make room for `additional` more planned timers in the plan run, at
    /// exactly that size: a caller that knows its plan count up front
    /// leaves no doubling slack behind.
    pub(crate) fn reserve_plans(&mut self, additional: usize) {
        self.plans.reserve_exact(additional);
    }

    /// Pop the earliest event (ties broken by [`EventKey`] order).
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.unsorted {
            self.plans[self.cursor..].sort_unstable_by_key(PlanEntry::run_key);
            self.unsorted = false;
        }
        let plan = self.plans.get(self.cursor).map(PlanEntry::sort_key);
        let other = self.heap.peek().map(|e| e.0.sort_key());
        let from_plans = match (plan, other) {
            (None, None) => return None,
            (Some(p), Some(h)) => p < h,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if !from_plans {
            let entry = self.heap.pop().expect("peeked heap entry").0;
            return Some((entry.at, entry.event));
        }
        let PlanEntry {
            at, node, token, ..
        } = self.plans[self.cursor];
        self.cursor += 1;
        if self.cursor == self.plans.len() {
            self.plans.clear();
            self.cursor = 0;
        }
        Some((at, Event::Timer { node, token }))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.plans.len() - self.cursor + self.heap.len()
    }

    /// Exact heap bytes retained by the queue: the plan run's and the
    /// heap's capacity. Capacity, not occupancy — both keep their
    /// high-water allocation for the queue's lifetime.
    pub fn retained_bytes(&self) -> u64 {
        let plans = self.plans.capacity() * std::mem::size_of::<PlanEntry>();
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
        // arrival order.
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
        assert!(q.pop().is_none());
        q.push(SimTime(7), key(1, 0), timer(1, 1));
        q.push(SimTime(9), plan(0), timer(1, 2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(at, _)| at), Some(SimTime(7)));
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

    #[test]
    fn entry_sizes_are_pinned() {
        // The plan run holds one entry per planned ping, the bulk of every
        // queue: growing it is a deliberate change, not a side effect.
        assert_eq!(std::mem::size_of::<PlanEntry>(), 24);
    }

    #[test]
    #[should_panic(expected = "plan seq 4294967296 past u32::MAX")]
    fn plan_seq_past_u32_panics_instead_of_wrapping() {
        let mut q = EventQueue::new();
        q.push(SimTime(0), plan(u32::MAX as u64), timer(0, 0));
        q.push(SimTime(0), plan(u32::MAX as u64 + 1), timer(0, 1));
    }
}
