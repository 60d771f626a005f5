//! The discrete-event core: a scheduler of two binary heaps.
//!
//! Ties are broken by insertion order (a monotonically increasing
//! sequence number), which makes event processing fully deterministic.
//!
//! # Design
//!
//! The scheduler does not hold one entry per packet in flight. A link's
//! in-order packets arrive in the order it admitted them, so the link
//! keeps their arrivals in its own sorted queue and the scheduler holds
//! only that queue's head, as an [`EventKind::Arrive`] keyed by the head
//! packet's own `(time, seq)`. Every entry a link queue still holds
//! sorts after its head, so the scheduler minimum is the global minimum
//! and the pop order is the one a heap of every packet would give.
//! Delivering a head re-keys it in place (`EventQueue::replace_min`)
//! instead of popping and pushing.
//!
//! The scheduler keeps two heaps: one of `Arrive` entries, at most one
//! per busy link, and one of everything else (starts, timers, a
//! packet's own `Deliver`, link reconfigurations and faults). Timers are
//! a fraction of a percent of the events but most of the pending
//! entries: dormant retransmission and think-time timers outnumber busy
//! links. Kept apart, they no longer deepen the heap that nearly every
//! event re-keys. `peek` and `pop` take the smaller `(time, seq)` of the
//! two roots; sequence numbers are unique, so the pop order is exactly
//! that of one heap.

use crate::fault::FaultAction;
use crate::ids::{LinkId, NodeId};
use crate::link::LinkConfig;
use crate::pool::PacketHandle;
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Opaque timer payload an agent chooses when arming a timer and gets
/// back when it fires. Agents typically encode a generation counter so
/// stale timers can be ignored (there is no cancellation).
pub type TimerToken = u64;

/// Something scheduled to happen.
#[derive(Debug)]
pub enum EventKind {
    /// A host agent's initial activation.
    Start(NodeId),
    /// A timer armed by the agent on `node` fires.
    Timer(NodeId, TimerToken),
    /// The head of the link's in-order arrivals reaches the link's far
    /// end. The entry carries that packet's `(time, seq)`; if a re-time
    /// has replaced the head since, the entry is stale and skipped.
    Arrive(LinkId),
    /// A packet that may overtake others (held back by a fault plan's
    /// reorder impairment) arrives at `node`. If the
    /// packet was re-timed since, the handle is stale and the event is
    /// skipped.
    Deliver(NodeId, PacketHandle),
    /// Replace the link's parameters (time-varying path state). Boxed
    /// so the rare reconfiguration does not widen every event entry.
    LinkReconfig(LinkId, Box<LinkConfig>),
    /// A scheduled fault (down/up flap, rate or delay step) fires.
    LinkFault(LinkId, FaultAction),
}

/// A pending event: firing time, FIFO tie-break, payload.
#[derive(Debug)]
pub struct EventEntry {
    /// Absolute firing time.
    pub time: SimTime,
    /// Insertion sequence number (tie-break within one instant).
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Pending events ordered by `(time, insertion order)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// `Arrive` entries: the heads of the links' in-order arrivals.
    arrivals: BinaryHeap<Reverse<EventEntry>>,
    /// Every other kind.
    others: BinaryHeap<Reverse<EventEntry>>,
    next_seq: u64,
    high_water: usize,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `kind` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq();
        self.push_keyed(time, seq, kind);
    }

    /// Draw the next insertion sequence number. A link draws one for
    /// each in-order packet it schedules, at the point it would have
    /// pushed that packet's own event.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `kind` under a sequence number drawn earlier.
    pub(crate) fn push_keyed(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        let heap = match kind {
            EventKind::Arrive(_) => &mut self.arrivals,
            _ => &mut self.others,
        };
        heap.push(Reverse(EventEntry { time, seq, kind }));
        self.high_water = self.high_water.max(self.len());
    }

    /// Replace the earliest `Arrive` with `entry`, another `Arrive`, in
    /// one sift-down. `entry` must not sort before anything popped so
    /// far.
    ///
    /// # Panics
    /// Panics if no `Arrive` is pending.
    pub(crate) fn replace_min(&mut self, entry: EventEntry) {
        debug_assert!(matches!(entry.kind, EventKind::Arrive(_)));
        let Some(mut top) = self.arrivals.peek_mut() else {
            panic!("replace_min with no arrival pending")
        };
        top.0 = entry;
    }

    /// Whether the earliest pending event is an `Arrive`.
    fn arrival_first(&self) -> bool {
        match (self.arrivals.peek(), self.others.peek()) {
            (Some(a), Some(o)) => a.0 < o.0,
            (a, _) => a.is_some(),
        }
    }

    /// Highest number of simultaneously pending events ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The earliest pending event.
    pub fn peek(&self) -> Option<&EventEntry> {
        let heap = if self.arrival_first() {
            &self.arrivals
        } else {
            &self.others
        };
        heap.peek().map(|Reverse(e)| e)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<EventEntry> {
        let heap = if self.arrival_first() {
            &mut self.arrivals
        } else {
            &mut self.others
        };
        heap.pop().map(|Reverse(e)| e)
    }

    /// Number of pending events, in both heaps.
    pub fn len(&self) -> usize {
        self.arrivals.len() + self.others.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty() && self.others.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_stay_forty_bytes() {
        // Time, sequence number and a 24-byte kind: a `Deliver` carries
        // a node and an 8-byte packet handle, and nothing wider.
        assert_eq!(std::mem::size_of::<EventEntry>(), 40);
    }

    /// Pop everything, naming each entry by its node or link id and
    /// checking that `peek` agrees with each `pop`.
    fn nodes(q: &mut EventQueue) -> Vec<u32> {
        std::iter::from_fn(|| {
            let peeked = q.peek().map(|e| (e.time, e.seq));
            let e = q.pop()?;
            assert_eq!(peeked, Some((e.time, e.seq)));
            Some(e)
        })
        .map(|e| match e.kind {
            EventKind::Start(n) | EventKind::Timer(n, _) => n.0,
            EventKind::Arrive(l) => l.0,
            _ => unreachable!(),
        })
        .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), EventKind::Start(NodeId(5)));
        q.push(SimTime::from_millis(1), EventKind::Start(NodeId(1)));
        q.push(SimTime::from_millis(3), EventKind::Start(NodeId(3)));
        assert_eq!(nodes(&mut q), vec![1, 3, 5]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.push(t, EventKind::Start(NodeId(10)));
        q.push(t, EventKind::Start(NodeId(20)));
        q.push(t, EventKind::Start(NodeId(30)));
        assert_eq!(nodes(&mut q), vec![10, 20, 30]);
    }

    #[test]
    fn keyed_entries_sort_by_their_drawn_sequence_number() {
        // A sequence number drawn before a later push still wins a tie.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        let early = q.next_seq();
        q.push(t, EventKind::Start(NodeId(2)));
        q.push_keyed(t, early, EventKind::Start(NodeId(1)));
        assert_eq!(nodes(&mut q), vec![1, 2]);
    }

    #[test]
    fn replace_min_rekeys_the_arrivals_root_in_place() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), EventKind::Arrive(LinkId(1)));
        q.push(SimTime::from_millis(3), EventKind::Arrive(LinkId(3)));
        q.push(SimTime::from_millis(2), EventKind::Timer(NodeId(2), 0));
        let seq = q.next_seq();
        q.replace_min(EventEntry {
            time: SimTime::from_millis(5),
            seq,
            kind: EventKind::Arrive(LinkId(5)),
        });
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek().map(|e| e.time), Some(SimTime::from_millis(2)));
        assert_eq!(nodes(&mut q), vec![2, 3, 5]);
    }

    #[test]
    fn arrivals_and_timers_at_one_instant_pop_in_drawn_sequence_order() {
        // Sequence numbers alternate between the two heaps, starting
        // with an arrival keyed under a number drawn before the first
        // timer was pushed.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        let early = q.next_seq();
        q.push(t, EventKind::Timer(NodeId(1), 0));
        q.push_keyed(t, early, EventKind::Arrive(LinkId(0)));
        q.push(t, EventKind::Arrive(LinkId(2)));
        q.push(t, EventKind::Timer(NodeId(3), 0));
        // Both heaps count towards the pending total and its peak.
        assert_eq!(q.len(), 4);
        assert_eq!(q.high_water(), 4);
        assert_eq!(nodes(&mut q), vec![0, 1, 2, 3]);
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 4);
    }

    #[test]
    fn high_water_and_len_track_pending_entries() {
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        q.push(SimTime::from_nanos(5), EventKind::Start(NodeId(0)));
        q.push(SimTime::from_millis(50), EventKind::Start(NodeId(1)));
        q.push(SimTime::from_secs(50), EventKind::Start(NodeId(2)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.high_water(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 3);
        assert!(!q.is_empty());
    }
}
