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
//! instead of popping and pushing. Delivering a link's last head leaves
//! the root as a vacated slot (`EventQueue::vacate_min`) rather than
//! popping it: the delivery often forwards the packet onto an idle link
//! in the same event, and that link's first `Arrive` then takes the
//! slot in one sift-down. The next `peek` or `pop` first pops a slot
//! nothing refilled, so no driver can see it. The vacated entry holds
//! the current event's key, below every pending key, so the heap stays
//! valid while it waits, and the set of live entries, hence the pop
//! order, is the one a pop and a push would leave.
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
    /// The root of `arrivals` was delivered and waits to be refilled or
    /// popped; it counts as no pending event.
    vacated: bool,
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
        let entry = EventEntry { time, seq, kind };
        match entry.kind {
            EventKind::Arrive(_) if self.vacated => {
                self.vacated = false;
                self.replace_min(entry);
            }
            EventKind::Arrive(_) => self.arrivals.push(Reverse(entry)),
            _ => self.others.push(Reverse(entry)),
        }
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

    /// Retire the earliest `Arrive`, the event being processed, but
    /// keep its slot for the next `Arrive` pushed before the next
    /// `peek` or `pop`.
    pub(crate) fn vacate_min(&mut self) {
        debug_assert!(!self.vacated && !self.arrivals.is_empty());
        self.vacated = true;
    }

    /// Pop the vacated slot if no `Arrive` refilled it.
    fn settle(&mut self) {
        if self.vacated {
            self.vacated = false;
            self.arrivals.pop();
        }
    }

    /// Whether the earliest pending event is an `Arrive`.
    fn arrival_first(&self) -> bool {
        debug_assert!(!self.vacated, "settle the vacated slot first");
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
    pub fn peek(&mut self) -> Option<&EventEntry> {
        self.settle();
        let heap = if self.arrival_first() {
            &self.arrivals
        } else {
            &self.others
        };
        heap.peek().map(|Reverse(e)| e)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<EventEntry> {
        self.settle();
        let heap = if self.arrival_first() {
            &mut self.arrivals
        } else {
            &mut self.others
        };
        heap.pop().map(|Reverse(e)| e)
    }

    /// Number of pending events, in both heaps; a vacated slot is not
    /// one.
    pub fn len(&self) -> usize {
        self.arrivals.len() + self.others.len() - usize::from(self.vacated)
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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

    #[test]
    fn a_vacated_root_is_refilled_by_the_next_arrive_and_not_counted() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), EventKind::Arrive(LinkId(1)));
        q.push(SimTime::from_millis(4), EventKind::Arrive(LinkId(4)));
        q.push(SimTime::from_millis(2), EventKind::Timer(NodeId(2), 0));
        assert_eq!(q.high_water(), 3);
        // Link 1 delivers its last packet at 1 ms.
        q.vacate_min();
        assert_eq!(q.len(), 2);
        // A timer armed while the slot is vacant does not raise the
        // peak, which a pop before it would not have either.
        q.push(SimTime::from_millis(6), EventKind::Timer(NodeId(6), 0));
        assert_eq!((q.len(), q.high_water()), (3, 3));
        // The forwarded packet's link takes the slot, in time order.
        q.push(SimTime::from_millis(3), EventKind::Arrive(LinkId(3)));
        assert_eq!((q.len(), q.high_water()), (4, 4));
        assert_eq!(nodes(&mut q), vec![2, 3, 4, 6]);
    }

    #[test]
    fn peek_and_pop_skip_a_vacated_root_nothing_refilled() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), EventKind::Arrive(LinkId(1)));
        q.push(SimTime::from_millis(2), EventKind::Arrive(LinkId(2)));
        q.vacate_min();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek().map(|e| e.time), Some(SimTime::from_millis(2)));
        q.push(SimTime::from_millis(3), EventKind::Arrive(LinkId(3)));
        q.vacate_min();
        assert_eq!(q.pop().map(|e| e.time), Some(SimTime::from_millis(3)));
        assert!(q.is_empty());
    }

    /// What one event does after its own delivery: `(true, l, delay)`
    /// schedules a packet on link `l` `delay` ns from now (at least 1 ns
    /// after the link's last arrival, like the FIFO clamp), and
    /// `(false, _, delay)` arms a timer `delay` ns out.
    type Act = (bool, usize, u64);

    const LINKS: usize = 4;

    /// The scheduler as the simulator drives it, with links' in-order
    /// arrival queues, beside a plain heap of every pending entry that
    /// pops each event before the event pushes anything.
    struct Differential {
        q: EventQueue,
        links: [VecDeque<(SimTime, u64)>; LINKS],
        last_arrival: [SimTime; LINKS],
        now: SimTime,
        reference: BinaryHeap<Reverse<(SimTime, u64)>>,
        reference_high_water: usize,
    }

    impl Differential {
        fn new() -> Self {
            Differential {
                q: EventQueue::new(),
                links: Default::default(),
                last_arrival: [SimTime::ZERO; LINKS],
                now: SimTime::ZERO,
                reference: BinaryHeap::new(),
                reference_high_water: 0,
            }
        }

        fn reference_push(&mut self, key: (SimTime, u64)) {
            self.reference.push(Reverse(key));
            self.reference_high_water = self.reference_high_water.max(self.reference.len());
        }

        /// Process the earliest event, if any, then apply `acts` within
        /// it; returns the key the scheduler popped.
        fn step(&mut self, acts: &[Act]) -> Option<(SimTime, u64)> {
            let popped = self.q.peek().map(|e| {
                let link = match e.kind {
                    EventKind::Arrive(l) => Some(l.index()),
                    _ => None,
                };
                (e.time, e.seq, link)
            });
            if let Some((time, seq, link)) = popped {
                self.now = time;
                let Some(Reverse(want)) = self.reference.pop() else {
                    panic!("the reference heap ran dry first")
                };
                assert_eq!((time, seq), want, "pop order");
                match link {
                    Some(l) => {
                        assert_eq!(self.links[l].pop_front(), Some((time, seq)));
                        match self.links[l].front().copied() {
                            Some((time, seq)) => {
                                let kind = EventKind::Arrive(LinkId(l as u32));
                                self.q.replace_min(EventEntry { time, seq, kind });
                                self.reference_push((time, seq));
                            }
                            None => self.q.vacate_min(),
                        }
                    }
                    None => {
                        self.q.pop();
                    }
                }
            }
            for &(send, l, delay) in acts {
                let seq = self.q.next_seq();
                let at = self.now + SimDuration::from_nanos(delay);
                let (time, kind) = if send {
                    let time = at.max(self.last_arrival[l] + SimDuration::from_nanos(1));
                    self.last_arrival[l] = time;
                    self.links[l].push_back((time, seq));
                    if self.links[l].len() > 1 {
                        continue;
                    }
                    (time, EventKind::Arrive(LinkId(l as u32)))
                } else {
                    (at, EventKind::Timer(NodeId(0), 0))
                };
                self.q.push_keyed(time, seq, kind);
                self.reference_push((time, seq));
                assert_eq!(self.q.len(), self.reference.len());
            }
            assert_eq!(self.q.len(), self.reference.len());
            assert_eq!(self.q.high_water(), self.reference_high_water);
            popped.map(|(time, seq, _)| (time, seq))
        }
    }

    proptest! {
        /// Random interleavings of deliveries that re-key or drain a
        /// link, refills of drained links and timers armed in the same
        /// event pop in the order, and reach the peak, of a plain heap.
        #[test]
        fn prop_vacated_root_pops_like_a_plain_heap(
            events in vec(vec((any::<bool>(), 0..LINKS, 0u64..40), 0..4), 1..300),
        ) {
            let mut d = Differential::new();
            let mut popped = vec![];
            for acts in &events {
                popped.extend(d.step(acts));
            }
            while let Some(key) = d.step(&[]) {
                popped.push(key);
            }
            prop_assert!(d.q.is_empty() && d.reference.is_empty());
            prop_assert!(popped.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
