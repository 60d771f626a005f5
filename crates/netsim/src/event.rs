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
//! only that queue's head, keyed by the head packet's own `(time, seq)`.
//! Every entry a link queue still holds sorts after its head, so the
//! scheduler minimum is the global minimum and the pop order is the one
//! a heap of every packet would give. Delivering a head re-keys it in
//! place (`EventQueue::replace_min`) instead of popping and pushing.
//! Delivering a link's last head leaves the root as a vacated slot
//! (`EventQueue::vacate_min`) rather than popping it: the delivery
//! often forwards the packet onto an idle link in the same event, and
//! that link's first arrival then takes the slot in one sift-down. The
//! next `peek` first pops a slot nothing refilled, so no driver can see
//! it. The vacated entry holds the current event's key, below every
//! pending key, so the heap stays valid while it waits, and the set of
//! live entries, hence the pop order, is the one a pop and a push would
//! leave.
//!
//! The scheduler keeps two heaps. The arrivals heap holds at most one
//! entry per busy link: 24 bytes, the key `time << 64 | seq` as one
//! `u128` beside the link id, so a sift compares one integer per level.
//! It is a short binary heap of its own, since nearly every event
//! re-keys, drains or refills it. The other heap holds every
//! [`EventKind`] (starts, timers, a packet's own `Deliver`, link
//! reconfigurations and faults) as [`EventEntry`]s. Timers are a
//! fraction of a percent of the events but most of the pending entries:
//! dormant retransmission and think-time timers outnumber busy links.
//! Kept apart, they no longer deepen the heap that nearly every event
//! re-keys. `peek` takes the smaller `(time, seq)` of the two roots;
//! sequence numbers are unique, so the pop order is exactly that of
//! one heap.

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

/// Something scheduled to happen, other than a link's in-order arrival
/// (those live in the arrivals heap; see the module docs).
#[derive(Debug)]
pub enum EventKind {
    /// A host agent's initial activation.
    Start(NodeId),
    /// A timer armed by the agent on `node` fires.
    Timer(NodeId, TimerToken),
    /// A packet that may overtake others (held back by a fault plan's
    /// reorder impairment) arrives at `node`. If the
    /// packet was re-timed since, the handle is stale and the event is
    /// skipped.
    Deliver(NodeId, PacketHandle),
    /// Replace the link's parameters (time-varying path state). Boxed
    /// so the rare reconfiguration does not widen every event entry.
    LinkReconfig(LinkId, Box<LinkConfig>),
    /// A scheduled fault (a down/up flap) fires.
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

/// Where the earliest pending event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Next {
    /// The head of this link's in-order arrivals. The link takes it, or
    /// finds it stale (its head was re-timed) and pops it.
    Link(LinkId),
    /// Any other kind; [`EventQueue::pop_other`] takes it.
    Other,
}

/// `(time, seq)` as one integer that orders like the tuple.
fn key(time: SimTime, seq: u64) -> u128 {
    u128::from(time.as_nanos()) << 64 | u128::from(seq)
}

/// An arrivals-heap entry. Packed to 8-byte alignment so it takes 24
/// bytes, not the 32 that `u128`'s 16-byte alignment would pad it to.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(8))]
struct Slot {
    /// `key(time, seq)` of the link's head arrival.
    key: u128,
    link: LinkId,
}

/// A binary min-heap of [`Slot`]s by key.
#[derive(Debug, Default)]
struct Arrivals(Vec<Slot>);

impl Arrivals {
    fn min(&self) -> Option<Slot> {
        self.0.first().copied()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn push(&mut self, slot: Slot) {
        let mut i = self.0.len();
        self.0.push(slot);
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.0[parent];
            if p.key < slot.key {
                break;
            }
            self.0[i] = p;
            i = parent;
        }
        self.0[i] = slot;
    }

    /// Put `slot` in the root's place and sift it down.
    ///
    /// # Panics
    /// Panics if the heap is empty.
    fn replace_min(&mut self, slot: Slot) {
        let n = self.0.len();
        let mut i = 0;
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.0[child + 1].key < self.0[child].key {
                child += 1;
            }
            let c = self.0[child];
            if slot.key < c.key {
                break;
            }
            self.0[i] = c;
            i = child;
        }
        self.0[i] = slot;
    }

    fn pop_min(&mut self) {
        if let Some(last) = self.0.pop() {
            if !self.0.is_empty() {
                self.replace_min(last);
            }
        }
    }
}

/// Pending events ordered by `(time, insertion order)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// The heads of the links' in-order arrivals.
    arrivals: Arrivals,
    /// Every [`EventKind`].
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
        self.others.push(Reverse(EventEntry { time, seq, kind }));
        self.raise_high_water();
    }

    /// Draw the next insertion sequence number. A link draws one for
    /// each in-order packet it schedules, at the point it would have
    /// pushed that packet's own event.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `link`'s head arrival under a sequence number drawn
    /// earlier, in the vacated slot if there is one.
    pub(crate) fn push_arrival(&mut self, time: SimTime, seq: u64, link: LinkId) {
        let slot = Slot {
            key: key(time, seq),
            link,
        };
        if self.vacated {
            self.vacated = false;
            self.arrivals.replace_min(slot);
        } else {
            self.arrivals.push(slot);
        }
        self.raise_high_water();
    }

    fn raise_high_water(&mut self) {
        self.high_water = self.high_water.max(self.len());
    }

    /// Re-key the earliest arrival to `link`'s next head, in one
    /// sift-down. The new key must not sort before anything popped so
    /// far.
    ///
    /// # Panics
    /// Panics if no arrival is pending.
    pub(crate) fn replace_min(&mut self, time: SimTime, seq: u64, link: LinkId) {
        debug_assert!(!self.vacated);
        self.arrivals.replace_min(Slot {
            key: key(time, seq),
            link,
        });
    }

    /// Retire the earliest arrival, the event being processed, but keep
    /// its slot for the next arrival pushed before the next `peek`.
    pub(crate) fn vacate_min(&mut self) {
        debug_assert!(!self.vacated && self.arrivals.len() > 0);
        self.vacated = true;
    }

    /// Pop the earliest arrival, a stale one.
    pub(crate) fn pop_arrival(&mut self) {
        debug_assert!(!self.vacated);
        self.arrivals.pop_min();
    }

    /// Pop the vacated slot if no arrival refilled it.
    fn settle(&mut self) {
        if self.vacated {
            self.vacated = false;
            self.arrivals.pop_min();
        }
    }

    /// Highest number of simultaneously pending events ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The earliest pending event's `(time, seq)` and where it is.
    pub(crate) fn peek(&mut self) -> Option<(SimTime, u64, Next)> {
        self.settle();
        let other = self.others.peek().map(|Reverse(e)| (e.time, e.seq));
        match (self.arrivals.min(), other) {
            (Some(a), o) if o.is_none_or(|(time, seq)| a.key < key(time, seq)) => {
                let time = SimTime::from_nanos((a.key >> 64) as u64);
                Some((time, a.key as u64, Next::Link(a.link)))
            }
            (_, o) => o.map(|(time, seq)| (time, seq, Next::Other)),
        }
    }

    /// Pop the earliest event once [`EventQueue::peek`] has found it
    /// [`Next::Other`].
    pub(crate) fn pop_other(&mut self) -> Option<EventEntry> {
        debug_assert!(!self.vacated);
        debug_assert!(match (self.arrivals.min(), self.others.peek()) {
            (Some(a), Some(Reverse(e))) => key(e.time, e.seq) < a.key,
            _ => true,
        });
        self.others.pop().map(|Reverse(e)| e)
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
    use csig_rng::cases;
    use std::collections::VecDeque;

    #[test]
    fn entries_stay_compact() {
        // Time, sequence number and a 16-byte kind: a `Timer` carries
        // a node and a token, and nothing is wider.
        assert_eq!(std::mem::size_of::<EventKind>(), 16);
        assert_eq!(std::mem::size_of::<EventEntry>(), 32);
        // A `u128` key and a link id.
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }

    /// The packed key orders like `(SimTime, u64)` and unpacks to its
    /// halves.
    fn assert_key_orders_like_the_tuple(t1: u64, s1: u64, t2: u64, s2: u64) {
        let (a, b) = ((SimTime::from_nanos(t1), s1), (SimTime::from_nanos(t2), s2));
        assert_eq!(
            key(a.0, a.1).cmp(&key(b.0, b.1)),
            a.cmp(&b),
            "{a:?} vs {b:?}"
        );
        let k = key(a.0, a.1);
        assert_eq!(((k >> 64) as u64, k as u64), (t1, s1));
    }

    #[test]
    fn key_orders_like_the_time_seq_tuple_at_the_edges() {
        // Every pairing of boundary values, times near `u64::MAX`
        // included.
        const EDGES: [u64; 7] = [0, 1, 2, 1 << 32, u64::MAX - 2, u64::MAX - 1, u64::MAX];
        for t1 in EDGES {
            for s1 in EDGES {
                for t2 in EDGES {
                    for s2 in EDGES {
                        assert_key_orders_like_the_tuple(t1, s1, t2, s2);
                    }
                }
            }
        }
    }

    #[test]
    fn prop_key_orders_like_the_time_seq_tuple() {
        cases(256, "prop_key_orders_like_the_time_seq_tuple", |rng| {
            let (t1, s1, s2) = (rng.gen(), rng.gen(), rng.gen());
            // Half the cases compare two keys of one time (a fair coin
            // from the word's top bit).
            let near = rng.gen::<u32>() >> 31 == 1;
            let t2 = if near { t1 } else { s2 ^ t1 };
            assert_key_orders_like_the_tuple(t1, s1, t2, s2);
        });
    }

    /// Pop everything, naming each entry by its node or link id; an
    /// arrival pops as a stale head would.
    fn drain(q: &mut EventQueue) -> Vec<u32> {
        std::iter::from_fn(|| {
            let (time, seq, next) = q.peek()?;
            Some(match next {
                Next::Link(l) => {
                    q.pop_arrival();
                    l.0
                }
                Next::Other => {
                    let e = q.pop_other()?;
                    assert_eq!((time, seq), (e.time, e.seq));
                    match e.kind {
                        EventKind::Start(n) | EventKind::Timer(n, _) => n.0,
                        _ => unreachable!(),
                    }
                }
            })
        })
        .collect()
    }

    /// Schedule `link`'s head arrival under a fresh sequence number.
    fn arrive(q: &mut EventQueue, time: SimTime, link: u32) {
        let seq = q.next_seq();
        q.push_arrival(time, seq, LinkId(link));
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), EventKind::Start(NodeId(5)));
        q.push(SimTime::from_millis(1), EventKind::Start(NodeId(1)));
        q.push(SimTime::from_millis(3), EventKind::Start(NodeId(3)));
        assert_eq!(drain(&mut q), vec![1, 3, 5]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.push(t, EventKind::Start(NodeId(10)));
        q.push(t, EventKind::Start(NodeId(20)));
        q.push(t, EventKind::Start(NodeId(30)));
        assert_eq!(drain(&mut q), vec![10, 20, 30]);
    }

    #[test]
    fn replace_min_rekeys_the_arrivals_root_in_place() {
        let mut q = EventQueue::new();
        arrive(&mut q, SimTime::from_millis(1), 1);
        arrive(&mut q, SimTime::from_millis(3), 3);
        q.push(SimTime::from_millis(2), EventKind::Timer(NodeId(2), 0));
        let seq = q.next_seq();
        q.replace_min(SimTime::from_millis(5), seq, LinkId(5));
        assert_eq!(q.len(), 3);
        let (time, _, next) = q.peek().unwrap();
        assert_eq!((time, next), (SimTime::from_millis(2), Next::Other));
        assert_eq!(drain(&mut q), vec![2, 3, 5]);
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
        q.push_arrival(t, early, LinkId(0));
        arrive(&mut q, t, 2);
        q.push(t, EventKind::Timer(NodeId(3), 0));
        // Both heaps count towards the pending total and its peak.
        assert_eq!(q.len(), 4);
        assert_eq!(q.high_water(), 4);
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3]);
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
        q.pop_other();
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 3);
        assert!(!q.is_empty());
    }

    #[test]
    fn a_vacated_root_is_refilled_by_the_next_arrival_and_not_counted() {
        let mut q = EventQueue::new();
        arrive(&mut q, SimTime::from_millis(1), 1);
        arrive(&mut q, SimTime::from_millis(4), 4);
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
        arrive(&mut q, SimTime::from_millis(3), 3);
        assert_eq!((q.len(), q.high_water()), (4, 4));
        assert_eq!(drain(&mut q), vec![2, 3, 4, 6]);
    }

    #[test]
    fn peek_skips_a_vacated_root_nothing_refilled() {
        let mut q = EventQueue::new();
        arrive(&mut q, SimTime::from_millis(1), 1);
        arrive(&mut q, SimTime::from_millis(2), 2);
        q.vacate_min();
        assert_eq!(q.len(), 1);
        let head = q.peek().map(|(time, _, next)| (time, next));
        assert_eq!(head, Some((SimTime::from_millis(2), Next::Link(LinkId(2)))));
        q.vacate_min();
        assert!(q.is_empty());
        assert!(q.peek().is_none());
    }

    /// What one event does after its own delivery, on link `l` and
    /// `delay` ns from now: `Send` schedules a packet (at least 1 ns
    /// after the link's last arrival, like the FIFO clamp), `Timer`
    /// arms a timer, and `Retime` re-schedules every packet the link
    /// holds, leaving the scheduler's entry for its old head stale.
    #[derive(Debug, Clone, Copy)]
    enum Act {
        Send,
        Timer,
        Retime,
    }

    const ACTS: [Act; 3] = [Act::Send, Act::Timer, Act::Retime];

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
        /// Entries a re-time left stale, and stale entries popped.
        superseded: usize,
        stale: usize,
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
                superseded: 0,
                stale: 0,
            }
        }

        fn reference_push(&mut self, key: (SimTime, u64)) {
            self.reference.push(Reverse(key));
            self.reference_high_water = self.reference_high_water.max(self.reference.len());
            assert_eq!(self.q.len(), self.reference.len());
        }

        /// Schedule a packet on link `l` at `at` or just after its last
        /// arrival; only a link's head reaches the scheduler.
        fn send(&mut self, l: usize, at: SimTime) {
            let seq = self.q.next_seq();
            let time = at.max(self.last_arrival[l] + SimDuration::from_nanos(1));
            self.last_arrival[l] = time;
            self.links[l].push_back((time, seq));
            if self.links[l].len() == 1 {
                self.q.push_arrival(time, seq, LinkId(l as u32));
                self.reference_push((time, seq));
            }
        }

        /// Process the earliest event, if any, then apply `acts` within
        /// it; returns the key the scheduler popped.
        fn step(&mut self, acts: &[(usize, usize, u64)]) -> Option<(SimTime, u64)> {
            let popped = self.q.peek();
            if let Some((time, seq, next)) = popped {
                self.now = time;
                let Some(Reverse(want)) = self.reference.pop() else {
                    panic!("the reference heap ran dry first")
                };
                assert_eq!((time, seq), want, "pop order");
                match next {
                    Next::Link(l) if self.links[l.index()].front() == Some(&(time, seq)) => {
                        let l = l.index();
                        self.links[l].pop_front();
                        match self.links[l].front().copied() {
                            Some((time, seq)) => {
                                self.q.replace_min(time, seq, LinkId(l as u32));
                                self.reference_push((time, seq));
                            }
                            None => self.q.vacate_min(),
                        }
                    }
                    Next::Link(_) => {
                        self.stale += 1;
                        self.q.pop_arrival();
                    }
                    Next::Other => {
                        let e = self.q.pop_other().expect("peeked");
                        assert_eq!((e.time, e.seq), (time, seq));
                    }
                }
            }
            for &(act, l, delay) in acts {
                let at = self.now + SimDuration::from_nanos(delay);
                match ACTS[act] {
                    Act::Send => self.send(l, at),
                    Act::Timer => {
                        let seq = self.q.next_seq;
                        self.q.push(at, EventKind::Timer(NodeId(0), 0));
                        self.reference_push((at, seq));
                    }
                    Act::Retime => {
                        let held = std::mem::take(&mut self.links[l]);
                        self.superseded += usize::from(!held.is_empty());
                        self.last_arrival[l] = self.now;
                        for _ in &held {
                            self.send(l, at);
                        }
                    }
                }
            }
            assert_eq!(self.q.len(), self.reference.len());
            assert_eq!(self.q.high_water(), self.reference_high_water);
            popped.map(|(time, seq, _)| (time, seq))
        }
    }

    /// Random interleavings of deliveries that re-key or drain a link,
    /// refills of drained links, re-times that leave a stale head and
    /// timers armed in the same event pop in the order, and reach the
    /// peak, of a plain heap.
    #[test]
    fn prop_arrivals_heap_pops_like_a_plain_heap() {
        cases(256, "prop_arrivals_heap_pops_like_a_plain_heap", |rng| {
            let mut d = Differential::new();
            let mut popped = vec![];
            for _ in 0..rng.gen_range(1..300usize) {
                let acts: Vec<(usize, usize, u64)> = (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        (
                            rng.gen_range(0..ACTS.len()),
                            rng.gen_range(0..LINKS),
                            rng.gen_range(0..40),
                        )
                    })
                    .collect();
                popped.extend(d.step(&acts));
            }
            while let Some(key) = d.step(&[]) {
                popped.push(key);
            }
            assert!(d.q.is_empty() && d.reference.is_empty());
            assert!(popped.windows(2).all(|w| w[0] < w[1]));
            assert!(d.links.iter().all(VecDeque::is_empty));
            // Every superseded head popped as stale, and nothing else.
            assert_eq!(d.stale, d.superseded);
        });
    }
}
