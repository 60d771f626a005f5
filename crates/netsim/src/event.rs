//! The discrete-event core: a calendar-queue scheduler.
//!
//! Ties are broken by insertion order (a monotonically increasing
//! sequence number), which makes event processing fully deterministic.
//!
//! # Design
//!
//! A plain `BinaryHeap` costs `O(log n)` comparisons (on ~40-byte
//! entries) per push and pop. Simulation events are overwhelmingly
//! short-horizon — packet deliveries and RTO timers land within a few
//! hundred milliseconds of *now* — so a calendar
//! queue (Brown 1988) fits: time is divided into fixed-width buckets
//! and an event is pushed onto its bucket's unsorted `Vec` in `O(1)`.
//!
//! Three tiers hold every pending event, keyed by the event's absolute
//! bucket number `b(t) = t >> BUCKET_WIDTH_SHIFT` relative to the wheel
//! cursor `wheel_pos`:
//!
//! * **near** (`b ≤ wheel_pos`): a small `(time, seq)` min-heap that
//!   hands out events in exact order. Only events about to fire live
//!   here, so the heap stays shallow.
//! * **wheel** (`wheel_pos < b ≤ wheel_pos + NUM_BUCKETS`): one
//!   unsorted `Vec` per bucket. Within this window the mapping
//!   `b → b % NUM_BUCKETS` is injective, so each slot holds exactly one
//!   bucket's events. An occupancy bitmap lets the cursor skip runs of
//!   empty buckets in a few word operations.
//! * **overflow** (`b > wheel_pos + NUM_BUCKETS`): a `(time, seq)`
//!   min-heap for far-future events (idle-connection RTOs, scheduled
//!   faults). Drained into the wheel as the cursor advances.
//!
//! When the near heap runs dry, the cursor advances to the next
//! occupied bucket (or jumps straight to the overflow minimum) and
//! migrates that single bucket into the near heap. Ordering is exact:
//! every event outside `near` has a strictly larger bucket number —
//! hence a strictly larger time — than everything inside it, and the
//! near heap orders by `(time, seq)`, so the global pop sequence is
//! identical to the reference heap's.

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
    /// A packet (held in the simulator's pool) arrives at `node`. The
    /// link that admitted it pushed this event at admission; if the
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

/// Width of one calendar bucket as a power of two in nanoseconds:
/// 2^16 ns ≈ 65.5 µs.
const BUCKET_WIDTH_SHIFT: u32 = 16;
/// Buckets on the wheel; the covered window is
/// `NUM_BUCKETS << BUCKET_WIDTH_SHIFT` ≈ 268 ms.
const NUM_BUCKETS: usize = 4096;
/// Words in the occupancy bitmap.
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;

/// Calendar queue of pending events ordered by `(time, insertion
/// order)`. Drop-in replacement for a `(time, seq)` min-heap with
/// near-O(1) push/pop for short-horizon events.
#[derive(Debug)]
pub struct EventQueue {
    /// Events in buckets at or before the cursor; exact `(time, seq)`
    /// min-heap — the only tier pops come from.
    near: BinaryHeap<Reverse<EventEntry>>,
    /// One unsorted vec per wheel bucket.
    slots: Vec<Vec<EventEntry>>,
    /// Bit per slot: set iff the slot is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Absolute bucket number the cursor has reached. Every bucket
    /// `≤ wheel_pos` has been migrated into `near`.
    wheel_pos: u64,
    /// Events currently stored in wheel slots.
    wheel_len: usize,
    /// Events beyond the wheel window.
    overflow: BinaryHeap<Reverse<EventEntry>>,
    next_seq: u64,
    len: usize,
    high_water: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Absolute bucket number of an event time.
#[inline]
fn bucket_of(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_WIDTH_SHIFT
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            slots: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            wheel_pos: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
            high_water: 0,
        }
    }

    /// Schedule `kind` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = EventEntry { time, seq, kind };
        let b = bucket_of(time);
        if b <= self.wheel_pos {
            // At or behind the cursor (the cursor may sit past *now*
            // after skipping idle stretches): the near heap absorbs it
            // and keeps exact order.
            self.near.push(Reverse(entry));
        } else if b - self.wheel_pos <= NUM_BUCKETS as u64 {
            let s = (b % NUM_BUCKETS as u64) as usize;
            if self.slots[s].is_empty() {
                self.occupied[s / 64] |= 1u64 << (s % 64);
            }
            self.slots[s].push(entry);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(entry));
        }
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Highest number of simultaneously pending events ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Earliest pending event time. Takes `&mut self` because it may
    /// advance the wheel cursor to expose the minimum.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle();
        self.near.peek().map(|Reverse(e)| e.time)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<EventEntry> {
        self.settle();
        let Reverse(e) = self.near.pop()?;
        self.len -= 1;
        Some(e)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Advance the cursor until the near heap holds the global minimum
    /// (or the queue is proven empty).
    fn settle(&mut self) {
        while self.near.is_empty() {
            if self.wheel_len == 0 {
                match self.overflow.peek() {
                    None => return, // truly empty
                    Some(Reverse(e)) => {
                        // Jump the cursor so the next step drains the
                        // overflow minimum. Invariant: overflow buckets
                        // are > wheel_pos + NUM_BUCKETS, so this moves
                        // strictly forward and the (empty) wheel stays
                        // consistent under the new cursor.
                        self.wheel_pos = bucket_of(e.time) - 1;
                    }
                }
            } else {
                // Skip empty buckets wholesale; within the window,
                // circular slot order equals bucket order.
                self.wheel_pos += self.next_occupied_distance();
            }
            self.advance_one();
        }
    }

    /// Move the cursor one bucket forward: migrate that bucket into the
    /// near heap, then pull newly-in-window events out of overflow.
    fn advance_one(&mut self) {
        self.wheel_pos += 1;
        let s = (self.wheel_pos % NUM_BUCKETS as u64) as usize;
        let migrated = self.slots[s].len();
        if migrated > 0 {
            self.wheel_len -= migrated;
            self.occupied[s / 64] &= !(1u64 << (s % 64));
            for e in self.slots[s].drain(..) {
                self.near.push(Reverse(e));
            }
        }
        // Drain overflow events that fit the window now. Migrating the
        // slot first matters: a drained event one full window ahead
        // (bucket == wheel_pos + NUM_BUCKETS) lands in the slot just
        // emptied.
        let horizon = self.wheel_pos + NUM_BUCKETS as u64;
        while let Some(Reverse(e)) = self.overflow.peek() {
            let b = bucket_of(e.time);
            if b > horizon {
                break;
            }
            let Some(Reverse(e)) = self.overflow.pop() else {
                unreachable!("peek returned Some")
            };
            if b <= self.wheel_pos {
                self.near.push(Reverse(e));
            } else {
                let s = (b % NUM_BUCKETS as u64) as usize;
                if self.slots[s].is_empty() {
                    self.occupied[s / 64] |= 1u64 << (s % 64);
                }
                self.slots[s].push(e);
                self.wheel_len += 1;
            }
        }
    }

    /// Circular distance from the slot after the cursor to the first
    /// occupied slot (0 when the very next slot is occupied). Requires
    /// `wheel_len > 0`.
    fn next_occupied_distance(&self) -> u64 {
        let start = ((self.wheel_pos + 1) % NUM_BUCKETS as u64) as usize;
        let mut word_idx = start / 64;
        let mut word = self.occupied[word_idx] & (!0u64 << (start % 64));
        let mut scanned = 0;
        loop {
            if word != 0 {
                let pos = word_idx * 64 + word.trailing_zeros() as usize;
                return ((pos + NUM_BUCKETS - start) % NUM_BUCKETS) as u64;
            }
            debug_assert!(scanned <= BITMAP_WORDS, "wheel_len > 0 but bitmap empty");
            word_idx = (word_idx + 1) % BITMAP_WORDS;
            word = self.occupied[word_idx];
            scanned += 1;
        }
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

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), EventKind::Start(NodeId(0)));
        q.push(SimTime::from_millis(1), EventKind::Start(NodeId(1)));
        q.push(SimTime::from_millis(3), EventKind::Start(NodeId(2)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.push(t, EventKind::Start(NodeId(10)));
        q.push(t, EventKind::Start(NodeId(20)));
        q.push(t, EventKind::Start(NodeId(30)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start(n) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn peek_time_reports_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2), EventKind::Start(NodeId(0)));
        q.push(SimTime::from_secs(1), EventKind::Start(NodeId(0)));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = EventQueue::new();
        // Hours ahead — far beyond the wheel window.
        q.push(SimTime::from_secs(3600), EventKind::Start(NodeId(1)));
        q.push(SimTime::from_nanos(10), EventKind::Start(NodeId(0)));
        q.push(SimTime::from_secs(7200), EventKind::Start(NodeId(2)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start(n) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        // Push a batch, pop some, push earlier-than-cursor and far
        // future events, and verify the merged order is still sorted by
        // (time, seq).
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(
                SimTime::from_nanos(i * 50_000),
                EventKind::Timer(NodeId(0), i),
            );
        }
        let mut popped = Vec::new();
        for _ in 0..50 {
            let Some(e) = q.pop() else {
                panic!("short queue")
            };
            popped.push((e.time, e.seq));
        }
        // The cursor has advanced; push events behind it and far ahead.
        q.push(SimTime::from_nanos(1), EventKind::Timer(NodeId(0), 900));
        q.push(SimTime::from_secs(100), EventKind::Timer(NodeId(0), 901));
        while let Some(e) = q.pop() {
            popped.push((e.time, e.seq));
        }
        // The behind-cursor push fires immediately (its time is in the
        // past), exactly as the reference heap would order it.
        assert_eq!(popped.len(), 102);
        // The tail after re-pushing must itself be sorted.
        assert!(popped[50..].windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn same_tick_ties_across_tiers_preserved() {
        // Two events at the same far-future instant entering overflow
        // must pop in insertion order.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1000);
        q.push(t, EventKind::Start(NodeId(1)));
        q.push(t, EventKind::Start(NodeId(2)));
        q.push(SimTime::ZERO, EventKind::Start(NodeId(0)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Start(n) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn high_water_and_len_track_all_tiers() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), EventKind::Start(NodeId(0)));
        q.push(SimTime::from_millis(50), EventKind::Start(NodeId(1)));
        q.push(SimTime::from_secs(50), EventKind::Start(NodeId(2)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.high_water(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn sparse_idle_stretches_are_skipped() {
        // Events many empty buckets apart exercise the bitmap skip.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..20).map(|i| i * 13_000_000 + 17).collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(
                SimTime::from_nanos(t),
                EventKind::Timer(NodeId(0), i as u64),
            );
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(got, times);
    }
}
