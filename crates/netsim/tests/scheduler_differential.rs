//! Differential property test: the calendar-queue scheduler must pop the
//! exact `(time, seq, kind)` stream a reference binary heap produces,
//! under arbitrary interleaved push/pop workloads — including same-tick
//! ties (FIFO by seq) and far-future times that route through the
//! overflow tier.

use csig_netsim::{
    EventEntry, EventKind, EventQueue, FlowId, NodeId, Packet, PacketHandle, PacketId, PacketKind,
    PacketPool, SimDuration, SimTime, TimerToken,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::discriminant;

/// Cycle through the hot-path event kinds so discriminants vary.
fn kind_for(i: usize, pkt: PacketHandle) -> EventKind {
    match i % 3 {
        0 => EventKind::Start(NodeId(i as u32)),
        1 => EventKind::Timer(NodeId(i as u32), i as TimerToken),
        _ => EventKind::Deliver(NodeId(i as u32), pkt),
    }
}

/// Map an op's class byte and raw entropy to a push offset that lands in
/// a specific scheduler tier.
fn offset_nanos(class: u8, raw: u32) -> u64 {
    match class {
        // Same-tick tie: must pop FIFO among equal times.
        0 => 0,
        // Sub-bucket: collides inside one calendar slot.
        1 | 2 => (raw % 1000) as u64,
        // Service/delivery horizon: the dominant regime.
        3..=8 => (raw % 2_000_000) as u64,
        // Beyond the wheel window: exercises the overflow heap and its
        // drain-back-into-the-wheel path.
        9 | 10 => 300_000_000 + (raw as u64 % 2_000_000_000),
        // Anywhere within 20 simulated seconds.
        _ => (raw as u64) % 20_000_000_000,
    }
}

proptest! {
    #[test]
    fn calendar_queue_matches_reference_heap(
        ops in proptest::collection::vec((0u8..4, 0u8..12, any::<u32>()), 1..600),
    ) {
        let pkt = PacketPool::new().insert(Packet {
            id: PacketId(0),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1500,
            sent_at: SimTime::ZERO,
            kind: PacketKind::Background,
        });
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<EventEntry>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        let mut i = 0usize;

        let check_pop = |q: &mut EventQueue,
                             reference: &mut BinaryHeap<Reverse<EventEntry>>,
                             now: &mut SimTime|
         -> bool {
            let got = q.pop();
            let want = reference.pop().map(|r| r.0);
            match (got, want) {
                (None, None) => false,
                (Some(g), Some(w)) => {
                    prop_assert_eq!(g.time, w.time);
                    prop_assert_eq!(g.seq, w.seq);
                    prop_assert!(
                        discriminant(&g.kind) == discriminant(&w.kind),
                        "kind mismatch at seq {}: {:?} vs {:?}",
                        g.seq,
                        g.kind,
                        w.kind
                    );
                    *now = g.time;
                    true
                }
                (g, w) => {
                    panic!("pop mismatch: {:?} vs {:?}", g, w);
                }
            }
        };

        for (op, class, raw) in ops {
            if op == 0 {
                check_pop(&mut q, &mut reference, &mut now);
            } else {
                let t = now + SimDuration::from_nanos(offset_nanos(class, raw));
                q.push(t, kind_for(i, pkt));
                reference.push(Reverse(EventEntry { time: t, seq, kind: kind_for(i, pkt) }));
                seq += 1;
                i += 1;
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        // Drain both to the end: tails must agree too.
        while check_pop(&mut q, &mut reference, &mut now) {}
        prop_assert!(q.is_empty());
    }
}
