//! Trace-based flow-RTT extraction — the `tshark` step of the paper's
//! pipeline.
//!
//! From a server-side capture, each downstream data segment is matched
//! with the first cumulative ACK that covers it; the time difference is
//! one flow-RTT sample. Karn's rule is applied: once any part of a
//! sequence range is retransmitted, samples for that range are
//! discarded (the ACK can't be attributed to a specific transmission).

use crate::flow::OffsetTracker;
use csig_netsim::{Direction, PacketRecord, SimDuration, SimTime};
use std::collections::VecDeque;

/// One RTT sample extracted from the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttSample {
    /// Arrival time of the acknowledging packet.
    pub at: SimTime,
    /// Measured round-trip time.
    pub rtt: SimDuration,
    /// Stream offset (exclusive end) of the acknowledged segment.
    pub seq_end: u64,
}

/// An outstanding data segment awaiting acknowledgment.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    start: u64,
    end: u64,
    sent_at: SimTime,
    tainted: bool,
}

/// Incremental flow-RTT extractor.
///
/// Feed it one (server-side) [`PacketRecord`] of a single flow at a
/// time; each `In` cumulative ACK that cleanly retires outstanding data
/// yields at most one [`RttSample`]. State is bounded by the flow's
/// in-flight window (the `outstanding` list), not by trace length.
///
/// Entries are appended only past `max_sent_end`, so `outstanding` is
/// sorted by offset and its ranges are disjoint. An ACK retires a
/// prefix, found by scanning from the front; the scan stops at the first
/// entry it keeps, so an ACK costs O(1) plus the entries it retires. A
/// retransmission overlaps one contiguous run, found by binary search.
///
/// Offsets are anchored at the first `Out` SYN's ISS, or at the first
/// outgoing data packet's sequence number if the tap missed the
/// handshake. Samples come out in ACK-arrival order.
#[derive(Debug, Clone, Default)]
pub struct RttExtractor {
    out_tracker: Option<OffsetTracker>,
    outstanding: VecDeque<Outstanding>,
    max_sent_end: u64,
}

impl RttExtractor {
    /// A fresh extractor (no records seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one record; an `In` ACK may yield a sample.
    pub fn push(&mut self, rec: &PacketRecord) -> Option<RttSample> {
        let h = rec.pkt.tcp()?;
        match rec.dir {
            Direction::Out => {
                if h.flags.syn() {
                    // Anchor offsets at the local ISS.
                    if self.out_tracker.is_none() {
                        self.out_tracker = Some(OffsetTracker::new(h.seq));
                    }
                    return None;
                }
                if h.payload_len == 0 {
                    return None;
                }
                let tracker = self.out_tracker.get_or_insert_with(|| {
                    // No SYN seen: anchor offsets at this first data seq.
                    OffsetTracker::new(h.seq.wrapping_sub(1))
                });
                let start = tracker.offset(h.seq);
                let end = start + h.payload_len as u64;
                if start < self.max_sent_end {
                    // Retransmission: taint every overlapping outstanding
                    // range (Karn) and do not add a fresh entry — the
                    // eventual ACK cannot be attributed.
                    let first = self.outstanding.partition_point(|o| o.end <= start);
                    let last = self.outstanding.partition_point(|o| o.start < end);
                    for o in self.outstanding.range_mut(first..last) {
                        o.tainted = true;
                    }
                } else {
                    self.outstanding.push_back(Outstanding {
                        start,
                        end,
                        sent_at: rec.time,
                        tainted: false,
                    });
                    self.max_sent_end = end;
                }
                None
            }
            Direction::In => {
                if !h.flags.ack() {
                    return None;
                }
                // Anchor ack numbers in the same offset space as the
                // data (the SYN's ISS, or the first-data fallback).
                let tr = self.out_tracker.as_ref()?; // no data seen yet
                let ack_off =
                    csig_tcp::seq::offset_of(tr.base().wrapping_add(1), h.ack, self.max_sent_end);
                // Retire all fully covered segments; the newest clean one
                // yields the sample for this ACK.
                let covered = self
                    .outstanding
                    .iter()
                    .take_while(|o| o.end <= ack_off)
                    .count();
                let best = self
                    .outstanding
                    .range(..covered)
                    .rev()
                    .find(|o| !o.tainted)
                    .copied();
                self.outstanding.drain(..covered);
                best.map(|o| RttSample {
                    at: rec.time,
                    rtt: rec.time.saturating_since(o.sent_at),
                    seq_end: o.end,
                })
            }
        }
    }

    /// Number of unacknowledged segments currently tracked (the only
    /// unbounded-looking state; in practice bounded by the in-flight
    /// window).
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }
}

/// Incremental cumulative-acknowledgment accountant.
///
/// Tracks the highest cumulative acknowledgment offset (payload bytes
/// delivered) of one flow, capped below the FIN's sequence slot.
/// Accounting starts at the `Out` SYN — without a captured local SYN it
/// stays at zero.
#[derive(Debug, Clone, Default)]
pub struct AckAccountant {
    out_tracker: Option<OffsetTracker>,
    max_ack: u64,
    fin_cap: Option<u64>,
}

impl AckAccountant {
    /// A fresh accountant (no records seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one record.
    pub fn push(&mut self, rec: &PacketRecord) {
        let Some(h) = rec.pkt.tcp() else { return };
        match rec.dir {
            Direction::Out => {
                if h.flags.syn() {
                    if self.out_tracker.is_none() {
                        self.out_tracker = Some(OffsetTracker::new(h.seq));
                    }
                    return;
                }
                let Some(tracker) = self.out_tracker.as_mut() else {
                    return; // no local SYN: accounting never starts
                };
                if h.flags.fin() {
                    let start = tracker.offset(h.seq);
                    self.fin_cap = Some(start + h.payload_len as u64);
                } else if h.payload_len > 0 {
                    let _ = tracker.offset(h.seq);
                }
            }
            Direction::In => {
                if !h.flags.ack() {
                    return;
                }
                let Some(tracker) = self.out_tracker.as_ref() else {
                    return;
                };
                let mut off =
                    csig_tcp::seq::offset_of(tracker.base().wrapping_add(1), h.ack, self.max_ack);
                if let Some(cap) = self.fin_cap {
                    off = off.min(cap);
                }
                if off > self.max_ack {
                    self.max_ack = off;
                }
            }
        }
    }

    /// Highest cumulative acknowledgment offset seen so far.
    pub fn bytes_acked(&self) -> u64 {
        self.max_ack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::{FlowId, NodeId, Packet, PacketId, PacketKind, TcpFlags, TcpHeader, NO_SACK};

    const ISS: u32 = 5000;
    const RISS: u32 = 9000;

    fn tcp_rec(
        dir: Direction,
        t_us: u64,
        seq: u32,
        ack: u32,
        len: u32,
        flags: TcpFlags,
    ) -> csig_netsim::PacketRecord {
        csig_netsim::PacketRecord {
            time: SimTime::from_micros(t_us),
            dir,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(7),
                src: NodeId(0),
                dst: NodeId(1),
                size: 52 + len,
                sent_at: SimTime::from_micros(t_us),
                kind: PacketKind::Tcp(TcpHeader {
                    seq,
                    ack,
                    flags,
                    payload_len: len,
                    window: 65535,
                    sack: NO_SACK,
                }),
            },
        }
    }

    fn handshake() -> Vec<csig_netsim::PacketRecord> {
        vec![
            tcp_rec(Direction::In, 0, RISS, 0, 0, TcpFlags::SYN),
            tcp_rec(
                Direction::Out,
                10,
                ISS,
                RISS.wrapping_add(1),
                0,
                TcpFlags::SYN | TcpFlags::ACK,
            ),
            tcp_rec(
                Direction::In,
                20,
                RISS.wrapping_add(1),
                ISS.wrapping_add(1),
                0,
                TcpFlags::ACK,
            ),
        ]
    }

    fn data(t_us: u64, off: u32, len: u32) -> csig_netsim::PacketRecord {
        tcp_rec(
            Direction::Out,
            t_us,
            ISS.wrapping_add(1).wrapping_add(off),
            RISS.wrapping_add(1),
            len,
            TcpFlags::ACK,
        )
    }

    fn ack(t_us: u64, ack_off: u32) -> csig_netsim::PacketRecord {
        tcp_rec(
            Direction::In,
            t_us,
            RISS.wrapping_add(1),
            ISS.wrapping_add(1).wrapping_add(ack_off),
            0,
            TcpFlags::ACK,
        )
    }

    fn extract(records: &[PacketRecord]) -> Vec<RttSample> {
        let mut extractor = RttExtractor::new();
        records.iter().filter_map(|r| extractor.push(r)).collect()
    }

    #[test]
    fn simple_segment_ack_pairing() {
        let mut recs = handshake();
        recs.push(data(1_000, 0, 1000));
        recs.push(ack(41_000, 1000)); // 40 ms later
        recs.push(data(42_000, 1000, 1000));
        recs.push(ack(92_000, 2000)); // 50 ms later
        let samples = extract(&recs);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].rtt, SimDuration::from_millis(40));
        assert_eq!(samples[0].seq_end, 1000);
        assert_eq!(samples[1].rtt, SimDuration::from_millis(50));
    }

    #[test]
    fn cumulative_ack_yields_one_sample_from_newest_segment() {
        let mut recs = handshake();
        recs.push(data(1_000, 0, 1000));
        recs.push(data(2_000, 1000, 1000));
        recs.push(data(3_000, 2000, 1000));
        recs.push(ack(53_000, 3000)); // covers all three
        let samples = extract(&recs);
        assert_eq!(samples.len(), 1);
        // Newest segment sent at 3 ms, acked at 53 ms → 50 ms.
        assert_eq!(samples[0].rtt, SimDuration::from_millis(50));
        assert_eq!(samples[0].seq_end, 3000);
    }

    #[test]
    fn karn_discards_retransmitted_ranges() {
        let mut recs = handshake();
        recs.push(data(1_000, 0, 1000));
        recs.push(data(2_000, 1000, 1000));
        // Retransmission of the first segment.
        recs.push(data(300_000, 0, 1000));
        recs.push(ack(350_000, 2000));
        let samples = extract(&recs);
        // Segment 1 tainted; segment 2 clean and newest → 1 sample.
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].seq_end, 2000);
        assert_eq!(samples[0].rtt, SimDuration::from_micros(348_000));
    }

    #[test]
    fn duplicate_acks_produce_no_samples() {
        let mut recs = handshake();
        recs.push(data(1_000, 0, 1000));
        recs.push(ack(41_000, 1000));
        recs.push(ack(42_000, 1000));
        recs.push(ack(43_000, 1000));
        let samples = extract(&recs);
        assert_eq!(samples.len(), 1);
    }

    #[test]
    fn ack_accountant_tracks_cumulative_ack() {
        let mut recs = handshake();
        recs.push(data(1_000, 0, 1000));
        recs.push(ack(41_000, 1000));
        recs.push(data(42_000, 1000, 1000));
        recs.push(ack(92_000, 2000));
        let acked_by = |until: u64| {
            let mut acct = AckAccountant::new();
            for r in recs
                .iter()
                .take_while(|r| r.time <= SimTime::from_micros(until))
            {
                acct.push(r);
            }
            acct.bytes_acked()
        };
        assert_eq!(acked_by(41_000), 1000);
        assert_eq!(acked_by(100_000), 2000);
        assert_eq!(acked_by(10), 0);
    }

    /// The extractor before `outstanding` became a sorted deque: every
    /// ACK walks the whole list with `retain`, every retransmission
    /// walks it to taint. Kept as the reference the property test
    /// replays traces against.
    #[derive(Default)]
    struct RetainExtractor {
        out_tracker: Option<OffsetTracker>,
        outstanding: Vec<Outstanding>,
        max_sent_end: u64,
    }

    impl RetainExtractor {
        fn push(&mut self, rec: &PacketRecord) -> Option<RttSample> {
            let h = rec.pkt.tcp()?;
            match rec.dir {
                Direction::Out => {
                    if h.flags.syn() {
                        if self.out_tracker.is_none() {
                            self.out_tracker = Some(OffsetTracker::new(h.seq));
                        }
                        return None;
                    }
                    if h.payload_len == 0 {
                        return None;
                    }
                    let tracker = self
                        .out_tracker
                        .get_or_insert_with(|| OffsetTracker::new(h.seq.wrapping_sub(1)));
                    let start = tracker.offset(h.seq);
                    let end = start + h.payload_len as u64;
                    if start < self.max_sent_end {
                        for o in self.outstanding.iter_mut() {
                            if o.start < end && o.end > start {
                                o.tainted = true;
                            }
                        }
                    } else {
                        self.outstanding.push(Outstanding {
                            start,
                            end,
                            sent_at: rec.time,
                            tainted: false,
                        });
                        self.max_sent_end = end;
                    }
                    None
                }
                Direction::In => {
                    if !h.flags.ack() {
                        return None;
                    }
                    let tr = self.out_tracker.as_ref()?;
                    let ack_off = csig_tcp::seq::offset_of(
                        tr.base().wrapping_add(1),
                        h.ack,
                        self.max_sent_end,
                    );
                    let mut best: Option<Outstanding> = None;
                    self.outstanding.retain(|o| {
                        if o.end <= ack_off {
                            if !o.tainted {
                                match best {
                                    Some(b) if b.end >= o.end => {}
                                    _ => best = Some(*o),
                                }
                            }
                            false
                        } else {
                            true
                        }
                    });
                    best.map(|o| RttSample {
                        at: rec.time,
                        rtt: rec.time.saturating_since(o.sent_at),
                        seq_end: o.end,
                    })
                }
            }
        }
    }

    /// Build a random trace from `(op, a, b)` triples: fresh segments
    /// (sometimes past a gap), retransmissions of any earlier range,
    /// and ACKs that advance, repeat or fall behind the last one.
    fn random_trace(with_syn: bool, ops: &[(u8, u16, u16)]) -> Vec<PacketRecord> {
        let mut recs = if with_syn { handshake() } else { Vec::new() };
        let mut t = 100u64;
        let mut sent_end = 0u32;
        let mut last_ack = 0u32;
        for &(op, a, b) in ops {
            t += 1 + (a % 500) as u64;
            let len = 1 + (b % 1460) as u32;
            match op % 6 {
                0 | 1 => {
                    recs.push(data(t, sent_end, len));
                    sent_end += len;
                }
                2 => {
                    // A gap: bytes the tap never saw leave.
                    let start = sent_end + (a % 3000) as u32;
                    recs.push(data(t, start, len));
                    sent_end = start + len;
                }
                3 if sent_end > 0 => {
                    let start = (a as u32 * 7 + b as u32) % sent_end;
                    recs.push(data(t, start, len.min(sent_end - start)));
                }
                4 if sent_end > 0 => {
                    last_ack = (last_ack + 1 + (b as u32 % 4000)).min(sent_end);
                    recs.push(ack(t, last_ack));
                }
                _ => {
                    // Duplicate or reordered (older) ACK.
                    recs.push(ack(t, last_ack.saturating_sub(a as u32 % 3000)));
                }
            }
        }
        recs
    }

    proptest::proptest! {
        #[test]
        fn prop_deque_extractor_matches_retain_reference(
            with_syn in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..6, proptest::prelude::any::<u16>(), proptest::prelude::any::<u16>()),
                0..300,
            ),
        ) {
            let mut fast = RttExtractor::new();
            let mut reference = RetainExtractor::default();
            for rec in random_trace(with_syn, &ops) {
                proptest::prop_assert_eq!(fast.push(&rec), reference.push(&rec));
                proptest::prop_assert_eq!(fast.outstanding_len(), reference.outstanding.len());
            }
        }
    }

    #[test]
    fn no_syn_trace_anchors_at_first_data_packet() {
        // Without a SYN the extractor anchors offsets at the first data
        // packet, so samples still come out.
        let recs = vec![data(1_000, 0, 1000), ack(41_000, 1000)];
        let samples = extract(&recs);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rtt, SimDuration::from_millis(40));
    }
}
