//! The per-flow sequence reader: everything the paper's `tshark` pass
//! reads off one flow of a server-side capture.
//!
//! [`FlowTracker`] consumes one [`PacketRecord`] of one flow at a time.
//! It reads each record's TCP header once and maps its sequence or
//! acknowledgment number to a 64-bit stream offset through one
//! `OffsetTracker`, anchored at the local SYN's ISS or, when the tap
//! missed the handshake, one before the first outgoing data segment's
//! sequence number. That one offset space feeds every measurement:
//!
//! * **RTT samples** — each outgoing data segment is matched with the
//!   first cumulative ACK that covers it; the time difference is one
//!   flow-RTT sample. Karn's rule applies: once any part of a range is
//!   retransmitted, samples for that range are discarded (the ACK
//!   can't be attributed to a specific transmission).
//! * **Slow start** — the paper ends slow start at the first
//!   retransmission ("We use tshark to obtain the first instance of a
//!   retransmission …, which signals the end of slow start"): an
//!   outgoing data segment whose range starts below the highest offset
//!   already sent. The same sent-high mark decides Karn's rule.
//! * **Goodput** — what NDT reports: payload bytes the cumulative-ACK
//!   stream shows the client received, capped below the FIN's sequence
//!   slot. The slow-start window counts the same cumulative ACK up to
//!   the boundary instant.
//! * **The FIN exchange** — whether the local FIN has been acknowledged
//!   and the remote FIN seen, after which no record can change the
//!   flow's measurements.

use csig_netsim::{Direction, PacketRecord, SimDuration, SimTime};
use csig_tcp::seq::offset_of;
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

/// The slow-start window of a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowStart {
    /// When the first downstream data segment left the server.
    pub first_data_at: Option<SimTime>,
    /// Time of the first retransmission (`None` if the flow never
    /// retransmitted, in which case the whole flow is "slow start" for
    /// the paper's purposes).
    pub end: Option<SimTime>,
    /// Payload bytes cumulatively acknowledged by `end` (or by the end
    /// of the trace when `end` is `None`).
    pub bytes_acked: u64,
}

impl SlowStart {
    /// The boundary to use when windowing samples: the first
    /// retransmission, or "forever" if none happened.
    pub fn boundary(&self) -> SimTime {
        self.end.unwrap_or(SimTime::MAX)
    }
}

/// Goodput summary for one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputSummary {
    /// Payload bytes cumulatively acknowledged over the whole trace.
    pub bytes_acked: u64,
    /// Time from the first outgoing data segment to the last
    /// ack-number advance.
    pub active: SimDuration,
    /// Mean goodput in bits/s over `active` (0 if degenerate).
    pub mean_bps: f64,
}

/// Incremental wire-seq → stream-offset translator for the tap node's
/// direction of one flow. Offsets are relative to `isn + 1` (the first
/// payload byte).
#[derive(Debug, Clone)]
struct OffsetTracker {
    base: u32,
    near: u64,
}

impl OffsetTracker {
    fn new(isn: u32) -> Self {
        OffsetTracker {
            base: isn.wrapping_add(1),
            near: 0,
        }
    }

    /// Translate an outgoing sequence number, updating the unwrap
    /// reference.
    fn offset(&mut self, wire: u32) -> u64 {
        let off = offset_of(self.base, wire, self.near);
        // Keep the reference near the forward edge but never let a
        // stale/old packet drag it backwards.
        if off > self.near {
            self.near = off;
        }
        off
    }

    /// Translate an incoming acknowledgment number. An ACK never moves
    /// the reference, so a stray one cannot skew later data offsets.
    fn ack_offset(&self, wire: u32) -> u64 {
        offset_of(self.base, wire, self.near)
    }
}

/// A data segment sent but not yet cumulatively acknowledged.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    start: u64,
    end: u64,
    sent_at: SimTime,
    tainted: bool,
}

/// Incremental per-flow sequence reader (see the [module docs](self)).
///
/// Feed it the (server-side) records of a single flow in time order;
/// each `In` cumulative ACK that cleanly retires outstanding data
/// yields at most one [`RttSample`], and the slow-start window,
/// capacity estimate, goodput and FIN state can be read at any point
/// of the stream. State is bounded by the flow's in-flight window, not
/// by trace length.
///
/// Outstanding segments are appended only past the sent-high mark, so
/// they are sorted by offset and their ranges are disjoint. An ACK
/// retires a prefix, found by scanning from the front; the scan stops
/// at the first entry it keeps, so an ACK costs O(1) plus the entries
/// it retires. A retransmission overlaps one contiguous run, found by
/// binary search.
#[derive(Debug, Clone, Default)]
pub struct FlowTracker {
    offsets: Option<OffsetTracker>,
    outstanding: VecDeque<Outstanding>,
    /// End offset of the highest data sent so far.
    sent_high: u64,
    first_data_at: Option<SimTime>,
    /// The first retransmission: the end of slow start.
    ss_end: Option<SimTime>,
    /// `acked` as of the last ACK at or before `ss_end`.
    ss_acked: u64,
    /// `(time, acked)` at each advance of `acked` before `ss_end`,
    /// pruned to the trailing half-window (see `prune_advances`).
    advances: VecDeque<(SimTime, u64)>,
    /// Highest cumulative-ACK offset, capped at the FIN's slot.
    acked: u64,
    last_advance: Option<SimTime>,
    /// Offset of the local FIN's sequence slot.
    fin: Option<u64>,
    fin_acked: bool,
    remote_fin: bool,
}

impl FlowTracker {
    /// A fresh tracker (no records seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one record; an `In` ACK may yield a sample.
    pub fn push(&mut self, rec: &PacketRecord) -> Option<RttSample> {
        let h = rec.pkt.tcp()?;
        match rec.dir {
            Direction::Out => {
                let syn = h.flags.syn();
                if !syn && h.payload_len == 0 && !h.flags.fin() {
                    return None;
                }
                let offsets = self.offsets.get_or_insert_with(|| {
                    OffsetTracker::new(if syn { h.seq } else { h.seq.wrapping_sub(1) })
                });
                if syn {
                    return None;
                }
                let start = offsets.offset(h.seq);
                let end = start + u64::from(h.payload_len);
                if h.flags.fin() {
                    // The FIN takes the one sequence slot after its
                    // payload.
                    self.fin = Some(end);
                }
                if h.payload_len > 0 {
                    self.on_data(rec.time, start, end);
                }
                None
            }
            Direction::In => {
                self.remote_fin |= h.flags.fin();
                if !h.flags.ack() {
                    return None;
                }
                let ack = self.offsets.as_ref()?.ack_offset(h.ack);
                self.on_ack(rec.time, ack)
            }
        }
    }

    fn on_data(&mut self, at: SimTime, start: u64, end: u64) {
        self.first_data_at.get_or_insert(at);
        if start >= self.sent_high {
            self.outstanding.push_back(Outstanding {
                start,
                end,
                sent_at: at,
                tainted: false,
            });
            self.sent_high = end;
            return;
        }
        // A retransmission: the first one ends slow start. Every
        // outstanding range it overlaps is tainted (Karn), and it adds
        // no entry of its own — the eventual ACK cannot be attributed.
        self.ss_end.get_or_insert(at);
        let first = self.outstanding.partition_point(|o| o.end <= start);
        let last = self.outstanding.partition_point(|o| o.start < end);
        for o in self.outstanding.range_mut(first..last) {
            o.tainted = true;
        }
    }

    fn on_ack(&mut self, at: SimTime, ack: u64) -> Option<RttSample> {
        if let Some(fin) = self.fin {
            // Only the uncapped ACK can cover the FIN's own slot.
            self.fin_acked |= ack > fin;
        }
        let delivered = self.fin.map_or(ack, |fin| ack.min(fin));
        if delivered > self.acked {
            self.acked = delivered;
            self.last_advance = Some(at);
            if self.ss_end.is_none() {
                self.advances.push_back((at, delivered));
                self.prune_advances(at);
            }
        }
        // Slow start counts ACKs up to and including the boundary
        // instant.
        if self.ss_end.is_none_or(|end| at <= end) {
            self.ss_acked = self.acked;
        }
        // Retire all fully covered segments; the newest clean one
        // yields the sample for this ACK.
        let covered = self.outstanding.iter().take_while(|o| o.end <= ack).count();
        let best = self
            .outstanding
            .range(..covered)
            .rev()
            .find(|o| !o.tainted)
            .copied();
        self.outstanding.drain(..covered);
        best.map(|o| RttSample {
            at,
            rtt: at.saturating_since(o.sent_at),
            seq_end: o.end,
        })
    }

    /// Drop advance-log entries that can never be the "last advance at
    /// or before the midpoint" [`capacity_estimate_bps`] asks for: the
    /// eventual midpoint lies at or beyond
    /// `first_data + (now - first_data) / 2`, so any entry dominated by
    /// a successor at or before that point is dead. This keeps the log
    /// proportional to the ack-advance rate over half an RTT ramp, not
    /// to trace length.
    ///
    /// [`capacity_estimate_bps`]: FlowTracker::capacity_estimate_bps
    fn prune_advances(&mut self, now: SimTime) {
        let Some(first) = self.first_data_at else {
            return;
        };
        let mid_now = first + now.saturating_since(first) / 2;
        while self.advances.len() >= 2 && self.advances[1].0 <= mid_now {
            self.advances.pop_front();
        }
    }

    /// The [`SlowStart`] window implied by the records seen so far.
    pub fn slow_start(&self) -> SlowStart {
        SlowStart {
            first_data_at: self.first_data_at,
            end: self.ss_end,
            bytes_acked: self.ss_acked,
        }
    }

    /// Capacity-style slow-start throughput estimate: goodput over the
    /// *second half* of the slow-start window, in bits/s. A plain window
    /// average systematically underestimates capacity (most of an
    /// exponential ramp's bytes arrive at its end); the late-window rate
    /// is the quantity the paper calls "indicative of the capacity of
    /// the bottleneck link". `None` while the window is still open (the
    /// flow has not retransmitted) or when it is degenerate.
    pub fn capacity_estimate_bps(&self) -> Option<f64> {
        let (start, end) = (self.first_data_at?, self.ss_end?);
        let span = end.saturating_since(start);
        if span.is_zero() {
            return None;
        }
        let mid = start + span / 2;
        let bytes_mid = self
            .advances
            .iter()
            .rev()
            .find(|(t, _)| *t <= mid)
            .map_or(0, |(_, b)| *b);
        let late_bytes = self.ss_acked.saturating_sub(bytes_mid);
        let secs = (span / 2).as_secs_f64();
        if secs <= 0.0 || late_bytes == 0 {
            return None;
        }
        Some(late_bytes as f64 * 8.0 / secs)
    }

    /// The whole-flow goodput implied by the records seen so far.
    pub fn throughput(&self) -> ThroughputSummary {
        let active = match (self.first_data_at, self.last_advance) {
            (Some(a), Some(b)) => b.saturating_since(a),
            _ => SimDuration::ZERO,
        };
        let mean_bps = if active.is_zero() {
            0.0
        } else {
            self.acked as f64 * 8.0 / active.as_secs_f64()
        };
        ThroughputSummary {
            bytes_acked: self.acked,
            active,
            mean_bps,
        }
    }

    /// Whether the flow's FIN exchange has completed: the tap node's
    /// FIN cumulatively acknowledged *and* the remote side's FIN seen.
    /// Records after that point cannot change any measurement (all data
    /// is acked, goodput is capped at the FIN, and pure ACKs/RSTs carry
    /// no payload).
    pub fn closed(&self) -> bool {
        self.fin_acked && self.remote_fin
    }

    /// Number of unacknowledged segments currently tracked (the only
    /// unbounded-looking state; in practice bounded by the in-flight
    /// window).
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::{FlowId, NodeId, Packet, PacketId, PacketKind, TcpFlags, TcpHeader, NO_SACK};
    use csig_rng::{cases, StdRng};

    const ISS: u32 = 5000;
    const RISS: u32 = 9000;

    fn tcp_rec(
        dir: Direction,
        t_us: u64,
        seq: u32,
        ack: u32,
        len: u32,
        flags: TcpFlags,
    ) -> PacketRecord {
        PacketRecord {
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

    fn syn_ack(t_us: u64) -> PacketRecord {
        tcp_rec(
            Direction::Out,
            t_us,
            ISS,
            RISS.wrapping_add(1),
            0,
            TcpFlags::SYN | TcpFlags::ACK,
        )
    }

    fn handshake() -> Vec<PacketRecord> {
        vec![
            tcp_rec(Direction::In, 0, RISS, 0, 0, TcpFlags::SYN),
            syn_ack(10),
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

    fn data(t_us: u64, off: u32, len: u32) -> PacketRecord {
        tcp_rec(
            Direction::Out,
            t_us,
            ISS.wrapping_add(1).wrapping_add(off),
            RISS.wrapping_add(1),
            len,
            TcpFlags::ACK,
        )
    }

    fn ack(t_us: u64, ack_off: u32) -> PacketRecord {
        tcp_rec(
            Direction::In,
            t_us,
            RISS.wrapping_add(1),
            ISS.wrapping_add(1).wrapping_add(ack_off),
            0,
            TcpFlags::ACK,
        )
    }

    /// The local FIN at offset `off`, after `len` payload bytes.
    fn fin(t_us: u64, off: u32, len: u32) -> PacketRecord {
        let mut r = data(t_us, off, len);
        if let PacketKind::Tcp(h) = &mut r.pkt.kind {
            h.flags = TcpFlags::FIN | TcpFlags::ACK;
        }
        r
    }

    /// The remote FIN, acknowledging offset `ack_off`.
    fn remote_fin(t_us: u64, ack_off: u32) -> PacketRecord {
        let mut r = ack(t_us, ack_off);
        if let PacketKind::Tcp(h) = &mut r.pkt.kind {
            h.flags = TcpFlags::FIN | TcpFlags::ACK;
        }
        r
    }

    fn track(records: &[PacketRecord]) -> FlowTracker {
        let mut tracker = FlowTracker::new();
        for r in records {
            tracker.push(r);
        }
        tracker
    }

    fn extract(records: &[PacketRecord]) -> Vec<RttSample> {
        let mut tracker = FlowTracker::new();
        records.iter().filter_map(|r| tracker.push(r)).collect()
    }

    #[test]
    fn offset_tracker_unwraps_forward() {
        let mut t = OffsetTracker::new(u32::MAX - 10);
        // First payload byte has wire seq ISS+1 = u32::MAX - 9.
        assert_eq!(t.offset(u32::MAX - 9), 0);
        assert_eq!(t.offset((u32::MAX - 9).wrapping_add(100)), 100);
        // Crossing the 32-bit wrap.
        let wrapped = (u32::MAX - 9).wrapping_add(20_000);
        assert_eq!(t.offset(wrapped), 20_000);
        // An old (retransmitted) packet does not drag the reference back.
        assert_eq!(t.offset(u32::MAX - 9), 0);
        assert_eq!(t.offset(wrapped), 20_000);
        assert_eq!(t.ack_offset(wrapped.wrapping_add(1)), 20_001);
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
        // Covers only the tainted segment 1: no sample.
        recs.push(ack(340_000, 1000));
        recs.push(ack(350_000, 2000));
        let samples = extract(&recs);
        // Segment 2 is clean → 1 sample.
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
    fn no_syn_trace_anchors_at_first_data_packet() {
        // Without a SYN the tracker anchors offsets at the first data
        // packet, so samples still come out.
        let recs = vec![data(1_000, 0, 1000), ack(41_000, 1000)];
        let samples = extract(&recs);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rtt, SimDuration::from_millis(40));
    }

    #[test]
    fn cumulative_ack_counts_delivered_bytes() {
        let mut recs = handshake();
        recs.push(data(1_000, 0, 1000));
        recs.push(ack(41_000, 1000));
        recs.push(data(42_000, 1000, 1000));
        recs.push(ack(92_000, 2000));
        let acked_by = |until: u64| {
            let prefix: Vec<_> = recs
                .iter()
                .take_while(|r| r.time <= SimTime::from_micros(until))
                .cloned()
                .collect();
            track(&prefix).throughput().bytes_acked
        };
        assert_eq!(acked_by(41_000), 1000);
        assert_eq!(acked_by(100_000), 2000);
        assert_eq!(acked_by(10), 0);
    }

    #[test]
    fn summary_counts_acked_bytes_over_active_window() {
        let mut recs = handshake();
        recs.push(data(100_000, 0, 50_000));
        recs.push(ack(300_000, 50_000));
        recs.push(data(350_000, 50_000, 50_000));
        recs.push(ack(1_100_000, 100_000));
        let s = track(&recs).throughput();
        assert_eq!(s.bytes_acked, 100_000);
        assert_eq!(s.active, SimDuration::from_millis(1000));
        // 100 kB over 1 s = 800 kbps.
        assert!((s.mean_bps - 800_000.0).abs() < 1.0, "{}", s.mean_bps);
    }

    #[test]
    fn empty_trace_is_degenerate() {
        let t = FlowTracker::new();
        let s = t.throughput();
        assert_eq!(s.bytes_acked, 0);
        assert_eq!(s.mean_bps, 0.0);
        assert_eq!(
            t.slow_start(),
            SlowStart {
                first_data_at: None,
                end: None,
                bytes_acked: 0,
            }
        );
        assert!(!t.closed());
    }

    /// Goodput stops below the FIN's sequence slot, while only an ACK
    /// covering that slot (plus the remote FIN) closes the flow.
    #[test]
    fn fin_caps_goodput_and_closes_the_flow() {
        let mut recs = handshake();
        recs.push(data(1_000, 0, 1000));
        recs.push(fin(2_000, 1000, 500));
        // The remote FIN arrives before the local FIN is acknowledged.
        recs.push(remote_fin(40_000, 1000));
        let mut t = track(&recs);
        assert_eq!(t.throughput().bytes_acked, 1000);
        assert!(!t.closed(), "the local FIN is not acknowledged yet");
        // Acknowledges the payload but not the FIN's slot.
        t.push(&ack(41_000, 1500));
        assert_eq!(t.throughput().bytes_acked, 1500);
        assert!(!t.closed());
        t.push(&ack(42_000, 1501));
        assert_eq!(t.throughput().bytes_acked, 1500, "capped below the FIN");
        assert!(t.closed());
    }

    #[test]
    fn fin_ack_without_the_remote_fin_leaves_the_flow_open() {
        let mut recs = handshake();
        recs.push(fin(1_000, 0, 1000));
        recs.push(ack(41_000, 1001));
        let t = track(&recs);
        assert_eq!(t.throughput().bytes_acked, 1000);
        assert!(!t.closed());
    }

    /// The capacity estimate computed from scratch: two fresh replays
    /// of the records, one up to the window's midpoint and one up to
    /// its boundary, reading goodput. The tracker answers the midpoint
    /// query from its pruned advance log instead.
    fn reference_capacity_bps(records: &[PacketRecord], ss: &SlowStart) -> Option<f64> {
        let acked_by = |until: SimTime| {
            let mut t = FlowTracker::new();
            for r in records.iter().take_while(|r| r.time <= until) {
                t.push(r);
            }
            t.throughput().bytes_acked
        };
        let (start, end) = (ss.first_data_at?, ss.end?);
        let span = end.saturating_since(start);
        let mid = start + span / 2;
        let late_bytes = acked_by(end).saturating_sub(acked_by(mid));
        let secs = (span / 2).as_secs_f64();
        if secs <= 0.0 || late_bytes == 0 {
            return None;
        }
        Some(late_bytes as f64 * 8.0 / secs)
    }

    const MS: u64 = 1000;

    #[test]
    fn detects_first_retransmission() {
        let ss = track(&[
            syn_ack(0),
            data(10 * MS, 0, 1000),
            data(11 * MS, 1000, 1000),
            ack(50 * MS, 1000),
            // Retransmission of offset 0 at t=300.
            data(300 * MS, 0, 1000),
            data(400 * MS, 2000, 1000),
        ])
        .slow_start();
        assert_eq!(ss.first_data_at, Some(SimTime::from_millis(10)));
        assert_eq!(ss.end, Some(SimTime::from_millis(300)));
        // Only 1000 bytes were cumulatively acked before the boundary.
        assert_eq!(ss.bytes_acked, 1000);
    }

    #[test]
    fn clean_flow_has_no_boundary() {
        let ss = track(&[syn_ack(0), data(10 * MS, 0, 1000), ack(50 * MS, 1000)]).slow_start();
        assert_eq!(ss.end, None);
        assert_eq!(ss.boundary(), SimTime::MAX);
        assert_eq!(ss.bytes_acked, 1000);
    }

    #[test]
    fn capacity_estimate_uses_late_window() {
        // 100 kB acked in the first half, 400 kB in the second half of
        // a 1 s slow-start window: the estimate must reflect the late
        // rate (400 kB / 0.5 s = 6.4 Mbps), not the 4 Mbps average.
        let records = [
            syn_ack(0),
            data(0, 0, 1000),
            ack(400 * MS, 100_000),
            ack(900 * MS, 500_000),
            data(1000 * MS, 0, 1000), // retx
        ];
        let tracker = track(&records);
        let est = tracker.capacity_estimate_bps().unwrap();
        assert!((est - 6.4e6).abs() < 1e5, "{est}");
        assert_eq!(
            Some(est),
            reference_capacity_bps(&records, &tracker.slow_start())
        );
        // Before the retransmission the window is still open.
        assert_eq!(track(&records[..4]).capacity_estimate_bps(), None);
    }

    /// With or without the handshake (a tap that missed it anchors at
    /// the first data segment), the window is counted the same way.
    #[test]
    fn pruned_advance_log_matches_two_replay_capacity() {
        let records = [
            syn_ack(0),
            data(0, 0, 1000),
            ack(100 * MS, 50_000),
            ack(400 * MS, 100_000),
            ack(700 * MS, 300_000),
            ack(900 * MS, 500_000),
            data(1000 * MS, 0, 1000), // retx
            // Post-boundary traffic must not perturb the window.
            ack(1100 * MS, 600_000),
        ];
        for records in [&records[..], &records[1..]] {
            let tracker = track(records);
            let ss = tracker.slow_start();
            assert_eq!(ss.end, Some(SimTime::from_millis(1000)));
            assert_eq!(ss.bytes_acked, 500_000);
            assert_eq!(
                tracker.capacity_estimate_bps(),
                reference_capacity_bps(records, &ss)
            );
            // The advance log was pruned but still answers the midpoint
            // query: 400 kB over the late half second.
            let est = tracker.capacity_estimate_bps().unwrap();
            assert!((est - 6.4e6).abs() < 1e5, "{est}");
        }
    }

    #[test]
    fn open_window_tracker_reports_running_state() {
        let tracker = track(&[syn_ack(0), data(10 * MS, 0, 1000), ack(50 * MS, 1000)]);
        assert_eq!(
            tracker.slow_start(),
            SlowStart {
                first_data_at: Some(SimTime::from_millis(10)),
                end: None,
                bytes_acked: 1000,
            }
        );
        assert_eq!(tracker.capacity_estimate_bps(), None);
    }

    /// The RTT extractor before `outstanding` became a sorted deque:
    /// every ACK walks the whole list with `retain`, every
    /// retransmission walks it to taint. Kept as the reference the
    /// property test replays traces against.
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
                    let ack_off = offset_of(tr.base, h.ack, self.max_sent_end);
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

    /// Build a random trace, with or without a handshake, of up to 299
    /// `(op, a, b)` steps: fresh segments (sometimes past a gap),
    /// retransmissions of any earlier range, and ACKs that advance,
    /// repeat or fall behind the last one.
    fn random_trace(rng: &mut StdRng) -> Vec<PacketRecord> {
        // A fair coin from the word's top bit.
        let with_syn = rng.gen::<u32>() >> 31 == 1;
        let mut recs = if with_syn { handshake() } else { Vec::new() };
        let mut t = 100u64;
        let mut sent_end = 0u32;
        let mut last_ack = 0u32;
        for _ in 0..rng.gen_range(0..300usize) {
            let (op, a, b) = (rng.gen_range(0u8..6), rng.gen::<u16>(), rng.gen::<u16>());
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

    #[test]
    fn prop_deque_extractor_matches_retain_reference() {
        cases(
            256,
            "prop_deque_extractor_matches_retain_reference",
            |rng| {
                let mut fast = FlowTracker::new();
                let mut reference = RetainExtractor::default();
                for rec in random_trace(rng) {
                    assert_eq!(fast.push(&rec), reference.push(&rec));
                    assert_eq!(fast.outstanding_len(), reference.outstanding.len());
                }
            },
        );
    }
}
