//! Slow-start boundary detection.
//!
//! The paper defines the slow-start period as everything up to the
//! first retransmission or fast retransmission ("We use tshark to
//! obtain the first instance of a retransmission …, which signals the
//! end of slow start"). In a trace, a retransmission is an outgoing
//! data segment whose sequence range regresses below the highest
//! sequence already sent.

use crate::flow::OffsetTracker;
use crate::rtt::AckAccountant;
use csig_netsim::{Direction, PacketRecord, SimTime};
use std::collections::VecDeque;

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

    /// Downstream throughput achieved during slow start, in bits/s.
    /// `None` if the flow carried no data or the window is degenerate.
    pub fn throughput_bps(&self) -> Option<f64> {
        let start = self.first_data_at?;
        let end = self.end?;
        let secs = end.saturating_since(start).as_secs_f64();
        if secs <= 0.0 || self.bytes_acked == 0 {
            return None;
        }
        Some(self.bytes_acked as f64 * 8.0 / secs)
    }
}

/// Incremental slow-start detector.
///
/// Combines three bounded sub-machines fed record by record:
///
/// * a *boundary machine* that watches outgoing data for the first
///   sequence regression (the paper's end-of-slow-start signal) and
///   freezes once it fires;
/// * an [`AckAccountant`] that stops at the boundary, so
///   [`SlowStartTracker::snapshot`] reports the bytes acknowledged
///   within the window;
/// * an *advance log* of `(time, bytes_acked)` points used by
///   [`SlowStartTracker::capacity_estimate_bps`] to recover "bytes
///   acked by the window midpoint" even though the midpoint is only
///   known once the boundary fires. The log is pruned to the trailing
///   half-window (any candidate midpoint lies at or beyond half the
///   elapsed window, so older entries can never be the answer), which
///   keeps its size proportional to the ack-advance rate over half an
///   RTT ramp, not to trace length.
#[derive(Debug, Clone, Default)]
pub struct SlowStartTracker {
    tracker: Option<OffsetTracker>,
    max_sent_end: u64,
    first_data_at: Option<SimTime>,
    end: Option<SimTime>,
    acct: AckAccountant,
    advances: VecDeque<(SimTime, u64)>,
}

impl SlowStartTracker {
    /// A fresh tracker (no records seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one record.
    pub fn push(&mut self, rec: &PacketRecord) {
        // Ack accounting runs up to (and including) the boundary
        // instant.
        if self.end.is_none_or(|end| rec.time <= end) {
            let before = self.acct.bytes_acked();
            self.acct.push(rec);
            let after = self.acct.bytes_acked();
            if after > before && self.end.is_none() {
                self.advances.push_back((rec.time, after));
                self.prune_advances(rec.time);
            }
        }

        // Boundary machine: frozen once the first retransmission fires.
        if self.end.is_some() || rec.dir != Direction::Out {
            return;
        }
        let Some(h) = rec.pkt.tcp() else { return };
        if h.flags.syn() {
            // Anchor offsets at the local ISS.
            if self.tracker.is_none() {
                self.tracker = Some(OffsetTracker::new(h.seq));
            }
            return;
        }
        if h.payload_len == 0 {
            return;
        }
        let tr = self
            .tracker
            .get_or_insert_with(|| OffsetTracker::new(h.seq.wrapping_sub(1)));
        let start = tr.offset(h.seq);
        let seg_end = start + h.payload_len as u64;
        if self.first_data_at.is_none() {
            self.first_data_at = Some(rec.time);
        }
        if start < self.max_sent_end {
            self.end = Some(rec.time);
        } else {
            self.max_sent_end = seg_end;
        }
    }

    /// Drop advance-log entries that can never be the "last advance at
    /// or before the midpoint": the eventual midpoint lies at or beyond
    /// `first_data + (now - first_data) / 2`, so any entry dominated by
    /// a successor at or before that point is dead.
    fn prune_advances(&mut self, now: SimTime) {
        let Some(first) = self.first_data_at else {
            return;
        };
        let mid_now = first + now.saturating_since(first) / 2;
        while self.advances.len() >= 2 && self.advances[1].0 <= mid_now {
            self.advances.pop_front();
        }
    }

    /// The boundary to use when windowing samples: the first
    /// retransmission seen so far, or "forever" if none yet.
    pub fn boundary(&self) -> SimTime {
        self.end.unwrap_or(SimTime::MAX)
    }

    /// `true` once the first retransmission has been observed.
    pub fn ended(&self) -> bool {
        self.end.is_some()
    }

    /// The [`SlowStart`] implied by the records seen so far.
    pub fn snapshot(&self) -> SlowStart {
        SlowStart {
            first_data_at: self.first_data_at,
            end: self.end,
            bytes_acked: self.acct.bytes_acked(),
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
        let (start, end) = (self.first_data_at?, self.end?);
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
        let late_bytes = self.acct.bytes_acked().saturating_sub(bytes_mid);
        let secs = (span / 2).as_secs_f64();
        if secs <= 0.0 || late_bytes == 0 {
            return None;
        }
        Some(late_bytes as f64 * 8.0 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::{FlowId, NodeId, Packet, PacketId, PacketKind, TcpFlags, TcpHeader, NO_SACK};

    const ISS: u32 = 1000;

    fn rec(
        dir: Direction,
        t_ms: u64,
        seq_off: u32,
        len: u32,
        ack_off: u32,
        flags: TcpFlags,
    ) -> csig_netsim::PacketRecord {
        let (seq, ack) = match dir {
            Direction::Out => (ISS.wrapping_add(1).wrapping_add(seq_off), 1),
            Direction::In => (900, ISS.wrapping_add(1).wrapping_add(ack_off)),
        };
        csig_netsim::PacketRecord {
            time: SimTime::from_millis(t_ms),
            dir,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(1),
                src: NodeId(0),
                dst: NodeId(1),
                size: 52 + len,
                sent_at: SimTime::from_millis(t_ms),
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

    fn syn_out() -> csig_netsim::PacketRecord {
        csig_netsim::PacketRecord {
            time: SimTime::ZERO,
            dir: Direction::Out,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(1),
                src: NodeId(0),
                dst: NodeId(1),
                size: 52,
                sent_at: SimTime::ZERO,
                kind: PacketKind::Tcp(TcpHeader {
                    seq: ISS,
                    ack: 0,
                    flags: TcpFlags::SYN | TcpFlags::ACK,
                    payload_len: 0,
                    window: 65535,
                    sack: NO_SACK,
                }),
            },
        }
    }

    fn track(records: &[PacketRecord]) -> SlowStartTracker {
        let mut tracker = SlowStartTracker::new();
        for r in records {
            tracker.push(r);
        }
        tracker
    }

    /// The capacity estimate computed from scratch: two replays of the
    /// records through an [`AckAccountant`], one up to the window's
    /// midpoint and one up to its boundary. The tracker answers the
    /// midpoint query from its pruned advance log instead.
    fn reference_capacity_bps(records: &[PacketRecord], ss: &SlowStart) -> Option<f64> {
        let acked_by = |until: SimTime| {
            let mut acct = AckAccountant::new();
            for r in records.iter().take_while(|r| r.time <= until) {
                acct.push(r);
            }
            acct.bytes_acked()
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

    #[test]
    fn detects_first_retransmission() {
        let ss = track(&[
            syn_out(),
            rec(Direction::Out, 10, 0, 1000, 0, TcpFlags::ACK),
            rec(Direction::Out, 11, 1000, 1000, 0, TcpFlags::ACK),
            rec(Direction::In, 50, 0, 0, 1000, TcpFlags::ACK),
            // Retransmission of offset 0 at t=300.
            rec(Direction::Out, 300, 0, 1000, 0, TcpFlags::ACK),
            rec(Direction::Out, 400, 2000, 1000, 0, TcpFlags::ACK),
        ])
        .snapshot();
        assert_eq!(ss.first_data_at, Some(SimTime::from_millis(10)));
        assert_eq!(ss.end, Some(SimTime::from_millis(300)));
        // Only 1000 bytes were cumulatively acked before the boundary.
        assert_eq!(ss.bytes_acked, 1000);
    }

    #[test]
    fn clean_flow_has_no_boundary() {
        let ss = track(&[
            syn_out(),
            rec(Direction::Out, 10, 0, 1000, 0, TcpFlags::ACK),
            rec(Direction::In, 50, 0, 0, 1000, TcpFlags::ACK),
        ])
        .snapshot();
        assert_eq!(ss.end, None);
        assert_eq!(ss.boundary(), SimTime::MAX);
        assert_eq!(ss.bytes_acked, 1000);
        assert_eq!(ss.throughput_bps(), None);
    }

    #[test]
    fn slow_start_throughput_is_bytes_over_window() {
        let ss = track(&[
            syn_out(),
            rec(Direction::Out, 100, 0, 100_000, 0, TcpFlags::ACK),
            rec(Direction::In, 500, 0, 0, 100_000, TcpFlags::ACK),
            rec(Direction::Out, 600, 0, 1000, 0, TcpFlags::ACK), // retx
        ])
        .snapshot();
        // 100 kB acked over (600-100) ms → 1.6 Mbps.
        let bps = ss.throughput_bps().unwrap();
        assert!((bps - 1.6e6).abs() < 1e3, "{bps}");
    }

    #[test]
    fn capacity_estimate_uses_late_window() {
        // 100 kB acked in the first half, 400 kB in the second half of
        // a 1 s slow-start window: the estimate must reflect the late
        // rate (400 kB / 0.5 s = 6.4 Mbps), not the 4 Mbps average.
        let records = [
            syn_out(),
            rec(Direction::Out, 0, 0, 1000, 0, TcpFlags::ACK),
            rec(Direction::In, 400, 0, 0, 100_000, TcpFlags::ACK),
            rec(Direction::In, 900, 0, 0, 500_000, TcpFlags::ACK),
            rec(Direction::Out, 1000, 0, 1000, 0, TcpFlags::ACK), // retx
        ];
        let tracker = track(&records);
        let est = tracker.capacity_estimate_bps().unwrap();
        assert!((est - 6.4e6).abs() < 1e5, "{est}");
        assert_eq!(
            Some(est),
            reference_capacity_bps(&records, &tracker.snapshot())
        );
        // Before the retransmission the window is still open.
        assert_eq!(track(&records[..4]).capacity_estimate_bps(), None);
    }

    #[test]
    fn pruned_advance_log_matches_two_replay_capacity() {
        let records = [
            syn_out(),
            rec(Direction::Out, 0, 0, 1000, 0, TcpFlags::ACK),
            rec(Direction::In, 100, 0, 0, 50_000, TcpFlags::ACK),
            rec(Direction::In, 400, 0, 0, 100_000, TcpFlags::ACK),
            rec(Direction::In, 700, 0, 0, 300_000, TcpFlags::ACK),
            rec(Direction::In, 900, 0, 0, 500_000, TcpFlags::ACK),
            rec(Direction::Out, 1000, 0, 1000, 0, TcpFlags::ACK), // retx
            // Post-boundary traffic must not perturb the window.
            rec(Direction::In, 1100, 0, 0, 600_000, TcpFlags::ACK),
        ];
        let tracker = track(&records);
        let ss = tracker.snapshot();
        assert_eq!(ss.end, Some(SimTime::from_millis(1000)));
        assert_eq!(ss.bytes_acked, 500_000);
        assert_eq!(
            tracker.capacity_estimate_bps(),
            reference_capacity_bps(&records, &ss)
        );
        // The advance log was pruned but still answers the midpoint
        // query: 400 kB over the late half second.
        let est = tracker.capacity_estimate_bps().unwrap();
        assert!((est - 6.4e6).abs() < 1e5, "{est}");
    }

    #[test]
    fn open_window_tracker_reports_running_state() {
        let tracker = track(&[
            syn_out(),
            rec(Direction::Out, 10, 0, 1000, 0, TcpFlags::ACK),
            rec(Direction::In, 50, 0, 0, 1000, TcpFlags::ACK),
        ]);
        assert!(!tracker.ended());
        assert_eq!(tracker.boundary(), SimTime::MAX);
        assert_eq!(
            tracker.snapshot(),
            SlowStart {
                first_data_at: Some(SimTime::from_millis(10)),
                end: None,
                bytes_acked: 1000,
            }
        );
        assert_eq!(tracker.capacity_estimate_bps(), None);
    }
}
