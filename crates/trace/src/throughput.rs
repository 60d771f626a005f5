//! Throughput computation from server-side traces.
//!
//! Mirrors what NDT reports: downstream goodput measured from the
//! cumulative acknowledgment stream (bytes the client demonstrably
//! received).

use crate::flow::OffsetTracker;
use csig_netsim::{Direction, PacketRecord, SimDuration, SimTime};

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

/// Incremental goodput accountant.
///
/// Holds O(1) state per flow — an offset tracker, the running max
/// cumulative ack, and two timestamps — and can report a
/// [`ThroughputSummary`] at any point of the stream.
#[derive(Debug, Clone, Default)]
pub struct ThroughputTracker {
    tracker: Option<OffsetTracker>,
    first_data: Option<SimTime>,
    last_advance: Option<SimTime>,
    max_ack: u64,
    fin_cap: Option<u64>,
}

impl ThroughputTracker {
    /// A fresh tracker (no records seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one record.
    pub fn push(&mut self, rec: &PacketRecord) {
        let Some(h) = rec.pkt.tcp() else { return };
        match rec.dir {
            // Anchor offsets at the local ISS.
            Direction::Out if h.flags.syn() && self.tracker.is_none() => {
                self.tracker = Some(OffsetTracker::new(h.seq));
            }
            Direction::Out if h.payload_len > 0 || h.flags.fin() => {
                let tr = self
                    .tracker
                    .get_or_insert_with(|| OffsetTracker::new(h.seq.wrapping_sub(1)));
                let start = tr.offset(h.seq);
                if h.payload_len > 0 {
                    self.first_data.get_or_insert(rec.time);
                }
                if h.flags.fin() {
                    // The FIN consumes one sequence number that is not
                    // payload; cap acked-byte accounting below it.
                    self.fin_cap = Some(start + h.payload_len as u64);
                }
            }
            Direction::In if h.flags.ack() => {
                let Some(tr) = self.tracker.as_ref() else {
                    return;
                };
                let mut off =
                    csig_tcp::seq::offset_of(tr.base().wrapping_add(1), h.ack, self.max_ack);
                if let Some(cap) = self.fin_cap {
                    off = off.min(cap);
                }
                if off > self.max_ack {
                    self.max_ack = off;
                    self.last_advance = Some(rec.time);
                }
            }
            _ => {}
        }
    }

    /// The summary implied by the records seen so far.
    pub fn summary(&self) -> ThroughputSummary {
        let active = match (self.first_data, self.last_advance) {
            (Some(a), Some(b)) => b.saturating_since(a),
            _ => SimDuration::ZERO,
        };
        let mean_bps = if active.is_zero() {
            0.0
        } else {
            self.max_ack as f64 * 8.0 / active.as_secs_f64()
        };
        ThroughputSummary {
            bytes_acked: self.max_ack,
            active,
            mean_bps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::{FlowId, NodeId, Packet, PacketId, PacketKind, TcpFlags, TcpHeader, NO_SACK};

    const ISS: u32 = 77;

    fn rec(
        dir: Direction,
        t_ms: u64,
        seq: u32,
        ack: u32,
        len: u32,
        flags: TcpFlags,
    ) -> csig_netsim::PacketRecord {
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

    #[test]
    fn summary_counts_acked_bytes_over_active_window() {
        let mut tracker = ThroughputTracker::new();
        for r in [
            rec(Direction::Out, 0, ISS, 0, 0, TcpFlags::SYN | TcpFlags::ACK),
            rec(Direction::Out, 100, ISS + 1, 0, 50_000, TcpFlags::ACK),
            rec(Direction::In, 300, 1, ISS + 1 + 50_000, 0, TcpFlags::ACK),
            rec(
                Direction::Out,
                350,
                ISS + 1 + 50_000,
                0,
                50_000,
                TcpFlags::ACK,
            ),
            rec(Direction::In, 1100, 1, ISS + 1 + 100_000, 0, TcpFlags::ACK),
        ] {
            tracker.push(&r);
        }
        let s = tracker.summary();
        assert_eq!(s.bytes_acked, 100_000);
        assert_eq!(s.active, SimDuration::from_millis(1000));
        // 100 kB over 1 s = 800 kbps.
        assert!((s.mean_bps - 800_000.0).abs() < 1.0, "{}", s.mean_bps);
    }

    #[test]
    fn empty_trace_is_degenerate() {
        let s = ThroughputTracker::new().summary();
        assert_eq!(s.bytes_acked, 0);
        assert_eq!(s.mean_bps, 0.0);
    }
}
