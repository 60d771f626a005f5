//! Flow demultiplexing and offset bookkeeping for captured packets.
//!
//! A [`Capture`](csig_netsim::Capture) interleaves every flow a node
//! saw; analysis works per flow. [`FlowTrace`] is one flow's records in
//! time order, with helpers to translate wire sequence numbers into
//! 64-bit stream offsets relative to the flow's initial sequence
//! numbers (recovered from the SYN exchange).

use csig_netsim::{Capture, Direction, FlowId, PacketRecord, SimTime};
use csig_tcp::seq::offset_of;
use std::collections::BTreeMap;

/// One flow's captured packets, in capture order.
#[derive(Debug, Clone)]
pub struct FlowTrace {
    /// The flow id.
    pub flow: FlowId,
    /// Records of this flow only.
    pub records: Vec<PacketRecord>,
}

/// Split a capture into per-flow traces (ordered by flow id).
///
/// Thin wrapper over [`FlowDemux`]: replays the buffered records
/// through the streaming demultiplexer.
pub fn split_flows(cap: &Capture) -> BTreeMap<FlowId, FlowTrace> {
    let mut demux = FlowDemux::new();
    for rec in &cap.records {
        demux.push(rec);
    }
    demux.into_flows()
}

/// Incremental flow demultiplexer: consumes records one at a time and
/// accumulates them into per-flow traces.
///
/// This is the record-retaining demux behind [`split_flows`]. The
/// fully streaming pipeline (`csig-core`'s `LiveAnalyzer`) routes each
/// record to per-flow state machines instead and retains nothing.
#[derive(Debug, Clone, Default)]
pub struct FlowDemux {
    flows: BTreeMap<FlowId, FlowTrace>,
}

impl FlowDemux {
    /// An empty demultiplexer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Route one record to its flow's trace.
    pub fn push(&mut self, rec: &PacketRecord) {
        self.flows
            .entry(rec.pkt.flow)
            .or_insert_with(|| FlowTrace {
                flow: rec.pkt.flow,
                records: Vec::new(),
            })
            .records
            .push(rec.clone());
    }

    /// Number of flows seen so far.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` when no records have been pushed.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The accumulated per-flow traces, ordered by flow id.
    pub fn into_flows(self) -> BTreeMap<FlowId, FlowTrace> {
        self.flows
    }
}

/// Initial sequence numbers of a flow as seen from the tap node.
///
/// `local_iss` is the ISS of the tap node's endpoint (`Out` SYN);
/// `remote_iss` is the peer's (`In` SYN). Either may be absent if the
/// capture missed the handshake.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowIsn {
    /// ISS of the tap-side endpoint.
    pub local_iss: Option<u32>,
    /// ISS of the remote endpoint.
    pub remote_iss: Option<u32>,
}

impl FlowTrace {
    /// Recover both initial sequence numbers from the SYN exchange.
    pub fn isn(&self) -> FlowIsn {
        let mut isn = FlowIsn::default();
        for rec in &self.records {
            if let Some(h) = rec.pkt.tcp() {
                if h.flags.syn() {
                    match rec.dir {
                        Direction::Out if isn.local_iss.is_none() => {
                            isn.local_iss = Some(h.seq);
                        }
                        Direction::In if isn.remote_iss.is_none() => {
                            isn.remote_iss = Some(h.seq);
                        }
                        _ => {}
                    }
                }
            }
            if isn.local_iss.is_some() && isn.remote_iss.is_some() {
                break;
            }
        }
        isn
    }

    /// First and last timestamps.
    pub fn time_span(&self) -> Option<(SimTime, SimTime)> {
        let first = self.records.first()?.time;
        let last = self.records.last()?.time;
        Some((first, last))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Incremental wire-seq → stream-offset translator for one direction of
/// one flow. Offsets are relative to `isn + 1` (the first payload byte).
#[derive(Debug, Clone)]
pub struct OffsetTracker {
    base: u32,
    near: u64,
}

impl OffsetTracker {
    /// Tracker for sequence numbers in a space whose ISS is `isn`.
    pub fn new(isn: u32) -> Self {
        OffsetTracker {
            base: isn.wrapping_add(1),
            near: 0,
        }
    }

    /// The wire sequence number of stream offset zero.
    pub fn base(&self) -> u32 {
        self.base.wrapping_sub(1)
    }

    /// Translate a wire sequence number, updating the unwrap reference.
    pub fn offset(&mut self, wire: u32) -> u64 {
        let off = offset_of(self.base, wire, self.near);
        // Keep the reference near the forward edge but never let a
        // stale/old packet drag it backwards.
        if off > self.near {
            self.near = off;
        }
        off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::{NodeId, Packet, PacketId, PacketKind, TcpFlags, TcpHeader, NO_SACK};

    fn rec(flow: u32, dir: Direction, t_ms: u64, flags: TcpFlags, seq: u32) -> PacketRecord {
        PacketRecord {
            time: SimTime::from_millis(t_ms),
            dir,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(flow),
                src: NodeId(0),
                dst: NodeId(1),
                size: 52,
                sent_at: SimTime::from_millis(t_ms),
                kind: PacketKind::Tcp(TcpHeader {
                    seq,
                    ack: 0,
                    flags,
                    payload_len: 0,
                    window: 65535,
                    sack: NO_SACK,
                }),
            },
        }
    }

    #[test]
    fn split_preserves_order_and_flows() {
        let mut cap = Capture::new(NodeId(0));
        cap.records
            .push(rec(1, Direction::Out, 1, TcpFlags::SYN, 100));
        cap.records
            .push(rec(2, Direction::Out, 2, TcpFlags::SYN, 200));
        cap.records
            .push(rec(1, Direction::In, 3, TcpFlags::SYN | TcpFlags::ACK, 300));
        let flows = split_flows(&cap);
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[&FlowId(1)].len(), 2);
        assert_eq!(flows[&FlowId(2)].len(), 1);
        assert!(flows[&FlowId(1)].records[0].time <= flows[&FlowId(1)].records[1].time);
    }

    #[test]
    fn isn_recovered_from_syns() {
        let mut cap = Capture::new(NodeId(0));
        cap.records
            .push(rec(1, Direction::Out, 1, TcpFlags::SYN, 111));
        cap.records
            .push(rec(1, Direction::In, 2, TcpFlags::SYN | TcpFlags::ACK, 222));
        let flows = split_flows(&cap);
        let isn = flows[&FlowId(1)].isn();
        assert_eq!(isn.local_iss, Some(111));
        assert_eq!(isn.remote_iss, Some(222));
    }

    #[test]
    fn missing_handshake_yields_none() {
        let mut cap = Capture::new(NodeId(0));
        cap.records
            .push(rec(1, Direction::Out, 1, TcpFlags::ACK, 500));
        let flows = split_flows(&cap);
        let isn = flows[&FlowId(1)].isn();
        assert_eq!(isn.local_iss, None);
        assert_eq!(isn.remote_iss, None);
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
    }

    #[test]
    fn time_span_and_duration() {
        let mut cap = Capture::new(NodeId(0));
        cap.records
            .push(rec(1, Direction::Out, 10, TcpFlags::SYN, 1));
        cap.records
            .push(rec(1, Direction::Out, 510, TcpFlags::ACK, 2));
        let flows = split_flows(&cap);
        let ft = &flows[&FlowId(1)];
        let (a, b) = ft.time_span().unwrap();
        assert_eq!(
            b.saturating_since(a),
            csig_netsim::SimDuration::from_millis(500)
        );
    }
}
