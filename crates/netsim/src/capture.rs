//! Packet taps — the simulator's `tcpdump`, generalized to streaming
//! observers.
//!
//! The paper's methodology captures packets at the throughput server
//! with `tcpdump` and post-processes them with `tshark`. A tap is any
//! [`PacketSink`] attached to a node: the simulator feeds it one
//! [`PacketRecord`] at a time, as the node sends (`Out`) or receives
//! (`In`) each packet. [`Capture`] is the buffering sink (record
//! everything, analyze later); streaming sinks in `csig-trace`,
//! `csig-features` and `csig-core` analyze records as they arrive and
//! retain only per-flow state.

use crate::ids::NodeId;
use crate::packet::Packet;
use crate::time::SimTime;
use std::any::Any;

/// Which way a captured packet was travelling relative to the tap node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The tap node transmitted the packet.
    Out,
    /// The packet was delivered to the tap node.
    In,
}

/// One captured packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketRecord {
    /// Capture timestamp.
    pub time: SimTime,
    /// Direction relative to the tap node.
    pub dir: Direction,
    /// The packet (headers + sizes; no payload bytes exist in the model).
    pub pkt: Packet,
}

/// A streaming packet-tap observer.
///
/// The simulator calls [`PacketSink::on_record`] once per packet the
/// tapped node sends or receives, in event order (which equals
/// timestamp order, FIFO on ties). Implementations decide what to
/// retain: [`Capture`] buffers every record; incremental analyzers
/// keep only bounded per-flow state.
///
/// The `Any` supertype allows the simulator to hand a sink back to its
/// concrete type after a run (`Simulator::sink`/`Simulator::take_sink`).
pub trait PacketSink: Any {
    /// Observe one captured packet.
    fn on_record(&mut self, rec: &PacketRecord);
}

/// Handle returned by `Simulator::attach_sink`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkHandle(pub(crate) usize);

/// A tap attached to one node, accumulating [`PacketRecord`]s in
/// capture order (which equals timestamp order).
#[derive(Debug, Clone)]
pub struct Capture {
    /// The tapped node.
    pub node: NodeId,
    /// Records in time order.
    pub records: Vec<PacketRecord>,
}

impl Capture {
    /// An empty capture for `node`.
    pub fn new(node: NodeId) -> Self {
        Capture {
            node,
            records: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, time: SimTime, dir: Direction, pkt: &Packet) {
        self.records.push(PacketRecord {
            time,
            dir,
            pkt: *pkt,
        });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records for one flow only, preserving order.
    pub fn flow(&self, flow: crate::ids::FlowId) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter(move |r| r.pkt.flow == flow)
    }
}

/// The buffer-everything sink: a `Capture` is just one kind of tap.
impl PacketSink for Capture {
    fn on_record(&mut self, rec: &PacketRecord) {
        self.record(rec.time, rec.dir, &rec.pkt);
    }
}

/// A sink that discards everything — placeholder left behind when a
/// sink is taken out of the simulator mid-run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl PacketSink for NullSink {
    fn on_record(&mut self, _rec: &PacketRecord) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, PacketId};
    use crate::packet::PacketKind;

    fn pkt(flow: u32) -> Packet {
        Packet {
            id: PacketId(0),
            flow: FlowId(flow),
            src: NodeId(0),
            dst: NodeId(1),
            size: 100,
            sent_at: SimTime::ZERO,
            kind: PacketKind::Background,
        }
    }

    #[test]
    fn records_accumulate_in_order() {
        let mut c = Capture::new(NodeId(0));
        assert!(c.is_empty());
        c.record(SimTime::from_millis(1), Direction::Out, &pkt(1));
        c.record(SimTime::from_millis(2), Direction::In, &pkt(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.records[0].dir, Direction::Out);
        assert_eq!(c.records[1].time, SimTime::from_millis(2));
    }

    #[test]
    fn flow_filter() {
        let mut c = Capture::new(NodeId(0));
        c.record(SimTime::ZERO, Direction::Out, &pkt(1));
        c.record(SimTime::ZERO, Direction::Out, &pkt(2));
        c.record(SimTime::ZERO, Direction::In, &pkt(1));
        assert_eq!(c.flow(FlowId(1)).count(), 2);
        assert_eq!(c.flow(FlowId(3)).count(), 0);
    }
}
