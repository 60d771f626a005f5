//! Single-flow streaming analyzer: the full per-flow measurement
//! pipeline as one [`PacketSink`].
//!
//! [`FlowProbe`] feeds each record of its flow to one `csig-trace`
//! [`FlowTracker`] — RTT samples, slow-start window, goodput and FIN
//! exchange, read off one anchored offset space — and folds the
//! samples inside the slow-start window into an online
//! [`FeatureAccumulator`]. It retains only bounded per-flow state; no
//! trace is buffered. Attached directly to a simulator node it measures
//! its flow while the simulation runs; `csig-core`'s `analyze_capture`
//! routes the records of a capture's flows to one probe each.
//!
//! ## Windowing invariant
//!
//! Records arrive in time order, so every RTT sample produced *before*
//! the slow-start boundary fires carries a timestamp at or before the
//! boundary and belongs in the feature window; once the boundary is
//! known, samples are admitted only when `at <= boundary`. This is the
//! filter `s.at <= ss.boundary()` over all of the flow's samples,
//! applied online, and the accumulator folds the admitted samples in
//! extraction order — so the features are bit-identical to filtering
//! the whole sample list against the final boundary and folding it.

use crate::features::{FeatureAccumulator, FeatureError, FlowFeatures};
use csig_netsim::{Direction, FlowId, PacketRecord, PacketSink};
use csig_tcp::seq::seq_lt;
use csig_trace::{FlowTracker, SlowStart, ThroughputSummary};

/// Streaming per-flow analyzer: RTT extraction, slow-start detection,
/// throughput accounting and feature accumulation in one pass.
///
/// Records of other flows are ignored, so a probe can be attached as a
/// node-wide [`PacketSink`] on a multi-flow tap.
#[derive(Debug, Clone)]
pub struct FlowProbe {
    flow: FlowId,
    tracker: FlowTracker,
    acc: FeatureAccumulator,
    min_rtt_ms: Option<f64>,
    samples_total: usize,
    max_in_packet_id: Option<u64>,
    max_in_ack: Option<u32>,
    reorder_suspect: bool,
}

impl FlowProbe {
    /// A fresh probe for one flow.
    pub fn new(flow: FlowId) -> Self {
        FlowProbe {
            flow,
            tracker: FlowTracker::new(),
            acc: FeatureAccumulator::new(),
            min_rtt_ms: None,
            samples_total: 0,
            max_in_packet_id: None,
            max_in_ack: None,
            reorder_suspect: false,
        }
    }

    /// The flow this probe measures.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Consume one record (records of other flows are ignored).
    pub fn push(&mut self, rec: &PacketRecord) {
        if rec.pkt.flow != self.flow {
            return;
        }
        self.watch_reordering(rec);
        if let Some(s) = self.tracker.push(rec) {
            self.samples_total += 1;
            let ms = s.rtt.as_millis_f64();
            self.min_rtt_ms = Some(match self.min_rtt_ms {
                Some(m) => m.min(ms),
                None => ms,
            });
            if s.at <= self.tracker.slow_start().boundary() {
                self.acc.push(ms);
            }
        }
    }

    /// Classifier features over the slow-start window seen so far.
    pub fn features(&self) -> Result<FlowFeatures, FeatureError> {
        self.acc.finish()
    }

    /// The slow-start window implied by the records seen so far.
    pub fn slow_start(&self) -> SlowStart {
        self.tracker.slow_start()
    }

    /// Whole-flow goodput summary so far.
    pub fn throughput(&self) -> ThroughputSummary {
        self.tracker.throughput()
    }

    /// Late-slow-start capacity estimate (`None` while the window is
    /// open or degenerate).
    pub fn capacity_estimate_bps(&self) -> Option<f64> {
        self.tracker.capacity_estimate_bps()
    }

    /// Whether the flow's FIN exchange has completed (see
    /// [`FlowTracker::closed`]): no later record can change the probe's
    /// results.
    pub fn closed(&self) -> bool {
        self.tracker.closed()
    }

    /// Minimum RTT over *all* samples (not just slow start), in
    /// milliseconds.
    pub fn min_rtt_ms(&self) -> Option<f64> {
        self.min_rtt_ms
    }

    /// Total RTT samples extracted (in and out of the window).
    pub fn samples_total(&self) -> usize {
        self.samples_total
    }

    /// Currently outstanding (sent, unacked, untainted) segments — the
    /// probe's only variable-size state, bounded by the flow's window.
    pub fn outstanding_len(&self) -> usize {
        self.tracker.outstanding_len()
    }

    /// Whether the probe saw evidence of network reordering on the
    /// inbound path: an arriving packet whose simulator-assigned id is
    /// below an id already seen (ids are assigned monotonically at send
    /// time), or a cumulative ACK that regresses below an ACK already
    /// received (duplicate ACKs — equal values — do not count, and
    /// SYN/FIN-bearing packets are exempt: teardown segments may carry a
    /// stale ACK field without any packet having been reordered). RTT
    /// samples taken near such events are unreliable, so reports built
    /// from this probe should be treated as degraded, not discarded.
    pub fn reorder_suspect(&self) -> bool {
        self.reorder_suspect
    }

    fn watch_reordering(&mut self, rec: &PacketRecord) {
        if rec.dir != Direction::In {
            return;
        }
        let id = rec.pkt.id.0;
        match self.max_in_packet_id {
            Some(max) if id < max => self.reorder_suspect = true,
            Some(max) if id > max => self.max_in_packet_id = Some(id),
            None => self.max_in_packet_id = Some(id),
            _ => {}
        }
        if let Some(h) = rec.pkt.tcp() {
            if h.flags.ack() && !h.flags.syn() && !h.flags.fin() {
                match self.max_in_ack {
                    Some(max) if seq_lt(h.ack, max) => self.reorder_suspect = true,
                    Some(max) if seq_lt(max, h.ack) => self.max_in_ack = Some(h.ack),
                    None => self.max_in_ack = Some(h.ack),
                    _ => {}
                }
            }
        }
    }
}

impl PacketSink for FlowProbe {
    fn on_record(&mut self, rec: &PacketRecord) {
        self.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::{
        NodeId, Packet, PacketId, PacketKind, SimTime, TcpFlags, TcpHeader, NO_SACK,
    };
    use csig_trace::RttSample;

    const ISS: u32 = 5000;

    fn rec(
        flow: u32,
        dir: Direction,
        t_ms: u64,
        seq: u32,
        ack: u32,
        len: u32,
        flags: TcpFlags,
    ) -> PacketRecord {
        PacketRecord {
            time: SimTime::from_millis(t_ms),
            dir,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(flow),
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

    /// A hand-built single-flow exchange: handshake, an RTT ramp with
    /// enough clean samples, one retransmission, post-boundary acks.
    fn sample_records() -> Vec<PacketRecord> {
        let mut recs = vec![
            rec(1, Direction::In, 0, 900, 0, 0, TcpFlags::SYN),
            rec(
                1,
                Direction::Out,
                1,
                ISS,
                901,
                0,
                TcpFlags::SYN | TcpFlags::ACK,
            ),
            rec(1, Direction::In, 2, 901, ISS + 1, 0, TcpFlags::ACK),
        ];
        // 14 data/ack pairs with a growing RTT (the self-induced ramp).
        let mut off = 0u32;
        for i in 0u64..14 {
            let t = 10 + i * 20;
            recs.push(rec(
                1,
                Direction::Out,
                t,
                ISS + 1 + off,
                901,
                1000,
                TcpFlags::ACK,
            ));
            recs.push(rec(
                1,
                Direction::In,
                t + 10 + i,
                901,
                ISS + 1 + off + 1000,
                0,
                TcpFlags::ACK,
            ));
            off += 1000;
        }
        // Retransmission closes the slow-start window.
        recs.push(rec(
            1,
            Direction::Out,
            400,
            ISS + 1,
            901,
            1000,
            TcpFlags::ACK,
        ));
        // Fresh data + ack after the boundary (out of window).
        recs.push(rec(
            1,
            Direction::Out,
            420,
            ISS + 1 + off,
            901,
            1000,
            TcpFlags::ACK,
        ));
        recs.push(rec(
            1,
            Direction::In,
            470,
            901,
            ISS + 1 + off + 1000,
            0,
            TcpFlags::ACK,
        ));
        // An interleaved foreign flow the probe must ignore.
        recs.insert(5, rec(2, Direction::Out, 12, 7000, 0, 1000, TcpFlags::ACK));
        recs
    }

    /// The features computed from scratch: every sample of the flow,
    /// filtered to the final slow-start boundary, folded in extraction
    /// order.
    fn windowed_features(
        samples: &[RttSample],
        boundary: SimTime,
    ) -> Result<FlowFeatures, FeatureError> {
        let mut acc = FeatureAccumulator::new();
        for s in samples.iter().filter(|s| s.at <= boundary) {
            acc.push(s.rtt.as_millis_f64());
        }
        acc.finish()
    }

    fn probe_fed<'a>(records: impl IntoIterator<Item = &'a PacketRecord>) -> FlowProbe {
        let mut probe = FlowProbe::new(FlowId(1));
        for r in records {
            probe.on_record(r);
        }
        probe
    }

    #[test]
    fn probe_matches_a_fresh_probe_fed_its_flow() {
        let records = sample_records();
        let probe = probe_fed(&records);
        let own: Vec<_> = records.iter().filter(|r| r.pkt.flow == FlowId(1)).collect();
        let fresh = probe_fed(own.iter().copied());

        assert!(
            fresh.slow_start().end.is_some(),
            "retransmission must close the window"
        );
        assert_eq!(probe.slow_start(), fresh.slow_start());
        assert_eq!(probe.features(), fresh.features());
        assert_eq!(probe.throughput(), fresh.throughput());
        assert_eq!(probe.capacity_estimate_bps(), fresh.capacity_estimate_bps());

        // The features and sample statistics against the flow's whole
        // sample list.
        let mut tracker = FlowTracker::new();
        let samples: Vec<_> = own.iter().filter_map(|r| tracker.push(r)).collect();
        assert_eq!(
            probe.features(),
            windowed_features(&samples, fresh.slow_start().boundary())
        );
        assert_eq!(probe.samples_total(), samples.len());
        assert_eq!(
            probe.min_rtt_ms(),
            samples
                .iter()
                .map(|s| s.rtt.as_millis_f64())
                .reduce(f64::min)
        );
        let f = probe.features().unwrap();
        assert!(f.samples >= 10);
        assert!(f.samples < samples.len(), "a sample lies past the boundary");
        assert!(f.norm_diff > 0.0);
    }

    #[test]
    fn clean_exchange_is_not_reorder_suspect() {
        let mut probe = FlowProbe::new(FlowId(1));
        for r in &sample_records() {
            probe.on_record(r);
        }
        assert!(!probe.reorder_suspect());
    }

    #[test]
    fn ack_regression_marks_reorder_suspect() {
        let mut probe = FlowProbe::new(FlowId(1));
        probe.push(&rec(
            1,
            Direction::In,
            10,
            901,
            ISS + 2000,
            0,
            TcpFlags::ACK,
        ));
        // Duplicate ACK: not reordering.
        probe.push(&rec(
            1,
            Direction::In,
            11,
            901,
            ISS + 2000,
            0,
            TcpFlags::ACK,
        ));
        assert!(!probe.reorder_suspect());
        // Regressing ACK: the network delivered out of order.
        probe.push(&rec(
            1,
            Direction::In,
            12,
            901,
            ISS + 1000,
            0,
            TcpFlags::ACK,
        ));
        assert!(probe.reorder_suspect());
    }

    #[test]
    fn packet_id_regression_marks_reorder_suspect() {
        let mk = |id: u64, t_ms: u64| {
            let mut r = rec(1, Direction::In, t_ms, 901, ISS + 1000, 0, TcpFlags::ACK);
            r.pkt.id = PacketId(id);
            r
        };
        let mut probe = FlowProbe::new(FlowId(1));
        probe.push(&mk(10, 1));
        probe.push(&mk(11, 2));
        // Same id (a fault-injected duplicate): not reordering.
        probe.push(&mk(11, 3));
        assert!(!probe.reorder_suspect());
        probe.push(&mk(9, 4));
        assert!(probe.reorder_suspect());
    }

    #[test]
    fn empty_probe_is_degenerate() {
        let probe = FlowProbe::new(FlowId(9));
        assert_eq!(probe.slow_start(), FlowTracker::new().slow_start());
        assert_eq!(probe.throughput(), FlowTracker::new().throughput());
        assert!(!probe.closed());
        assert_eq!(probe.min_rtt_ms(), None);
        assert_eq!(
            probe.features(),
            Err(FeatureError::TooFewSamples { got: 0 })
        );
    }
}
