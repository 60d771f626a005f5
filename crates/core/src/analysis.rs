//! End-to-end capture analysis: classify every eligible flow a server
//! saw.

use crate::classifier::{SignatureClassifier, Verdict};
use csig_features::{FeatureError, FlowProbe};
use csig_netsim::{Capture, FlowId};
use std::collections::BTreeMap;

/// Data-quality flags attached to a [`FlowReport`]: the flow was still
/// classified (when possible), but the conditions below degrade how
/// much the verdict should be trusted. A report with no flag set came
/// from a cleanly closed, in-order flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowQuality {
    /// The flow's FIN exchange never completed within the capture: the
    /// report covers a truncated prefix of the flow.
    pub never_closed: bool,
    /// The probe saw inbound packets out of order (packet-id or
    /// cumulative-ACK regression): RTT samples may be contaminated.
    pub reorder_suspect: bool,
    /// The flow's slow-start RTT samples were too few or degenerate
    /// (fewer than [`csig_features::MIN_SAMPLES`], or `max`/`mean` RTT
    /// of zero) to compute features: the report carries a skip, never a
    /// verdict. Set exactly when `verdict` is `Err`.
    pub insufficient_samples: bool,
}

impl FlowQuality {
    /// `true` when no degradation flag is set.
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        !(self.never_closed || self.reorder_suspect || self.insufficient_samples)
    }
}

/// Per-flow outcome of analyzing a capture.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The flow analyzed.
    pub flow: FlowId,
    /// The verdict, or why the flow was skipped.
    pub verdict: Result<Verdict, FeatureError>,
    /// Degradation flags (see [`FlowQuality`]).
    pub quality: FlowQuality,
}

/// Route each record of a server-side capture to its flow's
/// [`FlowProbe`] in one pass. A flow takes no records after its FIN
/// exchange completes, so a 4-tuple reused later in an imported pcap
/// cannot disturb the closed flow. Probes come back ordered by flow id,
/// each with the number of records it took.
pub fn probe_flows(cap: &Capture) -> Vec<(FlowProbe, usize)> {
    let mut flows: BTreeMap<FlowId, (FlowProbe, usize)> = BTreeMap::new();
    for rec in &cap.records {
        let flow = rec.pkt.flow;
        let (probe, packets) = flows
            .entry(flow)
            .or_insert_with(|| (FlowProbe::new(flow), 0));
        if !probe.closed() {
            probe.push(rec);
            *packets += 1;
        }
    }
    flows.into_values().collect()
}

/// Classify every TCP flow in a server-side capture, as routed by
/// [`probe_flows`]. Reports come back ordered by flow id.
pub fn analyze_capture(clf: &SignatureClassifier, cap: &Capture) -> Vec<FlowReport> {
    probe_flows(cap)
        .iter()
        .map(|(probe, _)| report_for(clf, probe))
        .collect()
}

/// Classify one probe's accumulated state: its slow-start features
/// through the classifier, with the window they cover. Flows whose
/// features cannot be computed get
/// [`FlowQuality::insufficient_samples`] set alongside the `Err`
/// verdict, so quality flags and verdicts never disagree.
fn report_for(clf: &SignatureClassifier, probe: &FlowProbe) -> FlowReport {
    let verdict = probe.features().map(|features| {
        let (class, confidence) = clf.classify_with_confidence(&features);
        Verdict {
            class,
            confidence,
            features,
            slow_start: probe.slow_start(),
        }
    });
    FlowReport {
        flow: probe.flow(),
        quality: FlowQuality {
            never_closed: !probe.closed(),
            reorder_suspect: probe.reorder_suspect(),
            insufficient_samples: verdict.is_err(),
        },
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{ModelMeta, SignatureClassifier};
    use csig_dtree::TreeParams;
    use csig_features::CongestionClass;
    use csig_netsim::{Direction, LinkConfig, PacketRecord, SimDuration, SimTime, Simulator};
    use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};

    fn tiny_model() -> SignatureClassifier {
        // Hand-built training set with the paper's geometry.
        let mut d = csig_dtree::Dataset::new();
        for i in 0..20 {
            let x = i as f64 / 20.0;
            d.push(vec![0.6 + 0.4 * x, 0.15 + 0.2 * x], 0);
            d.push(vec![0.3 * x, 0.05 * x], 1);
        }
        SignatureClassifier::train(
            &d,
            TreeParams::default(),
            ModelMeta {
                congestion_threshold: 0.8,
                trained_on: "unit".into(),
                n_train: 40,
                n_filtered: 0,
            },
        )
    }

    /// The server-side capture of one complete 4 MB download that fills
    /// an idle 100 ms buffer.
    fn download_capture() -> Capture {
        let mut sim = Simulator::new(21);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            TcpConfig::default(),
            ServerSendPolicy::Fixed(4_000_000),
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Once,
            77,
        )));
        sim.add_duplex_link(
            server,
            client,
            LinkConfig::new(20_000_000, SimDuration::from_millis(20)).buffer_ms(100),
        );
        sim.compute_routes();
        let cap = sim.attach_capture(server);
        sim.set_event_budget(50_000_000);
        sim.run().expect_within_budget();
        sim.take_capture(cap)
    }

    #[test]
    fn closed_download_is_classified_self_induced_and_clean() {
        let reports = analyze_capture(&tiny_model(), &download_capture());
        assert_eq!(reports.len(), 1);
        let verdict = reports[0].verdict.as_ref().expect("classifiable");
        assert_eq!(verdict.class, CongestionClass::SelfInduced);
        assert!(verdict.features.norm_diff > 0.5);
        assert!(verdict.confidence > 0.5);
        assert!(
            reports[0].quality.is_clean(),
            "a cleanly closed flow carries no degradation flags: {:?}",
            reports[0].quality
        );
    }

    #[test]
    fn unclosed_flow_is_never_closed() {
        let mut capture = download_capture();
        capture.records.truncate(capture.len() / 2);
        let reports = analyze_capture(&tiny_model(), &capture);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].quality.never_closed);
        assert!(reports[0].verdict.is_ok(), "the prefix is still classified");
    }

    /// Records of a flow after its FIN exchange completed (a reused
    /// 4-tuple in an imported pcap) leave its report unchanged.
    #[test]
    fn records_after_close_are_ignored() {
        let clf = tiny_model();
        let capture = download_capture();
        let mut reused = capture.clone();
        reused.records.extend_from_within(..);
        // `Debug` prints every float exactly, so equal renderings mean
        // bit-identical verdicts and equal quality flags.
        assert_eq!(
            format!("{:?}", analyze_capture(&clf, &reused)),
            format!("{:?}", analyze_capture(&clf, &capture))
        );
    }

    #[test]
    fn short_flow_is_skipped_with_insufficient_samples() {
        use csig_netsim::{NodeId, Packet, PacketId, PacketKind, TcpFlags, TcpHeader, NO_SACK};
        let t = SimTime::from_secs(1);
        let mut capture = Capture::new(NodeId(0));
        // One bare data record: far below MIN_SAMPLES, never closes.
        capture.records.push(PacketRecord {
            time: t,
            dir: Direction::Out,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(7),
                src: NodeId(0),
                dst: NodeId(1),
                size: 1052,
                sent_at: t,
                kind: PacketKind::Tcp(TcpHeader {
                    seq: 1,
                    ack: 0,
                    flags: TcpFlags::ACK,
                    payload_len: 1000,
                    window: 65535,
                    sack: NO_SACK,
                }),
            },
        });
        let reports = analyze_capture(&tiny_model(), &capture);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].verdict.is_err(), "no verdict for a short flow");
        assert!(reports[0].quality.insufficient_samples);
        assert!(reports[0].quality.never_closed);
        assert!(!reports[0].quality.is_clean());
    }

    #[test]
    fn empty_capture_yields_no_reports() {
        let clf = tiny_model();
        let cap = Capture::new(csig_netsim::NodeId(0));
        assert!(analyze_capture(&clf, &cap).is_empty());
    }
}
