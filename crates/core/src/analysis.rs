//! End-to-end capture analysis: classify every eligible flow a server
//! saw.

use crate::classifier::{SignatureClassifier, Verdict};
use crate::live::LiveAnalyzer;
use csig_features::FeatureError;
use csig_netsim::{Capture, FlowId};

/// Data-quality flags attached to a [`FlowReport`]: the flow was still
/// classified (when possible), but the conditions below degrade how
/// much the verdict should be trusted. A report with no flag set came
/// from a cleanly closed, in-order flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowQuality {
    /// The record stream ended while the flow was still open — the
    /// report covers a truncated prefix of the flow.
    pub truncated: bool,
    /// The flow's FIN exchange never completed before the report was
    /// emitted (truncated and idle-evicted flows always set this).
    pub never_closed: bool,
    /// The flow was dropped by the analyzer's idle timeout
    /// ([`crate::LiveAnalyzer::with_idle_timeout`]) after producing no
    /// records for at least the timeout.
    pub idle_evicted: bool,
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
    pub fn is_clean(&self) -> bool {
        !(self.truncated
            || self.never_closed
            || self.idle_evicted
            || self.reorder_suspect
            || self.insufficient_samples)
    }
}

impl std::fmt::Display for FlowQuality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        let mut flags = vec![];
        if self.truncated {
            flags.push("truncated");
        }
        if self.never_closed {
            flags.push("never-closed");
        }
        if self.idle_evicted {
            flags.push("idle-evicted");
        }
        if self.reorder_suspect {
            flags.push("reorder-suspect");
        }
        if self.insufficient_samples {
            flags.push("insufficient-samples");
        }
        write!(f, "{}", flags.join("+"))
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

/// Classify every TCP flow in a server-side capture.
///
/// Replays the capture's records through a [`LiveAnalyzer`], the one
/// classification path for live taps and recorded captures alike;
/// reports come back ordered by flow id.
pub fn analyze_capture(clf: &SignatureClassifier, cap: &Capture) -> Vec<FlowReport> {
    let mut live = LiveAnalyzer::new(clf.clone());
    for rec in &cap.records {
        live.push(rec);
    }
    live.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{ModelMeta, SignatureClassifier};
    use csig_dtree::TreeParams;
    use csig_features::CongestionClass;
    use csig_netsim::{LinkConfig, SimDuration, Simulator};
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

    #[test]
    fn analyze_simulated_capture_end_to_end() {
        // A download that fills an idle 100 ms buffer: the verdict must
        // be self-induced.
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
        let capture = sim.take_capture(cap);

        let clf = tiny_model();
        let reports = analyze_capture(&clf, &capture);
        assert_eq!(reports.len(), 1);
        let verdict = reports[0].verdict.as_ref().expect("classifiable");
        assert_eq!(verdict.class, CongestionClass::SelfInduced);
        assert!(verdict.features.norm_diff > 0.5);
        assert!(verdict.confidence > 0.5);
    }

    #[test]
    fn empty_capture_yields_no_reports() {
        let clf = tiny_model();
        let cap = Capture::new(csig_netsim::NodeId(0));
        assert!(analyze_capture(&clf, &cap).is_empty());
    }
}
