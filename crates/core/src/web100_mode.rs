//! Classification from in-stack (Web100-style) RTT samples — the
//! extension §6 of the paper leaves to future work:
//!
//! > "Packet captures are storage and computationally expensive. …
//! > Web100 makes current RTT values available \[in a\] light-weight
//! > manner. We leave it to future work to study how we can sample RTT
//! > values from Web100 to compute our metrics."
//!
//! A server that already keeps kernel TCP statistics (as every M-Lab
//! NDT server does) can classify flows without capturing a single
//! packet: the connection's own Karn-filtered RTT samples, windowed to
//! the first retransmission, feed the same feature extractor. The
//! `stride` parameter emulates coarser polling (Web100 snapshots every
//! 5 ms rather than every ACK).

use crate::classifier::SignatureClassifier;
use csig_features::{features_from_rtts_ms, CongestionClass, FeatureError, FlowFeatures};
use csig_tcp::ConnStats;

/// Slow-start RTT samples (ms) from a connection's kernel statistics,
/// windowed at the first retransmission and decimated by `stride`
/// (1 = every sample).
pub fn slow_start_rtts_ms(stats: &ConnStats, stride: usize) -> Vec<f64> {
    assert!(stride >= 1, "stride must be at least 1");
    let boundary = stats
        .first_retransmit_at
        .unwrap_or(csig_netsim::SimTime::MAX);
    stats
        .rtt_samples
        .iter()
        .filter(|(t, _)| *t <= boundary)
        .step_by(stride)
        .map(|(_, rtt)| rtt.as_millis_f64())
        .collect()
}

/// Compute the classifier features from kernel statistics alone.
pub fn features_from_stats(stats: &ConnStats, stride: usize) -> Result<FlowFeatures, FeatureError> {
    features_from_rtts_ms(&slow_start_rtts_ms(stats, stride))
}

/// Classify a connection from its kernel statistics (no capture).
pub fn classify_conn_stats(
    clf: &SignatureClassifier,
    stats: &ConnStats,
    stride: usize,
) -> Result<(CongestionClass, FlowFeatures), FeatureError> {
    let features = features_from_stats(stats, stride)?;
    Ok((clf.classify(&features), features))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{ModelMeta, SignatureClassifier};
    use crate::training::train_from_results;
    use csig_dtree::TreeParams;
    use csig_exec::Executor;
    use csig_netsim::{Capture, LinkConfig, SimDuration, Simulator};
    use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};
    use csig_testbed::{AccessParams, Profile, Sweep};

    /// Run a download and return both the server's kernel stats and its
    /// packet capture.
    fn instrumented_download(seed: u64) -> (ConnStats, Capture) {
        let mut sim = Simulator::new(seed);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            TcpConfig::default(),
            ServerSendPolicy::Fixed(4_000_000),
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Once,
            600,
        )));
        sim.add_duplex_link(
            server,
            client,
            LinkConfig::new(20_000_000, SimDuration::from_millis(20)).buffer_ms(100),
        );
        sim.compute_routes();
        let cap = sim.attach_sink(server, Box::new(Capture::new(server)));
        sim.set_event_budget(50_000_000);
        sim.run().expect_within_budget();
        let s: &TcpServerAgent = sim.agent(server).unwrap();
        (
            s.completed[0].1.clone(),
            sim.take_sink::<Capture>(cap).unwrap(),
        )
    }

    fn model() -> SignatureClassifier {
        let results = Sweep {
            grid: vec![AccessParams::figure1()],
            reps: 3,
            profile: Profile::Scaled,
            seed: 404,
        }
        .run_with(&Executor::sequential(), |_| {});
        train_from_results(&results, 0.7, TreeParams::default()).expect("model")
    }

    #[test]
    fn web100_mode_agrees_with_trace_mode() {
        let (stats, cap) = instrumented_download(61);
        let clf = model();

        // Trace pipeline.
        let reports = crate::analysis::analyze_capture(&clf, &cap);
        assert_eq!(reports.len(), 1);
        let trace_verdict = reports[0].verdict.as_ref().expect("classifiable");

        // Web100 pipeline, full-rate sampling.
        let (class, features) = classify_conn_stats(&clf, &stats, 1).expect("classifiable");
        assert_eq!(class, trace_verdict.class);
        // The two measurement paths see (nearly) the same samples.
        assert!(
            (features.norm_diff - trace_verdict.features.norm_diff).abs() < 0.05,
            "web100 {} vs trace {}",
            features.norm_diff,
            trace_verdict.features.norm_diff
        );
        assert!((features.cov - trace_verdict.features.cov).abs() < 0.05);
    }

    #[test]
    fn decimated_sampling_preserves_the_verdict() {
        let (stats, _) = instrumented_download(62);
        let clf = model();
        let (full, _) = classify_conn_stats(&clf, &stats, 1).expect("full");
        // Even 1-in-8 sampling (coarser than 5 ms Web100 polling at
        // these rates) keeps the verdict.
        let (decimated, f) = classify_conn_stats(&clf, &stats, 8).expect("decimated");
        assert_eq!(full, decimated);
        assert!(f.samples >= 10);
    }

    #[test]
    fn too_coarse_sampling_is_rejected_not_wrong() {
        let (stats, _) = instrumented_download(63);
        let clf = model();
        // Absurd decimation leaves < 10 samples: explicit error.
        let res = classify_conn_stats(&clf, &stats, 10_000);
        assert!(matches!(res, Err(FeatureError::TooFewSamples { .. })));
    }

    #[test]
    fn empty_stats_rejected() {
        let clf = SignatureClassifier::train(
            &crate::classifier::tests::synthetic_dataset(20, 1),
            TreeParams::default(),
            ModelMeta {
                congestion_threshold: 0.8,
                trained_on: "unit".into(),
                n_train: 0,
                n_filtered: 0,
            },
        );
        let res = classify_conn_stats(&clf, &ConnStats::default(), 1);
        assert!(res.is_err());
    }
}
