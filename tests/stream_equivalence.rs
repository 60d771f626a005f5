//! Streaming / batch equivalence, proven on live simulations.
//!
//! The streaming per-flow pipeline (`RttExtractor`, `SlowStartTracker`,
//! `ThroughputTracker`, `FeatureAccumulator`, `FlowProbe`,
//! `LiveAnalyzer`) must produce *exactly* — bit for bit — the results
//! of the buffer-everything batch path, across randomized loss rates,
//! jitter (reordering pressure), flow counts and transfer sizes. Both
//! paths observe the same simulation through independent taps: a
//! buffering `Capture` and the streaming sinks, attached side by side.

use proptest::prelude::*;
use tcp_congestion_signatures::core::{analyze_capture, LiveAnalyzer, ModelMeta};
use tcp_congestion_signatures::dtree::TreeParams;
use tcp_congestion_signatures::features::{features_from_samples, FlowProbe};
use tcp_congestion_signatures::netsim::{
    Capture, FlowId, LinkConfig, SimDuration, Simulator, SinkHandle,
};
use tcp_congestion_signatures::prelude::*;
use tcp_congestion_signatures::trace::{
    capacity_estimate_bps, RttExtractor, SlowStartTracker, ThroughputTracker,
};

/// Build a server-behind-router topology with `n_flows` clients, run it
/// with a buffering capture *and* streaming sinks attached to the same
/// server node, and return everything.
fn run_with_both_taps(
    seed: u64,
    loss_pct: f64,
    jitter_ms: u64,
    n_flows: u32,
    size: u64,
) -> (Simulator, Capture, Vec<(FlowId, SinkHandle)>, SinkHandle) {
    let ms = SimDuration::from_millis;
    let mut sim = Simulator::new(seed);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        TcpConfig::default(),
        ServerSendPolicy::Fixed(size),
    )));
    let router = sim.add_router();
    sim.add_duplex_link(server, router, LinkConfig::new(1_000_000_000, ms(2)));

    let mut flows = Vec::new();
    for i in 0..n_flows {
        let flow = FlowId(1000 + 100 * i);
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Once,
            flow.0,
        )));
        // Each client behind its own shaped access link; loss and
        // jitter provide retransmissions and reordering pressure.
        sim.add_link(
            router,
            client,
            LinkConfig::new(10_000_000 + 5_000_000 * i as u64, ms(10 + 5 * i as u64))
                .buffer_ms(80)
                .loss(loss_pct / 100.0)
                .jitter(ms(jitter_ms)),
        );
        sim.add_link(
            client,
            router,
            LinkConfig::new(100_000_000, ms(1)).buffer_ms(20),
        );
        flows.push(flow);
    }
    sim.compute_routes();

    let cap = sim.attach_capture(server);
    let probes: Vec<(FlowId, SinkHandle)> = flows
        .iter()
        .map(|&f| (f, sim.attach_sink(server, Box::new(FlowProbe::new(f)))))
        .collect();
    let live = sim.attach_sink(server, Box::new(LiveAnalyzer::new(tiny_model())));

    sim.set_event_budget(50_000_000);
    sim.run_until(tcp_congestion_signatures::netsim::SimTime::ZERO + SimDuration::from_secs(30))
        .expect_within_budget();

    let capture = sim.take_capture(cap);
    (sim, capture, probes, live)
}

fn tiny_model() -> SignatureClassifier {
    let mut d = Dataset::new();
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
            trained_on: "equivalence-test".into(),
            n_train: 40,
            n_filtered: 0,
        },
    )
}

fn check_equivalence(seed: u64, loss_pct: f64, jitter_ms: u64, n_flows: u32, size: u64) {
    let (sim, capture, probes, live_h) =
        run_with_both_taps(seed, loss_pct, jitter_ms, n_flows, size);
    let flows = split_flows(&capture);

    for (flow, probe_h) in &probes {
        let probe: &FlowProbe = sim.sink(*probe_h).expect("probe tap");
        let trace = &flows[flow];

        // Streaming state machines, fed incrementally, against the
        // batch functions over the buffered trace.
        let mut rtt = RttExtractor::new();
        let mut ss_tracker = SlowStartTracker::new();
        let mut tput = ThroughputTracker::new();
        let streamed: Vec<_> = trace.records.iter().filter_map(|r| rtt.push(r)).collect();
        for r in &trace.records {
            ss_tracker.push(r);
            tput.push(r);
        }
        let samples = extract_rtt_samples(trace);
        let ss = detect_slow_start(trace);
        assert_eq!(streamed, samples, "RttExtractor diverged (flow {flow:?})");
        assert_eq!(ss_tracker.snapshot(), ss, "SlowStartTracker diverged");
        assert_eq!(
            tput.summary(),
            throughput_summary(trace),
            "ThroughputTracker diverged"
        );
        assert_eq!(
            ss_tracker.capacity_estimate_bps(),
            capacity_estimate_bps(trace, &ss),
            "capacity estimate diverged"
        );

        // The live probe saw the interleaved multi-flow stream, not a
        // pre-split trace — its results must still be bit-identical.
        assert_eq!(probe.slow_start(), ss, "live probe slow start diverged");
        assert_eq!(
            probe.throughput(),
            throughput_summary(trace),
            "live probe throughput diverged"
        );
        assert_eq!(
            probe.features(),
            features_from_samples(&samples, &ss),
            "live probe features diverged"
        );
        assert_eq!(
            probe.min_rtt_ms(),
            samples
                .iter()
                .map(|s| s.rtt.as_millis_f64())
                .reduce(f64::min),
            "live probe min RTT diverged"
        );
    }

    // The live analyzer (emit-on-close, bounded state) against the
    // batch capture analysis.
    let live: &LiveAnalyzer = sim.sink(live_h).expect("live analyzer tap");
    let live_reports = live.clone().finish();
    let batch_reports = analyze_capture(&tiny_model(), &capture);
    assert_eq!(live_reports.len(), batch_reports.len());
    for (l, b) in live_reports.iter().zip(&batch_reports) {
        assert_eq!(l.flow, b.flow);
        match (&l.verdict, &b.verdict) {
            (Ok(lv), Ok(bv)) => {
                assert_eq!(lv.class, bv.class);
                assert_eq!(lv.confidence, bv.confidence);
                assert_eq!(lv.features, bv.features);
                assert_eq!(lv.slow_start, bv.slow_start);
            }
            (Err(le), Err(be)) => assert_eq!(le, be),
            (l, b) => panic!("verdict mismatch for flow: {l:?} vs {b:?}"),
        }
    }
}

/// The fixed headline case: lossy, jittery, multi-flow. Also asserts
/// the runs are substantive (data flowed, features computable) so the
/// equivalence above is not vacuous.
#[test]
fn streaming_equals_batch_on_lossy_multiflow_run() {
    check_equivalence(42, 1.0, 2, 3, 2_000_000);
    let (sim, capture, probes, _) = run_with_both_taps(42, 1.0, 2, 3, 2_000_000);
    assert!(
        capture.len() > 1000,
        "only {} records captured",
        capture.len()
    );
    for (flow, probe_h) in &probes {
        let probe: &FlowProbe = sim.sink(*probe_h).expect("probe tap");
        assert!(
            probe.samples_total() >= 10,
            "flow {flow:?}: only {} RTT samples",
            probe.samples_total()
        );
        let f = probe.features().expect("features computable");
        assert!(f.norm_diff > 0.0);
        assert!(probe.throughput().bytes_acked >= 2_000_000);
    }
}

/// Clean path, single flow (slow start never ends).
#[test]
fn streaming_equals_batch_without_retransmissions() {
    check_equivalence(7, 0.0, 0, 1, 300_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized loss, reordering jitter, flow count and size: the
    /// streaming pipeline reproduces the batch pipeline exactly.
    #[test]
    fn prop_streaming_equals_batch(
        seed in 0u64..10_000,
        loss_pct in 0.0f64..3.0,
        jitter_ms in 0u64..4,
        n_flows in 1u32..4,
        size_kb in 100u64..1500,
    ) {
        check_equivalence(seed, loss_pct, jitter_ms, n_flows, size_kb * 1000);
    }
}

/// Peak `FlowProbe::outstanding_len()` over the server-side capture of
/// one `size`-byte download (flow 500) across a 20 Mbps link with a
/// 100 ms buffer and 20 ms latency, seed 1234, fed record by record.
fn peak_outstanding_of_download(size: u64) -> usize {
    let mut sim = Simulator::new(1234);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        TcpConfig::default(),
        ServerSendPolicy::Fixed(size),
    )));
    let client = sim.add_host(Box::new(TcpClientAgent::new(
        server,
        TcpConfig::default(),
        ClientBehavior::Once,
        500,
    )));
    let link = LinkConfig::new(20_000_000, SimDuration::from_millis(20)).buffer_ms(100);
    sim.add_duplex_link(server, client, link);
    sim.compute_routes();
    let cap = sim.attach_capture(server);
    sim.set_event_budget(50_000_000);
    sim.run().expect_within_budget();
    let mut probe = FlowProbe::new(FlowId(500));
    let mut peak = 0;
    for rec in &sim.take_capture(cap).records {
        probe.push(rec);
        peak = peak.max(probe.outstanding_len());
    }
    assert!(probe.throughput().bytes_acked >= size, "incomplete");
    peak
}

/// The streaming probe's variable-size state (its outstanding-segment
/// list) is bounded by the flow's window, not by its length: a download
/// four times longer over the same path never holds more segments.
#[test]
fn probe_state_is_bounded_by_the_window_not_the_flow_length() {
    let short = peak_outstanding_of_download(4_000_000);
    let long = peak_outstanding_of_download(16_000_000);
    assert!(short > 0);
    assert!(
        long <= short,
        "16 MB flow peaked at {long}, 4 MB at {short}"
    );
}
