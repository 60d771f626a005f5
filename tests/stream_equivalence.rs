//! Streaming equivalence, proven on live simulations.
//!
//! One simulation is observed through independent taps on the server:
//! a buffering `Capture` and one `FlowProbe` per flow, attached side by
//! side. Across randomized loss rates, jitter (reordering pressure),
//! flow counts and transfer sizes:
//!
//! * each probe, fed the interleaved multi-flow stream, must match —
//!   bit for bit — a fresh probe fed only its flow's records
//!   (`Capture::flow`), so demultiplexing changes nothing;
//! * a probe fed the flow from its first data segment on (a tap that
//!   missed the handshake) must report the same slow start, goodput,
//!   capacity estimate and features;
//! * two results are checked against references computed differently
//!   from the probe: the capacity estimate against two fresh
//!   `FlowTracker` replays (to the window's midpoint and to its
//!   boundary) reading goodput, and the features against the flow's
//!   whole sample list filtered to the final boundary and folded
//!   afterwards;
//! * `analyze_capture` on the buffered capture, which stops feeding a
//!   flow once its FIN exchange completes, must report the verdict each
//!   probe's features yield.

use csig_rng::cases;
use tcp_congestion_signatures::core::{analyze_capture, ModelMeta};
use tcp_congestion_signatures::dtree::TreeParams;
use tcp_congestion_signatures::features::{FeatureAccumulator, FeatureError, FlowProbe};
use tcp_congestion_signatures::netsim::{
    Capture, Direction, FlowId, LinkConfig, PacketRecord, SimDuration, Simulator, SinkHandle,
};
use tcp_congestion_signatures::prelude::*;
use tcp_congestion_signatures::trace::{FlowTracker, RttSample, SlowStart};

/// Build a server-behind-router topology with `n_flows` clients, run it
/// with a buffering capture *and* one probe per flow attached to the
/// same server node, and return everything.
fn run_with_both_taps(
    seed: u64,
    loss_pct: f64,
    jitter_ms: u64,
    n_flows: u32,
    size: u64,
) -> (Simulator, Capture, Vec<(FlowId, SinkHandle)>) {
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

    let cap = sim.attach_sink(server, Box::new(Capture::new(server)));
    let probes: Vec<(FlowId, SinkHandle)> = flows
        .iter()
        .map(|&f| (f, sim.attach_sink(server, Box::new(FlowProbe::new(f)))))
        .collect();

    sim.set_event_budget(50_000_000);
    sim.run_until(tcp_congestion_signatures::netsim::SimTime::ZERO + SimDuration::from_secs(30))
        .expect_within_budget();

    let capture = sim.take_sink::<Capture>(cap).unwrap();
    (sim, capture, probes)
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

/// The capacity estimate computed from scratch: two fresh replays of
/// the flow's records, one up to the slow-start window's midpoint and
/// one up to its boundary, reading goodput.
fn reference_capacity_bps(records: &[&PacketRecord], ss: &SlowStart) -> Option<f64> {
    let acked_by = |until: SimTime| {
        let mut tracker = FlowTracker::new();
        for r in records.iter().take_while(|r| r.time <= until) {
            tracker.push(r);
        }
        tracker.throughput().bytes_acked
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

fn probe_fed<'a>(flow: FlowId, records: impl IntoIterator<Item = &'a PacketRecord>) -> FlowProbe {
    let mut probe = FlowProbe::new(flow);
    for r in records {
        probe.push(r);
    }
    probe
}

/// Every result a probe reports, for comparing two probes.
fn assert_same_results(got: &FlowProbe, want: &FlowProbe, what: &str) {
    let flow = want.flow();
    assert_eq!(
        got.slow_start(),
        want.slow_start(),
        "{what}: slow start ({flow:?})"
    );
    assert_eq!(got.throughput(), want.throughput(), "{what}: throughput");
    assert_eq!(
        got.capacity_estimate_bps(),
        want.capacity_estimate_bps(),
        "{what}: capacity estimate"
    );
    assert_eq!(got.features(), want.features(), "{what}: features");
}

fn check_equivalence(seed: u64, loss_pct: f64, jitter_ms: u64, n_flows: u32, size: u64) {
    let (sim, capture, probes) = run_with_both_taps(seed, loss_pct, jitter_ms, n_flows, size);

    for (flow, probe_h) in &probes {
        let probe: &FlowProbe = sim.sink(*probe_h).expect("probe tap");

        // The probe saw the interleaved multi-flow stream; a fresh one
        // sees only this flow's records.
        let records: Vec<&PacketRecord> = capture.flow(*flow).collect();
        let fresh = probe_fed(*flow, records.iter().copied());
        assert_same_results(probe, &fresh, "demultiplexed probe");
        assert_eq!(probe.closed(), fresh.closed(), "FIN exchange");

        // A tap that missed the handshake anchors at the first data
        // segment, which lands on the same offsets.
        let first_data = records
            .iter()
            .position(|r| r.dir == Direction::Out && r.pkt.tcp().is_some_and(|h| h.payload_len > 0))
            .expect("the flow carried data");
        let headless = probe_fed(*flow, records[first_data..].iter().copied());
        assert_same_results(&headless, &fresh, "probe without the handshake");

        // The references computed differently from the probe.
        let mut tracker = FlowTracker::new();
        let samples: Vec<RttSample> = records.iter().filter_map(|r| tracker.push(r)).collect();
        let ss = tracker.slow_start();
        assert_eq!(probe.samples_total(), samples.len(), "probe sample count");
        assert_eq!(
            probe.min_rtt_ms(),
            samples
                .iter()
                .map(|s| s.rtt.as_millis_f64())
                .reduce(f64::min),
            "probe min RTT diverged"
        );
        assert_eq!(
            probe.capacity_estimate_bps(),
            reference_capacity_bps(&records, &ss),
            "capacity estimate diverged from the two-replay reference"
        );
        assert_eq!(
            probe.features(),
            windowed_features(&samples, ss.boundary()),
            "probe features diverged from the filter-then-fold reference"
        );
    }

    // The capture replayed afterwards (one demultiplexing pass that
    // ignores a flow's records after its FIN exchange) against the
    // probes, which saw every record.
    let clf = tiny_model();
    let reports = analyze_capture(&clf, &capture);
    assert_eq!(
        reports.iter().map(|r| r.flow).collect::<Vec<_>>(),
        probes.iter().map(|(flow, _)| *flow).collect::<Vec<_>>()
    );
    for (report, (flow, probe_h)) in reports.iter().zip(&probes) {
        let probe: &FlowProbe = sim.sink(*probe_h).expect("probe tap");
        match (&report.verdict, probe.features()) {
            (Ok(v), Ok(features)) => {
                assert_eq!(v.features, features);
                assert_eq!(
                    (v.class, v.confidence),
                    clf.classify_with_confidence(&features)
                );
                assert_eq!(v.slow_start, probe.slow_start());
            }
            (Err(e), Err(probe_e)) => assert_eq!(*e, probe_e),
            (r, p) => panic!("verdict mismatch for {flow:?}: {r:?} vs {p:?}"),
        }
    }
}

/// The fixed headline case: lossy, jittery, multi-flow. Also asserts
/// the runs are substantive (data flowed, features computable) so the
/// equivalence above is not vacuous.
#[test]
fn streaming_equals_batch_on_lossy_multiflow_run() {
    check_equivalence(42, 1.0, 2, 3, 2_000_000);
    let (sim, capture, probes) = run_with_both_taps(42, 1.0, 2, 3, 2_000_000);
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
        assert!(
            probe.capacity_estimate_bps().is_some(),
            "flow {flow:?}: the slow-start window never closed"
        );
    }
}

/// Clean path, single flow (slow start never ends).
#[test]
fn streaming_equals_batch_without_retransmissions() {
    check_equivalence(7, 0.0, 0, 1, 300_000);
}

/// Randomized loss, reordering jitter, flow count and size: the
/// probes reproduce fresh per-flow probes and both references
/// exactly.
#[test]
fn prop_streaming_equals_batch() {
    cases(8, "prop_streaming_equals_batch", |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let loss_pct = rng.gen_range(0.0f64..3.0);
        let jitter_ms = rng.gen_range(0u64..4);
        let n_flows = rng.gen_range(1u32..4);
        let size_kb = rng.gen_range(100u64..1500);
        check_equivalence(seed, loss_pct, jitter_ms, n_flows, size_kb * 1000);
    });
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
    let cap = sim.attach_sink(server, Box::new(Capture::new(server)));
    sim.set_event_budget(50_000_000);
    sim.run().expect_within_budget();
    let mut probe = FlowProbe::new(FlowId(500));
    let mut peak = 0;
    for rec in &sim.take_sink::<Capture>(cap).unwrap().records {
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
