//! Run one netperf-style throughput test and analyze the test flow's
//! packet stream as it happens.
//!
//! [`observe_download`] is the one measurement step of a download
//! test, shared with the M-Lab NDT runner: it attaches a streaming
//! [`FlowProbe`] at the server instead of a buffer-everything capture,
//! so RTT samples, the slow-start window, features and throughput
//! accumulate online and no packet history is retained.

use crate::config::TestbedConfig;
use crate::topology::{build, TEST_FLOW};
use csig_features::{CongestionClass, FeatureError, FlowFeatures, FlowProbe};
use csig_netsim::{FlowId, NodeId, SimDuration, SimTime, Simulator};
use csig_obs::{MetricsRegistry, TraceBuffer};
use csig_tcp::{ConnStats, TcpServerAgent};
use csig_trace::{SlowStart, ThroughputSummary};

/// Everything measured from one throughput test.
#[derive(Debug, Clone)]
pub struct TestResult {
    /// The classifier features (or why they could not be computed).
    pub features: Result<FlowFeatures, FeatureError>,
    /// Slow-start window of the test flow.
    pub slow_start: SlowStart,
    /// Whole-test goodput summary.
    pub throughput: ThroughputSummary,
    /// Goodput achieved during slow start, in bits/s; falls back to the
    /// whole-test mean if the flow never retransmitted.
    pub ss_throughput_bps: f64,
    /// Ground truth: what the scenario constructed.
    pub intended: CongestionClass,
    /// Access-link capacity the test ran against, bits/s.
    pub access_rate_bps: u64,
    /// Fraction of interconnect buffer occupied at its high-water mark.
    pub interconnect_max_occupancy: f64,
    /// Number of simulation events processed (cost diagnostic).
    pub events: u64,
    /// The seed the test ran with.
    pub seed: u64,
    /// Web100-style kernel statistics of the test flow at the server
    /// (per-ACK RTT samples, limited-state accounting) — the input for
    /// capture-free classification.
    pub conn_stats: Option<ConnStats>,
}

impl TestResult {
    /// Slow-start throughput as a fraction of access capacity — the
    /// quantity the paper thresholds for labeling.
    pub fn ss_utilization(&self) -> f64 {
        self.ss_throughput_bps / self.access_rate_bps as f64
    }
}

/// How long a download test runs past its end, so the data in flight
/// at the test end drains and the server sees its last ACKs.
pub const DRAIN_TAIL: SimDuration = SimDuration::from_millis(500);

/// What the server saw of one download test: its streaming probe's
/// read-out and the kernel's Web100 counters.
#[derive(Debug)]
pub struct Download {
    /// The classifier features (or why they could not be computed).
    pub features: Result<FlowFeatures, FeatureError>,
    /// Slow-start window of the flow.
    pub slow_start: SlowStart,
    /// Whole-test goodput summary.
    pub throughput: ThroughputSummary,
    /// Capacity-style goodput estimate over slow start, bits/s; `None`
    /// if the flow never retransmitted.
    pub capacity_estimate_bps: Option<f64>,
    /// Minimum RTT over the whole test, ms.
    pub min_rtt_ms: Option<f64>,
    /// Web100-style counters of the server's connection, live or
    /// completed.
    pub conn_stats: Option<ConnStats>,
    /// Number of simulation events processed (cost diagnostic).
    pub events: u64,
}

/// Observe one download test on a built simulator: the §3 testbed and
/// the §4 NDT tests both measure a flow this way. Attaches `reg`, the
/// optional trace ring and a streaming [`FlowProbe`] for `flow` at
/// `server`, runs to `test_end` plus [`DRAIN_TAIL`], reads the server
/// connection's [`ConnStats`], and exports `rtt.samples`,
/// `flows.features_ok` / `flows.skips_insufficient` and the `tcp.*`
/// counters to `reg`. With a trace ring, `trace.dropped` counts the
/// events it evicted when full, so a snapshot shows whether the trace
/// is complete. The read-out does not depend on `reg` or `trace`.
///
/// # Panics
/// Panics if the simulation exhausts its event budget, since its
/// results would be truncated; `Executor::run_isolated_with_progress`
/// reports that as a failed scenario.
pub fn observe_download(
    sim: &mut Simulator,
    server: NodeId,
    flow: FlowId,
    test_end: SimTime,
    reg: &MetricsRegistry,
    trace: Option<TraceBuffer>,
) -> Download {
    sim.attach_obs(reg);
    if let Some(buf) = &trace {
        sim.attach_trace_buffer(buf.clone());
    }
    let probe = sim.attach_sink(server, Box::new(FlowProbe::new(flow)));
    sim.run_until(test_end + DRAIN_TAIL).expect_within_budget();

    // Kernel-side view of the flow, read off the server agent.
    let conn_stats = sim.agent::<TcpServerAgent>(server).and_then(|s| {
        s.connection(flow).map(|c| c.stats.clone()).or_else(|| {
            s.completed
                .iter()
                .find(|(f, _)| *f == flow)
                .map(|(_, stats)| stats.clone())
        })
    });
    if let Some(stats) = &conn_stats {
        stats.export_metrics(reg);
    }
    if let Some(buf) = &trace {
        reg.add("trace.dropped", buf.dropped());
    }

    let Some(probe) = sim.sink::<FlowProbe>(probe) else {
        unreachable!("handle attached above holds a FlowProbe")
    };
    let features = probe.features();
    reg.add("rtt.samples", probe.samples_total() as u64);
    if features.is_ok() {
        reg.add("flows.features_ok", 1);
    } else {
        reg.add("flows.skips_insufficient", 1);
    }
    Download {
        features,
        slow_start: probe.slow_start(),
        throughput: probe.throughput(),
        capacity_estimate_bps: probe.capacity_estimate_bps(),
        min_rtt_ms: probe.min_rtt_ms(),
        conn_stats,
        events: sim.events_processed(),
    }
}

/// Build the testbed for `cfg` and observe its test flow with
/// [`observe_download`]. The run's metrics go to a fresh registry that
/// is then dropped; [`run_test_observed`] keeps them.
///
/// # Panics
/// Panics if the simulation exhausts its event budget.
pub fn run_test(cfg: &TestbedConfig) -> TestResult {
    run_test_observed(cfg, &MetricsRegistry::new(), None)
}

/// [`run_test`] into the caller's registry, with an optional trace
/// ring: simulator counters go to `reg` and drop/fault events to
/// `trace`, alongside what [`observe_download`] exports. The measured
/// [`TestResult`] does not depend on either.
pub fn run_test_observed(
    cfg: &TestbedConfig,
    reg: &MetricsRegistry,
    trace: Option<TraceBuffer>,
) -> TestResult {
    let mut tb = build(cfg);
    let d = observe_download(&mut tb.sim, tb.server1, TEST_FLOW, tb.test_end, reg, trace);
    let icl = tb.sim.link(tb.interconnect_down);
    let interconnect_max_occupancy = icl.max_occupancy() as f64 / icl.buffer_capacity() as f64;
    TestResult {
        // Capacity-style slow-start estimate, falling back to the
        // whole-test mean for flows that never retransmitted.
        ss_throughput_bps: d.capacity_estimate_bps.unwrap_or(d.throughput.mean_bps),
        features: d.features,
        slow_start: d.slow_start,
        throughput: d.throughput,
        intended: cfg.intended_class(),
        access_rate_bps: cfg.access.rate_bps(),
        interconnect_max_occupancy,
        events: d.events,
        seed: cfg.seed,
        conn_stats: d.conn_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccessParams, Profile};

    #[test]
    fn self_induced_test_saturates_access_and_shows_signature() {
        let cfg = Profile::Scaled.config(AccessParams::figure1(), 101);
        let r = run_test(&cfg);
        assert_eq!(r.intended, CongestionClass::SelfInduced);
        // The test flow should reach most of the 20 Mbps access rate.
        assert!(
            r.throughput.mean_bps > 0.7 * 20e6,
            "mean {} bps",
            r.throughput.mean_bps
        );
        let f = r.features.expect("features");
        // Large buffer (100 ms) filled by the flow: high NormDiff.
        assert!(f.norm_diff > 0.5, "norm_diff {}", f.norm_diff);
        assert!(f.cov > 0.1, "cov {}", f.cov);
        // Slow start throughput also indicates access capacity.
        assert!(r.ss_utilization() > 0.5, "ss util {}", r.ss_utilization());
    }

    #[test]
    fn externally_congested_test_is_limited_below_access() {
        let cfg = Profile::Scaled
            .config(AccessParams::figure1(), 102)
            .externally_congested();
        let r = run_test(&cfg);
        assert_eq!(r.intended, CongestionClass::External);
        // Interconnect buffer was driven to (near) capacity.
        assert!(
            r.interconnect_max_occupancy > 0.9,
            "interconnect occupancy {}",
            r.interconnect_max_occupancy
        );
        // The flow cannot reach the access rate.
        assert!(
            r.throughput.mean_bps < 0.8 * 20e6,
            "mean {} bps",
            r.throughput.mean_bps
        );
        let f = r.features.expect("features");
        // Already-full interconnect buffer: lower NormDiff than the
        // self-induced case.
        assert!(f.norm_diff < 0.6, "norm_diff {}", f.norm_diff);
    }

    #[test]
    #[should_panic(expected = "event budget exhausted")]
    fn exhausted_event_budget_fails_the_test() {
        let cfg = Profile::Scaled.config(AccessParams::figure1(), 105);
        let mut tb = build(&cfg);
        tb.sim.set_event_budget(10_000);
        let reg = csig_obs::MetricsRegistry::new();
        observe_download(&mut tb.sim, tb.server1, TEST_FLOW, tb.test_end, &reg, None);
    }

    #[test]
    fn observed_run_matches_plain_run_and_fills_metrics() {
        let cfg = Profile::Scaled.config(AccessParams::figure1(), 104);
        let plain = run_test(&cfg);
        let reg = csig_obs::MetricsRegistry::new();
        let trace = csig_obs::TraceBuffer::new();
        let observed = run_test_observed(&cfg, &reg, Some(trace.clone()));
        // A trace ring must not perturb the measurement.
        assert_eq!(format!("{plain:?}"), format!("{observed:?}"));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.events"), Some(observed.events));
        assert!(snap.counter("rtt.samples").unwrap_or(0) > 0);
        assert_eq!(snap.counter("flows.features_ok"), Some(1));
        assert!(snap.counter("tcp.segments_sent").unwrap_or(0) > 0);
        // The figure-1 access link drops packets (self-induced loss), so
        // the trace saw at least one drop event.
        assert!(trace.snapshot().iter().any(|e| e.kind == "drop"));
    }

    #[test]
    fn trace_ring_evictions_are_counted() {
        let cfg = Profile::Scaled.config(AccessParams::figure1(), 104);
        let reg = csig_obs::MetricsRegistry::new();
        let trace = csig_obs::TraceBuffer::with_capacity(16);
        run_test_observed(&cfg, &reg, Some(trace.clone()));
        let dropped = trace.dropped();
        assert!(dropped > 0, "a 16-event ring overflows");
        assert_eq!(reg.snapshot().counter("trace.dropped"), Some(dropped));
    }
}
