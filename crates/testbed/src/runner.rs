//! Run one netperf-style throughput test and analyze the test flow's
//! packet stream as it happens.
//!
//! The runner attaches a streaming [`FlowProbe`] at Server 1 instead of
//! a buffer-everything capture: RTT samples, the slow-start window,
//! features and throughput accumulate online, so no packet history is
//! retained.

use crate::config::TestbedConfig;
use crate::topology::{build, Testbed, TEST_FLOW};
use csig_features::{CongestionClass, FeatureError, FlowFeatures, FlowProbe};
use csig_netsim::SimDuration;
use csig_obs::{MetricsRegistry, TraceBuffer};
use csig_tcp::{ConnStats, TcpServerAgent};
use csig_trace::{SlowStart, ThroughputSummary};
use serde::{Deserialize, Serialize};

/// Everything measured from one throughput test.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Build the testbed for `cfg`, run it to the test end plus a drain
/// tail, and analyze the test flow's packet stream with a streaming
/// probe. The run's metrics go to a fresh registry that is then
/// dropped; [`run_test_observed`] keeps them.
///
/// # Panics
/// Panics if the simulation exhausts its event budget, since its
/// results would be truncated; `Executor::run_isolated_with_progress`
/// reports that as a failed scenario.
pub fn run_test(cfg: &TestbedConfig) -> TestResult {
    run_test_observed(cfg, &MetricsRegistry::new(), None)
}

/// [`run_test`] into the caller's registry, with an optional trace
/// ring: simulator counters go to `reg` and drop/fault events to
/// `trace`, the test flow's Web100 counters are exported as `tcp.*`
/// metrics, and the per-flow outcome is counted under
/// `flows.features_ok` / `flows.skips_insufficient` plus
/// `rtt.samples`. With a trace ring, `trace.dropped` counts the events
/// it evicted when full, so a snapshot shows whether the trace is
/// complete. The measured [`TestResult`] does not depend on either.
pub fn run_test_observed(
    cfg: &TestbedConfig,
    reg: &MetricsRegistry,
    trace: Option<TraceBuffer>,
) -> TestResult {
    run_test_inner(cfg, build(cfg), reg, trace)
}

fn run_test_inner(
    cfg: &TestbedConfig,
    mut tb: Testbed,
    reg: &MetricsRegistry,
    trace: Option<TraceBuffer>,
) -> TestResult {
    tb.sim.attach_obs(reg);
    if let Some(buf) = &trace {
        tb.sim.attach_trace_buffer(buf.clone());
    }
    let probe = tb
        .sim
        .attach_sink(tb.server1, Box::new(FlowProbe::new(TEST_FLOW)));
    let horizon = tb.test_end + SimDuration::from_millis(500);
    tb.sim.run_until(horizon).expect_within_budget();

    // Kernel-side view of the test flow, read off the server agent.
    let conn_stats = tb
        .sim
        .agent::<TcpServerAgent>(tb.server1)
        .and_then(|s| s.connection(TEST_FLOW).map(|c| c.stats.clone()));

    let Some(probe) = tb.sim.sink::<FlowProbe>(probe) else {
        unreachable!("handle attached above holds a FlowProbe")
    };
    let slow_start = probe.slow_start();
    let throughput = probe.throughput();
    let features = probe.features();
    if let Some(buf) = &trace {
        reg.add("trace.dropped", buf.dropped());
    }
    reg.add("rtt.samples", probe.samples_total() as u64);
    if features.is_ok() {
        reg.add("flows.features_ok", 1);
    } else {
        reg.add("flows.skips_insufficient", 1);
    }
    if let Some(stats) = &conn_stats {
        stats.export_metrics(reg);
    }
    // Capacity-style slow-start estimate, falling back to the
    // whole-test mean for flows that never retransmitted.
    let ss_throughput_bps = probe.capacity_estimate_bps().unwrap_or(throughput.mean_bps);

    let icl = tb.sim.link(tb.interconnect_down);
    let interconnect_max_occupancy = icl.max_occupancy() as f64 / icl.buffer_capacity() as f64;

    TestResult {
        features,
        slow_start,
        throughput,
        ss_throughput_bps,
        intended: cfg.intended_class(),
        access_rate_bps: cfg.access.rate_bps(),
        interconnect_max_occupancy,
        events: tb.sim.events_processed(),
        seed: cfg.seed,
        conn_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccessParams, CongestionMode};

    #[test]
    fn self_induced_test_saturates_access_and_shows_signature() {
        let cfg = TestbedConfig::scaled(AccessParams::figure1(), 101);
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
        let cfg = TestbedConfig::scaled(AccessParams::figure1(), 102).externally_congested();
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
        let cfg = TestbedConfig::scaled(AccessParams::figure1(), 105);
        let mut tb = build(&cfg);
        tb.sim.set_event_budget(10_000);
        let _ = run_test_inner(&cfg, tb, &csig_obs::MetricsRegistry::new(), None);
    }

    #[test]
    fn observed_run_matches_plain_run_and_fills_metrics() {
        let cfg = TestbedConfig::scaled(AccessParams::figure1(), 104);
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
        let cfg = TestbedConfig::scaled(AccessParams::figure1(), 104);
        let reg = csig_obs::MetricsRegistry::new();
        let trace = csig_obs::TraceBuffer::with_capacity(16);
        run_test_observed(&cfg, &reg, Some(trace.clone()));
        let dropped = trace.dropped();
        assert!(dropped > 0, "a 16-event ring overflows");
        assert_eq!(reg.snapshot().counter("trace.dropped"), Some(dropped));
    }

    #[test]
    fn cbr_congestion_mode_also_limits_the_flow() {
        let cfg = TestbedConfig::scaled(AccessParams::figure1(), 103)
            .with_congestion(CongestionMode::Cbr { utilization: 1.05 });
        let r = run_test(&cfg);
        assert!(
            r.interconnect_max_occupancy > 0.9,
            "occupancy {}",
            r.interconnect_max_occupancy
        );
        assert!(
            r.throughput.mean_bps < 0.8 * 20e6,
            "mean {} bps",
            r.throughput.mean_bps
        );
    }
}
