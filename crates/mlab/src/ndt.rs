//! One NDT (Network Diagnostic Test) measurement as a micro-simulation.
//!
//! NDT runs a 10-second bulk download from an M-Lab server to the
//! client while the server logs Web100 statistics and a packet trace.
//! Here, each test is an independent simulation of the path
//!
//! ```text
//! server ── r1 ──(interconnect)── r2 ──(access link)── client
//! ```
//!
//! An already congested interconnect is modeled by *link-state
//! modulation* (see DESIGN.md): during congestion, the interconnect
//! behaves as a link whose available capacity is the fair share left
//! for a new flow, whose propagation includes the standing queue of the
//! full buffer, and whose remaining buffer headroom is small. This
//! reproduces exactly what the test flow experiences against elastic
//! competitors — low capacity, elevated-but-stable baseline RTT, early
//! loss — at none of the cost (validated against full `TGcong`
//! cross-traffic in `csig-testbed`).

use crate::web100::Web100Log;
use csig_features::{FeatureError, FlowFeatures};
use csig_netsim::{FlowId, LinkConfig, SimDuration, SimTime, Simulator};
use csig_obs::MetricsRegistry;
use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};
use csig_testbed::runner::observe_download;
use csig_trace::{SlowStart, ThroughputSummary};

/// Interconnect congestion state during a test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestedState {
    /// Capacity available to a new flow, Mbit/s (the fair share among
    /// the elastic traffic keeping the link busy).
    pub available_mbps: f64,
    /// Standing queueing delay of the (nearly) full buffer, ms.
    pub standing_delay_ms: f64,
    /// Remaining buffer headroom the new flow can occupy, ms. Elastic
    /// competitors leave transient dips in a shared queue; ~10–20 ms of
    /// effective room (at the available rate) matches what the paper's
    /// 100-flow `TGcong` leaves a newcomer. Values below ~12 ms starve
    /// slow start of the 10 RTT samples the feature extractor needs.
    pub headroom_ms: f64,
}

/// Path configuration of one NDT test.
#[derive(Debug, Clone)]
pub struct NdtPath {
    /// Subscriber plan (shaped access rate), Mbit/s.
    pub plan_mbps: u64,
    /// Access-link buffer, ms (homes measured in the paper: 25–180).
    pub access_buffer_ms: u64,
    /// Access one-way latency, ms.
    pub access_latency_ms: u64,
    /// Server-side one-way latency to the interconnect, ms.
    pub server_one_way_ms: u64,
    /// Interconnect buffer, ms.
    pub interconnect_buffer_ms: u64,
    /// Congestion state (`None` = idle interconnect).
    pub congestion: Option<CongestedState>,
    /// Test duration (NDT: 10 s).
    pub duration: SimDuration,
    /// Simulation seed.
    pub seed: u64,
}

/// One NDT measurement's outcome.
#[derive(Debug, Clone)]
pub struct NdtMeasurement {
    /// Mean downstream goodput over the test, Mbit/s.
    pub throughput_mbps: f64,
    /// Classifier features (or why none).
    pub features: Result<FlowFeatures, FeatureError>,
    /// Slow-start window.
    pub slow_start: SlowStart,
    /// Trace goodput summary.
    pub throughput: ThroughputSummary,
    /// Web100-style kernel log.
    pub web100: Web100Log,
    /// Minimum trace RTT over the whole test, ms.
    pub min_rtt_ms: Option<f64>,
}

/// Flow id used by every NDT micro-simulation.
pub const NDT_FLOW: FlowId = FlowId(4000);

/// Interconnect capacity when idle, bit/s: a scaled stand-in for a
/// multi-10G port (only its *relative* headroom over the plan matters).
const INTERCONNECT_BPS: u64 = 200_000_000;

/// Run one NDT test over the given path: build its topology, then
/// measure the download with the testbed's [`observe_download`] step
/// into a registry that is then dropped.
///
/// # Panics
/// Panics if the simulation exhausts its event budget, since its
/// measurement would be truncated.
pub fn run_ndt(path: &NdtPath) -> NdtMeasurement {
    let ms = SimDuration::from_millis;
    let mut sim = Simulator::new(path.seed);

    // The default stack at both ends; it records per-ACK samples,
    // which the server-side Web100 counters need.
    let tcp = TcpConfig::default();
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        tcp.clone(),
        ServerSendPolicy::Unbounded,
    )));
    let r1 = sim.add_router();
    let r2 = sim.add_router();
    let client = sim.add_host(Box::new(
        TcpClientAgent::new(server, tcp, ClientBehavior::Once, NDT_FLOW.0)
            .with_fetch_timeout(path.duration),
    ));

    sim.add_duplex_link(
        server,
        r1,
        LinkConfig::new(1_000_000_000, ms(path.server_one_way_ms)).buffer_ms(50),
    );

    // Interconnect, possibly modulated by congestion.
    let idle_icl = LinkConfig::new(INTERCONNECT_BPS, ms(0))
        .phy_rate(1_000_000_000)
        .buffer_ms(path.interconnect_buffer_ms);
    let icl = match path.congestion {
        None => idle_icl.clone(),
        Some(c) => {
            let rate = (c.available_mbps * 1e6).max(1e5) as u64;
            LinkConfig::new(rate, SimDuration::from_secs_f64(c.standing_delay_ms / 1e3))
                .phy_rate(rate.max(1_000_000_000))
                .buffer_ms(c.headroom_ms.max(1.0) as u64)
        }
    };
    sim.add_link(r1, r2, icl);
    sim.add_link(r2, r1, idle_icl);

    // Access link (downstream shaped; upstream plain).
    sim.add_link(
        r2,
        client,
        LinkConfig::new(path.plan_mbps * 1_000_000, ms(path.access_latency_ms))
            .phy_rate((path.plan_mbps * 1_000_000).max(100_000_000))
            .buffer_ms(path.access_buffer_ms)
            .jitter(ms(1))
            .burst(5 * 1024),
    );
    sim.add_link(
        client,
        r2,
        LinkConfig::new(100_000_000, ms(path.access_latency_ms)).buffer_ms(20),
    );
    sim.compute_routes();
    sim.set_event_budget(500_000_000);

    let d = observe_download(
        &mut sim,
        server,
        NDT_FLOW,
        SimTime::ZERO + path.duration,
        &MetricsRegistry::new(),
        None,
    );
    NdtMeasurement {
        throughput_mbps: d.throughput.mean_bps / 1e6,
        features: d.features,
        slow_start: d.slow_start,
        throughput: d.throughput,
        web100: Web100Log::from_stats(&d.conn_stats.unwrap_or_default()),
        min_rtt_ms: d.min_rtt_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_features::CongestionClass;

    /// A 4 s test over a typical home path for the given plan.
    fn quick(plan_mbps: u64, congestion: Option<CongestedState>, seed: u64) -> NdtMeasurement {
        run_ndt(&NdtPath {
            plan_mbps,
            access_buffer_ms: 60,
            access_latency_ms: 8,
            server_one_way_ms: 10,
            interconnect_buffer_ms: 25,
            congestion,
            duration: SimDuration::from_secs(4),
            seed,
        })
    }

    #[test]
    fn idle_path_reaches_plan_rate() {
        let m = quick(25, None, 1);
        assert!(
            m.throughput_mbps > 0.75 * 25.0,
            "throughput {}",
            m.throughput_mbps
        );
        let f = m.features.expect("features");
        assert!(f.norm_diff > 0.4, "norm_diff {}", f.norm_diff);
        assert!(m.web100.passes_mlab_filter(SimDuration::from_secs(3)));
        // Baseline RTT ≈ 2×(10 + 8) = 36 ms.
        let min = m.min_rtt_ms.unwrap();
        assert!((min - 36.0).abs() < 5.0, "min rtt {min}");
    }

    #[test]
    fn congested_path_shows_external_signature() {
        let c = CongestedState {
            available_mbps: 9.0,
            standing_delay_ms: 22.0,
            headroom_ms: 15.0,
        };
        let m = quick(25, Some(c), 2);
        // Throughput pinned near the available share, well below plan.
        assert!(m.throughput_mbps < 14.0, "throughput {}", m.throughput_mbps);
        // Baseline RTT elevated by the standing queue.
        let min = m.min_rtt_ms.unwrap();
        assert!(min > 50.0, "min rtt {min}");
        let f = m.features.expect("features");
        assert!(f.norm_diff < 0.45, "norm_diff {}", f.norm_diff);
        assert!(f.cov < 0.2, "cov {}", f.cov);
    }

    #[test]
    fn signatures_separate_between_states() {
        let idle = quick(25, None, 3).features.unwrap();
        let cong = quick(
            25,
            Some(CongestedState {
                available_mbps: 10.0,
                standing_delay_ms: 20.0,
                headroom_ms: 15.0,
            }),
            3,
        )
        .features
        .unwrap();
        assert!(idle.norm_diff > cong.norm_diff);
        assert!(idle.cov > cong.cov);
        // And a trained-on-geometry classifier would split them: check
        // the canonical direction only.
        let _ = CongestionClass::SelfInduced;
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(25, None, 7);
        let b = quick(25, None, 7);
        assert_eq!(a.throughput.bytes_acked, b.throughput.bytes_acked);
        assert_eq!(
            a.features.as_ref().unwrap().norm_diff,
            b.features.as_ref().unwrap().norm_diff
        );
    }
}
