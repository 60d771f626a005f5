//! # csig-tslp — Time-Series Latency Probing
//!
//! The probing substrate behind the paper's `TSLP2017` dataset
//! (Luckie et al., "Challenges in Inferring Internet Interdomain
//! Congestion", IMC 2014): periodic latency probes from a vantage point
//! to the near and far routers of an interdomain link ([`prober`]),
//! per-target latency series ([`timeseries`]), and level-shift episode
//! detection attributing far-only elevation to the interdomain link
//! ([`detect`]).
//!
//! Routers in `csig-netsim` answer probe requests natively, so probes
//! experience exactly the queueing that data packets do.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod detect;
pub mod prober;
pub mod timeseries;

pub use detect::{detect_episodes, interdomain_episodes, DetectorParams, Episode};
pub use prober::TslpProber;
pub use timeseries::LatencySeries;

#[cfg(test)]
mod integration_tests {
    use super::*;
    use csig_netsim::{FlowId, LinkConfig, NodeId, SimDuration, SimTime, Simulator, SinkAgent};
    use csig_testbed::CbrAgent;

    /// Probe loss thins the series but must not break detection: run a
    /// clean near link and a 10%-lossy far link with a mid-run episode.
    #[test]
    fn detection_survives_probe_loss() {
        let mut sim = Simulator::new(123);
        let vantage = sim.add_host(Box::new(TslpProber::new(
            vec![NodeId(1), NodeId(2)],
            SimDuration::from_millis(200),
            SimTime::from_secs(30),
            FlowId(5),
        )));
        let near = sim.add_router();
        let far = sim.add_router();
        sim.add_duplex_link(
            vantage,
            near,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(9)),
        );
        let idle = LinkConfig::new(100_000_000, SimDuration::from_millis(1))
            .buffer_ms(15)
            .loss(0.10);
        let (nf, _) = sim.add_duplex_link(near, far, idle.clone());
        sim.compute_routes();
        // Episode via link modulation between 10 s and 20 s.
        let congested = LinkConfig::new(10_000_000, SimDuration::from_millis(14))
            .buffer_ms(3)
            .loss(0.10);
        sim.schedule_link_reconfig(SimTime::from_secs(10), nf, congested);
        sim.schedule_link_reconfig(SimTime::from_secs(20), nf, idle);
        sim.run_until(SimTime::from_secs(31)).expect_within_budget();

        let p: &TslpProber = sim.agent(vantage).unwrap();
        // ~19% of far probes lost (10% each way); series still dense.
        let far_series = p.far().unwrap();
        assert!(
            far_series.len() > 100,
            "far series thinned to {}",
            far_series.len()
        );
        assert!((far_series.len() as f64) < 0.95 * p.near().len() as f64);
        let eps = interdomain_episodes(
            p.near(),
            far_series,
            DetectorParams {
                min_elevation_ms: 8.0,
                min_run: 3,
            },
        );
        assert_eq!(eps.len(), 1, "{eps:?}");
        assert!(eps[0].start >= SimTime::from_secs(9));
        assert!(eps[0].end <= SimTime::from_secs(21));
    }

    /// A vantage probes across a shaped interdomain link while a CBR
    /// burst congests it mid-run; the detector must find the episode on
    /// the far side only.
    #[test]
    fn probe_through_congested_link_detects_episode() {
        let mut sim = Simulator::new(77);
        let vantage = sim.add_host(Box::new(TslpProber::new(
            vec![NodeId(1), NodeId(2)],
            SimDuration::from_millis(200),
            SimTime::from_secs(30),
            FlowId(90),
        )));
        let near = sim.add_router();
        let far = sim.add_router();
        let sink = sim.add_host(Box::new(SinkAgent::default()));
        // CBR congests the near→far interdomain link from t=10s to 20s.
        let cbr = sim.add_host(Box::new(CbrAgent::new(
            sink,
            FlowId(91),
            105_000_000, // 105% of the 100 Mbps link
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        )));
        sim.add_duplex_link(
            vantage,
            near,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(9)),
        );
        // The interdomain link: 100 Mbps with a 15 ms buffer (the
        // paper's observed Comcast↔TATA buffer size).
        sim.add_duplex_link(
            near,
            far,
            LinkConfig::new(100_000_000, SimDuration::ZERO).buffer_ms(15),
        );
        sim.add_duplex_link(far, sink, LinkConfig::new(1_000_000_000, SimDuration::ZERO));
        sim.add_duplex_link(cbr, near, LinkConfig::new(1_000_000_000, SimDuration::ZERO));
        sim.compute_routes();
        sim.run_until(SimTime::from_secs(32)).expect_within_budget();

        let p: &TslpProber = sim.agent(vantage).unwrap();
        assert!(p.received > 200, "replies {}", p.received);
        // Baseline ≈ 18 ms to the far router; episodes elevate by ~15 ms.
        let far_series = p.far().unwrap();
        assert!((far_series.baseline_ms().unwrap() - 18.0).abs() < 2.0);
        let params = DetectorParams {
            min_elevation_ms: 8.0,
            min_run: 5,
        };
        let eps = interdomain_episodes(p.near(), far_series, params);
        assert_eq!(eps.len(), 1, "episodes: {eps:?}");
        let ep = eps[0];
        assert!(ep.start >= SimTime::from_secs(9) && ep.start <= SimTime::from_secs(12));
        assert!(ep.end >= SimTime::from_secs(19) && ep.end <= SimTime::from_secs(22));
        assert!(ep.peak_ms > 28.0, "peak {}", ep.peak_ms);
        // Near side stayed flat.
        assert!(detect_episodes(p.near(), params).is_empty());
    }
}
