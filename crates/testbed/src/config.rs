//! Testbed experiment configuration: the knobs of §3.1 of the paper
//! plus a fidelity profile for affordable sweeps.

use csig_netsim::{FaultPlan, QueueKind, SimDuration};
use csig_tcp::TcpConfig;

/// Emulated access-link parameters (the paper's `AccessLink` grid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessParams {
    /// Shaped downstream rate in Mbit/s (paper: 10, 20, 50).
    pub rate_mbps: u64,
    /// I.i.d. loss in percent (paper: 0.02, 0.05).
    pub loss_pct: f64,
    /// Added one-way downstream latency in ms (paper: 20, 40).
    pub latency_ms: u64,
    /// Buffer depth in ms at the shaped rate (paper: 20, 50, 100).
    pub buffer_ms: u64,
}

impl AccessParams {
    /// The illustrative configuration of Figure 1: 20 Mbps, 100 ms
    /// buffer, 20 ms latency, zero loss.
    pub fn figure1() -> Self {
        AccessParams {
            rate_mbps: 20,
            loss_pct: 0.0,
            latency_ms: 20,
            buffer_ms: 100,
        }
    }

    /// Access rate in bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.rate_mbps * 1_000_000
    }
}

/// How (and whether) the interconnect link is congested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CongestionMode {
    /// No interconnect congestion: the test flow saturates the access
    /// link (the self-induced scenario).
    None,
    /// `TGcong`: this many concurrent bulk TCP fetches saturate the
    /// interconnect (paper: 100; the multiplexing experiment uses 50,
    /// 20, 10).
    TgCong {
        /// Number of concurrent fetch loops.
        flows: u32,
    },
}

impl CongestionMode {
    /// Does this mode congest the interconnect at all?
    fn is_congested(&self) -> bool {
        !matches!(self, CongestionMode::None)
    }
}

/// Full configuration of one testbed throughput test.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Access-link emulation parameters.
    pub access: AccessParams,
    /// Interconnect congestion scenario.
    pub congestion: CongestionMode,
    /// Extra bulk flows sharing the access link with the test flow
    /// (the §3.3 multiplexing experiment; paper: 0, 1, 2, 5).
    pub access_cross_flows: u32,
    /// netperf test duration (paper: 10 s).
    pub test_duration: SimDuration,
    /// Interconnect shaped rate in Mbit/s (paper: 950).
    pub interconnect_mbps: u64,
    /// Endpoint TCP configuration for the measured test flow
    /// (congestion control, SACK, …). Its `record_samples` is ignored:
    /// [`build`](crate::topology::build) decides which endpoints record.
    pub tcp: TcpConfig,
    /// TCP configuration for cross traffic (`TGtrans`, `TGcong`,
    /// access cross flows). `None` = same as `tcp`. Ablations vary the
    /// test flow's stack while keeping the background realistic.
    pub cross_tcp: Option<TcpConfig>,
    /// Queue discipline of the access-link buffer.
    pub queue: QueueKind,
    /// Deterministic impairments on the downstream access link: bursty
    /// loss, reordering, duplication and mid-test link events (see
    /// [`FaultPlan`]). `None` (the default) leaves the link clean.
    pub access_fault: Option<FaultPlan>,
    /// Master simulation seed.
    pub seed: u64,
}

impl TestbedConfig {
    /// Full-fidelity paper profile: 950 Mbps interconnect, `TGcong`
    /// with 100 flows for external congestion, 10 s tests, 2 s warm-up.
    pub fn paper(access: AccessParams, seed: u64) -> Self {
        TestbedConfig {
            access,
            congestion: CongestionMode::None,
            access_cross_flows: 0,
            test_duration: SimDuration::from_secs(10),
            interconnect_mbps: 950,
            tcp: TcpConfig::default(),
            cross_tcp: None,
            queue: QueueKind::DropTail,
            access_fault: None,
            seed,
        }
    }

    /// Scaled profile: one-fifth interconnect rate, 40-flow `TGcong`,
    /// 4 s tests. The warm-up stays at the paper's 2 s: `TGcong` starts
    /// staggered across the first half of it, and every fetch loop
    /// needs ≥1 s of settling before the test or the late starters'
    /// own slow starts contaminate the interconnect queue. Preserves
    /// the access:interconnect rate ordering and all buffer-delay
    /// ratios at a fraction of the event cost; used by default in
    /// sweeps (documented in EXPERIMENTS.md).
    pub fn scaled(access: AccessParams, seed: u64) -> Self {
        TestbedConfig {
            test_duration: SimDuration::from_secs(4),
            interconnect_mbps: 190,
            ..TestbedConfig::paper(access, seed)
        }
    }

    /// Builder: set the congestion scenario.
    pub fn with_congestion(mut self, mode: CongestionMode) -> Self {
        self.congestion = mode;
        self
    }

    /// Builder: impair the downstream access link with a fault plan
    /// (no-op plans are dropped so clean runs stay byte-identical).
    pub fn with_access_fault(mut self, plan: FaultPlan) -> Self {
        self.access_fault = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Builder: use the profile's default external congestion — 100
    /// `TGcong` flows under the paper profile, 40 under the scaled one.
    pub fn externally_congested(self) -> Self {
        let flows = if self.interconnect_mbps >= 900 {
            100
        } else {
            40
        };
        self.with_congestion(CongestionMode::TgCong { flows })
    }

    /// The scenario's ground-truth class (what the experiment *tried*
    /// to create; labeling additionally applies the paper's
    /// throughput-threshold filter).
    pub fn intended_class(&self) -> csig_features::CongestionClass {
        if self.congestion.is_congested() {
            csig_features::CongestionClass::External
        } else {
            csig_features::CongestionClass::SelfInduced
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_in_scale_only() {
        let a = AccessParams::figure1();
        let p = TestbedConfig::paper(a, 1);
        let s = TestbedConfig::scaled(a, 1);
        assert_eq!(p.interconnect_mbps, 950);
        assert_eq!(s.interconnect_mbps, 190);
        assert_eq!(p.access, s.access);
    }

    #[test]
    fn external_flow_counts_by_profile() {
        let a = AccessParams::figure1();
        let p = TestbedConfig::paper(a, 1).externally_congested();
        assert_eq!(p.congestion, CongestionMode::TgCong { flows: 100 });
        let s = TestbedConfig::scaled(a, 1).externally_congested();
        assert_eq!(s.congestion, CongestionMode::TgCong { flows: 40 });
    }

    #[test]
    fn intended_class_follows_mode() {
        use csig_features::CongestionClass;
        let a = AccessParams::figure1();
        assert_eq!(
            TestbedConfig::scaled(a, 1).intended_class(),
            CongestionClass::SelfInduced
        );
        assert_eq!(
            TestbedConfig::scaled(a, 1)
                .with_congestion(CongestionMode::TgCong { flows: 10 })
                .intended_class(),
            CongestionClass::External
        );
    }

    #[test]
    fn access_rate_conversion() {
        assert_eq!(AccessParams::figure1().rate_bps(), 20_000_000);
    }
}
