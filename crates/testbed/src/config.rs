//! Testbed experiment configuration: the knobs of §3.1 of the paper
//! plus a fidelity profile for affordable sweeps.

use csig_netsim::{FaultPlan, QueueKind, SimDuration};
use csig_tcp::CcKind;

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

/// Fidelity of a testbed scenario: the interconnect rate, the test
/// duration and the default `TGcong` load. Every other setting (the 2 s
/// warm-up, buffers, server distances) is the same in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The paper's exact settings: 950 Mbps interconnect, 100 `TGcong`
    /// flows for external congestion, 10 s tests (expensive).
    Paper,
    /// One-fifth interconnect rate, 40-flow `TGcong`, 4 s tests; the
    /// default in sweeps (documented in EXPERIMENTS.md). The warm-up
    /// stays at the paper's 2 s: `TGcong` starts staggered across the
    /// first half of it, and every fetch loop needs ≥1 s of settling
    /// before the test or the late starters' own slow starts
    /// contaminate the interconnect queue. Preserves the
    /// access:interconnect rate ordering and all buffer-delay ratios at
    /// a fraction of the event cost.
    Scaled,
}

impl Profile {
    /// The testbed configuration for one access-link setting at this
    /// fidelity: an idle interconnect, no access cross traffic, the
    /// default TCP stack (NewReno with SACK) and a clean drop-tail
    /// access buffer.
    pub fn config(self, access: AccessParams, seed: u64) -> TestbedConfig {
        TestbedConfig {
            access,
            profile: self,
            tgcong_flows: 0,
            access_cross_flows: 0,
            cc: CcKind::NewReno,
            sack: true,
            queue: QueueKind::DropTail,
            access_fault: None,
            seed,
        }
    }

    /// netperf test duration (paper: 10 s).
    pub fn test_duration(self) -> SimDuration {
        match self {
            Profile::Paper => SimDuration::from_secs(10),
            Profile::Scaled => SimDuration::from_secs(4),
        }
    }

    /// Interconnect shaped rate in Mbit/s (paper: 950).
    pub fn interconnect_mbps(self) -> u64 {
        match self {
            Profile::Paper => 950,
            Profile::Scaled => 190,
        }
    }
}

/// Full configuration of one testbed throughput test: what the
/// experiments vary. Cross traffic (`TGtrans`, `TGcong`, access cross
/// flows) always runs the default TCP stack.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Access-link emulation parameters.
    pub access: AccessParams,
    /// Fidelity profile: interconnect rate and test duration.
    pub profile: Profile,
    /// `TGcong`: concurrent bulk fetch loops saturating the
    /// interconnect (paper: 100; the multiplexing experiment uses 50,
    /// 20, 10). 0 leaves the interconnect idle: the self-induced
    /// scenario.
    pub tgcong_flows: u32,
    /// Extra bulk flows sharing the access link with the test flow
    /// (the §3.3 multiplexing experiment; paper: 0, 1, 2, 5).
    pub access_cross_flows: u32,
    /// Congestion control of the measured test flow.
    pub cc: CcKind,
    /// Does the measured test flow negotiate SACK?
    pub sack: bool,
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
    /// Builder: impair the downstream access link with a fault plan
    /// (no-op plans are dropped so clean runs stay byte-identical).
    pub fn with_access_fault(mut self, plan: FaultPlan) -> Self {
        self.access_fault = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Builder: use the profile's default external congestion — 100
    /// `TGcong` flows under the paper profile, 40 under the scaled one.
    pub fn externally_congested(mut self) -> Self {
        self.tgcong_flows = match self.profile {
            Profile::Paper => 100,
            Profile::Scaled => 40,
        };
        self
    }

    /// The scenario's ground-truth class (what the experiment *tried*
    /// to create; labeling additionally applies the paper's
    /// throughput-threshold filter).
    pub fn intended_class(&self) -> csig_features::CongestionClass {
        if self.tgcong_flows > 0 {
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
    fn external_flow_counts_by_profile() {
        let a = AccessParams::figure1();
        let p = Profile::Paper.config(a, 1).externally_congested();
        assert_eq!(p.tgcong_flows, 100);
        let s = Profile::Scaled.config(a, 1).externally_congested();
        assert_eq!(s.tgcong_flows, 40);
    }

    #[test]
    fn intended_class_follows_tgcong_flows() {
        use csig_features::CongestionClass;
        let idle = Profile::Scaled.config(AccessParams::figure1(), 1);
        assert_eq!(idle.intended_class(), CongestionClass::SelfInduced);
        let congested = TestbedConfig {
            tgcong_flows: 10,
            ..idle
        };
        assert_eq!(congested.intended_class(), CongestionClass::External);
    }

    #[test]
    fn access_rate_conversion() {
        assert_eq!(AccessParams::figure1().rate_bps(), 20_000_000);
    }
}
