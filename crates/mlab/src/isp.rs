//! The ISPs, transit sites and service-plan models of the Dispute2014
//! study.

use csig_rng::StdRng;

/// The four access ISPs the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessIsp {
    /// Comcast — affected by the Cogent dispute.
    Comcast,
    /// Time Warner Cable — affected.
    TimeWarner,
    /// Verizon — affected.
    Verizon,
    /// Cox — *not* affected (direct Netflix peering via OpenConnect).
    Cox,
}

impl AccessIsp {
    /// All four, in the paper's plotting order.
    pub const ALL: [AccessIsp; 4] = [
        AccessIsp::Comcast,
        AccessIsp::TimeWarner,
        AccessIsp::Verizon,
        AccessIsp::Cox,
    ];

    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            AccessIsp::Comcast => "Comcast",
            AccessIsp::TimeWarner => "TimeWarner",
            AccessIsp::Verizon => "Verizon",
            AccessIsp::Cox => "Cox",
        }
    }

    /// Circa-2014 downstream service-plan catalog: `(Mbps, weight)`.
    /// Plans skew toward the 10–50 Mbps tiers the FCC MBA reports of
    /// the era show.
    fn plan_catalog(self) -> &'static [(u64, f64)] {
        match self {
            AccessIsp::Comcast => &[(10, 0.15), (20, 0.30), (25, 0.25), (50, 0.20), (105, 0.10)],
            AccessIsp::TimeWarner => &[(10, 0.25), (15, 0.30), (20, 0.20), (30, 0.15), (50, 0.10)],
            AccessIsp::Verizon => &[(10, 0.15), (25, 0.35), (50, 0.30), (75, 0.20)],
            AccessIsp::Cox => &[(10, 0.20), (25, 0.35), (50, 0.30), (100, 0.15)],
        }
    }

    /// Sample a subscriber plan in Mbps.
    pub fn sample_plan(self, rng: &mut StdRng) -> u64 {
        let catalog = self.plan_catalog();
        let total: f64 = catalog.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen::<f64>() * total;
        for &(mbps, w) in catalog {
            x -= w;
            if x <= 0.0 {
                return mbps;
            }
        }
        let Some(last) = catalog.last() else {
            unreachable!("plan catalogs are non-empty")
        };
        last.0
    }

    /// Was this ISP's Cogent interconnect congested during the dispute?
    pub fn affected_by_dispute(self) -> bool {
        !matches!(self, AccessIsp::Cox)
    }
}

/// The transit-side M-Lab server sites the paper analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitSite {
    /// Cogent, Los Angeles — congested during the dispute.
    CogentLax,
    /// Cogent, New York — congested during the dispute.
    CogentLga,
    /// Level3, Atlanta — control site, never congested in this window.
    Level3Atl,
}

impl TransitSite {
    /// All three, in the paper's plotting order.
    pub const ALL: [TransitSite; 3] = [
        TransitSite::CogentLax,
        TransitSite::CogentLga,
        TransitSite::Level3Atl,
    ];

    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            TransitSite::CogentLax => "Cogent (LAX)",
            TransitSite::CogentLga => "Cogent (LGA)",
            TransitSite::Level3Atl => "Level3 (ATL)",
        }
    }

    /// Is this a Cogent site (dispute-affected transit)?
    pub fn is_cogent(self) -> bool {
        matches!(self, TransitSite::CogentLax | TransitSite::CogentLga)
    }

    /// Base one-way server-side latency (ms) from this site to a
    /// typical client of the study (coast-dependent).
    pub fn base_one_way_ms(self) -> u64 {
        match self {
            TransitSite::CogentLax => 15,
            TransitSite::CogentLga => 10,
            TransitSite::Level3Atl => 12,
        }
    }
}

/// Months of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Month {
    /// January 2014 — dispute ongoing.
    Jan,
    /// February 2014 — dispute ongoing (resolved in the last week).
    Feb,
    /// March 2014 — resolved.
    Mar,
    /// April 2014 — resolved.
    Apr,
}

impl Month {
    /// All four months.
    pub const ALL: [Month; 4] = [Month::Jan, Month::Feb, Month::Mar, Month::Apr];

    /// Was the Cogent dispute active?
    pub fn dispute_active(self) -> bool {
        matches!(self, Month::Jan | Month::Feb)
    }

    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Month::Jan => "Jan",
            Month::Feb => "Feb",
            Month::Mar => "Mar",
            Month::Apr => "Apr",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sampling_matches_catalog() {
        let mut rng = StdRng::seed_from_u64(1);
        for isp in AccessIsp::ALL {
            let catalog: Vec<u64> = isp.plan_catalog().iter().map(|&(m, _)| m).collect();
            for _ in 0..100 {
                let plan = isp.sample_plan(&mut rng);
                assert!(catalog.contains(&plan), "{plan} not in {catalog:?}");
            }
        }
    }

    #[test]
    fn plan_distribution_roughly_matches_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 10_000;
        let tens = (0..n)
            .filter(|_| AccessIsp::Comcast.sample_plan(&mut rng) == 10)
            .count();
        let frac = tens as f64 / n as f64;
        assert!((frac - 0.15).abs() < 0.02, "10 Mbps fraction {frac}");
    }

    #[test]
    fn dispute_structure() {
        assert!(AccessIsp::Comcast.affected_by_dispute());
        assert!(!AccessIsp::Cox.affected_by_dispute());
        assert!(TransitSite::CogentLax.is_cogent());
        assert!(!TransitSite::Level3Atl.is_cogent());
        assert!(Month::Jan.dispute_active());
        assert!(!Month::Mar.dispute_active());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AccessIsp::TimeWarner.name(), "TimeWarner");
        assert_eq!(TransitSite::CogentLga.name(), "Cogent (LGA)");
        assert_eq!(Month::Apr.name(), "Apr");
    }
}
