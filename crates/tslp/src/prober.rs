//! Time-Series Latency Probing (TSLP, Luckie et al., IMC 2014).
//!
//! TSLP sends periodic latency probes from a vantage point inside a
//! network to the *near* and *far* routers of an interdomain link. An
//! elevated far-side RTT with a flat near-side RTT indicates queueing
//! on the interdomain link itself. The paper uses TSLP to find the
//! occasionally congested Comcast↔TATA link behind its `TSLP2017`
//! dataset.

use crate::timeseries::LatencySeries;
use csig_netsim::{
    Agent, Ctx, FlowId, NodeId, Packet, PacketKind, PacketSpec, ProbeKind, SimDuration, SimTime,
    TimerToken,
};

/// A probing agent: every `interval` it sends one probe to each target
/// and records the replies' RTTs per target.
pub struct TslpProber {
    targets: Vec<NodeId>,
    interval: SimDuration,
    stop: SimTime,
    flow: FlowId,
    seq: u64,
    /// One latency series per target, in target order.
    pub series: Vec<LatencySeries>,
    /// Probes sent per target.
    pub sent: u64,
    /// Replies received across targets.
    pub received: u64,
}

impl TslpProber {
    /// A prober towards `targets` (conventionally `[near, far]`).
    pub fn new(targets: Vec<NodeId>, interval: SimDuration, stop: SimTime, flow: FlowId) -> Self {
        assert!(!targets.is_empty(), "need at least one target");
        assert!(!interval.is_zero(), "interval must be positive");
        let series = targets.iter().map(|_| LatencySeries::new()).collect();
        TslpProber {
            targets,
            interval,
            stop,
            flow,
            seq: 0,
            series,
            sent: 0,
            received: 0,
        }
    }

    /// The near-side series (first target).
    pub fn near(&self) -> &LatencySeries {
        &self.series[0]
    }

    /// The far-side series (second target), if configured.
    pub fn far(&self) -> Option<&LatencySeries> {
        self.series.get(1)
    }

    fn probe_round(&mut self, ctx: &mut Ctx) {
        for (i, &target) in self.targets.iter().enumerate() {
            // ident encodes the target index; the reply echoes it.
            let ident = (self.seq << 8) | i as u64;
            ctx.send(PacketSpec::probe(
                self.flow,
                target,
                ProbeKind::Request,
                ident,
            ));
            self.sent += 1;
        }
        self.seq += 1;
    }
}

impl Agent for TslpProber {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        if let PacketKind::Probe {
            kind: ProbeKind::Reply { sent_at },
            ident,
        } = pkt.kind
        {
            let target = (ident & 0xFF) as usize;
            if let Some(series) = self.series.get_mut(target) {
                let rtt = ctx.now().saturating_since(sent_at);
                series.push(sent_at, rtt);
                self.received += 1;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: TimerToken) {
        if ctx.now() > self.stop {
            return;
        }
        self.probe_round(ctx);
        ctx.set_timer(self.interval, 0);
    }

    fn name(&self) -> &'static str {
        "tslp-prober"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::{LinkConfig, Simulator};

    #[test]
    fn prober_measures_near_and_far() {
        let mut sim = Simulator::new(3);
        let vantage = sim.add_host(Box::new(TslpProber::new(
            vec![NodeId(1), NodeId(2)],
            SimDuration::from_millis(100),
            SimTime::from_secs(2),
            FlowId(50),
        )));
        let near = sim.add_router();
        let far = sim.add_router();
        sim.add_duplex_link(
            vantage,
            near,
            LinkConfig::new(100_000_000, SimDuration::from_millis(5)),
        );
        sim.add_duplex_link(
            near,
            far,
            LinkConfig::new(100_000_000, SimDuration::from_millis(10)),
        );
        sim.compute_routes();
        sim.run_until(SimTime::from_secs(3)).expect_within_budget();
        let p: &TslpProber = sim.agent(vantage).unwrap();
        assert!(p.sent >= 40, "sent {}", p.sent);
        assert_eq!(p.received, p.sent, "probe loss on a clean path");
        let near_rtt = p.near().median_ms().unwrap();
        let far_rtt = p.far().unwrap().median_ms().unwrap();
        assert!((near_rtt - 10.0).abs() < 1.0, "near {near_rtt}");
        assert!((far_rtt - 30.0).abs() < 1.0, "far {far_rtt}");
    }

    #[test]
    fn prober_stops_at_deadline() {
        let mut sim = Simulator::new(4);
        let vantage = sim.add_host(Box::new(TslpProber::new(
            vec![NodeId(1)],
            SimDuration::from_millis(10),
            SimTime::from_millis(100),
            FlowId(1),
        )));
        let r = sim.add_router();
        sim.add_duplex_link(
            vantage,
            r,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
        );
        sim.compute_routes();
        sim.run_until(SimTime::from_secs(1)).expect_within_budget();
        let p: &TslpProber = sim.agent(vantage).unwrap();
        // ~11 rounds (t = 0, 10, …, 100).
        assert!((10..=12).contains(&p.sent), "sent {}", p.sent);
    }
}
