//! Auxiliary host agents for the testbed: a composite agent hosting
//! several TCP clients on one node, and a constant-bit-rate background
//! source that congests a link with real packets.

use csig_netsim::{
    Agent, Ctx, FlowId, NodeId, Packet, PacketSpec, SimDuration, SimTime, TimerToken,
};
use csig_tcp::TcpClientAgent;

/// Hosts several [`TcpClientAgent`]s on a single node — the paper's
/// `TGcong` runs 100 concurrent `curl` processes on one box.
///
/// Children are distinguished by flow-id block: child `i` must be
/// constructed with `flow_base = block_base + (i << 16)`; packets and
/// timers are routed by `flow >> 16`.
pub struct MultiClientAgent {
    block_base: u32,
    clients: Vec<TcpClientAgent>,
}

impl MultiClientAgent {
    /// Wrap clients whose flow bases are `block_base + (i << 16)`.
    pub fn new(block_base: u32, clients: Vec<TcpClientAgent>) -> Self {
        assert!(block_base & 0xFFFF == 0, "block base must be 2^16-aligned");
        MultiClientAgent {
            block_base,
            clients,
        }
    }

    /// The flow base child `i` must use.
    pub fn child_flow_base(block_base: u32, i: usize) -> u32 {
        block_base + ((i as u32) << 16)
    }

    /// Access the child clients (e.g. to collect fetch records).
    pub fn clients(&self) -> &[TcpClientAgent] {
        &self.clients
    }

    fn child_of_flow(&mut self, flow: FlowId) -> Option<&mut TcpClientAgent> {
        let idx = (flow.0.wrapping_sub(self.block_base) >> 16) as usize;
        self.clients.get_mut(idx)
    }
}

impl Agent for MultiClientAgent {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for c in &mut self.clients {
            c.on_start(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let flow = pkt.flow;
        if let Some(c) = self.child_of_flow(flow) {
            c.on_packet(ctx, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        let flow = csig_tcp::token_flow(token);
        if let Some(c) = self.child_of_flow(flow) {
            c.on_timer(ctx, token);
        }
    }

    fn name(&self) -> &'static str {
        "multi-client"
    }
}

/// Constant-bit-rate background source: emits fixed-size opaque packets
/// towards `dst` at `rate_bps` between `start` and `stop`, pegging a
/// link's buffer at a fraction of the cost of many TCP flows (the TSLP
/// episode tests congest an interdomain link with it).
pub struct CbrAgent {
    dst: NodeId,
    flow: FlowId,
    rate_bps: u64,
    packet_size: u32,
    start: SimTime,
    stop: SimTime,
    /// Packets emitted (for tests).
    pub sent: u64,
}

impl CbrAgent {
    /// A CBR source with the given schedule.
    pub fn new(dst: NodeId, flow: FlowId, rate_bps: u64, start: SimTime, stop: SimTime) -> Self {
        assert!(rate_bps > 0, "CBR rate must be positive");
        CbrAgent {
            dst,
            flow,
            rate_bps,
            packet_size: 1500,
            start,
            stop,
            sent: 0,
        }
    }

    fn interval(&self) -> SimDuration {
        csig_netsim::transmission_time(self.packet_size as u64, self.rate_bps)
    }
}

impl Agent for CbrAgent {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let delay = self.start.saturating_since(ctx.now());
        ctx.set_timer(delay, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx, _token: TimerToken) {
        if ctx.now() > self.stop {
            return;
        }
        ctx.send(PacketSpec::background(
            self.flow,
            self.dst,
            self.packet_size,
        ));
        self.sent += 1;
        ctx.set_timer(self.interval(), 0);
    }

    fn name(&self) -> &'static str {
        "cbr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::{LinkConfig, SimDuration, Simulator, SinkAgent};
    use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpConfig, TcpServerAgent};

    #[test]
    fn cbr_emits_at_configured_rate() {
        let mut sim = Simulator::new(1);
        let src_node_placeholder = 0; // ids assigned in order below
        let _ = src_node_placeholder;
        let src = sim.add_host(Box::new(CbrAgent::new(
            csig_netsim::NodeId(1),
            FlowId(9),
            12_000_000, // 1500 B per ms
            SimTime::ZERO,
            SimTime::from_millis(100),
        )));
        let dst = sim.add_host(Box::new(SinkAgent::default()));
        sim.add_duplex_link(
            src,
            dst,
            LinkConfig::new(100_000_000, SimDuration::from_millis(1)),
        );
        sim.compute_routes();
        sim.run_until(SimTime::from_millis(200))
            .expect_within_budget();
        let sink: &SinkAgent = sim.agent(dst).unwrap();
        // 12 Mbps for 100 ms = 150 kB = 100 packets (±1 boundary).
        assert!(
            (99..=101).contains(&sink.packets),
            "got {} packets",
            sink.packets
        );
        let cbr: &CbrAgent = sim.agent(src).unwrap();
        assert_eq!(cbr.sent, sink.packets);
    }

    #[test]
    fn multi_client_children_fetch_independently() {
        let mut sim = Simulator::new(2);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            TcpConfig {
                record_samples: false,
                ..TcpConfig::default()
            },
            ServerSendPolicy::Fixed(50_000),
        )));
        let base = 0x10000u32 * 16; // 2^16-aligned
        let clients: Vec<TcpClientAgent> = (0..3)
            .map(|i| {
                TcpClientAgent::new(
                    server,
                    TcpConfig::default(),
                    ClientBehavior::Once,
                    MultiClientAgent::child_flow_base(base, i),
                )
            })
            .collect();
        let multi = sim.add_host(Box::new(MultiClientAgent::new(base, clients)));
        sim.add_duplex_link(
            server,
            multi,
            LinkConfig::new(50_000_000, SimDuration::from_millis(5)),
        );
        sim.compute_routes();
        sim.set_event_budget(10_000_000);
        sim.run().expect_within_budget();
        let m: &MultiClientAgent = sim.agent(multi).unwrap();
        for c in m.clients() {
            assert_eq!(c.total_bytes, 50_000);
        }
    }

    #[test]
    #[should_panic]
    fn unaligned_block_base_rejected() {
        let _ = MultiClientAgent::new(5, vec![]);
    }
}
