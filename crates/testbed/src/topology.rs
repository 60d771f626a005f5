//! The Figure-2 testbed topology, built on the simulator.
//!
//! ```text
//! server1 ─┐
//! server2 ─┼─ r_net ──(Link3)── r1 ──(InterConnectLink)── r2 ──(AccessLink)── pi1
//! server3 ─┘                    │                          ├── pi2   (TGtrans)
//!            server4 ───────────┘                          └── cong  (TGcong)
//! ```
//!
//! * `AccessLink` (r2 → pi1): shaped to the grid rate over a 100 Mbps
//!   physical link (the Pi NIC), with the grid's loss, latency
//!   (± 2 ms jitter) and buffer.
//! * `InterConnectLink` (r1 ↔ r2): shaped to 950 Mbps over 1 Gbps
//!   physical, 50 ms buffer, no added latency/loss.
//! * `Link3` (r_net ↔ r1) and server access: 1 Gbps.
//! * Server one-way distances: server1 2 ms, server2 10 ms ("20 ms
//!   away"), server3 30 ms ("60 ms away"), server4 1 ms ("less than
//!   2 ms away", attached at r1 so its fetches cross the interconnect).

use crate::agents::MultiClientAgent;
use crate::config::TestbedConfig;
use csig_netsim::{FlowId, LinkConfig, LinkId, NodeId, SimDuration, SimTime, Simulator};
use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};

/// Flow id of the netperf test connection.
pub const TEST_FLOW: FlowId = FlowId(0);
/// Flow-id block base of the `TGtrans` clients.
pub const TGTRANS_BLOCK: u32 = 1 << 20;
/// Flow-id block base of the `TGcong` clients.
pub const TGCONG_BLOCK: u32 = 1 << 24;

/// Cross-traffic warm-up before the test starts (the paper's 2 s, in
/// both profiles).
const WARMUP: SimDuration = SimDuration::from_secs(2);
/// `InterConnectLink` buffer in ms (paper: 50).
const INTERCONNECT_BUFFER_MS: u64 = 50;

/// The constructed testbed: the simulator plus the handles experiments
/// need.
pub struct Testbed {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// The netperf server (Server 1); analysis taps live here.
    pub server1: NodeId,
    /// The test client (Pi 1).
    pub pi1: NodeId,
    /// The downstream interconnect link (r1 → r2), for stats.
    pub interconnect_down: LinkId,
    /// The downstream access link (r2 → pi1), for stats.
    pub access_down: LinkId,
    /// When the netperf test starts.
    pub test_start: SimTime,
    /// When the netperf test ends.
    pub test_end: SimTime,
}

/// Build the testbed for one configuration.
pub fn build(cfg: &TestbedConfig) -> Testbed {
    let mut sim = Simulator::new(cfg.seed);
    let ms = SimDuration::from_millis;
    let test_start = SimTime::ZERO + WARMUP;
    let test_end = test_start + cfg.profile.test_duration();

    // Server 1 is the measurement server: like an M-Lab NDT host it
    // keeps Web100-style kernel statistics (per-ACK RTT samples) for
    // the flows it serves, so experiments can compare capture-based and
    // kernel-based classification. No other endpoint records: not the
    // test client, and not the cross traffic, which runs the default
    // stack whatever the test flow's.
    let test_tcp = |record_samples| TcpConfig {
        cc: cfg.cc,
        sack: cfg.sack,
        record_samples,
        ..TcpConfig::default()
    };
    let lean_tcp = TcpConfig {
        record_samples: false,
        ..TcpConfig::default()
    };

    // --- hosts & routers --------------------------------------------------
    let mut server1_agent = TcpServerAgent::new(test_tcp(true), ServerSendPolicy::Unbounded);
    server1_agent.keep_completed = false;
    let server1 = sim.add_host(Box::new(server1_agent));

    let r_net = sim.add_router();
    let r1 = sim.add_router();
    let r2 = sim.add_router();

    // Pi 1: the test client, plus optional access-link cross traffic,
    // all behind the shaped AccessLink.
    let mut pi1_children = vec![TcpClientAgent::new(
        server1,
        test_tcp(false),
        ClientBehavior::Once,
        MultiClientAgent::child_flow_base(0, 0),
    )
    .with_start_delay(WARMUP)];
    // Access-link cross traffic (§3.3 multiplexing): clients in blocks
    // 1..=5 of base 0 (at most 15 fit below the TGtrans block). They
    // start *with* the test: flows ramping together all contribute to
    // filling the shared access buffer, which is the sharing regime the
    // paper describes ("our test flow is able to obtain significant
    // buffer occupancy"). Starting them earlier would present the test
    // flow with an already-full buffer — the external signature.
    assert!(cfg.access_cross_flows < 16, "too many access cross flows");
    for i in 0..cfg.access_cross_flows {
        pi1_children.push(
            TcpClientAgent::new(
                server1,
                lean_tcp.clone(),
                ClientBehavior::Repeat {
                    mean_think: ms(1),
                    until: test_end,
                },
                MultiClientAgent::child_flow_base(0, (i + 1) as usize),
            )
            .with_start_delay(WARMUP),
        );
    }
    let pi1 = sim.add_host(Box::new(MultiClientAgent::new(0, pi1_children)));

    // Pi 2: TGtrans fetchers to servers 2 and 3 (the paper runs them
    // during all experiments).
    let server2 = sim.add_host(Box::new(catalog_server(lean_tcp.clone())));
    let server3 = sim.add_host(Box::new(catalog_server(lean_tcp.clone())));
    let pi2 = sim.add_host(Box::new(MultiClientAgent::new(
        TGTRANS_BLOCK,
        vec![
            TcpClientAgent::new(
                server2,
                lean_tcp.clone(),
                ClientBehavior::Repeat {
                    mean_think: ms(50),
                    until: test_end,
                },
                MultiClientAgent::child_flow_base(TGTRANS_BLOCK, 0),
            ),
            TcpClientAgent::new(
                server3,
                lean_tcp.clone(),
                ClientBehavior::Repeat {
                    mean_think: ms(50),
                    until: test_end,
                },
                MultiClientAgent::child_flow_base(TGTRANS_BLOCK, 1),
            ),
        ],
    )));

    // TGcong: bulk fetch loops from server 4, attached at r2.
    let mut server4_agent =
        TcpServerAgent::new(lean_tcp.clone(), ServerSendPolicy::Fixed(100_000_000));
    server4_agent.keep_completed = false;
    let server4 = sim.add_host(Box::new(server4_agent));
    let flows = cfg.tgcong_flows;
    let cong_children = (0..flows)
        .map(|i| {
            // Stagger starts across the first half of the warm-up so
            // the fetch loops desynchronize (simultaneous slow starts
            // would make the whole aggregate oscillate in lock-step,
            // which no real interconnect does).
            let stagger = WARMUP.mul_f64(0.5 * i as f64 / flows as f64);
            TcpClientAgent::new(
                server4,
                lean_tcp.clone(),
                ClientBehavior::Repeat {
                    mean_think: ms(1),
                    until: test_end,
                },
                MultiClientAgent::child_flow_base(TGCONG_BLOCK, i as usize),
            )
            .with_start_delay(stagger)
        })
        .collect();
    let cong = sim.add_host(Box::new(MultiClientAgent::new(TGCONG_BLOCK, cong_children)));

    // --- links -------------------------------------------------------------
    let gig = |delay_ms: u64| {
        LinkConfig::new(1_000_000_000, ms(delay_ms))
            .phy_rate(1_000_000_000)
            .buffer_ms(50)
    };
    sim.add_duplex_link(server1, r_net, gig(2));
    sim.add_duplex_link(server2, r_net, gig(10));
    sim.add_duplex_link(server3, r_net, gig(30));
    sim.add_duplex_link(server4, r1, gig(1));
    sim.add_duplex_link(r_net, r1, gig(0)); // Link3

    // InterConnectLink: shaped to the profile's rate (paper: 950 Mbps)
    // over 1 Gbps physical, 50 ms buffer, no added latency.
    let icl_bps = cfg.profile.interconnect_mbps() * 1_000_000;
    let icl = LinkConfig::new(icl_bps, ms(0))
        .phy_rate(icl_bps.max(1_000_000_000))
        .buffer_ms(INTERCONNECT_BUFFER_MS)
        .burst(10 * 1500);
    let interconnect_down = sim.add_link(r1, r2, icl.clone());
    sim.add_link(r2, r1, icl);

    // AccessLink: shaped grid rate over the 100 Mbps Pi NIC.
    let access_cfg = LinkConfig::new(cfg.access.rate_bps(), ms(cfg.access.latency_ms))
        .phy_rate(100_000_000.max(cfg.access.rate_bps()))
        .buffer_ms(cfg.access.buffer_ms)
        .loss(cfg.access.loss_pct / 100.0)
        .jitter(ms(2))
        .queue_kind(cfg.queue)
        .burst(5 * 1024);
    let access_down = sim.add_link(r2, pi1, access_cfg);
    if let Some(plan) = &cfg.access_fault {
        sim.attach_fault_plan(access_down, plan.clone());
    }
    // Upstream from Pi 1: plain 100 Mbps NIC (ACK path).
    sim.add_link(pi1, r2, LinkConfig::new(100_000_000, ms(1)).buffer_ms(20));

    sim.add_duplex_link(r2, pi2, LinkConfig::new(100_000_000, ms(1)).buffer_ms(20));
    sim.add_duplex_link(
        r2,
        cong,
        LinkConfig::new(10_000_000_000, ms(0)).buffer_ms(20),
    );

    sim.compute_routes();
    sim.set_event_budget(3_000_000_000);

    Testbed {
        sim,
        server1,
        pi1,
        interconnect_down,
        access_down,
        test_start,
        test_end,
    }
}

/// The `TGtrans` object server (catalog of 10 KB … 100 MB objects).
fn catalog_server(cfg: TcpConfig) -> TcpServerAgent {
    let mut s = TcpServerAgent::new(cfg, ServerSendPolicy::tgtrans_catalog());
    s.keep_completed = false;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccessParams, Profile};
    use csig_features::CongestionClass;

    #[test]
    fn builds_and_routes() {
        let cfg = Profile::Scaled.config(AccessParams::figure1(), 1);
        let tb = build(&cfg);
        // Route from server1 to pi1 exists and goes via r_net.
        assert!(tb.sim.route(tb.server1, tb.pi1).is_some());
        assert!(tb.sim.route(tb.pi1, tb.server1).is_some());
    }

    #[test]
    fn profile_sets_test_duration_and_interconnect_rate() {
        for (p, secs, mbps) in [(Profile::Paper, 10, 950), (Profile::Scaled, 4, 190)] {
            assert_eq!(
                (p.test_duration(), p.interconnect_mbps()),
                (SimDuration::from_secs(secs), mbps)
            );
            let tb = build(&p.config(AccessParams::figure1(), 1));
            assert_eq!(tb.test_end - tb.test_start, p.test_duration(), "{p:?}");
            assert_eq!(
                tb.sim.link(tb.interconnect_down).config().rate_bps,
                p.interconnect_mbps() * 1_000_000,
                "{p:?}"
            );
        }
    }

    #[test]
    fn no_tgcong_flows_builds_no_tgcong_client() {
        let cfg = Profile::Scaled.config(AccessParams::figure1(), 1);
        assert_eq!(cfg.tgcong_flows, 0);
        assert_eq!(cfg.intended_class(), CongestionClass::SelfInduced);
        // The TGcong host is the last node `build` adds.
        let tgcong_clients = |cfg: &TestbedConfig| {
            let tb = build(cfg);
            let cong: &MultiClientAgent = tb.sim.agent(NodeId(9)).unwrap();
            cong.clients().len()
        };
        assert_eq!(tgcong_clients(&cfg), 0);
        assert_eq!(tgcong_clients(&cfg.externally_congested()), 40);
    }

    #[test]
    fn access_fault_plan_attaches_and_fires() {
        use csig_netsim::FaultPlan;
        // Flap the access link for 500 ms in the middle of the test
        // window (test runs from 2 s warm-up to 6 s).
        let plan =
            FaultPlan::new().down_between(SimTime::from_millis(3_000), SimTime::from_millis(3_500));
        let cfg = Profile::Scaled
            .config(AccessParams::figure1(), 7)
            .with_access_fault(plan);
        let mut tb = build(&cfg);
        tb.sim.run_until(tb.test_end).expect_within_budget();
        let stats = &tb.sim.link(tb.access_down).stats;
        assert!(stats.dropped_down > 0, "flap dropped nothing: {stats:?}");
        assert!(!tb.sim.fault_log(tb.access_down).is_empty());
        // An empty plan is dropped by the builder: the config stays
        // byte-identical to a clean one.
        let clean = Profile::Scaled
            .config(AccessParams::figure1(), 7)
            .with_access_fault(FaultPlan::new());
        assert!(clean.access_fault.is_none());
    }

    #[test]
    fn only_server1_records_samples() {
        // `build` keeps per-ACK samples to Server 1, the measurement
        // server.
        let cfg = Profile::Scaled
            .config(AccessParams::figure1(), 3)
            .externally_congested();
        let mut tb = build(&cfg);
        tb.sim.run_until(tb.test_end).expect_within_budget();
        let sim = &tb.sim;
        let server1: &TcpServerAgent = sim.agent(tb.server1).unwrap();
        let test_flow = server1
            .connection(TEST_FLOW)
            .expect("test flow at Server 1");
        assert!(!test_flow.stats.rtt_samples.is_empty());
        assert!(!test_flow.stats.cwnd_samples.is_empty());
        let pi1: &MultiClientAgent = sim.agent(tb.pi1).unwrap();
        let client = pi1.clients()[0]
            .connection()
            .expect("test client connection");
        // The TGcong host is the last node `build` adds; its first
        // fetch is still running, and Server 4 is sending it data.
        let cong: &MultiClientAgent = sim.agent(NodeId(9)).unwrap();
        let fetch = cong.clients()[0].connection().expect("TGcong fetch");
        assert!(fetch.flow.0 >= TGCONG_BLOCK);
        let server4: &TcpServerAgent = sim.agent(fetch.peer).unwrap();
        let served = server4
            .connection(fetch.flow)
            .expect("TGcong flow at Server 4");
        assert!(served.stats.bytes_acked > 0);
        for conn in [client, fetch, served] {
            assert!(conn.stats.rtt_samples.is_empty(), "flow {}", conn.flow);
            assert!(conn.stats.cwnd_samples.is_empty(), "flow {}", conn.flow);
        }
    }

    #[test]
    fn access_link_resolves_buffer() {
        let cfg = Profile::Scaled.config(AccessParams::figure1(), 1);
        let tb = build(&cfg);
        let link = tb.sim.link(tb.access_down);
        // 20 Mbps × 100 ms = 250 kB.
        assert_eq!(link.buffer_capacity(), 250_000);
        assert_eq!(link.config().rate_bps, 20_000_000);
        assert_eq!(link.config().phy_rate_bps, 100_000_000);
    }
}
