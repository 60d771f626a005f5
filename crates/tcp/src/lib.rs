//! # csig-tcp — packet-level TCP endpoint model
//!
//! TCP endpoints for the `csig-netsim` simulator: the protocol
//! machinery whose slow-start dynamics produce the congestion
//! signatures the paper classifies.
//!
//! * [`seq`] — wrapping 32-bit sequence arithmetic and 64-bit
//!   stream-offset unwrapping.
//! * [`rtt`] — RFC 6298 RTT estimation / RTO computation, with the
//!   SRTT/RTTVAR averages in integer nanoseconds (equal to the rounded
//!   `f64` averages for every value below 2⁵⁰ ns).
//! * [`cc`] — congestion control: NewReno, CUBIC, and a BBR
//!   approximation.
//! * [`connection`] — the endpoint state machine (handshake, NewReno
//!   recovery, RTO, reassembly, FIN close) with
//!   Web100-style counters.
//! * [`endpoint`] — ready-made server/client host agents (netperf-style
//!   streaming, object catalogs, repeated fetchers).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cc;
pub mod connection;
pub mod endpoint;
pub mod rtt;
pub mod seq;

pub use cc::{AckInfo, CcKind, CongestionControl};
pub use connection::{token_flow, ConnState, ConnStats, TcpConfig, TcpConnection};
pub use endpoint::{ClientBehavior, FetchRecord, ServerSendPolicy, TcpClientAgent, TcpServerAgent};
pub use rtt::RttEstimator;

#[cfg(test)]
mod integration_tests {
    //! End-to-end connection tests over small simulated networks.

    use super::*;
    use csig_netsim::{
        FlowId, LinkConfig, PacketKind, SimDuration, SimTime, Simulator, StopReason,
    };

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// One client downloads `size` bytes from a server over a duplex
    /// link; returns (simulator, client node, server node).
    fn transfer_setup(
        size: u64,
        cfg: TcpConfig,
        link: LinkConfig,
        seed: u64,
    ) -> (Simulator, csig_netsim::NodeId, csig_netsim::NodeId) {
        let mut sim = Simulator::new(seed);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            cfg.clone(),
            ServerSendPolicy::Fixed(size),
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            cfg,
            ClientBehavior::Once,
            1000,
        )));
        sim.add_duplex_link(server, client, link);
        sim.compute_routes();
        (sim, client, server)
    }

    #[test]
    fn small_transfer_completes() {
        let link = LinkConfig::new(10_000_000, ms(10));
        let (mut sim, client, _) = transfer_setup(50_000, TcpConfig::default(), link, 1);
        assert_eq!(sim.run(), StopReason::Drained);
        let c: &TcpClientAgent = sim.agent(client).unwrap();
        assert_eq!(c.total_bytes, 50_000);
        assert_eq!(c.fetches.len(), 1);
        assert!(c.fetches[0].finished.is_some());
    }

    #[test]
    fn large_transfer_through_small_buffer_retransmits_and_completes() {
        // 5 Mbps with a 20 ms buffer: slow start overshoots and drops.
        let link = LinkConfig::new(5_000_000, ms(20)).buffer_ms(20);
        let (mut sim, client, server) = transfer_setup(2_000_000, TcpConfig::default(), link, 2);
        sim.set_event_budget(50_000_000);
        assert_eq!(sim.run(), StopReason::Drained);
        let c: &TcpClientAgent = sim.agent(client).unwrap();
        assert_eq!(c.total_bytes, 2_000_000, "transfer incomplete");
        let s: &TcpServerAgent = sim.agent(server).unwrap();
        assert_eq!(s.completed.len(), 1);
        let stats = &s.completed[0].1;
        assert!(stats.retransmits > 0, "no losses on an overdriven buffer?");
        assert!(stats.first_retransmit_at.is_some());
        assert_eq!(stats.bytes_acked, 2_000_000);
    }

    #[test]
    fn transfer_survives_random_loss() {
        let link = LinkConfig::new(10_000_000, ms(15)).loss(0.01);
        let (mut sim, client, _) = transfer_setup(1_000_000, TcpConfig::default(), link, 3);
        sim.set_event_budget(50_000_000);
        assert_eq!(sim.run(), StopReason::Drained);
        let c: &TcpClientAgent = sim.agent(client).unwrap();
        assert_eq!(c.total_bytes, 1_000_000);
    }

    #[test]
    fn throughput_matches_bottleneck() {
        // 20 Mbps bottleneck, 20 ms RTT: a 5 MB transfer should take
        // roughly 5e6×8/20e6 = 2 s (plus slow start).
        let link = LinkConfig::new(20_000_000, ms(10)).buffer_ms(100);
        let (mut sim, client, _) = transfer_setup(5_000_000, TcpConfig::default(), link, 4);
        sim.set_event_budget(50_000_000);
        assert_eq!(sim.run(), StopReason::Drained);
        let c: &TcpClientAgent = sim.agent(client).unwrap();
        let done = c.fetches[0].finished.expect("finished");
        let secs = done.as_secs_f64();
        assert!(secs > 2.0, "faster than link capacity: {secs}s");
        assert!(secs < 4.0, "well below link capacity: {secs}s");
    }

    #[test]
    fn rtt_inflates_during_slow_start_on_idle_path() {
        // The core phenomenon: an idle bottleneck's buffer fills during
        // slow start, so in-stack RTT samples grow from ~40 ms towards
        // 40 ms + buffer depth (100 ms).
        let link = LinkConfig::new(20_000_000, ms(20)).buffer_ms(100);
        let (mut sim, _, server) = transfer_setup(6_000_000, TcpConfig::default(), link, 5);
        sim.set_event_budget(50_000_000);
        sim.run().expect_within_budget();
        let s: &TcpServerAgent = sim.agent(server).unwrap();
        let stats = &s.completed[0].1;
        let first_retx = stats.first_retransmit_at.expect("slow start ended in loss");
        let ss: Vec<_> = stats
            .rtt_samples
            .iter()
            .filter(|(t, _)| *t <= first_retx)
            .map(|(_, r)| r.as_millis_f64())
            .collect();
        assert!(ss.len() >= 10, "too few slow start samples: {}", ss.len());
        let min = ss.iter().cloned().fold(f64::MAX, f64::min);
        let max = ss.iter().cloned().fold(0.0, f64::max);
        assert!(min < 55.0, "baseline RTT inflated: {min}");
        assert!(max > 100.0, "buffer never filled: {max}");
    }

    #[test]
    fn handshake_syn_loss_is_retransmitted() {
        // 30% loss: the handshake will often lose a SYN; the connection
        // must still establish via RTO-driven SYN retransmission.
        let link = LinkConfig::new(10_000_000, ms(5)).loss(0.3);
        let (mut sim, client, _) = transfer_setup(10_000, TcpConfig::default(), link, 7);
        sim.set_event_budget(10_000_000);
        assert_eq!(sim.run(), StopReason::Drained);
        let c: &TcpClientAgent = sim.agent(client).unwrap();
        assert_eq!(c.total_bytes, 10_000);
    }

    #[test]
    fn repeat_client_fetches_multiple_objects() {
        let link = LinkConfig::new(50_000_000, ms(5));
        let mut sim = Simulator::new(11);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            TcpConfig::default(),
            ServerSendPolicy::Fixed(100_000),
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Repeat {
                mean_think: ms(20),
                until: SimTime::from_secs(3),
            },
            0,
        )));
        sim.add_duplex_link(server, client, link);
        sim.compute_routes();
        sim.set_event_budget(50_000_000);
        sim.run_until(SimTime::from_secs(5)).expect_within_budget();
        let c: &TcpClientAgent = sim.agent(client).unwrap();
        assert!(c.fetches.len() >= 5, "only {} fetches", c.fetches.len());
        assert!(c.total_bytes >= 5 * 100_000);
        // Distinct flow ids per fetch.
        let mut flows: Vec<u32> = c.fetches.iter().map(|f| f.flow.0).collect();
        flows.dedup();
        assert_eq!(flows.len(), c.fetches.len());
    }

    #[test]
    fn catalog_policy_samples_multiple_sizes() {
        let mut sim = Simulator::new(13);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            TcpConfig {
                record_samples: false,
                ..TcpConfig::default()
            },
            ServerSendPolicy::Catalog(vec![(10_000, 0.5), (50_000, 0.5)]),
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Repeat {
                mean_think: ms(5),
                until: SimTime::from_secs(2),
            },
            0,
        )));
        sim.add_duplex_link(server, client, LinkConfig::new(100_000_000, ms(2)));
        sim.compute_routes();
        sim.run_until(SimTime::from_secs(3)).expect_within_budget();
        let c: &TcpClientAgent = sim.agent(client).unwrap();
        let sizes: std::collections::HashSet<u64> = c
            .fetches
            .iter()
            .filter(|f| f.finished.is_some())
            .map(|f| f.bytes)
            .collect();
        assert!(
            sizes.contains(&10_000) && sizes.contains(&50_000),
            "{sizes:?}"
        );
    }

    #[test]
    fn unbounded_sender_is_congestion_limited() {
        let mut sim = Simulator::new(17);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            TcpConfig::default(),
            ServerSendPolicy::Unbounded,
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Once,
            0,
        )));
        sim.add_duplex_link(
            server,
            client,
            LinkConfig::new(10_000_000, ms(10)).buffer_ms(50),
        );
        sim.compute_routes();
        sim.set_event_budget(50_000_000);
        sim.run_until(SimTime::from_secs(3)).expect_within_budget();
        let s: &TcpServerAgent = sim.agent(server).unwrap();
        let conn = s.connection(FlowId(0)).expect("live connection");
        assert!(conn.is_established());
        let frac = conn.stats.congestion_limited_fraction();
        assert!(frac > 0.9, "congestion-limited fraction only {frac}");
        // ~10 Mbps for ~3 s ≈ 3.75 MB acked.
        assert!(conn.stats.bytes_acked > 2_000_000);
        assert!(conn.stats.bytes_acked < 5_000_000);
    }

    #[test]
    fn receiver_limited_flows_are_flagged_as_such() {
        // A tiny advertised window throttles the sender well below the
        // link rate; Web100-style accounting must attribute the time to
        // the receive window, which is how the M-Lab pipeline filters
        // such flows out (they carry no congestion signature).
        let mut sim = Simulator::new(71);
        let server_cfg = TcpConfig::default();
        let client_cfg = TcpConfig {
            recv_window: 8 * 1448, // 8 segments
            ..TcpConfig::default()
        };
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            server_cfg,
            ServerSendPolicy::Unbounded,
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            client_cfg,
            ClientBehavior::Once,
            0,
        )));
        sim.add_duplex_link(
            server,
            client,
            LinkConfig::new(100_000_000, ms(20)).buffer_ms(100),
        );
        sim.compute_routes();
        sim.set_event_budget(50_000_000);
        sim.run_until(SimTime::from_secs(3)).expect_within_budget();
        let s: &TcpServerAgent = sim.agent(server).unwrap();
        let conn = s.connection(FlowId(0)).expect("live");
        let stats = &conn.stats;
        let total: f64 = stats.limited.iter().map(|d| d.as_secs_f64()).sum();
        let rwnd_frac = stats.limited[1].as_secs_f64() / total;
        assert!(rwnd_frac > 0.9, "receiver-limited fraction {rwnd_frac}");
        assert!(stats.congestion_limited_fraction() < 0.1);
        // Throughput pinned at ~rwnd/RTT = 8×1448×8/0.04 ≈ 2.3 Mbps,
        // far below the 100 Mbps link.
        let mbps = stats.bytes_acked as f64 * 8.0 / 3.0 / 1e6;
        assert!(mbps < 5.0, "{mbps} Mbps is not receiver-limited");
    }

    #[test]
    fn cubic_and_bbr_complete_transfers() {
        for (kind, seed) in [(CcKind::Cubic, 31), (CcKind::BbrLite, 32)] {
            let cfg = TcpConfig {
                cc: kind,
                ..TcpConfig::default()
            };
            let link = LinkConfig::new(10_000_000, ms(15)).buffer_ms(60);
            let (mut sim, client, _) = transfer_setup(1_500_000, cfg, link, seed);
            sim.set_event_budget(50_000_000);
            let stop = sim.run_until(SimTime::from_secs(30));
            assert_eq!(stop, StopReason::Drained, "{kind:?} did not finish");
            let c: &TcpClientAgent = sim.agent(client).unwrap();
            assert_eq!(c.total_bytes, 1_500_000, "{kind:?} lost data");
        }
    }

    /// A client that swallows the first FIN-bearing segment it
    /// receives, so the sender's FIN goes unacknowledged until its RTO
    /// re-sends it.
    struct FinSwallower {
        inner: TcpClientAgent,
        fins_seen: u32,
        /// When the re-sent FIN arrived.
        refin_at: Option<SimTime>,
    }

    impl csig_netsim::Agent for FinSwallower {
        fn on_start(&mut self, ctx: &mut csig_netsim::Ctx) {
            self.inner.on_start(ctx);
        }

        fn on_packet(&mut self, ctx: &mut csig_netsim::Ctx, pkt: csig_netsim::Packet) {
            if matches!(&pkt.kind, PacketKind::Tcp(h) if h.flags.fin()) {
                self.fins_seen += 1;
                if self.fins_seen == 1 {
                    return;
                }
                self.refin_at.get_or_insert(ctx.now());
            }
            self.inner.on_packet(ctx, pkt);
        }

        fn on_timer(&mut self, ctx: &mut csig_netsim::Ctx, token: csig_netsim::TimerToken) {
            self.inner.on_timer(ctx, token);
        }
    }

    #[test]
    fn resent_bare_fin_yields_no_rtt_sample() {
        // 10 kB fits the initial window, so the server sends it all
        // before close() queues the FIN: the FIN goes out bare. Losing
        // it forces an RTO whose go-back-N re-sends only the FIN, and
        // Karn's rule says the ACK of that re-send is no RTT sample.
        let cfg = TcpConfig::default();
        let mut sim = Simulator::new(23);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            cfg.clone(),
            ServerSendPolicy::Fixed(10_000),
        )));
        let client = sim.add_host(Box::new(FinSwallower {
            inner: TcpClientAgent::new(server, cfg, ClientBehavior::Once, 0),
            fins_seen: 0,
            refin_at: None,
        }));
        sim.add_duplex_link(server, client, LinkConfig::new(10_000_000, ms(20)));
        sim.compute_routes();
        assert_eq!(sim.run(), StopReason::Drained);
        let c: &FinSwallower = sim.agent(client).unwrap();
        assert_eq!(c.inner.total_bytes, 10_000);
        let refin_at = c.refin_at.expect("the FIN was re-sent");
        let s: &TcpServerAgent = sim.agent(server).unwrap();
        let stats = &s.completed[0].1;
        assert_eq!(stats.timeouts, 1);
        // Seven data segments, the bare FIN and its re-send.
        assert_eq!(stats.segments_sent, 9);
        assert!(!stats.rtt_samples.is_empty());
        assert!(
            stats.rtt_samples.iter().all(|&(t, _)| t < refin_at),
            "sample taken from the re-sent FIN's ACK: {:?} (FIN re-sent at {refin_at:?})",
            stats.rtt_samples
        );
    }

    #[test]
    fn two_flows_share_a_bottleneck() {
        let mut sim = Simulator::new(41);
        let cfg = TcpConfig::default();
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            cfg.clone(),
            ServerSendPolicy::Fixed(1_000_000),
        )));
        let r = sim.add_router();
        let c1 = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            cfg.clone(),
            ClientBehavior::Once,
            0x10000,
        )));
        let c2 = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            cfg,
            ClientBehavior::Once,
            0x20000,
        )));
        sim.add_duplex_link(server, r, LinkConfig::new(10_000_000, ms(5)).buffer_ms(100));
        sim.add_duplex_link(r, c1, LinkConfig::new(100_000_000, ms(5)));
        sim.add_duplex_link(r, c2, LinkConfig::new(100_000_000, ms(5)));
        sim.compute_routes();
        sim.set_event_budget(50_000_000);
        assert_eq!(sim.run(), StopReason::Drained);
        for node in [c1, c2] {
            let c: &TcpClientAgent = sim.agent(node).unwrap();
            assert_eq!(c.total_bytes, 1_000_000);
        }
    }
}
