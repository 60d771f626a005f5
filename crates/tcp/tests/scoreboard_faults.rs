//! Sender-scoreboard tests: bulk transfers through hostile paths.
//!
//! Each transfer runs with and without SACK through a [`FaultPlan`] on
//! the data direction, must enter fast recovery and take a
//! retransmission timeout, and must still deliver exactly the requested
//! bytes. Debug builds (`cargo test`) also check the scoreboard's
//! incremental RFC 6675 pipe against a full walk on every `pipe()` call
//! and the repair cursor on every hole search, so these transfers
//! exercise the SACK marks, retransmit marks, loss-boundary raises,
//! prefix retirements and RTO clears those counters follow.

use csig_netsim::{FaultPlan, GilbertElliott, LinkConfig, SimDuration, SimTime, Simulator};
use csig_tcp::{
    ClientBehavior, ConnStats, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent,
};

const SIZE: u64 = 1_500_000;

/// Download `SIZE` bytes over 10 Mbps / 40 ms RTT with a 30 ms buffer
/// (slow start overshoots it) and `plan` on the server → client link,
/// whose outage from 0.8 s to 1.3 s outlasts the RTO. Returns the
/// bytes the client received and the server's connection counters.
fn transfer(plan: FaultPlan, sack: bool, seed: u64) -> (u64, ConnStats) {
    let cfg = TcpConfig {
        sack,
        ..TcpConfig::default()
    };
    let mut sim = Simulator::new(seed);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        cfg.clone(),
        ServerSendPolicy::Fixed(SIZE),
    )));
    let client = sim.add_host(Box::new(TcpClientAgent::new(
        server,
        cfg,
        ClientBehavior::Once,
        0,
    )));
    let (data, _) = sim.add_duplex_link(
        server,
        client,
        LinkConfig::new(10_000_000, SimDuration::from_millis(20)).buffer_ms(30),
    );
    sim.compute_routes();
    let plan = plan.down_between(SimTime::from_millis(800), SimTime::from_millis(1300));
    sim.attach_fault_plan(data, plan);
    sim.set_event_budget(20_000_000);
    sim.run_until(SimTime::from_secs(120))
        .expect_within_budget();
    let received = sim
        .agent::<TcpClientAgent>(client)
        .expect("client agent")
        .total_bytes;
    let server = sim.agent::<TcpServerAgent>(server).expect("server agent");
    let stats = match server.completed.first() {
        Some((_, stats)) => stats.clone(),
        None => panic!("sack={sack}: connection never completed"),
    };
    (received, stats)
}

/// Run `plan` with SACK on and off and check the contract.
fn check(name: &str, plan: FaultPlan, seed: u64) {
    for sack in [true, false] {
        let (received, stats) = transfer(plan.clone(), sack, seed);
        let tag = format!("{name}, sack={sack}");
        assert_eq!(received, SIZE, "{tag}: wrong byte count delivered");
        assert_eq!(stats.bytes_acked, SIZE, "{tag}: wrong byte count acked");
        assert!(
            stats.fast_retransmits > 0,
            "{tag}: never entered fast recovery"
        );
        assert!(stats.timeouts > 0, "{tag}: never timed out");
    }
}

#[test]
fn gilbert_elliott_bursts_with_a_flap() {
    check(
        "gilbert-elliott",
        FaultPlan::new().gilbert_elliott(GilbertElliott::bursty(3.0, 0.03)),
        1,
    );
}

#[test]
fn reordering_with_a_flap() {
    check(
        "reorder",
        FaultPlan::new().reorder(0.03, SimDuration::from_millis(6)),
        2,
    );
}

#[test]
fn duplication_with_a_flap() {
    check("duplicate", FaultPlan::new().duplicate(0.03), 3);
}

#[test]
fn every_impairment_at_once() {
    check(
        "combined",
        FaultPlan::new()
            .gilbert_elliott(GilbertElliott::bursty(3.0, 0.005))
            .reorder(0.02, SimDuration::from_millis(4))
            .duplicate(0.02),
        4,
    );
}
