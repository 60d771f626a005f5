//! Property-based tests of the TCP state machine: data integrity and
//! liveness under randomized path adversity.

use csig_netsim::{LinkConfig, SimDuration, SimTime, Simulator, StopReason};
use csig_rng::cases;
use csig_tcp::{
    CcKind, ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent,
};

/// Build and run a single transfer over one configurable duplex link.
#[allow(clippy::too_many_arguments)]
fn transfer(
    size: u64,
    rate_mbps: u64,
    delay_ms: u64,
    buffer_ms: u64,
    loss: f64,
    jitter_ms: u64,
    cc: CcKind,
    seed: u64,
) -> (u64, csig_tcp::ConnStats, StopReason) {
    let cfg = TcpConfig {
        cc,
        ..TcpConfig::default()
    };
    let mut sim = Simulator::new(seed);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        cfg.clone(),
        ServerSendPolicy::Fixed(size),
    )));
    let client = sim.add_host(Box::new(TcpClientAgent::new(
        server,
        cfg,
        ClientBehavior::Once,
        42,
    )));
    sim.add_duplex_link(
        server,
        client,
        LinkConfig::new(rate_mbps * 1_000_000, SimDuration::from_millis(delay_ms))
            .buffer_ms(buffer_ms)
            .loss(loss)
            .jitter(SimDuration::from_millis(jitter_ms)),
    );
    sim.compute_routes();
    sim.set_event_budget(100_000_000);
    let stop = sim.run_until(SimTime::from_secs(120));
    let received = sim
        .agent::<TcpClientAgent>(client)
        .expect("client agent")
        .total_bytes;
    let stats = sim
        .agent::<TcpServerAgent>(server)
        .expect("server agent")
        .completed
        .first()
        .map(|(_, s)| s.clone())
        .unwrap_or_default();
    (received, stats, stop)
}

/// Every transfer over a lossy, jittery, buffer-constrained path
/// completes with exactly the right byte count — TCP's contract.
#[test]
fn prop_transfers_are_reliable() {
    cases(24, "prop_transfers_are_reliable", |rng| {
        let size = rng.gen_range(10_000u64..600_000);
        let rate_mbps = rng.gen_range(2u64..60);
        let delay_ms = rng.gen_range(1u64..60);
        let buffer_ms = rng.gen_range(10u64..150);
        let loss_pm = rng.gen_range(0u32..30); // 0–3 % loss
        let jitter_ms = rng.gen_range(0u64..3);
        let seed = rng.gen_range(0u64..10_000);
        let (received, stats, stop) = transfer(
            size,
            rate_mbps,
            delay_ms,
            buffer_ms,
            loss_pm as f64 / 1000.0,
            jitter_ms,
            CcKind::NewReno,
            seed,
        );
        assert_eq!(stop, StopReason::Drained, "did not finish");
        assert_eq!(received, size, "byte count mismatch");
        assert_eq!(stats.bytes_acked, size);
        // Liveness bound: finished within the 120 s horizon already
        // implied by Drained; also sanity-check the counters.
        assert!(stats.segments_sent >= size / 1448);
    });
}

/// CUBIC obeys the same contract.
#[test]
fn prop_cubic_transfers_are_reliable() {
    cases(24, "prop_cubic_transfers_are_reliable", |rng| {
        let size = rng.gen_range(10_000u64..300_000);
        let loss_pm = rng.gen_range(0u32..20);
        let seed = rng.gen_range(0u64..1000);
        let (received, _, stop) = transfer(
            size,
            20,
            15,
            60,
            loss_pm as f64 / 1000.0,
            1,
            CcKind::Cubic,
            seed,
        );
        assert_eq!(stop, StopReason::Drained);
        assert_eq!(received, size);
    });
}

/// The connection's own Karn-filtered samples never under-run the
/// path's physical floor (2 × one-way delay).
#[test]
fn prop_rtt_samples_respect_physics() {
    cases(24, "prop_rtt_samples_respect_physics", |rng| {
        let delay_ms = rng.gen_range(2u64..50);
        let seed = rng.gen_range(0u64..500);
        let (_, stats, stop) = transfer(200_000, 20, delay_ms, 80, 0.0, 0, CcKind::NewReno, seed);
        assert_eq!(stop, StopReason::Drained);
        let floor = 2.0 * delay_ms as f64;
        for (_, rtt) in &stats.rtt_samples {
            assert!(
                rtt.as_millis_f64() >= floor - 0.001,
                "sample {} below physical floor {}",
                rtt.as_millis_f64(),
                floor
            );
        }
    });
}

/// Three cases that once failed the two reliability properties above,
/// pinned so they re-run on every test pass: (size, rate Mbps, delay
/// ms, buffer ms, loss ‰, jitter ms, congestion control, seed).
#[test]
fn past_failures_stay_reliable() {
    let saved = [
        (59_369, 20, 15, 60, 6, 1, CcKind::Cubic, 555),
        (255_935, 30, 13, 10, 16, 1, CcKind::NewReno, 8906),
        (343_539, 10, 6, 42, 12, 0, CcKind::NewReno, 4223),
    ];
    for (size, rate_mbps, delay_ms, buffer_ms, loss_pm, jitter_ms, cc, seed) in saved {
        let (received, stats, stop) = transfer(
            size,
            rate_mbps,
            delay_ms,
            buffer_ms,
            loss_pm as f64 / 1000.0,
            jitter_ms,
            cc,
            seed,
        );
        assert_eq!(
            stop,
            StopReason::Drained,
            "{cc:?} seed {seed} did not finish"
        );
        assert_eq!(received, size, "{cc:?} seed {seed}: byte count mismatch");
        assert_eq!(stats.bytes_acked, size, "{cc:?} seed {seed}");
    }
}

/// Deterministic heavy-adversity regression: 5 % loss both ways plus
/// jitter. Not a property test because it is slow; three fixed seeds.
#[test]
fn survives_heavy_loss() {
    for seed in [1u64, 2, 3] {
        let (received, stats, stop) = transfer(100_000, 10, 20, 60, 0.05, 2, CcKind::NewReno, seed);
        assert_eq!(stop, StopReason::Drained, "seed {seed} did not finish");
        assert_eq!(received, 100_000, "seed {seed} lost bytes");
        assert!(
            stats.retransmits > 0,
            "seed {seed}: no retransmissions at 5% loss?"
        );
    }
}
