//! Analytic oracles for the link model: the buffer dynamics the paper's
//! signature rests on, checked against closed-form expectations rather
//! than against earlier outputs of the simulator.
//!
//! **Sojourn of a saturated drop-tail queue.** A sender offers
//! `S`-byte packets at twice the link rate `R` into a buffer of
//! capacity `C = n·S`. Let `tx = 8S/R`. Once the buffer is full, a
//! packet is admitted only when the previous admission's overflow has
//! been cleared by one departure, so it finds `n − 1` packets (or
//! `n − 2`, when an arrival and a departure coincide) waiting ahead of
//! it. Its own serialization starts when those have been sent and the
//! packet on the wire has finished, which takes between `0` and `tx`.
//! Its sojourn (admission to arrival, minus propagation) is therefore
//! `(k + 1)·tx + w` with `k ∈ {n − 2, n − 1}` and `w ∈ [0, tx]`:
//! between `C/R − tx` and `C/R + tx`. So the sojourn is the configured
//! buffer depth `C/R` (the paper's "100 ms buffer") within one
//! serialization time. Figure 1's max − min RTT of a self-induced flow
//! (101.4 ms for a 100 ms buffer) also includes the ACK path and the
//! min-RTT sample's own serialization; this oracle measures the queue
//! alone.
//!
//! **Long-run rate of a shaped link.** A backlogged token-bucket link
//! with burst `b` and physical rate `P ≥ R` first drains its burst at
//! `P`, then sends each packet as soon as `S` bytes of credit have
//! accrued. After the burst, the bytes sent between any two departures
//! differ from `R·Δt/8` by less than one packet.
//!
//! **Slow start through a real link.** The receiver ACKs every
//! segment, so a NewReno sender grows its window by one MSS per new
//! ACK. When the ACK for a segment sent at `t − r` returns at `t`,
//! every segment that was in
//! flight at `t − r` (the whole window `W`) has been acknowledged, so
//! `cwnd(t) = 2·W` up to the ACK that is being processed at each end:
//! two segments. That holds while the bottleneck queue grows, because
//! `r` is the flow's measured RTT, queueing included, and it must hold
//! until the first loss.

use csig_netsim::{
    transmission_time, Agent, Ctx, FlowId, LinkConfig, NodeId, Packet, PacketSpec, SimDuration,
    SimTime, Simulator, TimerToken, DEFAULT_MSS,
};
use csig_obs::TraceBuffer;
use csig_rng::cases;
use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};

const SIZE: u32 = 1500;

/// Sends `count` packets of `SIZE` bytes to `dst`, one every `gap`
/// (all at once when `gap` is zero).
struct Sender {
    dst: NodeId,
    count: u32,
    gap: SimDuration,
    sent: u32,
}

impl Agent for Sender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_packet(&mut self, _: &mut Ctx, _: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx, _: TimerToken) {
        while self.sent < self.count {
            ctx.send(PacketSpec::background(FlowId(1), self.dst, SIZE));
            self.sent += 1;
            if !self.gap.is_zero() {
                ctx.set_timer(self.gap, 0);
                return;
            }
        }
    }
}

/// Records each arriving packet's `(send instant, arrival instant)`.
#[derive(Default)]
struct Recorder {
    seen: Vec<(SimTime, SimTime)>,
}

impl Agent for Recorder {
    fn on_start(&mut self, _: &mut Ctx) {}
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        self.seen.push((pkt.sent_at, ctx.now()));
    }
    fn on_timer(&mut self, _: &mut Ctx, _: TimerToken) {}
}

/// Push `count` packets through one link `cfg`; return what arrived.
fn send_through(cfg: LinkConfig, count: u32, gap: SimDuration) -> Vec<(SimTime, SimTime)> {
    let mut sim = Simulator::new(1);
    let src = sim.add_host(Box::new(Sender {
        dst: NodeId(1),
        count,
        gap,
        sent: 0,
    }));
    let dst = sim.add_host(Box::<Recorder>::default());
    sim.add_link(src, dst, cfg);
    sim.compute_routes();
    assert_eq!(sim.run(), csig_netsim::StopReason::Drained);
    let rec: &Recorder = sim.agent(dst).expect("recorder");
    rec.seen.clone()
}

#[test]
fn saturated_droptail_sojourn_is_the_buffer_depth() {
    cases(
        256,
        "saturated_droptail_sojourn_is_the_buffer_depth",
        |rng| {
            let rate_mbps = rng.gen_range(1u64..100);
            let n = rng.gen_range(4u64..120);
            let rate = rate_mbps * 1_000_000;
            let prop = SimDuration::from_millis(3);
            let tx = transmission_time(SIZE as u64, rate);
            let depth = transmission_time(n * SIZE as u64, rate);
            let cfg = LinkConfig::new(rate, prop).buffer_bytes(n * SIZE as u64);
            let offered = (4 * n + 40) as u32;
            let seen = send_through(cfg, offered, tx / 2);
            assert!(
                (seen.len() as u64) < offered as u64,
                "the buffer never overflowed"
            );
            // Skip the fill-up: the first 2n + 4 arrivals found a partly
            // empty buffer.
            for &(sent, arrived) in &seen[(2 * n + 4) as usize..] {
                let sojourn = arrived.saturating_since(sent) - prop;
                assert!(
                    sojourn + tx >= depth && sojourn <= depth + tx,
                    "sojourn {sojourn} vs buffer depth {depth} (tx {tx})"
                );
            }
        },
    );
}

#[test]
fn shaped_link_departs_at_its_rate_within_one_packet() {
    cases(
        256,
        "shaped_link_departs_at_its_rate_within_one_packet",
        |rng| {
            let rate_mbps = rng.gen_range(1u64..200);
            let phy_mult = rng.gen_range(1u64..10);
            let burst = rng.gen_range(1500u64..20_000);
            let count = rng.gen_range(100u32..300);
            let rate = rate_mbps * 1_000_000;
            let phy = rate * phy_mult;
            let cfg = LinkConfig::new(rate, SimDuration::ZERO)
                .phy_rate(phy)
                .burst(burst)
                .buffer_bytes(count as u64 * SIZE as u64);
            let seen = send_through(cfg, count, SimDuration::ZERO);
            assert_eq!(seen.len(), count as usize);
            // Every packet has the same size, so arrival differences are
            // departure differences. The burst (at most 2b/S packets at
            // P ≥ 2R) is spent within the first half.
            let tx = transmission_time(SIZE as u64, rate).as_nanos() as f64;
            let half = count as usize / 2;
            for i in half..seen.len() {
                for j in i + 1..seen.len() {
                    let elapsed = seen[j].1.saturating_since(seen[i].1).as_nanos() as f64;
                    let fluid = (j - i) as f64 * tx;
                    assert!(
                        (elapsed - fluid).abs() <= tx,
                        "packets {i}..{j}: {elapsed} ns elapsed, {fluid} ns at the shaped rate"
                    );
                }
            }
        },
    );
}

#[test]
fn slow_start_doubles_cwnd_per_rtt_until_the_first_loss() {
    let cfg = TcpConfig {
        record_samples: true,
        ..TcpConfig::default()
    };
    let mss = DEFAULT_MSS as u64;
    let mut sim = Simulator::new(3);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        cfg.clone(),
        ServerSendPolicy::Unbounded,
    )));
    let client = sim.add_host(Box::new(TcpClientAgent::new(
        server,
        cfg,
        ClientBehavior::Once,
        0,
    )));
    // 20 Mbps, 40 ms RTT, 100 ms buffer: the window doubles from 10
    // segments past the 69-segment BDP and keeps doubling while the
    // queue fills, until the buffer overflows.
    let (data, _) = sim.add_duplex_link(
        server,
        client,
        LinkConfig::new(20_000_000, SimDuration::from_millis(20)).buffer_ms(100),
    );
    sim.compute_routes();
    let trace = TraceBuffer::new();
    sim.attach_trace_buffer(trace.clone());
    assert_ne!(
        sim.run_until(SimTime::from_secs(5)),
        csig_netsim::StopReason::EventBudget
    );
    assert_eq!(trace.dropped(), 0, "the ring evicted events");
    assert!(
        trace.snapshot().iter().any(|e| {
            e.kind == "drop"
                && e.fields.contains(&("link", u64::from(data.0).into()))
                && e.fields.contains(&("reason", "full".into()))
        }),
        "slow start never overflowed the buffer"
    );
    let stats = &sim
        .agent::<TcpServerAgent>(server)
        .and_then(|s| s.connection(FlowId(0)))
        .expect("live connection")
        .stats;
    let first_retx = stats.first_retransmit_at.expect("a loss was repaired");
    let cwnd_at = |t: SimTime| {
        let i = stats.cwnd_samples.partition_point(|&(at, _)| at <= t);
        stats.cwnd_samples[..i].last().map(|&(_, w)| w)
    };
    let mut checked = 0;
    let mut peak = 0;
    for &(at, rtt) in &stats.rtt_samples {
        // Compare only while every ACK in the round is new data: the
        // round that ends at the first retransmission already carries
        // the duplicate ACKs of the first loss.
        if at + rtt > first_retx {
            break;
        }
        let (Some(before), Some(after)) = (cwnd_at(at - rtt), cwnd_at(at)) else {
            continue;
        };
        assert!(
            after.abs_diff(2 * before) <= 2 * mss,
            "at {at}: cwnd {after} one RTT after {before}"
        );
        checked += 1;
        peak = peak.max(after);
    }
    assert!(checked > 100, "only {checked} rounds compared");
    assert!(
        peak > 4 * 69 * mss,
        "window peaked at {peak} bytes before the first loss"
    );
}
