//! Event-loop hot-path benchmarks: the calendar-queue scheduler in
//! isolation, a packet blast through the link/event machinery with no
//! TCP, and two TCP transfer scenarios. The campaign-level benchmark
//! is `perfbench/` (see `perfbench/README.md`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use csig_netsim::{
    EventKind, EventQueue, FlowId, LinkConfig, NodeId, SimDuration, SimTime, Simulator, SinkAgent,
};
use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Scheduler push/pop mix: a classic hold-model workload. Keeps ~1k
/// events pending and alternates pop-one/push-one with short-horizon
/// offsets (the packet-delivery regime), salted with same-tick ties
/// and occasional far-future events that exercise the overflow tier.
fn scheduler_hold(ops: u64, seed: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut rng = StdRng::seed_from_u64(seed);
    // Pre-fill.
    let mut now = SimTime::ZERO;
    for i in 0..1024u64 {
        q.push(
            now + SimDuration::from_nanos(rng.gen_range(0..2_000_000)),
            EventKind::Start(NodeId(i as u32)),
        );
    }
    let mut popped = 0u64;
    for _ in 0..ops {
        if let Some(e) = q.pop() {
            now = e.time;
            popped += 1;
        }
        let offset = match rng.gen_range(0..100u32) {
            // Same-tick tie: lands in the bucket being drained.
            0..=4 => 0,
            // Far future: beyond the wheel window, via the overflow heap.
            5..=6 => rng.gen_range(400_000_000..2_000_000_000),
            // Short horizon: the service/delivery regime.
            _ => rng.gen_range(1..2_000_000),
        };
        q.push(
            now + SimDuration::from_nanos(offset),
            EventKind::Start(NodeId(0)),
        );
    }
    popped
}

fn lean_tcp() -> TcpConfig {
    TcpConfig {
        record_samples: false,
        ..TcpConfig::default()
    }
}

/// One 4 MB transfer over a 50 Mbps / 10 ms duplex.
fn single_flow(seed: u64) -> u64 {
    let mut sim = Simulator::new(seed);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        lean_tcp(),
        ServerSendPolicy::Fixed(4_000_000),
    )));
    let client = sim.add_host(Box::new(TcpClientAgent::new(
        server,
        lean_tcp(),
        ClientBehavior::Once,
        1,
    )));
    sim.add_duplex_link(
        server,
        client,
        LinkConfig::new(50_000_000, SimDuration::from_millis(10)).buffer_ms(50),
    );
    sim.compute_routes();
    sim.set_event_budget(50_000_000);
    sim.run().expect_within_budget();
    sim.events_processed()
}

/// Pure link/event machinery: a CBR-ish blast through a router.
fn packet_blast(seed: u64) -> u64 {
    use csig_testbed::CbrAgent;
    let mut sim = Simulator::new(seed);
    let sink = sim.add_host(Box::new(SinkAgent::default()));
    let src = sim.add_host(Box::new(CbrAgent::new(
        sink,
        FlowId(1),
        100_000_000,
        SimTime::ZERO,
        SimTime::from_millis(500),
    )));
    let r = sim.add_router();
    sim.add_duplex_link(
        src,
        r,
        LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
    );
    sim.add_duplex_link(
        r,
        sink,
        LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
    );
    sim.compute_routes();
    sim.run().expect_within_budget();
    sim.events_processed()
}

/// 32 clients fetching 1 MB each through a shared 100 Mbps bottleneck.
fn contended_32(seed: u64) -> u64 {
    let mut sim = Simulator::new(seed);
    let mut server_agent = TcpServerAgent::new(lean_tcp(), ServerSendPolicy::Fixed(1_000_000));
    server_agent.keep_completed = false;
    let server = sim.add_host(Box::new(server_agent));
    let r1 = sim.add_router();
    let r2 = sim.add_router();
    sim.add_duplex_link(
        server,
        r1,
        LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
    );
    sim.add_duplex_link(
        r1,
        r2,
        LinkConfig::new(100_000_000, SimDuration::from_millis(10)).buffer_ms(50),
    );
    for i in 0..32u32 {
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            lean_tcp(),
            ClientBehavior::Once,
            i + 1,
        )));
        sim.add_duplex_link(
            r2,
            client,
            LinkConfig::new(1_000_000_000, SimDuration::from_millis(1)),
        );
    }
    sim.compute_routes();
    sim.set_event_budget(200_000_000);
    sim.run().expect_within_budget();
    sim.events_processed()
}

fn bench_event_loop(c: &mut Criterion) {
    const HOLD_OPS: u64 = 200_000;
    let blast_events = packet_blast(1);
    let single_events = single_flow(1);
    let contended_events = contended_32(1);

    let mut g = c.benchmark_group("event_loop");
    g.throughput(Throughput::Elements(HOLD_OPS));
    g.bench_function("scheduler_hold_mix", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(scheduler_hold(HOLD_OPS, seed))
        })
    });
    g.throughput(Throughput::Elements(single_events));
    g.bench_function("single_flow_4mb", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(single_flow(seed))
        })
    });
    g.throughput(Throughput::Elements(blast_events));
    g.bench_function("packet_blast", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(packet_blast(seed))
        })
    });
    g.sample_size(10);
    g.throughput(Throughput::Elements(contended_events));
    g.bench_function("contended_bottleneck_32", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(contended_32(seed))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_loop
}
criterion_main!(benches);
