//! Property-based invariants of the simulator's core machinery.

use csig_netsim::{
    transmission_time, Agent, Ctx, FlowId, LinkConfig, NodeId, Packet, PacketSpec, QueueKind,
    SimDuration, Simulator, SinkAgent,
};
use csig_rng::cases;

/// Sends `n` background packets of `size` bytes to `dst` at start.
struct Blast {
    dst: NodeId,
    n: u32,
    size: u32,
}

impl Agent for Blast {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for _ in 0..self.n {
            ctx.send(PacketSpec::background(FlowId(1), self.dst, self.size));
        }
    }
    fn on_packet(&mut self, _: &mut Ctx, _: Packet) {}
    fn on_timer(&mut self, _: &mut Ctx, _: u64) {}
}

/// Queue byte accounting: queued_bytes equals the sum of admitted
/// minus released packet sizes and never exceeds capacity, under
/// arbitrary interleavings. (FIFO order is the link's; its tests
/// check it.)
#[test]
fn queue_accounting_invariant() {
    cases(256, "queue_accounting_invariant", |rng| {
        // Enqueue (a fair coin from the word's top bit) or release.
        let ops: Vec<(bool, u32)> = (0..rng.gen_range(1..200usize))
            .map(|_| (rng.gen::<u32>() >> 31 == 1, rng.gen_range(40..3000)))
            .collect();
        let capacity = rng.gen_range(3000u64..50_000);
        use csig_netsim::queue::{EnqueueResult, LinkQueue};
        let mut q = LinkQueue::new(QueueKind::DropTail, capacity);
        let mut expected: std::collections::VecDeque<u32> = Default::default();
        for (enq, size) in ops {
            if enq {
                match q.try_admit(size, rng) {
                    EnqueueResult::Queued => {
                        q.admit(size);
                        expected.push_back(size);
                    }
                    EnqueueResult::DroppedFull => {
                        // Must actually have been over capacity.
                        let queued: u64 = expected.iter().map(|&s| s as u64).sum();
                        assert!(queued + size as u64 > capacity);
                    }
                    EnqueueResult::DroppedEarly => unreachable!("drop-tail"),
                }
            } else if let Some(size) = expected.pop_front() {
                q.release(size);
            }
            let queued: u64 = expected.iter().map(|&s| s as u64).sum();
            assert_eq!(q.queued_bytes(), queued);
            assert!(q.queued_bytes() <= capacity);
        }
    });
}

/// Long-run link throughput never exceeds the shaped rate (plus one
/// burst), for any rate/size combination.
#[test]
fn token_bucket_honors_rate() {
    cases(256, "token_bucket_honors_rate", |rng| {
        let rate_mbps = rng.gen_range(1u64..200);
        let pkt_size = rng.gen_range(200u32..1500);
        let n_packets = rng.gen_range(50u32..300);
        let rate = rate_mbps * 1_000_000;
        let mut sim = Simulator::new(5);
        let src = sim.add_host(Box::new(Blast {
            dst: NodeId(1),
            n: n_packets,
            size: pkt_size,
        }));
        let dst = sim.add_host(Box::new(SinkAgent::default()));
        // Buffer big enough to hold everything: no drops.
        sim.add_link(
            src,
            dst,
            LinkConfig::new(rate, SimDuration::ZERO)
                .buffer_bytes(n_packets as u64 * pkt_size as u64 + 3000),
        );
        sim.add_link(dst, src, LinkConfig::new(rate, SimDuration::ZERO));
        sim.compute_routes();
        sim.run().expect_within_budget();
        let sink: &SinkAgent = sim.agent(dst).unwrap();
        assert_eq!(sink.packets, n_packets as u64, "packets lost");
        let bytes = n_packets as u64 * pkt_size as u64;
        // All bytes minus one initial burst must take at least their
        // serialization time at the shaped rate.
        let min_time = transmission_time(bytes.saturating_sub(5 * 1024), rate);
        assert!(
            sim.now().as_nanos() + 1 >= min_time.as_nanos(),
            "finished in {} < {min_time}",
            sim.now()
        );
    });
}

/// End-to-end conservation: over a lossless path, every packet sent
/// is delivered exactly once, regardless of topology depth.
#[test]
fn lossless_paths_conserve_packets() {
    cases(256, "lossless_paths_conserve_packets", |rng| {
        let hops = rng.gen_range(1usize..5);
        let n_packets = rng.gen_range(1u32..100);
        let rate_mbps = rng.gen_range(5u64..500);
        let mut sim = Simulator::new(9);
        let dst_id = NodeId(1 + hops as u32);
        let src = sim.add_host(Box::new(Blast {
            dst: dst_id,
            n: n_packets,
            size: 1000,
        }));
        let mut prev = src;
        for _ in 0..hops {
            let r = sim.add_router();
            sim.add_duplex_link(
                prev,
                r,
                LinkConfig::new(rate_mbps * 1_000_000, SimDuration::from_micros(100))
                    .buffer_bytes(1_000_000),
            );
            prev = r;
        }
        let dst = sim.add_host(Box::new(SinkAgent::default()));
        assert_eq!(dst, dst_id);
        sim.add_duplex_link(
            prev,
            dst,
            LinkConfig::new(rate_mbps * 1_000_000, SimDuration::from_micros(100))
                .buffer_bytes(1_000_000),
        );
        sim.compute_routes();
        sim.set_event_budget(10_000_000);
        sim.run().expect_within_budget();
        let sink: &SinkAgent = sim.agent(dst).unwrap();
        assert_eq!(sink.packets, n_packets as u64);
        assert_eq!(sink.bytes, n_packets as u64 * 1000);
    });
}
