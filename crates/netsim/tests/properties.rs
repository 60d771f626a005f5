//! Property-based invariants of the simulator's core machinery.

use csig_netsim::{
    transmission_time, FlowId, LinkConfig, NodeId, Packet, QueueKind, SimDuration, Simulator,
    SinkAgent,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Queue byte accounting: queued_bytes equals the sum of admitted
    /// minus released packet sizes and never exceeds capacity, under
    /// arbitrary interleavings. (FIFO order is the link's; its tests
    /// check it.)
    #[test]
    fn queue_accounting_invariant(
        ops in proptest::collection::vec((any::<bool>(), 40u32..3000), 1..200),
        capacity in 3000u64..50_000,
    ) {
        use csig_netsim::queue::{EnqueueResult, LinkQueue};
        let mut q = LinkQueue::new(QueueKind::DropTail, capacity);
        let mut rng = StdRng::seed_from_u64(1);
        let mut expected: std::collections::VecDeque<u32> = Default::default();
        for (enq, size) in ops {
            if enq {
                match q.try_admit(size, &mut rng) {
                    EnqueueResult::Queued => {
                        q.admit(size);
                        expected.push_back(size);
                    }
                    EnqueueResult::DroppedFull => {
                        // Must actually have been over capacity.
                        let queued: u64 = expected.iter().map(|&s| s as u64).sum();
                        prop_assert!(queued + size as u64 > capacity);
                    }
                    EnqueueResult::DroppedEarly => unreachable!("drop-tail"),
                }
            } else if let Some(size) = expected.pop_front() {
                q.release(size);
            }
            let queued: u64 = expected.iter().map(|&s| s as u64).sum();
            prop_assert_eq!(q.queued_bytes(), queued);
            prop_assert!(q.queued_bytes() <= capacity);
        }
    }

    /// Long-run link throughput never exceeds the shaped rate (plus one
    /// burst), for any rate/size combination.
    #[test]
    fn token_bucket_honors_rate(
        rate_mbps in 1u64..200,
        pkt_size in 200u32..1500,
        n_packets in 50u32..300,
    ) {
        struct Blast {
            dst: NodeId,
            n: u32,
            size: u32,
        }
        impl csig_netsim::Agent for Blast {
            fn on_start(&mut self, ctx: &mut csig_netsim::Ctx) {
                for _ in 0..self.n {
                    ctx.send(csig_netsim::PacketSpec::background(FlowId(1), self.dst, self.size));
                }
            }
            fn on_packet(&mut self, _: &mut csig_netsim::Ctx, _: Packet) {}
            fn on_timer(&mut self, _: &mut csig_netsim::Ctx, _: u64) {}
        }
        let rate = rate_mbps * 1_000_000;
        let mut sim = Simulator::new(5);
        let src = sim.add_host(Box::new(Blast { dst: NodeId(1), n: n_packets, size: pkt_size }));
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
        prop_assert_eq!(sink.packets, n_packets as u64, "packets lost");
        let bytes = n_packets as u64 * pkt_size as u64;
        // All bytes minus one initial burst must take at least their
        // serialization time at the shaped rate.
        let min_time = transmission_time(bytes.saturating_sub(5 * 1024), rate);
        prop_assert!(
            sim.now().as_nanos() + 1 >= min_time.as_nanos(),
            "finished in {} < {}",
            sim.now(),
            min_time
        );
    }

    /// End-to-end conservation: over a lossless path, every packet sent
    /// is delivered exactly once, regardless of topology depth.
    #[test]
    fn lossless_paths_conserve_packets(
        hops in 1usize..5,
        n_packets in 1u32..100,
        rate_mbps in 5u64..500,
    ) {
        struct Blast {
            dst: NodeId,
            n: u32,
        }
        impl csig_netsim::Agent for Blast {
            fn on_start(&mut self, ctx: &mut csig_netsim::Ctx) {
                for _ in 0..self.n {
                    ctx.send(csig_netsim::PacketSpec::background(FlowId(1), self.dst, 1000));
                }
            }
            fn on_packet(&mut self, _: &mut csig_netsim::Ctx, _: Packet) {}
            fn on_timer(&mut self, _: &mut csig_netsim::Ctx, _: u64) {}
        }
        let mut sim = Simulator::new(9);
        let dst_id = NodeId(1 + hops as u32);
        let src = sim.add_host(Box::new(Blast { dst: dst_id, n: n_packets }));
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
        prop_assert_eq!(sink.packets, n_packets as u64);
        prop_assert_eq!(sink.bytes, n_packets as u64 * 1000);
    }
}
