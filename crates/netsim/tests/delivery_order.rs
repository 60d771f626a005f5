//! Property test of packet delivery through the links' in-order arrival
//! queues. Random small topologies mix jitter, fault-plan loss,
//! reordering, duplication, flaps and link reconfigurations. Read off
//! the taps and the `sim` trace, every packet offered to a link must
//! arrive exactly once unless traced as dropped, plus once per traced
//! duplicate; each link must deliver its in-order packets in admission
//! order; no tap may see the clock run backwards; and the simulator's
//! packet ledger must close with the traced duplicates counted as
//! injected. Debug builds also check, on every pop, that the
//! scheduler's `(time, seq)` keys strictly increase.

use csig_netsim::{
    Agent, Capture, Ctx, Direction, FaultPlan, FlowId, GilbertElliott, LinkConfig, LinkId, NodeId,
    Packet, PacketSpec, SimDuration, SimTime, Simulator, SinkAgent, SinkHandle, StopReason,
    TimerToken,
};
use csig_obs::{FieldValue, MetricsRegistry, TraceBuffer, TraceEvent};
use csig_rng::{cases, StdRng};
use std::collections::{HashMap, HashSet};

/// Sends `ticks` bursts of `burst` packets to `dst`, one burst per `gap`.
struct Source {
    dst: NodeId,
    ticks: u32,
    burst: u32,
    size: u32,
    gap: SimDuration,
}

impl Agent for Source {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_packet(&mut self, _: &mut Ctx, _: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx, _: TimerToken) {
        if self.ticks > 0 {
            self.ticks -= 1;
            for _ in 0..self.burst {
                ctx.send(PacketSpec::background(FlowId(0), self.dst, self.size));
            }
            ctx.set_timer(self.gap, 0);
        }
    }
}

fn micros(rng: &mut StdRng, max: u64) -> SimDuration {
    SimDuration::from_micros(rng.gen_range(0..max))
}

/// A link of 1–50 Mbps with up to 5 ms of delay, jitter half the time
/// and a physical rate up to 10× the shaped rate.
fn random_config(rng: &mut StdRng) -> LinkConfig {
    let rate = rng.gen_range(1..=50u64) * 1_000_000;
    let mut cfg = LinkConfig::new(rate, micros(rng, 5_000))
        .phy_rate(rate * rng.gen_range(1..=10u64))
        .buffer_bytes(rng.gen_range(3_000..60_000));
    if rng.gen_bool(0.5) {
        cfg = cfg.jitter(micros(rng, 3_000));
    }
    cfg
}

/// A fault plan drawing from every impairment and scheduled fault, each
/// present with probability one half; faults fire in the first 100 ms.
fn random_plan(rng: &mut StdRng) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if rng.gen_bool(0.5) {
        plan = if rng.gen_bool(0.5) {
            plan.iid_loss(0.05)
        } else {
            plan.gilbert_elliott(GilbertElliott::bursty(4.0, 0.05))
        };
    }
    if rng.gen_bool(0.5) {
        plan = plan.reorder(0.2, micros(rng, 5_000));
    }
    if rng.gen_bool(0.5) {
        plan = plan.duplicate(0.1);
    }
    let at = |rng: &mut StdRng| SimTime::from_micros(rng.gen_range(0..100_000));
    if rng.gen_bool(0.5) {
        let down = at(rng);
        plan = plan.down_between(
            down,
            down + micros(rng, 20_000) + SimDuration::from_nanos(1),
        );
    }
    plan
}

/// One link of the topology and where its traffic is observed.
struct Observed {
    link: LinkId,
    /// Tap at the link's sending node, and the direction in which it
    /// records the packets offered to the link: a source sends them, a
    /// router receives them.
    offered: (SinkHandle, Direction),
    /// Tap at the link's receiving node, and the source whose packets
    /// arrive over this link (`None`: every packet the tap records).
    arrived: (SinkHandle, Option<NodeId>),
}

fn ids(sim: &Simulator, tap: SinkHandle, dir: Direction, src: Option<NodeId>) -> Vec<u64> {
    sim.sink::<Capture>(tap)
        .unwrap()
        .records
        .iter()
        .filter(|r| r.dir == dir && src.is_none_or(|s| r.pkt.src == s))
        .map(|r| r.pkt.id.0)
        .collect()
}

/// The packet ids of the `kind` events traced on `link`, in order.
fn traced(events: &[TraceEvent], kind: &str, link: LinkId) -> Vec<u64> {
    let on_link = ("link", FieldValue::U64(u64::from(link.0)));
    events
        .iter()
        .filter(|e| e.kind == kind && e.fields.contains(&on_link))
        .map(|e| match e.fields.iter().find(|(k, _)| *k == "packet") {
            Some((_, FieldValue::U64(id))) => *id,
            _ => panic!("impairment events name the packet: {e:?}"),
        })
        .collect()
}

/// `ids` sorted, for comparing multisets.
fn sorted(mut ids: Vec<u64>) -> Vec<u64> {
    ids.sort_unstable();
    ids
}

/// Whether `sub` is `seq` with some entries removed.
fn is_subsequence(sub: &[u64], seq: &[u64]) -> bool {
    let mut rest = seq.iter();
    sub.iter().all(|x| rest.any(|y| y == x))
}

#[test]
fn admitted_packets_arrive_once_and_in_order() {
    cases(256, "admitted_packets_arrive_once_and_in_order", |rng| {
        let seed = rng.gen::<u64>();
        let rng = &mut StdRng::seed_from_u64(seed);
        // Sources S_i → router R1 → router R2 → sink D.
        let mut sim = Simulator::new(seed);
        let n_sources = rng.gen_range(1..=3u32);
        let dst = NodeId(n_sources + 2);
        let sources: Vec<NodeId> = (0..n_sources)
            .map(|_| {
                sim.add_host(Box::new(Source {
                    dst,
                    ticks: rng.gen_range(1..=20),
                    burst: rng.gen_range(1..=6),
                    size: rng.gen_range(100..=1500),
                    gap: micros(rng, 4_000),
                }))
            })
            .collect();
        let r1 = sim.add_router();
        let r2 = sim.add_router();
        assert_eq!(sim.add_host(Box::new(SinkAgent::default())), dst);
        let mut hops: Vec<(NodeId, NodeId)> = sources.iter().map(|&s| (s, r1)).collect();
        hops.extend([(r1, r2), (r2, dst)]);
        let mut observed = Vec::new();
        let taps: HashMap<NodeId, SinkHandle> = sources
            .iter()
            .chain([&r1, &r2, &dst])
            .map(|&n| (n, sim.attach_sink(n, Box::new(Capture::new(n)))))
            .collect();
        for (from, to) in hops {
            let link = sim.add_link(from, to, random_config(rng));
            if rng.gen_bool(0.5) {
                sim.attach_fault_plan(link, random_plan(rng));
            }
            for _ in 0..rng.gen_range(0u32..=2) {
                let at = SimTime::from_micros(rng.gen_range(0..100_000));
                sim.schedule_link_reconfig(at, link, random_config(rng));
            }
            let from_source = sources.contains(&from).then_some(from);
            let offered_dir = if from_source.is_some() {
                Direction::Out
            } else {
                Direction::In
            };
            observed.push(Observed {
                link,
                offered: (taps[&from], offered_dir),
                arrived: (taps[&to], from_source),
            });
        }
        sim.compute_routes();
        let reg = MetricsRegistry::new();
        sim.attach_obs(&reg);
        let trace = TraceBuffer::new();
        sim.attach_trace_buffer(trace.clone());
        assert_eq!(sim.run(), StopReason::Drained);
        assert_eq!(sim.packets_in_flight(), 0);
        assert_eq!(trace.dropped(), 0, "the ring evicted events");
        let events = trace.snapshot();
        let snap = reg.snapshot();
        let count = |name| snap.counter(name).unwrap();
        assert_eq!(
            count("sim.packets_sent") + count("sim.packets_injected"),
            count("sim.packets_delivered") + count("sim.packets_dropped"),
            "sent + injected = delivered + dropped (nothing in flight)"
        );
        let kinds = |kind: &str| events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(kinds("duplicate"), count("sim.packets_injected"));
        assert_eq!(kinds("drop"), count("sim.packets_dropped"));
        for &tap in taps.values() {
            let records = &sim.sink::<Capture>(tap).unwrap().records;
            assert!(
                records.windows(2).all(|w| w[0].time <= w[1].time),
                "the clock ran backwards"
            );
        }

        for o in &observed {
            let offered = ids(&sim, o.offered.0, o.offered.1, None);
            let arrived = ids(&sim, o.arrived.0, Direction::In, o.arrived.1);
            let dropped = traced(&events, "drop", o.link);
            let duplicated = traced(&events, "duplicate", o.link);
            // Exactly once: the arrivals plus the traced drops are the
            // offered packets plus the admitted copies, as multisets (a
            // copy shares its original's id). A copy the buffer refused
            // is in neither.
            assert_eq!(
                sorted([arrived.clone(), dropped].concat()),
                sorted([offered.clone(), duplicated.clone()].concat()),
                "link {:?}",
                o.link
            );
            assert_eq!(sim.link(o.link).queued_bytes(), 0);
            // In order: leaving out the packets a fault plan held back,
            // the arrivals are the admissions with the drops left out.
            let held: HashSet<u64> = traced(&events, "reorder", o.link).into_iter().collect();
            let mut admissions = Vec::new();
            for &id in offered.iter().filter(|id| !held.contains(id)) {
                admissions.push(id);
                if duplicated.contains(&id) {
                    admissions.push(id);
                }
            }
            let in_order: Vec<u64> = arrived
                .into_iter()
                .filter(|id| !held.contains(id))
                .collect();
            assert!(
                is_subsequence(&in_order, &admissions),
                "link {:?} reordered its in-order packets",
                o.link
            );
        }
    });
}
