//! The simulator: topology construction, routing, and the event loop.
//!
//! # Model
//!
//! A topology is a set of **nodes** (hosts carrying an [`Agent`], or
//! routers that only forward) connected by unidirectional **links**
//! ([`Link`]). Routing is static: each node holds a `destination →
//! outgoing link` table, either set explicitly or computed by
//! [`Simulator::compute_routes`] (BFS, minimum hop count, deterministic
//! tie-break by link id).
//!
//! # Determinism
//!
//! All state evolves through a single time-ordered event queue with
//! FIFO tie-breaking, and all randomness derives from the master seed
//! via per-component streams — running the same configuration twice
//! produces identical captures.

use crate::agent::{Agent, Command, Ctx};
use crate::capture::{
    Capture, CaptureHandle, Direction, NullSink, PacketRecord, PacketSink, SinkHandle,
};
use crate::event::{EventKind, EventQueue, Next, TimerToken};
use crate::fault::{FaultPlan, FaultState, ImpairmentRecord};
use crate::ids::{LinkId, NodeId, PacketId};
use crate::link::{EnqueueOutcome, Link, LinkConfig, Offered};
use crate::packet::{Packet, PacketSpec};
use crate::pool::{PacketHandle, PacketPool};
use crate::rng::stream_rng;
use crate::stats::LinkStats;
use crate::time::SimTime;
use csig_obs::{MetricsRegistry, TraceBuffer, TraceEvent};
use csig_rng::StdRng;
use std::any::Any;
use std::collections::VecDeque;

/// The per-kind event metrics, in the order of
/// `Tallies::events_by_kind`. `sim.events.deliver` counts packet arrivals,
/// whether a link's in-order arrival or a packet's own `Deliver`.
/// `sim.events.stale` counts scheduler entries a re-time superseded:
/// a link arrival whose head packet was re-timed, or a re-timed packet's
/// own `Deliver`. They are skipped, never delivered, and do not advance
/// the clock.
const EVENT_METRICS: [&str; 6] = [
    "sim.events.deliver",
    "sim.events.timer",
    "sim.events.start",
    "sim.events.reconfig",
    "sim.events.fault",
    "sim.events.stale",
];
const STALE: usize = 5;

/// The counts behind the `sim.*` metrics. The simulator keeps them on
/// every run, whether or not a registry is attached; an attached
/// registry receives what they gained at the end of each
/// [`Simulator::run_until`]. All are deterministic functions of the
/// seed and topology. The `sim.queue_hwm_bytes` gauge needs no tally:
/// it is the largest [`Link::max_occupancy`].
#[derive(Debug, Clone, Copy, Default)]
struct Tallies {
    /// `sim.events.<kind>` — events processed per kind, indexed like
    /// [`EVENT_METRICS`]; they sum to `sim.events`.
    events_by_kind: [u64; EVENT_METRICS.len()],
    /// `sim.packets_sent` — packets originated by agents.
    packets_sent: u64,
    /// `sim.packets_delivered` — packets delivered to their final
    /// destination node.
    packets_delivered: u64,
    /// `sim.packets_dropped` — drops of any kind: enqueue-time (loss,
    /// buffer full, early drop, link down) and unroutable packets.
    packets_dropped: u64,
    /// Router probe replies made. With `duplicates` they form
    /// `sim.packets_injected`: packets no agent sent.
    probe_replies: u64,
    /// Fault-plan duplicates the links admitted, read off their
    /// [`LinkStats::duplicated`] when each run returns.
    duplicates: u64,
}

impl Tallies {
    /// Add to `reg` what these tallies gained since `before`, and raise
    /// its `sim.queue_hwm_bytes` gauge to `queue_hwm_bytes`. Every name
    /// is written, so the first export registers all twelve.
    fn export(&self, before: &Tallies, queue_hwm_bytes: u64, reg: &MetricsRegistry) {
        let mut events = 0;
        for (i, name) in EVENT_METRICS.iter().enumerate() {
            let n = self.events_by_kind[i] - before.events_by_kind[i];
            reg.add(name, n);
            events += n;
        }
        reg.add("sim.events", events);
        reg.add("sim.packets_sent", self.packets_sent - before.packets_sent);
        reg.add(
            "sim.packets_delivered",
            self.packets_delivered - before.packets_delivered,
        );
        reg.add(
            "sim.packets_dropped",
            self.packets_dropped - before.packets_dropped,
        );
        reg.add(
            "sim.packets_injected",
            self.probe_replies + self.duplicates - before.probe_replies - before.duplicates,
        );
        reg.record_max("sim.queue_hwm_bytes", queue_hwm_bytes);
    }
}

/// Node role.
enum NodeSlot {
    /// Forwards packets according to the routing table.
    Router,
    /// Runs an agent. The box is temporarily taken out while its
    /// callback runs (to satisfy the borrow checker); `None` only
    /// transiently. The host's RNG lives in `Simulator::host_rngs`,
    /// which the callback borrows disjointly.
    Host { agent: Option<Box<dyn Agent>> },
}

/// One packet tap: a node and the sink observing its traffic.
struct Tap {
    node: NodeId,
    sink: Box<dyn PacketSink>,
}

/// Why [`Simulator::run`] returned. A caller that drops it cannot tell
/// a finished run from one its event budget cut short.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    Drained,
    /// The configured horizon was reached with events still pending.
    Horizon,
    /// The event budget was exhausted (runaway-protection).
    EventBudget,
}

impl StopReason {
    /// Panic if the event budget cut the run short: whatever the caller
    /// reads next would be a truncated result.
    #[track_caller]
    pub fn expect_within_budget(self) {
        assert!(
            self != StopReason::EventBudget,
            "event budget exhausted: run cut short"
        );
    }
}

/// Discrete-event network simulator.
pub struct Simulator {
    now: SimTime,
    events: EventQueue,
    /// Arena holding every packet currently buffered or in flight.
    pool: PacketPool,
    nodes: Vec<NodeSlot>,
    /// Per-node RNG streams, parallel to `nodes` (router slots hold an
    /// unused placeholder).
    host_rngs: Vec<StdRng>,
    links: Vec<Link>,
    /// `routes[node][dst] = link` (dense table; `None` = unreachable).
    routes: Vec<Vec<Option<LinkId>>>,
    taps: Vec<Tap>,
    /// Per-node count of attached taps, parallel to `nodes` — lets the
    /// hot path skip capture bookkeeping for untapped nodes in O(1).
    tap_counts: Vec<u32>,
    next_packet_id: u64,
    seed: u64,
    tallies: Tallies,
    /// `(time, seq)` of the last popped scheduler entry; pops must
    /// strictly increase it.
    last_key: Option<(SimTime, u64)>,
    /// Safety valve against runaway simulations (default: practically
    /// unlimited).
    event_budget: u64,
    cmd_buf: Vec<Command>,
    /// The attached registry and the tallies as of its last export.
    obs: Option<(MetricsRegistry, Tallies)>,
    trace: Option<TraceBuffer>,
}

impl Simulator {
    /// A fresh simulator; all randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            pool: PacketPool::new(),
            nodes: Vec::new(),
            host_rngs: Vec::new(),
            links: Vec::new(),
            routes: Vec::new(),
            taps: Vec::new(),
            tap_counts: Vec::new(),
            next_packet_id: 0,
            seed,
            tallies: Tallies::default(),
            last_key: None,
            event_budget: u64::MAX,
            cmd_buf: Vec::new(),
            obs: None,
            trace: None,
        }
    }

    /// Register the simulator's metrics (`sim.events` and its per-kind
    /// split `sim.events.{deliver,timer,start,reconfig,fault,stale}`,
    /// `sim.packets_sent`, `sim.packets_delivered`,
    /// `sim.packets_dropped`, `sim.packets_injected` and the
    /// `sim.queue_hwm_bytes` gauge) into
    /// `reg`, the counters at zero. Each [`Simulator::run_until`] from
    /// then on adds what its run counted, so one registry attached to
    /// several simulators holds their sum. All are deterministic
    /// functions of the seed and topology.
    pub fn attach_obs(&mut self, reg: &MetricsRegistry) {
        self.tallies.export(&self.tallies, 0, reg);
        self.obs = Some((reg.clone(), self.tallies));
    }

    /// Emit structured trace events (scope `"sim"`: packet drops, link
    /// fault actions) into `buf` while running.
    pub fn attach_trace_buffer(&mut self, buf: TraceBuffer) {
        self.trace = Some(buf);
    }

    /// Cap the number of processed events (safety valve for tests).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.tallies.events_by_kind.iter().sum()
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Add a forwarding-only router node.
    pub fn add_router(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot::Router);
        // Routers never sample randomness; the slot keeps the vectors
        // parallel.
        self.host_rngs.push(stream_rng(self.seed, 0));
        self.tap_counts.push(0);
        id
    }

    /// Add a host running `agent`, activated at time zero.
    pub fn add_host(&mut self, agent: Box<dyn Agent>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot::Host { agent: Some(agent) });
        self.host_rngs
            .push(stream_rng(self.seed, 0x1000_0000 + id.0 as u64));
        self.tap_counts.push(0);
        self.events.push(SimTime::ZERO, EventKind::Start(id));
        id
    }

    /// Add a unidirectional link `from → to`.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(from.index() < self.nodes.len(), "unknown from node");
        assert!(to.index() < self.nodes.len(), "unknown to node");
        assert_ne!(from, to, "self-loop link");
        let id = LinkId(self.links.len() as u32);
        let rng = stream_rng(self.seed, 0x2000_0000 + id.0 as u64);
        self.links.push(Link::new(id, from, to, cfg, rng));
        id
    }

    /// Add a pair of links `a → b` and `b → a` with the same config.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, cfg.clone());
        let ba = self.add_link(b, a, cfg);
        (ab, ba)
    }

    /// Explicitly route traffic for `dst` leaving `node` over `link`.
    #[cfg(test)]
    fn set_route(&mut self, node: NodeId, dst: NodeId, link: LinkId) {
        self.ensure_route_table();
        assert_eq!(
            self.links[link.index()].from,
            node,
            "link does not leave node"
        );
        self.routes[node.index()][dst.index()] = Some(link);
    }

    fn ensure_route_table(&mut self) {
        let n = self.nodes.len();
        if self.routes.len() != n || self.routes.first().map(|r| r.len()) != Some(n) {
            self.routes = vec![vec![None; n]; n];
        }
    }

    /// Compute shortest-path (hop count) routes for every node pair.
    /// Deterministic: among equal-length paths the smallest link id wins.
    /// Call after the topology is complete; explicit `set_route` entries
    /// made *after* this call override it.
    pub fn compute_routes(&mut self) {
        let n = self.nodes.len();
        self.routes = vec![vec![None; n]; n];
        // Outgoing adjacency, sorted by link id for determinism.
        let mut out: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        for l in &self.links {
            out[l.from.index()].push(l.id);
        }
        // BFS from every destination over *reversed* links: we want, for
        // each node, the first hop towards dst.
        let mut rin: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        for l in &self.links {
            rin[l.to.index()].push(l.id);
        }
        for dst in 0..n {
            let mut dist = vec![u32::MAX; n];
            dist[dst] = 0;
            let mut q = VecDeque::new();
            q.push_back(dst);
            while let Some(v) = q.pop_front() {
                // Links arriving at v originate at candidate predecessors.
                for &lid in &rin[v] {
                    let u = self.links[lid.index()].from.index();
                    if dist[u] == u32::MAX {
                        dist[u] = dist[v] + 1;
                        self.routes[u][dst] = Some(lid);
                        q.push_back(u);
                    } else if dist[u] == dist[v] + 1 {
                        // Equal-length alternative: keep the smaller link id.
                        if let Some(cur) = self.routes[u][dst] {
                            if lid < cur {
                                self.routes[u][dst] = Some(lid);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The route (outgoing link) from `node` towards `dst`, if any.
    pub fn route(&self, node: NodeId, dst: NodeId) -> Option<LinkId> {
        self.routes
            .get(node.index())
            .and_then(|r| r.get(dst.index()))
            .copied()
            .flatten()
    }

    /// Attach a streaming packet sink to `node`. The sink sees every
    /// packet the node sends or receives, one [`PacketRecord`] at a
    /// time, in event order.
    pub fn attach_sink(&mut self, node: NodeId, sink: Box<dyn PacketSink>) -> SinkHandle {
        assert!(node.index() < self.nodes.len(), "unknown node");
        self.taps.push(Tap { node, sink });
        self.tap_counts[node.index()] += 1;
        SinkHandle(self.taps.len() - 1)
    }

    /// Read an attached sink back as its concrete type (`None` if the
    /// handle's sink is of a different type).
    pub fn sink<T: PacketSink>(&self, h: SinkHandle) -> Option<&T> {
        (self.taps[h.0].sink.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable access to an attached sink as its concrete type.
    fn sink_mut<T: PacketSink>(&mut self, h: SinkHandle) -> Option<&mut T> {
        (self.taps[h.0].sink.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Detach and return a sink; the tap stops observing from then on.
    pub fn take_sink(&mut self, h: SinkHandle) -> Box<dyn PacketSink> {
        self.detach_tap(h.0);
        std::mem::replace(&mut self.taps[h.0].sink, Box::new(NullSink))
    }

    /// Stop a tap from observing (idempotent) and keep the per-node
    /// fast-path count in sync.
    fn detach_tap(&mut self, tap: usize) {
        let node = self.taps[tap].node;
        if node != NodeId(u32::MAX) {
            self.tap_counts[node.index()] -= 1;
            self.taps[tap].node = NodeId(u32::MAX);
        }
    }

    /// Attach a buffering capture tap to `node` — shorthand for
    /// [`Simulator::attach_sink`] with a [`Capture`] sink.
    pub fn attach_capture(&mut self, node: NodeId) -> CaptureHandle {
        CaptureHandle(self.attach_sink(node, Box::new(Capture::new(node))).0)
    }

    /// Read a capture.
    ///
    /// # Panics
    /// Panics if the handle's tap does not hold a [`Capture`] sink.
    pub fn capture(&self, h: CaptureHandle) -> &Capture {
        match self.sink::<Capture>(SinkHandle(h.0)) {
            Some(c) => c,
            None => panic!("handle is not a capture tap"),
        }
    }

    /// Remove and return a capture (e.g. to hand to trace analysis).
    ///
    /// # Panics
    /// Panics if the handle's tap does not hold a [`Capture`] sink.
    pub fn take_capture(&mut self, h: CaptureHandle) -> Capture {
        let Some(sink) = self.sink_mut::<Capture>(SinkHandle(h.0)) else {
            panic!("handle is not a capture tap")
        };
        let cap = std::mem::replace(sink, Capture::new(NodeId(u32::MAX)));
        self.detach_tap(h.0);
        cap
    }

    /// Link statistics.
    pub fn link_stats(&self, link: LinkId) -> &LinkStats {
        &self.links[link.index()].stats
    }

    /// The link object (read-only).
    pub fn link(&self, link: LinkId) -> &Link {
        &self.links[link.index()]
    }

    /// Downcast a host's agent to its concrete type.
    pub fn agent<T: Agent>(&self, node: NodeId) -> Option<&T> {
        match &self.nodes[node.index()] {
            NodeSlot::Host { agent: Some(agent) } => {
                (agent.as_ref() as &dyn Any).downcast_ref::<T>()
            }
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Run until the queue drains or `horizon` is reached. On return
    /// every link has retired the packets that departed before
    /// [`Simulator::now`], so link occupancy and statistics read
    /// between runs are current, and an attached registry holds the
    /// counts up to now. Debug builds then check the packet ledger:
    /// `sent + injected = delivered + dropped + in flight`.
    pub fn run_until(&mut self, horizon: SimTime) -> StopReason {
        let stop = self.run_until_inner(horizon);
        for l in &mut self.links {
            l.retire(self.now);
        }
        self.tallies.duplicates = self.links.iter().map(|l| l.stats.duplicated).sum();
        let t = &self.tallies;
        debug_assert_eq!(
            t.packets_sent + t.probe_replies + t.duplicates,
            t.packets_delivered + t.packets_dropped + self.pool.live() as u64,
            "packet ledger: sent + injected = delivered + dropped + in flight"
        );
        if let Some((reg, exported)) = &mut self.obs {
            // The largest queue any link has held.
            let hwm = self.links.iter().map(Link::max_occupancy).max();
            self.tallies.export(exported, hwm.unwrap_or(0), reg);
            *exported = self.tallies;
        }
        stop
    }

    fn run_until_inner(&mut self, horizon: SimTime) -> StopReason {
        self.ensure_route_table();
        let mut budget = self.event_budget.saturating_sub(self.events_processed());
        loop {
            if budget == 0 {
                return StopReason::EventBudget;
            }
            let Some((time, seq, next)) = self.events.peek() else {
                return StopReason::Drained;
            };
            if time > horizon {
                self.now = horizon;
                return StopReason::Horizon;
            }
            debug_assert!(
                self.last_key < Some((time, seq)),
                "popped keys must strictly increase"
            );
            self.last_key = Some((time, seq));
            budget -= 1;
            let kind = if let Next::Link(link) = next {
                let l = &mut self.links[link.index()];
                l.arrive(time, seq, &mut self.events)
                    .map(|h| EventKind::Deliver(l.to, h))
            } else {
                let Some(ev) = self.events.pop_other() else {
                    unreachable!("peek just returned Some")
                };
                match ev.kind {
                    // A re-timed packet moved to a new handle and event.
                    EventKind::Deliver(_, h) if !self.pool.contains(h) => None,
                    kind => Some(kind),
                }
            };
            let Some(kind) = kind else {
                self.tallies.events_by_kind[STALE] += 1;
                continue;
            };
            self.tallies.events_by_kind[match kind {
                EventKind::Deliver(..) => 0,
                EventKind::Timer(..) => 1,
                EventKind::Start(_) => 2,
                EventKind::LinkReconfig(..) => 3,
                EventKind::LinkFault(..) => 4,
            }] += 1;
            self.now = time;
            self.dispatch(kind);
        }
    }

    /// Run until the event queue drains.
    pub fn run(&mut self) -> StopReason {
        self.run_until(SimTime::MAX)
    }

    /// High-water mark of simultaneously pending scheduler entries
    /// (diagnostics and benchmark reporting). A link with packets in
    /// flight holds one entry for all of its in-order packets, so this
    /// counts entries, not packets; see
    /// [`Simulator::packets_in_flight`] for those.
    pub fn peak_pending_events(&self) -> usize {
        self.events.high_water()
    }

    /// High-water mark of packets simultaneously buffered or in flight
    /// (the packet pool's peak occupancy).
    pub fn peak_pool_packets(&self) -> usize {
        self.pool.high_water()
    }

    /// Packets currently buffered or in flight (the packet pool's live
    /// count). Between runs it closes the packet ledger of the `sim.*`
    /// counters: `sent + injected = delivered + dropped + in flight`.
    pub fn packets_in_flight(&self) -> usize {
        self.pool.live()
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(node) => self.agent_callback(node, AgentCall::Start),
            EventKind::Timer(node, token) => self.agent_callback(node, AgentCall::Timer(token)),
            EventKind::Deliver(node, handle) => self.deliver(node, handle),
            EventKind::LinkReconfig(link, cfg) => {
                let l = &mut self.links[link.index()];
                l.reconfigure(self.now, *cfg, &mut self.pool, &mut self.events);
            }
            EventKind::LinkFault(link, action) => {
                let now = self.now;
                if let Some(trace) = &self.trace {
                    trace.push(
                        TraceEvent::new(now.as_nanos(), "sim", "fault")
                            .field("link", u64::from(link.0))
                            .field("action", format!("{action:?}")),
                    );
                }
                let l = &mut self.links[link.index()];
                l.apply_fault_action(now, action, &mut self.pool, &mut self.events);
            }
        }
    }

    fn deliver(&mut self, node: NodeId, handle: PacketHandle) {
        // Only a tapped node pays for a copy of the packet.
        if self.tap_counts[node.index()] != 0 {
            let pkt = *self.pool.get(handle);
            self.record_capture(node, Direction::In, &pkt);
        }
        let dst = self.pool.get(handle).dst;
        if dst != node {
            // Forward: the packet keeps its pool slot.
            match self.route(node, dst) {
                Some(link) => self.enqueue_on_link(link, Offered::Pooled(handle)),
                None => {
                    self.pool.take(handle);
                    self.drop_unroutable(node);
                }
            }
            return;
        }
        // Final delivery redeems the handle, freeing the slot.
        let pkt = self.pool.take(handle);
        self.tallies.packets_delivered += 1;
        match &self.nodes[node.index()] {
            NodeSlot::Host { .. } => self.agent_callback(node, AgentCall::Packet(pkt)),
            NodeSlot::Router => {
                // Routers answer latency probes like real routers answer
                // ICMP echo; all other packets addressed to a router are
                // absorbed.
                if let crate::packet::PacketKind::Probe {
                    kind: crate::packet::ProbeKind::Request,
                    ident,
                } = pkt.kind
                {
                    let reply = Packet {
                        id: PacketId(self.next_packet_id),
                        flow: pkt.flow,
                        src: node,
                        dst: pkt.src,
                        size: pkt.size,
                        sent_at: self.now,
                        kind: crate::packet::PacketKind::Probe {
                            kind: crate::packet::ProbeKind::Reply {
                                sent_at: pkt.sent_at,
                            },
                            ident,
                        },
                    };
                    self.next_packet_id += 1;
                    self.tallies.probe_replies += 1;
                    match self.route(node, reply.dst) {
                        Some(link) => self.enqueue_on_link(link, Offered::Fresh(reply)),
                        None => self.drop_unroutable(node),
                    }
                }
            }
        }
    }

    fn enqueue_on_link(&mut self, link: LinkId, pkt: Offered) {
        let l = &mut self.links[link.index()];
        let outcome = l.enqueue(pkt, self.now, &mut self.pool, &mut self.events);
        let reason = match outcome {
            EnqueueOutcome::Queued => return,
            EnqueueOutcome::DroppedLoss => "loss",
            EnqueueOutcome::DroppedFull => "full",
            EnqueueOutcome::DroppedEarly => "early",
            EnqueueOutcome::DroppedDown => "down",
        };
        // Drops are counted in link stats and the tallies (and traced
        // when a ring is attached).
        self.tallies.packets_dropped += 1;
        if let Some(trace) = &self.trace {
            trace.push(
                TraceEvent::new(self.now.as_nanos(), "sim", "drop")
                    .field("link", u64::from(link.0))
                    .field("reason", reason),
            );
        }
    }

    fn record_capture(&mut self, node: NodeId, dir: Direction, pkt: &Packet) {
        // O(1) fast path: untapped nodes (the overwhelming majority in
        // large campaigns) pay a single indexed load per delivery.
        if self.tap_counts[node.index()] == 0 {
            return;
        }
        let rec = PacketRecord {
            time: self.now,
            dir,
            pkt: *pkt,
        };
        for t in &mut self.taps {
            if t.node == node {
                t.sink.on_record(&rec);
            }
        }
    }

    fn agent_callback(&mut self, node: NodeId, call: AgentCall) {
        // Take the agent box out so we can hand `self`-derived context
        // in; the RNG stays put (host_rngs is a disjoint field).
        let mut agent = match &mut self.nodes[node.index()] {
            NodeSlot::Host { agent } => {
                let Some(agent) = agent.take() else {
                    unreachable!("agent call re-entered while the agent was checked out")
                };
                agent
            }
            NodeSlot::Router => return,
        };
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        debug_assert!(cmds.is_empty());
        {
            let rng = &mut self.host_rngs[node.index()];
            let mut ctx = Ctx::new(self.now, node, &mut cmds, rng);
            match call {
                AgentCall::Start => agent.on_start(&mut ctx),
                AgentCall::Timer(token) => agent.on_timer(&mut ctx, token),
                AgentCall::Packet(pkt) => agent.on_packet(&mut ctx, pkt),
            }
        }
        // Put the agent back before applying commands (commands may
        // deliver packets only via events, so no re-entrancy).
        match &mut self.nodes[node.index()] {
            NodeSlot::Host { agent: slot } => *slot = Some(agent),
            NodeSlot::Router => unreachable!(),
        }
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Send(spec) => self.send_from(node, spec),
                Command::SetTimer(delay, token) => {
                    self.events
                        .push(self.now + delay, EventKind::Timer(node, token));
                }
            }
        }
        self.cmd_buf = cmds;
    }

    fn send_from(&mut self, node: NodeId, spec: PacketSpec) {
        let pkt = Packet {
            id: PacketId(self.next_packet_id),
            flow: spec.flow,
            src: node,
            dst: spec.dst,
            size: spec.size,
            sent_at: self.now,
            kind: spec.kind,
        };
        self.next_packet_id += 1;
        self.tallies.packets_sent += 1;
        self.record_capture(node, Direction::Out, &pkt);
        match self.route(node, pkt.dst) {
            Some(link) => self.enqueue_on_link(link, Offered::Fresh(pkt)),
            None => self.drop_unroutable(node),
        }
    }

    /// Count and trace a packet `node` has no route for (`no_route`).
    fn drop_unroutable(&mut self, node: NodeId) {
        self.tallies.packets_dropped += 1;
        if let Some(trace) = &self.trace {
            trace.push(
                TraceEvent::new(self.now.as_nanos(), "sim", "drop")
                    .field("node", u64::from(node.0))
                    .field("reason", "no_route"),
            );
        }
    }

    /// Schedule a link-parameter change at `at` (time-varying paths:
    /// congestion windows, capacity changes).
    pub fn schedule_link_reconfig(&mut self, at: SimTime, link: LinkId, cfg: LinkConfig) {
        assert!(link.index() < self.links.len(), "unknown link");
        self.events
            .push(at, EventKind::LinkReconfig(link, Box::new(cfg)));
    }

    /// Attach a fault plan to a link: its loss model replaces the link's
    /// i.i.d. loss, reorder/duplication impairments activate, and every
    /// scheduled [`crate::fault::FaultEvent`] is queued. Impairment
    /// decisions draw from a dedicated per-link stream of the master
    /// seed (`0x4000_0000 + link id`), so the sequence is reproducible
    /// regardless of other configuration and of how many scenarios run
    /// in parallel.
    pub fn attach_fault_plan(&mut self, link: LinkId, plan: FaultPlan) {
        assert!(link.index() < self.links.len(), "unknown link");
        for ev in &plan.events {
            self.events
                .push(ev.at, EventKind::LinkFault(link, ev.action));
        }
        let rng = stream_rng(self.seed, 0x4000_0000 + link.0 as u64);
        self.links[link.index()].attach_fault(FaultState::new(plan, rng));
    }

    /// The impairment log of a link (empty without an attached plan).
    pub fn fault_log(&self, link: LinkId) -> &[ImpairmentRecord] {
        self.links[link.index()].fault_log()
    }
}

enum AgentCall {
    Start,
    Timer(TimerToken),
    Packet(Packet),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SinkAgent;
    use crate::fault::GilbertElliott;
    use crate::ids::FlowId;
    use crate::packet::{PacketKind, PacketSpec};
    use crate::time::SimDuration;
    use csig_obs::MetricValue;

    /// Sends `count` background packets of `size` to `dst`, one per
    /// `interval`, starting immediately.
    struct Blaster {
        dst: NodeId,
        count: u32,
        size: u32,
        interval: SimDuration,
        sent: u32,
        received: u32,
    }

    impl Blaster {
        fn new(dst: NodeId, count: u32, size: u32, interval: SimDuration) -> Self {
            Blaster {
                dst,
                count,
                size,
                interval,
                sent: 0,
                received: 0,
            }
        }
    }

    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {
            self.received += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _token: TimerToken) {
            if self.sent < self.count {
                ctx.send(PacketSpec::background(FlowId(1), self.dst, self.size));
                self.sent += 1;
                ctx.set_timer(self.interval, 0);
            }
        }
    }

    fn two_hosts_one_router(seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(2),
            10,
            1000,
            SimDuration::from_millis(1),
        )));
        let r = sim.add_router();
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let cfg = LinkConfig::new(100_000_000, SimDuration::from_millis(5));
        sim.add_duplex_link(a, r, cfg.clone());
        sim.add_duplex_link(r, b, cfg);
        sim.compute_routes();
        (sim, a, b)
    }

    /// Sends `sends` packets to `dst` on start and arms `timers` timers,
    /// a second out, for each packet it receives.
    struct Armer {
        dst: NodeId,
        sends: u32,
        timers: u64,
        received: u32,
    }

    impl Agent for Armer {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for _ in 0..self.sends {
                ctx.send(PacketSpec::background(FlowId(1), self.dst, 1000));
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx, _pkt: Packet) {
            self.received += 1;
            for token in 0..self.timers {
                ctx.set_timer(SimDuration::from_secs(1), token);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx, _token: TimerToken) {}
    }

    #[test]
    fn timers_armed_as_an_arrival_drains_its_link_do_not_raise_the_peak() {
        // Two entries are pending at once: the two starts, then a's
        // packet and b's start. The packet's arrival drains the link and
        // b arms two timers in that event, which leaves two pending, as
        // a pop and two pushes would, not three.
        let mut sim = Simulator::new(1);
        let armer = |dst, sends, timers| Armer {
            dst,
            sends,
            timers,
            received: 0,
        };
        let a = sim.add_host(Box::new(armer(NodeId(1), 1, 0)));
        let b = sim.add_host(Box::new(armer(a, 0, 2)));
        sim.add_link(
            a,
            b,
            LinkConfig::new(100_000_000, SimDuration::from_millis(5)),
        );
        sim.compute_routes();
        assert_eq!(sim.run(), StopReason::Drained);
        assert_eq!(sim.agent::<Armer>(b).map(|b| b.received), Some(1));
        assert_eq!(sim.peak_pending_events(), 2);
    }

    #[test]
    fn packets_flow_end_to_end_through_router() {
        let (mut sim, _a, b) = two_hosts_one_router(1);
        assert_eq!(sim.run(), StopReason::Drained);
        let sink: &SinkAgent = sim.agent(b).unwrap();
        assert_eq!(sink.packets, 10);
        assert_eq!(sink.bytes, 10_000);
        // 2 hops × 5 ms prop: last packet sent at 9 ms arrives > 19 ms.
        assert!(sim.now() >= SimTime::from_millis(19));
    }

    /// `a → r1 → r2 → r3 → b`, `a` sending one 1000 B packet to `b`;
    /// returns the simulator, `b` and the last hop `r3 → b`.
    fn three_routers() -> (Simulator, NodeId, LinkId) {
        let mut sim = Simulator::new(1);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(4),
            1,
            1000,
            SimDuration::ZERO,
        )));
        let routers = [sim.add_router(), sim.add_router(), sim.add_router()];
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let cfg = LinkConfig::new(100_000_000, SimDuration::from_millis(1));
        sim.add_duplex_link(a, routers[0], cfg.clone());
        sim.add_duplex_link(routers[0], routers[1], cfg.clone());
        sim.add_duplex_link(routers[1], routers[2], cfg.clone());
        let (last, _) = sim.add_duplex_link(routers[2], b, cfg);
        sim.compute_routes();
        (sim, b, last)
    }

    #[test]
    fn a_forwarded_packet_keeps_one_pool_slot() {
        let (mut sim, b, _) = three_routers();
        assert_eq!(sim.run(), StopReason::Drained);
        let sink: &SinkAgent = sim.agent(b).unwrap();
        assert_eq!(sink.packets, 1);
        assert_eq!(sim.peak_pool_packets(), 1);
        assert_eq!(sim.packets_in_flight(), 0);
    }

    #[test]
    fn a_drop_on_a_later_hop_frees_the_packets_slot() {
        let (mut sim, b, last) = three_routers();
        sim.attach_fault_plan(
            last,
            FaultPlan::new().down_between(SimTime::ZERO, SimTime::from_secs(1)),
        );
        assert_eq!(sim.run(), StopReason::Drained);
        assert_eq!(sim.link_stats(last).dropped_down, 1);
        let sink: &SinkAgent = sim.agent(b).unwrap();
        assert_eq!(sink.packets, 0);
        assert_eq!(sim.peak_pool_packets(), 1);
        assert_eq!(sim.packets_in_flight(), 0);
    }

    #[test]
    fn captures_see_both_directions() {
        let mut sim = Simulator::new(3);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(1),
            5,
            500,
            SimDuration::from_millis(1),
        )));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        sim.add_duplex_link(
            a,
            b,
            LinkConfig::new(10_000_000, SimDuration::from_millis(2)),
        );
        sim.compute_routes();
        let cap_a = sim.attach_capture(a);
        let cap_b = sim.attach_capture(b);
        sim.run().expect_within_budget();
        let ca = sim.capture(cap_a);
        assert_eq!(ca.records.len(), 5);
        assert!(ca.records.iter().all(|r| r.dir == Direction::Out));
        let cb = sim.capture(cap_b);
        assert_eq!(cb.records.len(), 5);
        assert!(cb.records.iter().all(|r| r.dir == Direction::In));
        // Timestamps at the receiver trail the sender by at least prop.
        assert!(cb.records[0].time >= ca.records[0].time + SimDuration::from_millis(2));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let (mut s1, _, b1) = two_hosts_one_router(42);
        let (mut s2, _, b2) = two_hosts_one_router(42);
        let c1 = s1.attach_capture(b1);
        let c2 = s2.attach_capture(b2);
        s1.run().expect_within_budget();
        s2.run().expect_within_budget();
        assert_eq!(s1.capture(c1).records, s2.capture(c2).records);
        assert_eq!(s1.events_processed(), s2.events_processed());
    }

    #[test]
    fn fault_plan_flap_drops_midstream_then_recovers() {
        // 20 packets, one per ms; link down during [4 ms, 8 ms).
        let mut sim = Simulator::new(7);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(1),
            20,
            1000,
            SimDuration::from_millis(1),
        )));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let (ab, _) = sim.add_duplex_link(
            a,
            b,
            LinkConfig::new(100_000_000, SimDuration::from_micros(100)),
        );
        sim.compute_routes();
        sim.attach_fault_plan(
            ab,
            FaultPlan::new().down_between(SimTime::from_millis(4), SimTime::from_millis(8)),
        );
        assert_eq!(sim.run(), StopReason::Drained);
        let sink: &SinkAgent = sim.agent(b).unwrap();
        // Packets sent at t = 4..8 ms (4 of them) died at the down link.
        assert_eq!(sim.link_stats(ab).dropped_down, 4);
        assert_eq!(sink.packets, 16);
        assert_eq!(
            sim.fault_log(ab).len(),
            4,
            "each down-drop logged: {:?}",
            sim.fault_log(ab)
        );
    }

    #[test]
    fn fault_plan_impairments_reproducible_from_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let a = sim.add_host(Box::new(Blaster::new(
                NodeId(1),
                200,
                1000,
                SimDuration::from_micros(200),
            )));
            let b = sim.add_host(Box::new(SinkAgent::default()));
            let (ab, _) = sim.add_duplex_link(
                a,
                b,
                LinkConfig::new(20_000_000, SimDuration::from_millis(2)),
            );
            sim.compute_routes();
            sim.attach_fault_plan(
                ab,
                FaultPlan::new()
                    .gilbert_elliott(GilbertElliott::bursty(6.0, 0.05))
                    .reorder(0.05, SimDuration::from_millis(4))
                    .duplicate(0.02),
            );
            sim.run().expect_within_budget();
            sim.fault_log(ab).to_vec()
        };
        let log = run(1234);
        assert!(!log.is_empty(), "impairments occurred");
        assert_eq!(log, run(1234), "same seed, same impairment sequence");
        assert_ne!(log, run(5678), "different seed diverges");
    }

    #[test]
    fn horizon_stops_early() {
        let (mut sim, _, b) = two_hosts_one_router(1);
        let stop = sim.run_until(SimTime::from_millis(3));
        assert_eq!(stop, StopReason::Horizon);
        assert_eq!(sim.now(), SimTime::from_millis(3));
        let sink: &SinkAgent = sim.agent(b).unwrap();
        assert!(sink.packets < 10);
        // Resume to completion.
        assert_eq!(sim.run(), StopReason::Drained);
        let sink: &SinkAgent = sim.agent(b).unwrap();
        assert_eq!(sink.packets, 10);
    }

    /// 100 × 1500 B blasted at once into a 1 Mbps link with a 100 ms
    /// buffer, which overflows.
    fn overrun_link(seed: u64) -> Simulator {
        let mut sim = Simulator::new(seed);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(1),
            100,
            1500,
            SimDuration::ZERO,
        )));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        sim.add_duplex_link(
            a,
            b,
            LinkConfig::new(1_000_000, SimDuration::from_millis(1)).buffer_ms(100),
        );
        sim.compute_routes();
        sim
    }

    #[test]
    fn attached_metrics_are_deterministic_and_drops_are_traced() {
        let run = |seed: u64| {
            let reg = MetricsRegistry::new();
            let trace = TraceBuffer::with_capacity(4096);
            let mut sim = overrun_link(seed);
            sim.attach_obs(&reg);
            sim.attach_trace_buffer(trace.clone());
            sim.run().expect_within_budget();
            (
                reg.snapshot(),
                trace.snapshot(),
                sim.events_processed(),
                sim.packets_in_flight() as u64,
            )
        };
        let (snap, events, processed, in_flight) = run(5);
        assert_eq!(snap.counter("sim.events"), Some(processed));
        assert_eq!(snap.counter("sim.packets_sent"), Some(100));
        let delivered = snap.counter("sim.packets_delivered").unwrap();
        let dropped = snap.counter("sim.packets_dropped").unwrap();
        // Packet ledger: every sent packet is accounted for.
        assert_eq!(delivered + dropped + in_flight, 100);
        assert!(dropped > 0, "tiny buffer must overflow");
        assert!(snap.gauge("sim.queue_hwm_bytes").unwrap() > 0);
        // One trace event per drop, in time order, rendering as JSONL.
        assert_eq!(events.len(), dropped as usize);
        assert!(events.iter().all(|e| e.scope == "sim" && e.kind == "drop"));
        // Same seed → byte-identical snapshot and trace.
        let (snap2, events2, _, _) = run(5);
        assert_eq!(snap, snap2);
        assert_eq!(snap.to_json(), snap2.to_json());
        assert_eq!(events, events2);
    }

    #[test]
    fn each_run_exports_only_what_it_counted() {
        let horizon = SimTime::from_millis(60);
        let stepped = MetricsRegistry::new();
        let mut sim = overrun_link(5);
        sim.attach_obs(&stepped);
        // Twelve 5 ms runs, each exporting only its own counts.
        for step in 1..=12 {
            let until = SimTime::from_millis(5 * step);
            assert_eq!(sim.run_until(until), StopReason::Horizon);
        }
        let once = MetricsRegistry::new();
        let mut twin = overrun_link(5);
        twin.attach_obs(&once);
        assert_eq!(twin.run_until(horizon), StopReason::Horizon);
        let snap = once.snapshot();
        assert!(snap.counter("sim.packets_dropped").unwrap() > 0);
        assert!(twin.packets_in_flight() > 0, "the horizon cuts traffic");
        assert_eq!(stepped.snapshot(), snap);
        assert_eq!(snap.counter("sim.events"), Some(twin.events_processed()));
    }

    #[test]
    fn one_registry_sums_the_simulators_attached_to_it() {
        let alone = |seed: u64| {
            let reg = MetricsRegistry::new();
            let mut sim = overrun_link(seed);
            sim.attach_obs(&reg);
            sim.run().expect_within_budget();
            reg.snapshot()
        };
        let shared = MetricsRegistry::new();
        for seed in [5, 6] {
            let mut sim = overrun_link(seed);
            sim.attach_obs(&shared);
            sim.run().expect_within_budget();
        }
        let (a, b, both) = (alone(5), alone(6), shared.snapshot());
        assert_eq!(both.entries.len(), 12);
        for e in &both.entries {
            let name = e.name.as_str();
            match e.value {
                MetricValue::Counter(v) => assert_eq!(
                    v,
                    a.counter(name).unwrap() + b.counter(name).unwrap(),
                    "{name}"
                ),
                MetricValue::Gauge(v) => {
                    assert_eq!(v, a.gauge(name).unwrap().max(b.gauge(name).unwrap()))
                }
            }
        }
        assert_eq!(both.counter("sim.packets_sent"), Some(200));
    }

    #[test]
    fn unroutable_packets_are_counted_and_traced_as_drops() {
        let reg = MetricsRegistry::new();
        let trace = TraceBuffer::with_capacity(16);
        let mut sim = Simulator::new(1);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(1),
            1,
            1500,
            SimDuration::ZERO,
        )));
        sim.add_host(Box::new(SinkAgent::default()));
        sim.compute_routes();
        sim.attach_obs(&reg);
        sim.attach_trace_buffer(trace.clone());
        assert_eq!(sim.run(), StopReason::Drained);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.packets_sent"), Some(1));
        assert_eq!(snap.counter("sim.packets_delivered"), Some(0));
        assert_eq!(snap.counter("sim.packets_dropped"), Some(1));
        assert_eq!(sim.packets_in_flight(), 0);
        let events = trace.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].to_json_line(),
            TraceEvent::new(0, "sim", "drop")
                .field("node", u64::from(a.0))
                .field("reason", "no_route")
                .to_json_line()
        );
    }

    #[test]
    fn event_budget_guards_runaway() {
        let (mut sim, _, _) = two_hosts_one_router(1);
        sim.set_event_budget(5);
        assert_eq!(sim.run(), StopReason::EventBudget);
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn compute_routes_prefers_short_paths() {
        // a → r1 → b and a → r1 → r2 → b; route a→b must use r1→b.
        let mut sim = Simulator::new(1);
        let a = sim.add_host(Box::new(SinkAgent::default()));
        let r1 = sim.add_router();
        let r2 = sim.add_router();
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let cfg = LinkConfig::new(1_000_000, SimDuration::from_millis(1));
        let a_r1 = sim.add_link(a, r1, cfg.clone());
        let r1_b = sim.add_link(r1, b, cfg.clone());
        let _r1_r2 = sim.add_link(r1, r2, cfg.clone());
        let _r2_b = sim.add_link(r2, b, cfg);
        sim.compute_routes();
        assert_eq!(sim.route(a, b), Some(a_r1));
        assert_eq!(sim.route(r1, b), Some(r1_b));
        assert_eq!(sim.route(b, a), None); // no reverse links exist
    }

    #[test]
    fn explicit_route_overrides() {
        let mut sim = Simulator::new(1);
        let a = sim.add_host(Box::new(SinkAgent::default()));
        let r1 = sim.add_router();
        let r2 = sim.add_router();
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let cfg = LinkConfig::new(1_000_000, SimDuration::from_millis(1));
        let _a_r1 = sim.add_link(a, r1, cfg.clone());
        let a_r2 = sim.add_link(a, r2, cfg.clone());
        let _r1_b = sim.add_link(r1, b, cfg.clone());
        let _r2_b = sim.add_link(r2, b, cfg);
        sim.compute_routes();
        sim.set_route(a, b, a_r2);
        assert_eq!(sim.route(a, b), Some(a_r2));
    }

    #[test]
    fn queueing_delay_emerges_under_load() {
        // Blast 100 × 1500 B at a 1 Mbps link: transmission is 12 ms per
        // packet, so the sink receives them 12 ms apart, and the link's
        // buffer fills (100 ms buffer = ~8 packets; the rest drop).
        let mut sim = Simulator::new(5);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(1),
            100,
            1500,
            SimDuration::ZERO, // all at once
        )));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let (ab, _) = sim.add_duplex_link(
            a,
            b,
            LinkConfig::new(1_000_000, SimDuration::from_millis(1)).buffer_ms(100),
        );
        sim.compute_routes();
        sim.run().expect_within_budget();
        let stats = sim.link_stats(ab);
        assert!(stats.dropped_full > 0, "buffer never overflowed");
        let sink: &SinkAgent = sim.agent(b).unwrap();
        assert_eq!(sink.packets + stats.dropped_full, 100);
        assert!(stats.mean_queue_delay() > SimDuration::from_millis(5));
    }

    #[test]
    fn link_reconfigure_takes_effect_mid_run() {
        // Blast packets at a slow link, then reconfigure it 10× faster
        // mid-queue: the backlog must drain at the new rate.
        let mut sim = Simulator::new(8);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(1),
            20,
            1500,
            SimDuration::ZERO,
        )));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let slow = LinkConfig::new(1_000_000, SimDuration::ZERO).buffer_bytes(100_000);
        let (ab, _) = sim.add_duplex_link(a, b, slow);
        sim.compute_routes();
        // At 1 Mbps a 1500 B packet takes 12 ms; 20 packets = 240 ms.
        // Reconfigure to 10 Mbps at t = 24 ms (after ~2 packets).
        sim.schedule_link_reconfig(
            SimTime::from_millis(24),
            ab,
            LinkConfig::new(10_000_000, SimDuration::ZERO).buffer_bytes(100_000),
        );
        sim.run().expect_within_budget();
        let sink: &SinkAgent = sim.agent(b).unwrap();
        assert_eq!(sink.packets, 20, "packets lost across reconfig");
        // 2 packets at 12 ms + 18 packets at 1.2 ms ≈ 46 ms ≪ 240 ms.
        assert!(
            sim.now() < SimTime::from_millis(80),
            "drain did not speed up: {}",
            sim.now()
        );
    }

    #[test]
    fn event_kinds_sum_to_events_and_superseded_deliveries_are_stale() {
        // 20 × 1500 B blasted at the 1 Mbps link `slow`, reconfigured to
        // 10 Mbps at `at`; returns the stale count.
        let run = |slow: LinkConfig, at: SimTime| {
            let reg = MetricsRegistry::new();
            let mut sim = Simulator::new(8);
            let a = sim.add_host(Box::new(Blaster::new(
                NodeId(1),
                20,
                1500,
                SimDuration::ZERO,
            )));
            let b = sim.add_host(Box::new(SinkAgent::default()));
            let (ab, _) = sim.add_duplex_link(a, b, slow);
            sim.compute_routes();
            sim.schedule_link_reconfig(
                at,
                ab,
                LinkConfig::new(10_000_000, SimDuration::ZERO).buffer_bytes(100_000),
            );
            sim.attach_obs(&reg);
            assert_eq!(sim.run(), StopReason::Drained);
            let snap = reg.snapshot();
            let kind = |k: &str| snap.counter(&format!("sim.events.{k}")).unwrap();
            let total: u64 = EVENT_METRICS.iter().map(|k| snap.counter(k).unwrap()).sum();
            assert_eq!(Some(total), snap.counter("sim.events"));
            assert_eq!(total, sim.events_processed());
            // Each packet is one delivery (one event per packet-hop).
            assert_eq!(kind("deliver"), 20);
            assert_eq!(kind("reconfig"), 1);
            assert_eq!(kind("start"), 2);
            assert_eq!(kind("fault"), 0);
            assert_eq!(sim.link_stats(ab).delivered_pkts, 20);
            kind("stale")
        };
        let slow = LinkConfig::new(1_000_000, SimDuration::ZERO).buffer_bytes(100_000);
        // The scenario of `link_reconfigure_takes_effect_mid_run`:
        // packets depart at 0, 12, 24 ms. At 24 ms the reconfiguration
        // (pushed first) re-times packets 3–20, but packet 2, which
        // departed at 12 ms, still heads the link's arrivals: nothing
        // pending is superseded.
        assert_eq!(run(slow.clone(), SimTime::from_millis(24)), 0);
        // Serialized at 10 Mbps with a one-MTU burst, packet 1 arrives at
        // 1.2 ms and packet 2 waits for credit until 12 ms. At 5 ms every
        // pending arrival belongs to an undeparted packet, so the re-time
        // supersedes the head the scheduler holds: one stale entry.
        let bursty = slow.phy_rate(10_000_000).burst(1500);
        assert_eq!(run(bursty, SimTime::from_millis(5)), 1);
    }

    #[test]
    fn queued_bytes_between_runs_is_the_backlog_at_now() {
        // 20 × 1500 B at 1 Mbps: departures every 12 ms from t = 0.
        let mut sim = Simulator::new(8);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(1),
            20,
            1500,
            SimDuration::ZERO,
        )));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let slow = LinkConfig::new(1_000_000, SimDuration::ZERO).buffer_bytes(100_000);
        let (ab, _) = sim.add_duplex_link(a, b, slow);
        sim.compute_routes();
        assert_eq!(sim.run_until(SimTime::from_millis(30)), StopReason::Horizon);
        // Departed at 0, 12 and 24 ms.
        assert_eq!(sim.link(ab).queued_bytes(), 17 * 1500);
        assert_eq!(sim.link_stats(ab).delivered_pkts, 3);
        assert_eq!(sim.run_until(SimTime::from_millis(50)), StopReason::Horizon);
        assert_eq!(sim.link(ab).queued_bytes(), 15 * 1500);
        assert_eq!(sim.link_stats(ab).delivered_pkts, 5);
    }

    #[test]
    fn timer_tokens_roundtrip() {
        struct TimerEcho {
            got: Vec<TimerToken>,
        }
        impl Agent for TimerEcho {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(2), 7);
                ctx.set_timer(SimDuration::from_millis(1), 9);
            }
            fn on_packet(&mut self, _: &mut Ctx, _: Packet) {}
            fn on_timer(&mut self, _: &mut Ctx, token: TimerToken) {
                self.got.push(token);
            }
        }
        let mut sim = Simulator::new(1);
        let a = sim.add_host(Box::new(TimerEcho { got: vec![] }));
        sim.run().expect_within_budget();
        let agent: &TimerEcho = sim.agent(a).unwrap();
        assert_eq!(agent.got, vec![9, 7]);
    }

    #[test]
    fn router_echoes_probe_requests() {
        use crate::packet::{PacketKind, PacketSpec, ProbeKind};
        struct Prober {
            target: NodeId,
            rtt_ns: Option<u64>,
        }
        impl Agent for Prober {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(PacketSpec::probe(
                    FlowId(1),
                    self.target,
                    ProbeKind::Request,
                    7,
                ));
            }
            fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
                if let PacketKind::Probe {
                    kind: ProbeKind::Reply { sent_at },
                    ident: 7,
                } = pkt.kind
                {
                    self.rtt_ns = Some(ctx.now().saturating_since(sent_at).as_nanos());
                }
            }
            fn on_timer(&mut self, _: &mut Ctx, _: TimerToken) {}
        }
        let mut sim = Simulator::new(1);
        let p = sim.add_host(Box::new(Prober {
            target: NodeId(1),
            rtt_ns: None,
        }));
        let r = sim.add_router();
        sim.add_duplex_link(
            p,
            r,
            LinkConfig::new(100_000_000, SimDuration::from_millis(5)),
        );
        sim.compute_routes();
        let reg = MetricsRegistry::new();
        sim.attach_obs(&reg);
        sim.run().expect_within_budget();
        let prober: &Prober = sim.agent(p).unwrap();
        let rtt = prober.rtt_ns.expect("router reply");
        // ~2 × 5 ms plus serialization.
        assert!(rtt > 10_000_000 && rtt < 11_000_000, "rtt {rtt}");
        // The reply was injected, not sent, and the ledger closes.
        let snap = reg.snapshot();
        let count = |name| snap.counter(name).unwrap();
        assert_eq!(count("sim.packets_sent"), 1);
        assert_eq!(count("sim.packets_injected"), 1);
        assert_eq!(
            count("sim.packets_sent") + count("sim.packets_injected"),
            count("sim.packets_delivered")
                + count("sim.packets_dropped")
                + sim.packets_in_flight() as u64
        );
    }

    #[test]
    fn background_packet_to_router_is_absorbed() {
        let mut sim = Simulator::new(1);
        let a = sim.add_host(Box::new(Blaster::new(NodeId(1), 1, 100, SimDuration::ZERO)));
        let r = sim.add_router();
        sim.add_duplex_link(
            a,
            r,
            LinkConfig::new(1_000_000, SimDuration::from_millis(1)),
        );
        sim.compute_routes();
        // Blaster targets NodeId(1) == the router.
        sim.run().expect_within_budget();
        // Nothing to assert beyond "did not panic / did not loop".
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn take_capture_removes_records() {
        let mut sim = Simulator::new(3);
        let a = sim.add_host(Box::new(Blaster::new(
            NodeId(1),
            2,
            100,
            SimDuration::from_millis(1),
        )));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        sim.add_duplex_link(
            a,
            b,
            LinkConfig::new(10_000_000, SimDuration::from_millis(1)),
        );
        sim.compute_routes();
        let h = sim.attach_capture(a);
        sim.run().expect_within_budget();
        let cap = sim.take_capture(h);
        assert_eq!(cap.records.len(), 2);
        assert!(sim.capture(h).is_empty());
    }

    #[test]
    fn streaming_sink_sees_what_a_capture_sees() {
        /// Counts records without retaining them.
        #[derive(Default)]
        struct CountSink {
            records: usize,
            bytes: u64,
            out_of_order: bool,
            last: SimTime,
        }
        impl crate::capture::PacketSink for CountSink {
            fn on_record(&mut self, rec: &PacketRecord) {
                self.records += 1;
                self.bytes += rec.pkt.size as u64;
                if rec.time < self.last {
                    self.out_of_order = true;
                }
                self.last = rec.time;
            }
        }

        let (mut sim, _, b) = two_hosts_one_router(42);
        let cap = sim.attach_capture(b);
        let sink = sim.attach_sink(b, Box::new(CountSink::default()));
        sim.run().expect_within_budget();
        let capture = sim.take_capture(cap);
        let counted = sim.sink::<CountSink>(sink).unwrap();
        assert_eq!(counted.records, capture.len());
        assert_eq!(
            counted.bytes,
            capture
                .records
                .iter()
                .map(|r| r.pkt.size as u64)
                .sum::<u64>()
        );
        assert!(!counted.out_of_order, "records not in time order");
        // Wrong-type downcasts are None, right-type takes round-trip.
        assert!(sim.sink::<Capture>(sink).is_none());
        let boxed = sim.take_sink(sink);
        let taken = (boxed as Box<dyn Any>).downcast::<CountSink>().unwrap();
        assert_eq!(taken.records, capture.len());
    }

    #[test]
    fn probe_packet_kind_is_preserved() {
        use crate::packet::ProbeKind;
        struct Prober {
            dst: NodeId,
            reply_seen: bool,
        }
        impl Agent for Prober {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(PacketSpec::probe(
                    FlowId(0),
                    self.dst,
                    ProbeKind::Request,
                    5,
                ));
            }
            fn on_packet(&mut self, _: &mut Ctx, pkt: Packet) {
                if let PacketKind::Probe {
                    kind: ProbeKind::Reply { .. },
                    ident,
                } = pkt.kind
                {
                    assert_eq!(ident, 5);
                    self.reply_seen = true;
                }
            }
            fn on_timer(&mut self, _: &mut Ctx, _: TimerToken) {}
        }
        struct Responder;
        impl Agent for Responder {
            fn on_start(&mut self, _: &mut Ctx) {}
            fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
                if let PacketKind::Probe {
                    kind: ProbeKind::Request,
                    ident,
                } = pkt.kind
                {
                    ctx.send(PacketSpec::probe(
                        pkt.flow,
                        pkt.src,
                        ProbeKind::Reply {
                            sent_at: pkt.sent_at,
                        },
                        ident,
                    ));
                }
            }
            fn on_timer(&mut self, _: &mut Ctx, _: TimerToken) {}
        }
        let mut sim = Simulator::new(1);
        let p = sim.add_host(Box::new(Prober {
            dst: NodeId(1),
            reply_seen: false,
        }));
        let q = sim.add_host(Box::new(Responder));
        sim.add_duplex_link(
            p,
            q,
            LinkConfig::new(1_000_000, SimDuration::from_millis(3)),
        );
        sim.compute_routes();
        sim.run().expect_within_budget();
        let prober: &Prober = sim.agent(p).unwrap();
        assert!(prober.reply_seen);
    }
}
