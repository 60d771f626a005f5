//! Link model: token-bucket shaping, serialization, propagation, jitter
//! and loss.
//!
//! A link is unidirectional. It mirrors the paper's testbed construction,
//! where `tc` applies a token-bucket filter (rate + small burst) in front
//! of a physical NIC: packets wait in a byte-limited buffer
//! ([`LinkQueue`]), depart when the bucket holds enough tokens, occupy
//! the wire for a serialization time at the physical rate, then arrive
//! after the propagation delay plus optional uniform jitter. I.i.d.
//! random loss (netem-style) is applied at admission.
//!
//! Token credit is an integer count of 1/(8·10⁹) byte, so one elapsed
//! nanosecond adds exactly `rate_bps` units and a packet waits for its
//! credit until the exact nanosecond it exists (rounded up), with no
//! re-check.
//!
//! The link is a FIFO, work-conserving server, so it knows each packet's
//! departure the moment it admits the packet: `Link::enqueue` computes
//! the departure and arrival on the spot. In-order packets arrive in
//! admission order, so the link queues their arrivals itself and keeps
//! only the head in the scheduler's arrivals heap; a packet that may
//! overtake others gets a `Deliver` event of its own. The FIFO of
//! admitted packets gives the buffer occupancy (packets whose departure
//! has passed are retired at the next admission) and lets a fault or a
//! reconfiguration re-time the packets that have not departed yet.

use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultAction, FaultState, Impairment, ImpairmentRecord};
use crate::ids::{LinkId, NodeId, PacketId};
use crate::packet::Packet;
use crate::pool::{PacketHandle, PacketPool};
use crate::queue::{EnqueueResult, LinkQueue, QueueKind};
use crate::stats::LinkStats;
use crate::time::{transmission_time, SimDuration, SimTime, BIT_NS_PER_BYTE};
use csig_rng::StdRng;
use std::collections::VecDeque;

/// How the buffer depth is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferSize {
    /// Absolute byte capacity.
    Bytes(u64),
    /// Capacity expressed as queueing delay at the link rate — the
    /// convention the paper uses ("a 100 ms buffer"). Resolved to
    /// `rate_bps × duration / 8` bytes, with a floor of two MTUs.
    Time(SimDuration),
}

impl BufferSize {
    /// Resolve to bytes for a link of the given shaped rate.
    fn resolve(self, rate_bps: u64) -> u64 {
        match self {
            BufferSize::Bytes(b) => b.max(2 * 1500),
            BufferSize::Time(d) => {
                let bytes = (rate_bps as u128 * d.as_nanos() as u128) / (8 * 1_000_000_000);
                (bytes as u64).max(2 * 1500)
            }
        }
    }
}

/// Static configuration of a link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Shaped (token generation) rate in bits per second.
    pub rate_bps: u64,
    /// Physical serialization rate in bits per second. Packets occupy
    /// the wire for `size / phy_rate`; must be ≥ `rate_bps`. Defaults to
    /// `rate_bps` (no burst speed-up).
    pub phy_rate_bps: u64,
    /// Token bucket depth in bytes (the paper's testbed used 5 KB).
    /// Clamped to at least one MTU so full-size packets can pass.
    pub burst_bytes: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Uniform jitter: each packet's propagation delay is drawn from
    /// `prop_delay ± jitter` (clamped at zero).
    pub jitter: SimDuration,
    /// I.i.d. packet loss probability in `[0, 1)`, applied at admission.
    pub loss: f64,
    /// Buffer depth.
    pub buffer: BufferSize,
    /// Admission policy.
    pub queue: QueueKind,
}

impl LinkConfig {
    /// A link with the given shaped rate and propagation delay; no
    /// jitter, no loss, drop-tail buffer of 100 ms, 5 KB burst.
    pub fn new(rate_bps: u64, prop_delay: SimDuration) -> Self {
        LinkConfig {
            rate_bps,
            phy_rate_bps: rate_bps,
            burst_bytes: 5 * 1024,
            prop_delay,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            buffer: BufferSize::Time(SimDuration::from_millis(100)),
            queue: QueueKind::DropTail,
        }
    }

    /// Builder: set the buffer depth as queueing delay at the link rate.
    pub fn buffer_ms(mut self, ms: u64) -> Self {
        self.buffer = BufferSize::Time(SimDuration::from_millis(ms));
        self
    }

    /// Builder: set the buffer depth in bytes.
    pub fn buffer_bytes(mut self, bytes: u64) -> Self {
        self.buffer = BufferSize::Bytes(bytes);
        self
    }

    /// Builder: set the i.i.d. loss probability.
    pub fn loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1)");
        self.loss = p;
        self
    }

    /// Builder: set uniform jitter around the propagation delay.
    pub fn jitter(mut self, j: SimDuration) -> Self {
        self.jitter = j;
        self
    }

    /// Builder: set the physical serialization rate (≥ shaped rate).
    pub fn phy_rate(mut self, bps: u64) -> Self {
        self.phy_rate_bps = bps;
        self
    }

    /// Builder: set the admission policy.
    pub fn queue_kind(mut self, q: QueueKind) -> Self {
        self.queue = q;
        self
    }

    /// Builder: set the token bucket depth in bytes.
    pub fn burst(mut self, bytes: u64) -> Self {
        self.burst_bytes = bytes;
        self
    }
}

/// Token bucket: accumulates credit at the shaped rate up to the burst
/// depth, in [`BIT_NS_PER_BYTE`] units.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    rate_bps: u64,
    burst: u64,
    credit: u64,
    /// The instant `credit` was last brought up to date.
    at: SimTime,
}

impl TokenBucket {
    /// A full bucket at time zero, like tbf.
    fn new(rate_bps: u64, burst_bytes: u64) -> Self {
        let burst = burst_bytes.max(1500).saturating_mul(BIT_NS_PER_BYTE);
        TokenBucket {
            rate_bps,
            burst,
            credit: burst,
            at: SimTime::ZERO,
        }
    }

    /// Spend `bytes` of credit no earlier than `at`, returning the
    /// first instant the credit exists: the bucket refills up to `at`
    /// (capped at the burst), then waits `ceil(deficit / rate)` ns. A
    /// packet the credit already covers departs at `at` without the
    /// division.
    fn take(&mut self, bytes: u32, at: SimTime) -> SimTime {
        let cost = bytes as u64 * BIT_NS_PER_BYTE;
        assert!(cost <= self.burst, "packet exceeds the token-bucket burst");
        let (rate, burst) = (self.rate_bps, self.burst);
        // Saturating: `elapsed · rate` overflows after an idle spell of
        // u64::MAX / rate ns (1.8 s at 10 Gbps); the bucket is full then.
        let elapsed = at.saturating_since(self.at).as_nanos();
        let credit = elapsed
            .saturating_mul(rate)
            .saturating_add(self.credit)
            .min(burst);
        if credit >= cost {
            self.credit = credit - cost;
            self.at = at;
            return at;
        }
        let wait = (cost - credit).div_ceil(rate);
        self.credit = credit.saturating_add(wait * rate).min(burst) - cost;
        self.at = at + SimDuration::from_nanos(wait);
        self.at
    }
}

/// The buffer capacity `cfg` resolves to, after checking its rates.
fn checked_capacity(cfg: &LinkConfig) -> u64 {
    assert!(cfg.rate_bps > 0, "link rate must be positive");
    assert!(
        cfg.phy_rate_bps >= cfg.rate_bps,
        "physical rate must be >= shaped rate"
    );
    cfg.buffer.resolve(cfg.rate_bps)
}

/// A packet offered to a link.
#[derive(Debug)]
pub(crate) enum Offered {
    /// A packet just created (sent by an agent, or a router's probe
    /// reply), not yet in the pool.
    Fresh(Packet),
    /// A packet already in the pool, forwarded by a router; it keeps
    /// its slot from its first admission to its final delivery.
    Pooled(PacketHandle),
}

/// What became of a packet offered to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet buffered; its arrival is scheduled.
    Queued,
    /// Packet dropped by random loss before reaching the buffer.
    DroppedLoss,
    /// Packet dropped because the buffer was full.
    DroppedFull,
    /// Packet dropped by early detection (RED).
    DroppedEarly,
    /// Packet dropped because the link is down (fault injection).
    DroppedDown,
}

/// The state a departure is computed from: the token bucket, the wire
/// and the in-order delivery clamp.
#[derive(Debug, Clone, Copy)]
struct Clock {
    bucket: TokenBucket,
    /// When the wire finishes serializing the last scheduled packet.
    wire_free_at: SimTime,
    /// Latest in-order arrival handed out (for the FIFO clamp).
    last_arrival: SimTime,
}

/// The pending arrival of an in-order packet.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    time: SimTime,
    /// Drawn from the scheduler's sequence counter when the packet was
    /// scheduled, so the packet ties with other events exactly as its
    /// own event would.
    seq: u64,
    handle: PacketHandle,
}

/// An admitted packet, from admission until its departure has passed.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    /// The packet in the pool, also named by its pending arrival until a
    /// re-time moves it to a new handle.
    handle: PacketHandle,
    size: u32,
    enqueued_at: SimTime,
    /// Start of serialization; `SimTime::MAX` while a down link parks it.
    depart: SimTime,
    /// Extra hold-back chosen by a fault plan's reorder impairment at
    /// admission; kept across re-times.
    reorder: Option<SimDuration>,
    /// The link clock this packet was scheduled from, so a re-time can
    /// rewind to the last departed packet.
    before: Clock,
}

/// Runtime state of one unidirectional link.
#[derive(Debug)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Node whose egress this link is.
    pub from: NodeId,
    /// Node packets arrive at.
    pub to: NodeId,
    cfg: LinkConfig,
    clock: Clock,
    queue: LinkQueue,
    /// Admitted packets in FIFO order; those whose departure has passed
    /// leave at the next `Link::retire`.
    fifo: VecDeque<Scheduled>,
    /// Arrivals of the in-order packets, from scheduling until arrival.
    /// The FIFO clamp makes their times strictly increasing, and the
    /// scheduler holds an arrival keyed by the head whenever this is
    /// non-empty.
    arrivals: VecDeque<Arrival>,
    /// Attached fault plan state (impairments + dedicated RNG stream).
    fault: Option<FaultState>,
    /// True while a scheduled [`FaultAction::Down`] is in effect.
    down: bool,
    /// The link's random stream: loss, RED and jitter draws.
    rng: StdRng,
    /// Counters.
    pub stats: LinkStats,
}

impl Link {
    /// Build a link from config, drawing its randomness from `rng`.
    ///
    /// # Panics
    /// Panics if the physical rate is below the shaped rate or either
    /// rate is zero.
    pub fn new(id: LinkId, from: NodeId, to: NodeId, cfg: LinkConfig, rng: StdRng) -> Self {
        let capacity = checked_capacity(&cfg);
        Link {
            id,
            from,
            to,
            clock: Clock {
                bucket: TokenBucket::new(cfg.rate_bps, cfg.burst_bytes),
                wire_free_at: SimTime::ZERO,
                last_arrival: SimTime::ZERO,
            },
            queue: LinkQueue::new(cfg.queue, capacity),
            fifo: VecDeque::new(),
            arrivals: VecDeque::new(),
            fault: None,
            down: false,
            rng,
            stats: LinkStats::default(),
            cfg,
        }
    }

    /// Attach a fault plan's runtime state. The plan's loss model (if
    /// any) replaces the link's configured i.i.d. loss; scheduled
    /// [`FaultAction`]s are delivered by the simulator's event queue.
    pub fn attach_fault(&mut self, state: FaultState) {
        self.fault = Some(state);
    }

    /// The attached fault state, if any.
    pub fn fault(&self) -> Option<&FaultState> {
        self.fault.as_ref()
    }

    /// The impairment decisions made so far (empty without a plan).
    pub fn fault_log(&self) -> &[ImpairmentRecord] {
        self.fault.as_ref().map(FaultState::log).unwrap_or(&[])
    }

    /// Whether the link is currently down due to a scheduled fault.
    #[cfg(test)]
    fn is_down(&self) -> bool {
        self.down
    }

    /// Apply a scheduled fault at `now`, re-timing every packet that
    /// has not departed (see `Link::retime`). Down drops all offered
    /// traffic and parks those packets until Up.
    pub fn apply_fault_action(
        &mut self,
        now: SimTime,
        action: FaultAction,
        pool: &mut PacketPool,
        events: &mut EventQueue,
    ) {
        self.retime(now, pool, events, |l| {
            l.down = action == FaultAction::Down;
        });
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Resolved buffer capacity in bytes.
    pub fn buffer_capacity(&self) -> u64 {
        self.queue.capacity_bytes()
    }

    /// Bytes not departed at the last `Link::retire`; the simulator
    /// retires every link when a run returns, so between runs this is
    /// the backlog at [`crate::Simulator::now`].
    pub fn queued_bytes(&self) -> u64 {
        self.queue.queued_bytes()
    }

    /// High-water mark of buffered bytes.
    pub fn max_occupancy(&self) -> u64 {
        self.queue.max_occupancy()
    }

    /// Replace the link's traffic parameters at `now` (rate, delay,
    /// loss, buffer depth, queue kind). Packets that have not departed
    /// stay queued and are re-timed; the token bucket is re-seeded at
    /// the new rate with an empty burst so the new rate takes effect
    /// immediately. Used to model time-varying congestion state cheaply
    /// (standing queues, reduced available capacity) without simulating
    /// the traffic that causes it.
    pub fn reconfigure(
        &mut self,
        now: SimTime,
        cfg: LinkConfig,
        pool: &mut PacketPool,
        events: &mut EventQueue,
    ) {
        self.retime(now, pool, events, |l| l.set_config(now, cfg));
    }

    fn set_config(&mut self, now: SimTime, cfg: LinkConfig) {
        let capacity = checked_capacity(&cfg);
        self.clock.bucket = TokenBucket {
            credit: 0,
            at: now,
            ..TokenBucket::new(cfg.rate_bps, cfg.burst_bytes)
        };
        self.queue.set_capacity(capacity);
        if self.queue.kind() != cfg.queue {
            // Queue-kind swaps keep the FIFO but adopt the new policy.
            self.queue.set_kind(cfg.queue);
        }
        self.cfg = cfg;
    }

    /// Retire every packet that departed before `now` (one departing at
    /// `now` is still buffered) into [`LinkStats::delivered_pkts`]. Every
    /// remaining entry's handle is then live: its arrival is ahead.
    pub(crate) fn retire(&mut self, now: SimTime) {
        while let Some(&e) = self.fifo.front().filter(|e| e.depart < now) {
            self.queue.release(e.size);
            self.stats
                .record_delivery(e.size as u64, e.depart.saturating_since(e.enqueued_at));
            self.fifo.pop_front();
        }
    }

    /// Apply `change` at `now`. The clock rewinds to the one the first
    /// undeparted packet was scheduled from, and the undeparted packets'
    /// in-order arrivals, a suffix of `arrivals`, are dropped (if that
    /// empties it, the scheduler's arrival for the old head goes
    /// stale). Then each undeparted packet moves to a fresh pool handle
    /// (so a pending `Deliver` of its own goes stale) and is scheduled
    /// again from `now`, or parked while down.
    fn retime(
        &mut self,
        now: SimTime,
        pool: &mut PacketPool,
        events: &mut EventQueue,
        change: impl FnOnce(&mut Link),
    ) {
        self.retire(now);
        if let Some(first) = self.fifo.front() {
            self.clock = first.before;
        }
        for e in self.fifo.iter().rev() {
            if self.arrivals.back().is_some_and(|a| a.handle == e.handle) {
                self.arrivals.pop_back();
            }
        }
        change(self);
        let mut fifo = std::mem::take(&mut self.fifo);
        for e in fifo.iter_mut() {
            let pkt = pool.take(e.handle);
            e.handle = pool.insert(pkt);
            if self.down {
                e.depart = SimTime::MAX;
                e.before = self.clock;
            } else {
                self.schedule(e, now, events);
            }
        }
        self.fifo = fifo;
    }

    /// Offer a packet to the link at time `now`. An admitted packet is
    /// scheduled on `events`; a fresh one is stored in `pool` only then,
    /// so its drop never touches the pool, while a drop frees a pooled
    /// one's slot.
    pub(crate) fn enqueue(
        &mut self,
        offered: Offered,
        now: SimTime,
        pool: &mut PacketPool,
        events: &mut EventQueue,
    ) -> EnqueueOutcome {
        let (id, size) = match &offered {
            Offered::Fresh(pkt) => (pkt.id, pkt.size),
            Offered::Pooled(h) => {
                let pkt = pool.get(*h);
                (pkt.id, pkt.size)
            }
        };
        let dup = match self.admission(id, size, now) {
            Ok(dup) => dup,
            Err(dropped) => {
                if let Offered::Pooled(h) = offered {
                    pool.take(h);
                }
                return dropped;
            }
        };
        let handle = match offered {
            Offered::Fresh(pkt) => pool.insert(pkt),
            Offered::Pooled(h) => h,
        };
        self.admit(handle, size, id, now, events);
        if dup {
            // The duplicate shares the original's id, like a wire-level
            // duplication would, but has a pool slot of its own.
            self.stats.offered_pkts += 1;
            self.stats.offered_bytes += size as u64;
            match self.queue.try_admit(size, &mut self.rng) {
                EnqueueResult::Queued => {
                    let copy = pool.insert(*pool.get(handle));
                    self.admit(copy, size, id, now, events);
                    self.stats.duplicated += 1;
                    if let Some(f) = &mut self.fault {
                        f.record(now, id, Impairment::Duplicated);
                    }
                }
                EnqueueResult::DroppedFull => self.stats.dropped_full += 1,
                EnqueueResult::DroppedEarly => self.stats.dropped_early += 1,
            }
        }
        EnqueueOutcome::Queued
    }

    /// Decide the fate of a packet offered at `now`: `Ok` with the
    /// duplication decision if the buffer admits it, or the drop.
    fn admission(&mut self, id: PacketId, size: u32, now: SimTime) -> Result<bool, EnqueueOutcome> {
        self.retire(now);
        self.stats.offered_pkts += 1;
        self.stats.offered_bytes += size as u64;
        if self.down {
            self.stats.dropped_down += 1;
            if let Some(f) = &mut self.fault {
                f.record(now, id, Impairment::LostDown);
            }
            return Err(EnqueueOutcome::DroppedDown);
        }
        // A fault plan's loss model replaces the configured i.i.d. loss.
        let lost = match &mut self.fault {
            Some(f) if f.overrides_loss() => f.roll_loss(),
            _ => self.cfg.loss > 0.0 && self.rng.gen::<f64>() < self.cfg.loss,
        };
        if lost {
            self.stats.dropped_loss += 1;
            if let Some(f) = &mut self.fault {
                f.record(now, id, Impairment::Lost);
            }
            return Err(EnqueueOutcome::DroppedLoss);
        }
        // Duplication decision is rolled per admitted packet so the
        // fault stream's draw sequence is a pure function of the offered
        // traffic; the copy is discarded if the original is dropped.
        let dup = match &mut self.fault {
            Some(f) => f.roll_duplicate(),
            None => false,
        };
        match self.queue.try_admit(size, &mut self.rng) {
            EnqueueResult::Queued => Ok(dup),
            EnqueueResult::DroppedFull => {
                self.stats.dropped_full += 1;
                Err(EnqueueOutcome::DroppedFull)
            }
            EnqueueResult::DroppedEarly => {
                self.stats.dropped_early += 1;
                Err(EnqueueOutcome::DroppedEarly)
            }
        }
    }

    /// Buffer an admitted packet, roll its reorder impairment and
    /// schedule it.
    fn admit(
        &mut self,
        handle: PacketHandle,
        size: u32,
        id: PacketId,
        now: SimTime,
        events: &mut EventQueue,
    ) {
        self.queue.admit(size);
        let reorder = self.fault.as_mut().and_then(FaultState::roll_reorder);
        if let (Some(_), Some(f)) = (reorder, &mut self.fault) {
            self.stats.reordered += 1;
            f.record(now, id, Impairment::Reordered);
        }
        let mut e = Scheduled {
            handle,
            size,
            enqueued_at: now,
            depart: SimTime::MAX,
            reorder,
            before: self.clock,
        };
        self.schedule(&mut e, now, events);
        self.fifo.push_back(e);
    }

    /// Compute `e`'s departure and arrival from the link clock and
    /// schedule the arrival. Service starts when the wire is free and
    /// the token bucket holds the packet's credit.
    fn schedule(&mut self, e: &mut Scheduled, now: SimTime, events: &mut EventQueue) {
        e.before = self.clock;
        let depart = self
            .clock
            .bucket
            .take(e.size, now.max(self.clock.wire_free_at));
        e.depart = depart;
        let done = depart + transmission_time(e.size as u64, self.cfg.phy_rate_bps);
        self.clock.wire_free_at = done;

        // Propagation with optional uniform jitter around prop_delay.
        let prop = if self.cfg.jitter.is_zero() {
            self.cfg.prop_delay
        } else {
            let j = self.cfg.jitter.as_nanos();
            let off = self.rng.gen_range(0..=(2 * j));
            (self.cfg.prop_delay + SimDuration::from_nanos(off))
                .saturating_sub(SimDuration::from_nanos(j))
        };
        let arrival = done + prop;
        if let Some(extra) = e.reorder {
            // Fault-injected reordering: hold the packet back past its
            // nominal arrival and exempt it from the FIFO clamp (and
            // from advancing it), so later departures overtake it.
            events.push(arrival + extra, EventKind::Deliver(self.to, e.handle));
        } else {
            let time = arrival.max(self.clock.last_arrival + SimDuration::from_nanos(1));
            self.clock.last_arrival = time;
            let seq = events.next_seq();
            if self.arrivals.is_empty() {
                events.push_arrival(time, seq, self.id);
            }
            self.arrivals.push_back(Arrival {
                time,
                seq,
                handle: e.handle,
            });
        }
    }

    /// Take the head of the in-order arrivals if the scheduler's minimum,
    /// an arrival for this link keyed `(time, seq)`, still names it; the
    /// entry is then re-keyed in place to the next head, or vacated for
    /// the next arrival pushed in this event. A stale entry (its head
    /// was re-timed) is popped and `None` returned.
    pub(crate) fn arrive(
        &mut self,
        time: SimTime,
        seq: u64,
        events: &mut EventQueue,
    ) -> Option<PacketHandle> {
        let Some(&head) = self
            .arrivals
            .front()
            .filter(|a| (a.time, a.seq) == (time, seq))
        else {
            events.pop_arrival();
            return None;
        };
        self.arrivals.pop_front();
        match self.arrivals.front() {
            Some(next) => events.replace_min(next.time, next.seq, self.id),
            None => events.vacate_min(),
        }
        Some(head.handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Next;
    use crate::ids::{FlowId, PacketId};
    use crate::packet::PacketKind;

    fn pkt(id: u64, size: u32) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            sent_at: SimTime::ZERO,
            kind: PacketKind::Background,
        }
    }

    fn link(cfg: LinkConfig) -> Link {
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            cfg,
            StdRng::seed_from_u64(1),
        )
    }

    /// Test fixture: a link plus the packet pool and event queue it
    /// schedules into.
    struct Rig {
        l: Link,
        pool: PacketPool,
        events: EventQueue,
    }

    impl Rig {
        fn new(cfg: LinkConfig) -> Self {
            Rig {
                l: link(cfg),
                pool: PacketPool::new(),
                events: EventQueue::new(),
            }
        }

        fn enqueue(&mut self, p: Packet, now: SimTime) -> EnqueueOutcome {
            self.l
                .enqueue(Offered::Fresh(p), now, &mut self.pool, &mut self.events)
        }

        fn fault(&mut self, now: SimTime, action: FaultAction) {
            self.l
                .apply_fault_action(now, action, &mut self.pool, &mut self.events);
        }

        /// Fire every pending arrival in time order, returning `(packet
        /// id, arrival)` per delivery (taking each packet back out of
        /// the pool) and skipping superseded ones, then retire every
        /// departed packet.
        fn drain(&mut self) -> Vec<(u64, SimTime)> {
            let mut out = vec![];
            while let Some((time, seq, next)) = self.events.peek() {
                let handle = match next {
                    Next::Link(_) => self.l.arrive(time, seq, &mut self.events),
                    Next::Other => match self.events.pop_other().map(|e| e.kind) {
                        Some(EventKind::Deliver(_, h)) => {
                            Some(h).filter(|&h| self.pool.contains(h))
                        }
                        _ => None,
                    },
                };
                if let Some(h) = handle {
                    out.push((self.pool.take(h).id.0, time));
                }
            }
            self.l.retire(SimTime::MAX);
            out
        }
    }

    #[test]
    fn buffer_size_resolution() {
        // 20 Mbps × 100 ms = 250_000 bytes.
        assert_eq!(
            BufferSize::Time(SimDuration::from_millis(100)).resolve(20_000_000),
            250_000
        );
        assert_eq!(BufferSize::Bytes(50_000).resolve(1), 50_000);
        // Floor of two MTUs.
        assert_eq!(BufferSize::Bytes(10).resolve(1), 3000);
        assert_eq!(
            BufferSize::Time(SimDuration::from_micros(1)).resolve(1_000_000),
            3000
        );
    }

    #[test]
    fn single_packet_arrives_after_tx_plus_prop() {
        // 12 Mbps, 1500 B => 1 ms serialization; 20 ms propagation.
        let cfg = LinkConfig::new(12_000_000, SimDuration::from_millis(20));
        let mut r = Rig::new(cfg);
        assert_eq!(
            r.enqueue(pkt(1, 1500), SimTime::ZERO),
            EnqueueOutcome::Queued
        );
        assert_eq!(r.drain(), vec![(1, SimTime::from_millis(21))]);
    }

    #[test]
    fn back_to_back_packets_spaced_by_serialization() {
        // Burst only one MTU so the second packet must wait for tokens.
        let cfg = LinkConfig::new(12_000_000, SimDuration::ZERO).burst(1500);
        let mut r = Rig::new(cfg);
        r.enqueue(pkt(1, 1500), SimTime::ZERO);
        r.enqueue(pkt(2, 1500), SimTime::ZERO);
        assert_eq!(
            r.drain(),
            vec![(1, SimTime::from_millis(1)), (2, SimTime::from_millis(2))]
        );
    }

    #[test]
    fn credit_wait_ends_at_the_exact_instant() {
        // 12 Mbps shaped, 120 Mbps physical, one-MTU burst: the first
        // packet leaves the bucket empty at 0 and takes 100 us on the
        // wire; the second waits until exactly 1500 B of credit have
        // accrued (1 ms), then takes another 100 us.
        let cfg = LinkConfig::new(12_000_000, SimDuration::ZERO)
            .phy_rate(120_000_000)
            .burst(1500);
        let mut r = Rig::new(cfg);
        r.enqueue(pkt(1, 1500), SimTime::ZERO);
        r.enqueue(pkt(2, 1500), SimTime::ZERO);
        assert_eq!(
            r.drain(),
            vec![
                (1, SimTime::from_micros(100)),
                (2, SimTime::from_micros(1100))
            ]
        );
    }

    #[test]
    fn credit_equal_to_the_cost_departs_at_once_and_empties_the_bucket() {
        let mut b = TokenBucket::new(8_000_000_000, 1500);
        let at = SimTime::from_micros(7);
        assert_eq!(b.take(1500, at), at);
        assert_eq!((b.credit, b.at), (0, at));
    }

    #[test]
    fn credit_one_unit_short_waits_exactly_one_nanosecond() {
        // At 8 Gbps one nanosecond adds a byte of credit, 8·10⁹ units,
        // so a deficit of one unit costs one nanosecond and leaves the
        // rest of that byte behind in a bucket deep enough to hold it.
        let rate = 8_000_000_000;
        let mut b = TokenBucket::new(rate, 3000);
        let at = SimTime::from_micros(7);
        (b.credit, b.at) = (1500 * BIT_NS_PER_BYTE - 1, at);
        let want = at + SimDuration::from_nanos(1);
        assert_eq!(b.take(1500, at), want);
        assert_eq!((b.credit, b.at), (rate - 1, want));
    }

    #[test]
    fn bucket_is_full_after_a_long_idle_spell() {
        // 10 Gbps shaped, 100 Gbps physical, three-MTU burst. An hour of
        // credit at 10 Gbps overflows a u64 count of units, yet it only
        // refills the bucket to its burst: after the idle hour three
        // packets again leave at the physical rate, 120 ns apart.
        let cfg = LinkConfig::new(10_000_000_000, SimDuration::ZERO)
            .phy_rate(100_000_000_000)
            .burst(4500);
        let mut r = Rig::new(cfg);
        let hour = SimTime::from_secs(3600);
        for start in [SimTime::ZERO, hour] {
            for i in 1..=3 {
                r.enqueue(pkt(i, 1500), start);
            }
            let at = |ns| start + SimDuration::from_nanos(ns);
            assert_eq!(r.drain(), vec![(1, at(120)), (2, at(240)), (3, at(360))]);
        }
    }

    #[test]
    fn token_burst_allows_fast_start() {
        // 10 Mbps shaped but 100 Mbps physical with 5 KB burst: the
        // first ~3 packets serialize at the physical rate.
        let cfg = LinkConfig::new(10_000_000, SimDuration::ZERO)
            .phy_rate(100_000_000)
            .burst(5 * 1024);
        let mut r = Rig::new(cfg);
        for i in 0..3 {
            r.enqueue(pkt(i, 1500), SimTime::ZERO);
        }
        let arrivals: Vec<SimTime> = r.drain().into_iter().map(|(_, at)| at).collect();
        assert_eq!(arrivals.len(), 3);
        // 3 × 1500 = 4500 B fits the 5120 B burst: all three go out at
        // the 100 Mbps physical spacing (120 us apart), far faster than
        // the shaped 1.2 ms spacing.
        let spacing = arrivals[2].saturating_since(arrivals[0]);
        assert!(
            spacing < SimDuration::from_micros(400),
            "burst not honored: {spacing}"
        );
    }

    #[test]
    fn loss_drops_expected_fraction() {
        let cfg = LinkConfig::new(1_000_000_000, SimDuration::ZERO).loss(0.3);
        let mut r = Rig::new(cfg);
        let mut dropped = 0;
        for i in 0..10_000 {
            // One packet per ms: the buffer never fills.
            match r.enqueue(pkt(i, 100), SimTime::from_millis(i)) {
                EnqueueOutcome::DroppedLoss => dropped += 1,
                EnqueueOutcome::Queued => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let frac = dropped as f64 / 10_000.0;
        assert!((0.27..0.33).contains(&frac), "loss fraction {frac}");
        assert_eq!(r.l.stats.dropped_loss, dropped);
    }

    #[test]
    fn overflow_drops_counted() {
        let cfg = LinkConfig::new(1_000_000, SimDuration::ZERO).buffer_bytes(3000);
        let mut r = Rig::new(cfg);
        for i in 0..5 {
            r.enqueue(pkt(i, 1500), SimTime::ZERO);
        }
        assert_eq!(r.l.stats.dropped_full, 3);
        assert_eq!(r.l.queued_bytes(), 3000);
        // Only admitted packets occupy the pool.
        assert_eq!(r.pool.live(), 2);
    }

    #[test]
    fn jitter_never_reorders() {
        let cfg = LinkConfig::new(100_000_000, SimDuration::from_millis(10))
            .jitter(SimDuration::from_millis(5));
        let mut r = Rig::new(cfg);
        for i in 0..50 {
            r.enqueue(pkt(i, 1500), SimTime::ZERO);
        }
        // The drain lists arrivals in time order, so FIFO delivery means
        // the ids come out in admission order.
        let arrivals = r.drain();
        let ids: Vec<u64> = arrivals.iter().map(|a| a.0).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>(), "reordered");
        assert!(arrivals.windows(2).all(|w| w[0].1 < w[1].1));
    }

    use crate::fault::{FaultPlan, FaultState, GilbertElliott};
    use crate::rng::stream_rng;

    #[test]
    fn fault_reorder_delivers_out_of_order() {
        let cfg = LinkConfig::new(100_000_000, SimDuration::from_millis(1));
        let mut r = Rig::new(cfg);
        let plan = FaultPlan::new().reorder(0.2, SimDuration::from_millis(10));
        r.l.attach_fault(FaultState::new(plan, stream_rng(3, 0)));
        for i in 0..100 {
            r.enqueue(pkt(i, 1500), SimTime::ZERO);
        }
        let arrivals = r.drain();
        assert_eq!(arrivals.len(), 100);
        assert!(r.l.stats.reordered > 0);
        // At least one packet arrives after a higher-id packet (the
        // drain lists arrivals in time order).
        let out_of_order = arrivals.windows(2).any(|w| w[0].0 > w[1].0);
        assert!(out_of_order, "no reordering observed");
        assert_eq!(r.l.stats.reordered as usize, r.l.fault_log().len());
    }

    #[test]
    fn fault_down_drops_and_up_recovers() {
        let cfg = LinkConfig::new(100_000_000, SimDuration::ZERO);
        let mut r = Rig::new(cfg);
        r.l.attach_fault(FaultState::new(FaultPlan::new(), stream_rng(3, 0)));
        r.fault(SimTime::ZERO, FaultAction::Down);
        assert!(r.l.is_down());
        assert_eq!(
            r.enqueue(pkt(1, 1500), SimTime::ZERO),
            EnqueueOutcome::DroppedDown
        );
        assert_eq!(r.l.stats.dropped_down, 1);
        assert!(r.drain().is_empty());
        r.fault(SimTime::from_millis(1), FaultAction::Up);
        assert!(!r.l.is_down());
        assert_eq!(
            r.enqueue(pkt(2, 1500), SimTime::from_millis(1)),
            EnqueueOutcome::Queued
        );
        let arrivals = r.drain();
        assert_eq!(arrivals.len(), 1);
    }

    #[test]
    fn down_parks_undeparted_packets_until_up() {
        // 1 Mbps, one-MTU burst: 1500 B depart at 0, 12 and 24 ms.
        let cfg = LinkConfig::new(1_000_000, SimDuration::ZERO).burst(1500);
        let mut r = Rig::new(cfg);
        for i in 1..=3 {
            r.enqueue(pkt(i, 1500), SimTime::ZERO);
        }
        // Down at 5 ms: the first packet is on the wire, the other two
        // park (their scheduled deliveries become stale).
        r.fault(SimTime::from_millis(5), FaultAction::Down);
        assert_eq!(r.l.queued_bytes(), 3000);
        // Up at 50 ms: the bucket refilled from where the first packet
        // left it, so the backlog departs at 50 and 62 ms.
        r.fault(SimTime::from_millis(50), FaultAction::Up);
        let out = r.drain();
        let ids: Vec<u64> = out.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(out[0].1, SimTime::from_millis(12));
        assert_eq!(out[1].1, SimTime::from_millis(62));
        assert_eq!(out[2].1, SimTime::from_millis(74));
        assert_eq!(r.l.stats.delivered_pkts, 3);
        assert_eq!(r.l.queued_bytes(), 0);
        assert_eq!(r.pool.live(), 0);
    }

    #[test]
    fn fault_duplication_admits_extra_copies() {
        let cfg = LinkConfig::new(1_000_000_000, SimDuration::ZERO).buffer_bytes(10_000_000);
        let mut r = Rig::new(cfg);
        let plan = FaultPlan::new().duplicate(0.25);
        r.l.attach_fault(FaultState::new(plan, stream_rng(3, 0)));
        for i in 0..1000 {
            r.enqueue(pkt(i, 100), SimTime::ZERO);
        }
        let frac = r.l.stats.duplicated as f64 / 1000.0;
        assert!((0.2..0.3).contains(&frac), "duplication fraction {frac}");
        assert_eq!(
            r.l.queued_bytes(),
            (1000 + r.l.stats.duplicated) * 100,
            "copies occupy the buffer"
        );
        assert_eq!(r.pool.live() as u64, 1000 + r.l.stats.duplicated);
    }

    #[test]
    fn fault_ge_loss_replaces_configured_loss() {
        // Configured loss 0 but GE plan drops ~10%.
        let cfg = LinkConfig::new(1_000_000_000, SimDuration::ZERO).buffer_bytes(10_000_000);
        let mut r = Rig::new(cfg);
        let plan = FaultPlan::new().gilbert_elliott(GilbertElliott::bursty(5.0, 0.1));
        r.l.attach_fault(FaultState::new(plan, stream_rng(3, 0)));
        let mut dropped = 0u64;
        for i in 0..20_000 {
            if r.enqueue(pkt(i, 100), SimTime::ZERO) == EnqueueOutcome::DroppedLoss {
                dropped += 1;
            }
        }
        let frac = dropped as f64 / 20_000.0;
        assert!((0.08..0.12).contains(&frac), "GE loss fraction {frac}");
        assert_eq!(r.l.stats.dropped_loss, dropped);
    }

    #[test]
    #[should_panic(expected = "exceeds the token-bucket burst")]
    fn packet_larger_than_the_burst_is_rejected() {
        // It could never gather enough credit: fail instead of spinning.
        let mut r = Rig::new(LinkConfig::new(1_000_000, SimDuration::ZERO).burst(1500));
        r.enqueue(pkt(1, 3000), SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn phy_below_shaped_rejected() {
        let cfg = LinkConfig::new(1_000_000, SimDuration::ZERO).phy_rate(1);
        let _ = link(cfg);
    }

    #[test]
    fn queue_delay_statistics_accumulate() {
        let cfg = LinkConfig::new(12_000_000, SimDuration::ZERO).burst(1500);
        let mut r = Rig::new(cfg);
        r.enqueue(pkt(1, 1500), SimTime::ZERO);
        r.enqueue(pkt(2, 1500), SimTime::ZERO);
        r.drain();
        assert_eq!(r.l.stats.delivered_pkts, 2);
        // Second packet waited ~1 ms for tokens.
        assert!(r.l.stats.total_queue_delay >= SimDuration::from_micros(900));
        assert!(r.l.stats.mean_queue_delay() > SimDuration::ZERO);
    }
}
