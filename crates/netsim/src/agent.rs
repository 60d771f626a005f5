//! Host behaviour: the [`Agent`] trait and its callback context.
//!
//! An agent is the protocol/application code running on a host node —
//! a TCP endpoint, a traffic generator, a latency prober. The simulator
//! invokes its callbacks; the agent reacts by issuing [`Command`]s
//! through [`Ctx`] (send a packet, arm a timer). Commands are buffered
//! and applied by the simulator after the callback returns, which keeps
//! borrow-checking trivial and event ordering explicit.

use crate::event::TimerToken;
use crate::ids::NodeId;
use crate::packet::{Packet, PacketSpec};
use crate::time::{SimDuration, SimTime};
use csig_rng::StdRng;
use std::any::Any;

/// Deferred effects an agent requests during a callback.
#[derive(Debug)]
pub enum Command {
    /// Transmit a packet (the simulator assigns id/timestamp/route).
    Send(PacketSpec),
    /// Arm a one-shot timer `delay` from now carrying `token`.
    SetTimer(SimDuration, TimerToken),
}

/// The environment handed to every agent callback.
pub struct Ctx<'a> {
    now: SimTime,
    node: NodeId,
    commands: &'a mut Vec<Command>,
    rng: &'a mut StdRng,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        now: SimTime,
        node: NodeId,
        commands: &'a mut Vec<Command>,
        rng: &'a mut StdRng,
    ) -> Self {
        Ctx {
            now,
            node,
            commands,
            rng,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Queue a packet for transmission. The packet leaves the host at
    /// the current instant (it may then wait in the first link's buffer).
    pub fn send(&mut self, spec: PacketSpec) {
        debug_assert!(spec.dst != self.node, "agent sending to itself");
        self.commands.push(Command::Send(spec));
    }

    /// Arm a one-shot timer. There is no cancellation: encode a
    /// generation counter in `token` and ignore stale firings.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.commands.push(Command::SetTimer(delay, token));
    }

    /// This host's private deterministic PRNG stream.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// Protocol/application code attached to a host node.
///
/// Implementations must also be `Any` so experiment harnesses can
/// downcast and read results after the simulation finishes (e.g. pull
/// the byte counters out of a sink agent).
pub trait Agent: Any {
    /// Called once when the host starts (at its scheduled start time).
    fn on_start(&mut self, ctx: &mut Ctx);

    /// Called for every packet delivered to this host.
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet);

    /// Called when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken);

    /// Human-readable label for debugging.
    fn name(&self) -> &'static str {
        "agent"
    }
}

/// An agent that silently absorbs everything — useful as a sink for
/// background traffic, and as a placeholder endpoint in tests.
#[derive(Debug, Default)]
pub struct SinkAgent {
    /// Packets received.
    pub packets: u64,
    /// Wire bytes received.
    pub bytes: u64,
}

impl Agent for SinkAgent {
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
        self.packets += 1;
        self.bytes += pkt.size as u64;
    }

    fn on_timer(&mut self, _ctx: &mut Ctx, _token: TimerToken) {}

    fn name(&self) -> &'static str {
        "sink"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::rng::stream_rng;

    #[test]
    fn ctx_buffers_commands() {
        let mut cmds = Vec::new();
        let mut rng = stream_rng(1, 1);
        let mut ctx = Ctx::new(SimTime::from_millis(3), NodeId(0), &mut cmds, &mut rng);
        assert_eq!(ctx.now(), SimTime::from_millis(3));
        assert_eq!(ctx.node(), NodeId(0));
        ctx.send(PacketSpec::background(FlowId(0), NodeId(1), 100));
        ctx.set_timer(SimDuration::from_millis(10), 99);
        assert_eq!(cmds.len(), 2);
        assert!(matches!(cmds[0], Command::Send(_)));
        assert!(matches!(cmds[1], Command::SetTimer(d, 99) if d == SimDuration::from_millis(10)));
    }

    #[test]
    fn sink_counts_traffic() {
        let mut sink = SinkAgent::default();
        let mut cmds = Vec::new();
        let mut rng = stream_rng(1, 1);
        let mut ctx = Ctx::new(SimTime::ZERO, NodeId(1), &mut cmds, &mut rng);
        let pkt = Packet {
            id: crate::ids::PacketId(1),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size: 500,
            sent_at: SimTime::ZERO,
            kind: crate::packet::PacketKind::Background,
        };
        sink.on_packet(&mut ctx, pkt);
        sink.on_packet(&mut ctx, pkt);
        assert_eq!(sink.packets, 2);
        assert_eq!(sink.bytes, 1000);
        assert_eq!(sink.name(), "sink");
    }
}
