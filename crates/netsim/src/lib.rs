//! # csig-netsim — deterministic discrete-event network simulator
//!
//! The measurement substrate for the *TCP Congestion Signatures*
//! reproduction: an event-driven, packet-level network simulator that
//! plays the role of the paper's physical testbed (Raspberry Pis,
//! Linksys routers, and `tc`-shaped links).
//!
//! ## Building blocks
//!
//! * [`Simulator`] — topology construction, static routing, and the
//!   event loop.
//! * [`Link`]/[`LinkConfig`] — unidirectional links with token-bucket
//!   shaping, drop-tail or RED buffers, propagation delay, uniform
//!   jitter and i.i.d. loss (the `tc tbf` + `netem` model).
//! * [`Agent`] — protocol/application code on hosts (TCP endpoints and
//!   traffic generators live in higher crates).
//! * [`PacketSink`] — per-node packet taps, fed one record at a time;
//!   [`Capture`] is the buffering sink (the simulator's `tcpdump`).
//!
//! ## Determinism
//!
//! A simulation is a pure function of `(topology, agents, seed)`: the
//! event queue breaks ties by insertion order and every random choice
//! derives from the master seed through per-component streams
//! ([`rng::stream_rng`]). Repeating a run reproduces byte-identical
//! captures, which the experiment harness relies on.
//!
//! ## Example
//!
//! ```
//! use csig_netsim::{Simulator, LinkConfig, SimDuration, SinkAgent, StopReason};
//!
//! let mut sim = Simulator::new(42);
//! let a = sim.add_host(Box::new(SinkAgent::default()));
//! let b = sim.add_host(Box::new(SinkAgent::default()));
//! sim.add_duplex_link(a, b, LinkConfig::new(20_000_000, SimDuration::from_millis(10)));
//! sim.compute_routes();
//! assert_eq!(sim.run(), StopReason::Drained);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod agent;
pub mod capture;
pub mod event;
pub mod fault;
pub mod ids;
pub mod link;
pub mod packet;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use agent::{Agent, Command, Ctx, SinkAgent};
pub use capture::{Capture, Direction, NullSink, PacketRecord, PacketSink, SinkHandle};
pub use event::{EventEntry, EventKind, EventQueue, TimerToken};
pub use fault::{FaultAction, FaultEvent, FaultPlan, GilbertElliott, LossModel, ReorderSpec};
pub use ids::{FlowId, LinkId, NodeId, PacketId};
pub use link::{BufferSize, Link, LinkConfig};
pub use packet::{
    Packet, PacketKind, PacketSpec, ProbeKind, SackBlocks, TcpFlags, TcpHeader, DEFAULT_MSS,
    NO_SACK, TCP_HEADER_BYTES,
};
pub use pool::{PacketHandle, PacketPool};
pub use queue::{QueueKind, RedParams};
pub use sim::{Simulator, StopReason};
pub use time::{transmission_time, SimDuration, SimTime};
