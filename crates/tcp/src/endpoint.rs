//! Ready-made host agents: a multi-connection TCP server and a TCP
//! download client.
//!
//! These play the roles of the paper's testbed processes:
//!
//! * [`TcpServerAgent`] with [`ServerSendPolicy::Unbounded`] is the
//!   `netperf` server (Server 1) — it streams data downstream for the
//!   whole test.
//! * [`TcpServerAgent`] with [`ServerSendPolicy::Catalog`] is the HTTP
//!   object server behind `TGtrans` — each accepted connection receives
//!   a randomly sized object.
//! * [`TcpClientAgent`] is the downloading side: `netperf`'s client
//!   ([`ClientBehavior::Once`]) or the repeating fetchers of `TGtrans`
//!   and `TGcong` ([`ClientBehavior::Repeat`]).

use crate::connection::{token_flow, ConnStats, TcpConfig, TcpConnection};
use csig_netsim::{
    Agent, Ctx, FlowId, NodeId, Packet, PacketKind, PacketSpec, SimDuration, SimTime, TcpFlags,
    TcpHeader, TimerToken, NO_SACK,
};
use csig_rng::StdRng;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// What a server sends on each accepted connection.
#[derive(Debug, Clone)]
pub enum ServerSendPolicy {
    /// Stream forever (netperf-style); the client or the simulation
    /// horizon ends the transfer.
    Unbounded,
    /// Send exactly this many payload bytes, then FIN.
    Fixed(u64),
    /// Pick an object size per connection: `(size_bytes, weight)` pairs
    /// sampled with probability proportional to weight.
    Catalog(Vec<(u64, f64)>),
}

impl ServerSendPolicy {
    /// The paper's `TGtrans` catalog: objects of 10 KB … 100 MB with
    /// fetch frequency inversely proportional to size.
    pub fn tgtrans_catalog() -> Self {
        let sizes = [10_000u64, 100_000, 1_000_000, 10_000_000, 100_000_000];
        ServerSendPolicy::Catalog(sizes.iter().map(|&s| (s, 1.0 / s as f64)).collect())
    }

    fn sample(&self, rng: &mut StdRng) -> Option<u64> {
        match self {
            ServerSendPolicy::Unbounded => None,
            ServerSendPolicy::Fixed(n) => Some(*n),
            ServerSendPolicy::Catalog(items) => {
                assert!(!items.is_empty(), "empty catalog");
                let total: f64 = items.iter().map(|(_, w)| w).sum();
                let mut x = rng.gen::<f64>() * total;
                for (size, w) in items {
                    x -= w;
                    if x <= 0.0 {
                        return Some(*size);
                    }
                }
                items.last().map(|last| last.0)
            }
        }
    }
}

struct ServerConn {
    conn: TcpConnection,
    app_started: bool,
}

/// Hashes a [`FlowId`] with two folded 64×64→128-bit multiplies in
/// place of SipHash: the server looks a connection up on every segment
/// it receives, and nothing iterates the map, so the order of its
/// buckets never reaches an output. Flow ids of one client block differ
/// only above bit 16, so each fold mixes the product's high half into
/// the low bits the table indexes by.
#[derive(Default)]
struct FlowHasher(u64);

impl FlowHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    const S: u64 = 0x243F_6A88_85A3_08D3;

    fn fold_mul(a: u64) -> u64 {
        let p = u128::from(a) * u128::from(Self::K);
        (p as u64) ^ (p >> 64) as u64
    }
}

impl Hasher for FlowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = Self::fold_mul(Self::fold_mul(self.0 ^ n) ^ Self::S);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A passive TCP endpoint accepting any number of connections and
/// sending data per its [`ServerSendPolicy`].
pub struct TcpServerAgent {
    cfg: TcpConfig,
    policy: ServerSendPolicy,
    conns: HashMap<FlowId, ServerConn, BuildHasherDefault<FlowHasher>>,
    /// Stats of completed connections, in completion order.
    pub completed: Vec<(FlowId, ConnStats)>,
    /// Keep completed connection stats? Disable for heavy cross-traffic.
    pub keep_completed: bool,
}

impl TcpServerAgent {
    /// A server with the given endpoint config and send policy.
    pub fn new(cfg: TcpConfig, policy: ServerSendPolicy) -> Self {
        TcpServerAgent {
            cfg,
            policy,
            conns: HashMap::default(),
            completed: Vec::new(),
            keep_completed: true,
        }
    }

    /// Access a live connection (e.g. to read in-stack stats mid-run).
    pub fn connection(&self, flow: FlowId) -> Option<&TcpConnection> {
        self.conns.get(&flow).map(|s| &s.conn)
    }

    /// Remove a finished connection, keeping its counters if asked to.
    fn reap(&mut self, flow: FlowId) {
        if let Some(slot) = self.conns.remove(&flow) {
            if self.keep_completed {
                self.completed.push((flow, slot.conn.stats));
            }
        }
    }
}

impl Agent for TcpServerAgent {
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let hdr = match &pkt.kind {
            PacketKind::Tcp(h) => *h,
            _ => return, // background traffic is absorbed
        };
        let flow = pkt.flow;
        let slot = if hdr.flags.syn() {
            self.conns.entry(flow).or_insert_with(|| ServerConn {
                conn: TcpConnection::listen(flow, pkt.src, self.cfg.clone()),
                app_started: false,
            })
        } else if let Some(slot) = self.conns.get_mut(&flow) {
            slot
        } else {
            // Stray segment for a finished/unknown connection: answer
            // with RST so a retransmitting peer aborts instead of
            // retrying until its timeout cap (real stacks do this for
            // closed ports/connections).
            if !hdr.flags.rst() {
                let rst = TcpHeader {
                    seq: hdr.ack,
                    ack: hdr.seq_end(),
                    flags: TcpFlags::RST | TcpFlags::ACK,
                    payload_len: 0,
                    window: 0,
                    sack: NO_SACK,
                };
                ctx.send(PacketSpec::tcp(flow, pkt.src, rst));
            }
            return;
        };
        slot.conn.on_segment(ctx, &hdr);
        if slot.conn.is_established() && !slot.app_started {
            slot.app_started = true;
            match self.policy.sample(ctx.rng()) {
                None => slot.conn.send_unbounded(ctx),
                Some(n) => {
                    slot.conn.send_data(ctx, n);
                    slot.conn.close(ctx);
                }
            }
        }
        if slot.conn.is_done() {
            self.reap(flow);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        let flow = token_flow(token);
        if let Some(slot) = self.conns.get_mut(&flow) {
            slot.conn.on_timer(ctx);
            if slot.conn.is_done() {
                self.reap(flow);
            }
        }
    }

    fn name(&self) -> &'static str {
        "tcp-server"
    }
}

/// How the client behaves across connections.
#[derive(Debug, Clone)]
pub enum ClientBehavior {
    /// Open one connection and receive until the transfer completes.
    Once,
    /// Re-connect after an exponentially distributed think time with
    /// the given mean; stop opening new connections at `until`.
    Repeat {
        /// Mean think time between fetches.
        mean_think: SimDuration,
        /// Do not start new fetches after this instant.
        until: SimTime,
    },
}

/// Outcome of one client fetch.
#[derive(Debug, Clone)]
pub struct FetchRecord {
    /// Flow id of this fetch.
    pub flow: FlowId,
    /// When the SYN went out.
    pub started: SimTime,
    /// When the transfer finished (connection done), if it did.
    pub finished: Option<SimTime>,
    /// In-order payload bytes received.
    pub bytes: u64,
}

// The client's "open next connection" alarm token is tagged with the
// top flow id of the client's block (`flow_base | 0xFFFF`), which no
// real connection uses as long as a client opens fewer than 65 535
// connections — so composite agents can route the timer back to the
// right client by flow block.

/// A downloading TCP client.
pub struct TcpClientAgent {
    server: NodeId,
    cfg: TcpConfig,
    behavior: ClientBehavior,
    /// Base flow id; connection `n` uses `flow_base + n`. Callers must
    /// space different clients' bases by 2¹⁶ (the top id of the block
    /// is reserved for the think-time alarm).
    flow_base: u32,
    next_conn: u32,
    conn: Option<TcpConnection>,
    /// Delay from agent start to the first connection attempt.
    start_delay: SimDuration,
    /// Abort each fetch this long after it starts (NDT-style
    /// fixed-duration tests against an unbounded sender).
    fetch_timeout: Option<SimDuration>,
    /// Per-fetch results.
    pub fetches: Vec<FetchRecord>,
    /// Total in-order payload bytes across all fetches.
    pub total_bytes: u64,
}

impl TcpClientAgent {
    /// A client downloading from `server`, labelling its connections
    /// starting at `flow_base`.
    pub fn new(server: NodeId, cfg: TcpConfig, behavior: ClientBehavior, flow_base: u32) -> Self {
        TcpClientAgent {
            server,
            cfg,
            behavior,
            flow_base,
            next_conn: 0,
            conn: None,
            start_delay: SimDuration::ZERO,
            fetch_timeout: None,
            fetches: Vec::new(),
            total_bytes: 0,
        }
    }

    /// Delay the first connection attempt by `delay` after agent start
    /// (lets several clients on one host start staggered).
    pub fn with_start_delay(mut self, delay: SimDuration) -> Self {
        self.start_delay = delay;
        self
    }

    /// Abort each fetch `timeout` after it starts, netperf/NDT style.
    pub fn with_fetch_timeout(mut self, timeout: SimDuration) -> Self {
        self.fetch_timeout = Some(timeout);
        self
    }

    /// The currently open connection, if any.
    pub fn connection(&self) -> Option<&TcpConnection> {
        self.conn.as_ref()
    }

    fn open_next(&mut self, ctx: &mut Ctx) {
        if let ClientBehavior::Repeat { until, .. } = self.behavior {
            if ctx.now() > until {
                return;
            }
        }
        let flow = FlowId(self.flow_base + self.next_conn);
        self.next_conn += 1;
        let mut conn = TcpConnection::active(flow, self.server, self.cfg.clone());
        conn.open(ctx);
        if let Some(timeout) = self.fetch_timeout {
            ctx.set_timer(timeout, Self::timeout_token(flow));
        }
        self.fetches.push(FetchRecord {
            flow,
            started: ctx.now(),
            finished: None,
            bytes: 0,
        });
        self.conn = Some(conn);
    }

    /// The think-time alarm token for this client.
    fn next_fetch_token(&self) -> u64 {
        (((self.flow_base | 0xFFFF) as u64) << 32) | 0xFFFF_FFFF
    }

    /// The fetch-timeout alarm token for connection `flow`.
    fn timeout_token(flow: FlowId) -> u64 {
        ((flow.0 as u64) << 32) | 0xFFFF_FFFE
    }

    fn after_event(&mut self, ctx: &mut Ctx) {
        let done = match &self.conn {
            Some(c) => c.is_done(),
            None => false,
        };
        if !done {
            return;
        }
        let Some(conn) = self.conn.take() else {
            unreachable!("presence checked above")
        };
        let bytes = conn.bytes_received();
        self.total_bytes += bytes;
        if let Some(rec) = self.fetches.last_mut() {
            rec.finished = Some(ctx.now());
            rec.bytes = bytes;
        }
        if let ClientBehavior::Repeat { mean_think, until } = self.behavior {
            if ctx.now() <= until {
                let u: f64 = ctx.rng().gen::<f64>();
                let think = mean_think.mul_f64(-(1.0 - u).ln());
                ctx.set_timer(think, self.next_fetch_token());
            }
        }
    }
}

impl Agent for TcpClientAgent {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.conn.is_some() || !self.fetches.is_empty() {
            return; // already running
        }
        if self.start_delay.is_zero() {
            self.open_next(ctx);
        } else {
            let token = self.next_fetch_token();
            ctx.set_timer(self.start_delay, token);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let hdr = match &pkt.kind {
            PacketKind::Tcp(h) => *h,
            _ => return,
        };
        match &mut self.conn {
            Some(conn) if conn.flow == pkt.flow => {
                conn.on_segment(ctx, &hdr);
            }
            _ => {
                // A segment for a finished fetch — e.g. a retransmitted
                // FIN whose original ack we sent got lost (there is no
                // TIME_WAIT in the model). Answer with RST so the peer
                // stops retrying, as a real closed socket would.
                if !hdr.flags.rst() {
                    let rst = TcpHeader {
                        seq: hdr.ack,
                        ack: hdr.seq_end(),
                        flags: TcpFlags::RST | TcpFlags::ACK,
                        payload_len: 0,
                        window: 0,
                        sack: NO_SACK,
                    };
                    ctx.send(PacketSpec::tcp(pkt.flow, pkt.src, rst));
                }
            }
        }
        self.after_event(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        if token == self.next_fetch_token() {
            self.open_next(ctx);
            return;
        }
        if let Some(conn) = &mut self.conn {
            if conn.flow == token_flow(token) {
                if token == Self::timeout_token(conn.flow) {
                    conn.abort(ctx);
                } else {
                    conn.on_timer(ctx);
                }
            }
        }
        self.after_event(ctx);
    }

    fn name(&self) -> &'static str {
        "tcp-client"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(id: u32) -> u64 {
        BuildHasherDefault::<FlowHasher>::default().hash_one(FlowId(id))
    }

    #[test]
    fn every_input_bit_reaches_the_low_bits() {
        for base in [0u32, 42, 1 << 20, (1 << 24) + 3, 0x1234_5678, u32::MAX] {
            for bit in 0..32 {
                assert_ne!(
                    hash(base) & 0xFFFF,
                    hash(base ^ (1 << bit)) & 0xFFFF,
                    "flipping bit {bit} of {base:#x} leaves the low 16 bits"
                );
            }
        }
    }

    #[test]
    fn a_client_block_spreads_over_the_table() {
        // `TGcong`-style ids: one connection per client, clients 2^16
        // apart. 40 keys drawn at random fill about 30 of 64 buckets.
        let buckets: std::collections::BTreeSet<u64> = (0..40u32)
            .map(|i| hash((1 << 24) + (i << 16)) & 63)
            .collect();
        assert!(
            buckets.len() >= 24,
            "40 ids share {} buckets",
            buckets.len()
        );
    }
}
