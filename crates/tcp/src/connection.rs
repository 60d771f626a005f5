//! The TCP connection state machine.
//!
//! One [`TcpConnection`] instance is one endpoint of one connection. It
//! contains a send half (sequence tracking, retransmission, recovery,
//! RTO) and a receive half (reassembly, cumulative ACK generation),
//! delegates window management to a pluggable
//! [`CongestionControl`], and exposes
//! Web100-style counters in [`ConnStats`].
//!
//! The model implements: three-way handshake (with handshake
//! retransmission), NewReno loss recovery (triple-dupack fast
//! retransmit, partial ACKs, window inflation/deflation), RFC 6298 RTO
//! with Karn's rule, SACK-based loss recovery (RFC 2018 blocks with a
//! scoreboard), go-back-N slow-start restart after a timeout,
//! receive-window flow control and FIN close. Every arriving segment is
//! ACKed at once (quickack). It does not implement delayed ACKs,
//! timestamps, ECN, or urgent data.

use crate::cc::{AckInfo, CcKind, CongestionControl};
use crate::rtt::RttEstimator;
use crate::seq::{offset_of, wire_seq};
use csig_netsim::{
    Ctx, FlowId, NodeId, PacketSpec, SackBlocks, SimDuration, SimTime, TcpFlags, TcpHeader,
    TimerToken, NO_SACK,
};
use std::collections::VecDeque;

/// Endpoint configuration: the stack properties experiments vary.
/// Everything else is fixed at Linux-like values: segments of
/// [`DEFAULT_MSS`](csig_netsim::DEFAULT_MSS) bytes, an initial window
/// of [`INIT_CWND_SEGMENTS`](crate::cc::INIT_CWND_SEGMENTS), an RTO
/// between [`MIN_RTO`](crate::rtt::MIN_RTO) and
/// [`MAX_RTO`](crate::rtt::MAX_RTO), an immediate ACK for every
/// segment, and an abort after [`MAX_CONSECUTIVE_TIMEOUTS`]
/// back-to-back RTOs.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Receive window advertised to the peer, in bytes.
    pub recv_window: u32,
    /// Congestion-control algorithm.
    pub cc: CcKind,
    /// Record per-ACK RTT/cwnd sample series in [`ConnStats`]. Disable
    /// for bulk cross-traffic flows to save memory.
    pub record_samples: bool,
    /// Advertise and use selective acknowledgments (RFC 2018). The
    /// paper-era Linux stacks all negotiated SACK; disabling it is an
    /// ablation knob.
    pub sack: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            recv_window: 16 * 1024 * 1024,
            cc: CcKind::NewReno,
            record_samples: true,
            sack: true,
        }
    }
}

/// A connection aborts after this many consecutive RTOs (Linux
/// `tcp_retries2`-style cap), to bound pathological retry loops.
pub const MAX_CONSECUTIVE_TIMEOUTS: u32 = 15;

/// Connection lifecycle state (simplified: no TIME_WAIT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Not yet opened.
    Closed,
    /// Passive endpoint waiting for a SYN.
    Listen,
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent, awaiting ACK.
    SynRcvd,
    /// Data may flow.
    Established,
    /// Both FINs exchanged and acknowledged.
    Done,
}

/// What limited the sender the last time it tried to transmit — the
/// Web100 "limited" triple the M-Lab pipeline filters on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendLimit {
    /// Congestion window was the binding constraint.
    Cwnd,
    /// Peer's receive window was the binding constraint.
    Rwnd,
    /// The application had nothing (more) to send.
    App,
}

/// Web100-style per-connection counters.
#[derive(Debug, Clone, Default)]
pub struct ConnStats {
    /// When the three-way handshake completed.
    pub established_at: Option<SimTime>,
    /// When the connection reached [`ConnState::Done`].
    pub closed_at: Option<SimTime>,
    /// Payload bytes sent (first transmissions only).
    pub bytes_sent: u64,
    /// Payload bytes cumulatively acknowledged.
    pub bytes_acked: u64,
    /// Payload bytes received in order.
    pub bytes_received: u64,
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Total retransmitted segments.
    pub retransmits: u64,
    /// Fast-retransmit events (triple dupack).
    pub fast_retransmits: u64,
    /// Retransmission-timeout events.
    pub timeouts: u64,
    /// Time of the first retransmission of any kind — the paper's
    /// slow-start boundary.
    pub first_retransmit_at: Option<SimTime>,
    /// In-stack RTT samples `(ack arrival, rtt)` (Karn-filtered).
    pub rtt_samples: Vec<(SimTime, SimDuration)>,
    /// Congestion-window samples `(time, cwnd bytes)` at each change.
    pub cwnd_samples: Vec<(SimTime, u64)>,
    /// Time spent limited by \[cwnd, rwnd, app\] while established.
    pub limited: [SimDuration; 3],
}

impl ConnStats {
    /// Fraction of established lifetime spent congestion-limited.
    pub fn congestion_limited_fraction(&self) -> f64 {
        let total: f64 = self.limited.iter().map(|d| d.as_secs_f64()).sum();
        if total <= 0.0 {
            0.0
        } else {
            self.limited[0].as_secs_f64() / total
        }
    }

    /// Add this connection's counters into `reg` under the `tcp.*`
    /// namespace (`tcp.segments_sent`, `tcp.retransmits`,
    /// `tcp.fast_retransmits`, `tcp.timeouts`, `tcp.rtt_samples`,
    /// `tcp.bytes_acked`). Counters add, so exporting several
    /// connections into one registry aggregates them. All of
    /// these are deterministic functions of the simulation seed.
    pub fn export_metrics(&self, reg: &csig_obs::MetricsRegistry) {
        reg.add("tcp.segments_sent", self.segments_sent);
        reg.add("tcp.retransmits", self.retransmits);
        reg.add("tcp.fast_retransmits", self.fast_retransmits);
        reg.add("tcp.timeouts", self.timeouts);
        reg.add("tcp.rtt_samples", self.rtt_samples.len() as u64);
        reg.add("tcp.bytes_acked", self.bytes_acked);
    }
}

/// Metadata for one outstanding (sent, unacked) segment.
#[derive(Debug, Clone, Copy)]
struct SegMeta {
    /// Stream offset of the segment's first byte.
    off: u64,
    /// Payload bytes.
    payload: u32,
    /// Sequence space consumed (payload, +1 if FIN).
    seq_len: u32,
    /// FIN flag on this segment.
    fin: bool,
    /// Last transmission time.
    sent_at: SimTime,
    /// Has this segment ever been retransmitted (Karn)?
    retx: bool,
    /// Selectively acknowledged by the peer.
    sacked: bool,
}

impl SegMeta {
    /// One past the last sequence offset this segment occupies.
    fn end(&self) -> u64 {
        self.off + self.seq_len as u64
    }

    /// Does this segment count towards the RFC 6675 pipe? SACKed bytes
    /// are out; unsacked bytes below the highest SACK are presumed lost
    /// (IsLost) and also out, unless they have been retransmitted, in
    /// which case the retransmission is in flight.
    fn in_pipe(&self, highest_sacked: u64) -> bool {
        !self.sacked && (self.retx || self.off >= highest_sacked)
    }
}

/// Local token value for retransmission-timer events. Staleness is
/// decided by comparing the fire time against `rto_deadline`, so a
/// single token value suffices.
const RTO_TOKEN: u64 = 1;

/// Extract the flow id a connection embedded in a timer token, so an
/// agent managing many connections can route the firing.
pub fn token_flow(token: TimerToken) -> FlowId {
    FlowId((token >> 32) as u32)
}

/// One endpoint of a TCP connection.
#[derive(Debug)]
pub struct TcpConnection {
    /// Flow id carried on every packet of this connection.
    pub flow: FlowId,
    /// The remote host.
    pub peer: NodeId,
    cfg: TcpConfig,
    state: ConnState,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,

    // ---- send half ----
    iss: u32,
    /// Lowest unacknowledged stream offset (0 = first payload byte).
    snd_una: u64,
    /// Next stream offset to transmit.
    snd_nxt: u64,
    /// Total payload the application will send; `None` = unbounded.
    app_limit: Option<u64>,
    /// Payload made available so far when streaming incrementally.
    app_avail: u64,
    fin_queued: bool,
    fin_sent: bool,
    fin_acked: bool,
    /// A FIN has gone out at least once. Unlike `fin_sent`, go-back-N
    /// does not reset it, so a re-sent bare FIN is marked as a
    /// retransmission (Karn).
    fin_ever_sent: bool,
    /// The scoreboard: outstanding segments in stream-offset order.
    /// Segments are only ever appended at `snd_nxt` (which moves back
    /// only when an RTO clears the board) and retire as a prefix, so
    /// offsets and end offsets both increase front to back.
    segs: VecDeque<SegMeta>,
    /// Sum of `seq_len` over the segments that count towards the RFC
    /// 6675 pipe ([`SegMeta::in_pipe`]), kept up to date on every
    /// append, retirement, SACK mark, retransmit mark and raise of
    /// `highest_sacked`.
    pipe_bytes: u64,
    /// Index into `segs` below which every segment is SACKed or
    /// retransmitted. Neither mark is ever cleared before the board
    /// is, so the next hole to repair is never below this cursor.
    repair_cursor: usize,
    /// Highest stream offset ever transmitted (for go-back-N marking).
    high_water: u64,
    dupacks: u32,
    /// NewReno recovery point (`snd_nxt` at loss detection).
    recovery: Option<u64>,
    /// Highest stream offset covered by any SACK block (RFC 6675
    /// loss-inference boundary).
    highest_sacked: u64,
    /// The SACK blocks of the last ACK, as stream offsets, and
    /// `snd_nxt` when they were applied: every segment then on the
    /// board and wholly inside one of them is marked, so a repeat of
    /// the block need not walk those segments again. Cleared to
    /// `(0, 0)` slots, which skip nothing, with the board.
    sack_seen: [(u64, u64); 3],
    sack_seen_nxt: u64,
    consec_timeouts: u32,
    peer_rwnd: u64,
    rto_armed: bool,
    /// Absolute instant the armed retransmission timer expires. Re-arming
    /// on every ACK only moves this deadline; a physical scheduler event
    /// is pushed lazily (see [`TcpConnection::ensure_rto_event`]).
    rto_deadline: SimTime,
    /// Fire time of the earliest physical RTO event known to be pending,
    /// or `None` when no pending event covers the deadline.
    rto_timer_at: Option<SimTime>,

    // ---- receive half ----
    irs: u32,
    rcv_nxt: u64,
    /// Data held beyond `rcv_nxt`: disjoint, non-touching `[start, end)`
    /// intervals in ascending order, every start above `rcv_nxt`.
    ooo: Vec<(u64, u64)>,
    peer_fin_offset: Option<u64>,

    // ---- accounting ----
    last_limit: Option<(SendLimit, SimTime)>,
    /// Public counters.
    pub stats: ConnStats,
}

impl TcpConnection {
    /// A passive (listening) endpoint.
    pub fn listen(flow: FlowId, peer: NodeId, cfg: TcpConfig) -> Self {
        Self::new(flow, peer, cfg, ConnState::Listen)
    }

    /// An active endpoint; call [`TcpConnection::open`] to emit the SYN.
    pub fn active(flow: FlowId, peer: NodeId, cfg: TcpConfig) -> Self {
        Self::new(flow, peer, cfg, ConnState::Closed)
    }

    fn new(flow: FlowId, peer: NodeId, cfg: TcpConfig, state: ConnState) -> Self {
        let cc = cfg.cc.build();
        let rtt = RttEstimator::new();
        // Deterministic ISS derived from flow id; uniqueness per flow is
        // all that matters in the simulator.
        let iss = 0x1000_0000u32.wrapping_add(flow.0.wrapping_mul(2_654_435_761));
        TcpConnection {
            flow,
            peer,
            cfg,
            state,
            cc,
            rtt,
            iss,
            snd_una: 0,
            snd_nxt: 0,
            app_limit: Some(0),
            app_avail: 0,
            fin_queued: false,
            fin_sent: false,
            fin_acked: false,
            fin_ever_sent: false,
            segs: VecDeque::new(),
            pipe_bytes: 0,
            repair_cursor: 0,
            high_water: 0,
            dupacks: 0,
            recovery: None,
            highest_sacked: 0,
            sack_seen: [(0, 0); 3],
            sack_seen_nxt: 0,
            consec_timeouts: 0,
            peer_rwnd: 64 * 1024,
            rto_armed: false,
            rto_deadline: SimTime::ZERO,
            rto_timer_at: None,
            irs: 0,
            rcv_nxt: 0,
            ooo: Vec::new(),
            peer_fin_offset: None,
            last_limit: None,
            stats: ConnStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Handshake complete and not yet closed.
    pub fn is_established(&self) -> bool {
        self.state == ConnState::Established
    }

    /// Fully closed (both FINs acknowledged).
    pub fn is_done(&self) -> bool {
        self.state == ConnState::Done
    }

    /// The peer has finished sending (its FIN was consumed in order).
    fn peer_closed(&self) -> bool {
        matches!(self.peer_fin_offset, Some(f) if self.rcv_nxt >= f)
    }

    /// All queued application data (and FIN, if queued) acknowledged.
    fn send_complete(&self) -> bool {
        match self.app_limit {
            Some(limit) => self.snd_una >= limit && (!self.fin_queued || self.fin_acked),
            None => false,
        }
    }

    /// In-order payload bytes delivered so far.
    pub fn bytes_received(&self) -> u64 {
        self.rcv_nxt
            .min(self.peer_fin_offset.unwrap_or(self.rcv_nxt))
    }

    /// Diagnostic snapshot of sender-side state (debugging aid).
    pub fn debug_state(&self) -> String {
        format!(
            "state={:?} snd_una={} snd_nxt={} hw={} app_limit={:?} fin(q/s/a)={}{}{} segs={} dupacks={} recovery={:?} rto_armed={} rto={} peer_rwnd={} cwnd={} ssthresh={} rcv_nxt={} ooo={} peer_fin={:?}",
            self.state, self.snd_una, self.snd_nxt, self.high_water, self.app_limit,
            self.fin_queued as u8, self.fin_sent as u8, self.fin_acked as u8,
            self.segs.len(), self.dupacks, self.recovery, self.rto_armed, self.rtt.rto(),
            self.peer_rwnd, self.cc.cwnd(), self.cc.ssthresh(), self.rcv_nxt, self.ooo.len(),
            self.peer_fin_offset,
        )
    }

    /// The RTT estimator (read-only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// Whether the congestion controller is in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cc.in_slow_start()
    }

    /// Queue `bytes` of application payload for transmission. May be
    /// called repeatedly; has no effect once the FIN is queued.
    pub fn send_data(&mut self, ctx: &mut Ctx, bytes: u64) {
        if self.fin_queued {
            return;
        }
        self.app_avail += bytes;
        if let Some(limit) = &mut self.app_limit {
            *limit += bytes;
        }
        self.try_send(ctx);
    }

    /// Switch to unbounded sending: the connection always has payload
    /// available (netperf-style) until [`TcpConnection::close`].
    pub fn send_unbounded(&mut self, ctx: &mut Ctx) {
        self.app_limit = None;
        self.try_send(ctx);
    }

    /// Queue a FIN after all currently queued data.
    pub fn close(&mut self, ctx: &mut Ctx) {
        if self.fin_queued {
            return;
        }
        // Freeze the limit where it stands for unbounded senders.
        let limit = self.app_limit.unwrap_or(self.snd_nxt.max(self.app_avail));
        self.app_limit = Some(limit);
        self.app_avail = self.app_avail.max(limit);
        self.fin_queued = true;
        self.try_send(ctx);
    }

    /// Abort the connection: send a RST to the peer and move to `Done`
    /// (the model of a client killing a fixed-duration test).
    pub fn abort(&mut self, ctx: &mut Ctx) {
        if matches!(self.state, ConnState::Done | ConnState::Closed) {
            self.state = ConnState::Done;
            return;
        }
        let hdr = TcpHeader {
            seq: wire_seq(self.iss.wrapping_add(1), self.snd_nxt),
            ack: wire_seq(self.irs.wrapping_add(1), self.rcv_nxt),
            flags: TcpFlags::RST | TcpFlags::ACK,
            payload_len: 0,
            window: 0,
            sack: NO_SACK,
        };
        ctx.send(PacketSpec::tcp(self.flow, self.peer, hdr));
        self.state = ConnState::Done;
        self.stats.closed_at.get_or_insert(ctx.now());
    }

    /// Actively open the connection (client side): emit the SYN.
    pub fn open(&mut self, ctx: &mut Ctx) {
        assert_eq!(self.state, ConnState::Closed, "open() on non-closed");
        self.state = ConnState::SynSent;
        self.emit_syn(ctx, false);
        self.arm_rto(ctx);
    }

    fn emit_syn(&mut self, ctx: &mut Ctx, with_ack: bool) {
        let flags = if with_ack {
            TcpFlags::SYN | TcpFlags::ACK
        } else {
            TcpFlags::SYN
        };
        let hdr = TcpHeader {
            seq: self.iss,
            ack: if with_ack {
                wire_seq(self.irs, self.rcv_nxt).wrapping_add(1)
            } else {
                0
            },
            flags,
            payload_len: 0,
            window: self.cfg.recv_window,
            sack: NO_SACK,
        };
        ctx.send(PacketSpec::tcp(self.flow, self.peer, hdr));
    }

    // ------------------------------------------------------------------
    // Segment input
    // ------------------------------------------------------------------

    /// Process an arriving segment addressed to this connection.
    pub fn on_segment(&mut self, ctx: &mut Ctx, hdr: &TcpHeader) {
        if hdr.flags.rst() {
            self.state = ConnState::Done;
            self.stats.closed_at.get_or_insert(ctx.now());
            return;
        }
        match self.state {
            ConnState::Closed | ConnState::Done => {}
            ConnState::Listen => {
                if hdr.flags.syn() && !hdr.flags.ack() {
                    self.irs = hdr.seq;
                    self.rcv_nxt = 0; // offsets start after the SYN
                    self.peer_rwnd = hdr.window as u64;
                    self.state = ConnState::SynRcvd;
                    self.emit_syn(ctx, true);
                    self.arm_rto(ctx);
                }
            }
            ConnState::SynSent => {
                if hdr.flags.syn() && hdr.flags.ack() {
                    self.irs = hdr.seq;
                    self.rcv_nxt = 0;
                    self.peer_rwnd = hdr.window as u64;
                    self.state = ConnState::Established;
                    self.stats.established_at = Some(ctx.now());
                    self.begin_limit_tracking(ctx.now());
                    self.send_ack_now(ctx);
                    self.disarm_rto();
                    self.try_send(ctx);
                }
            }
            ConnState::SynRcvd => {
                if hdr.flags.ack() {
                    self.state = ConnState::Established;
                    self.stats.established_at = Some(ctx.now());
                    self.begin_limit_tracking(ctx.now());
                    self.peer_rwnd = hdr.window as u64;
                    self.disarm_rto();
                    // The ACK may carry data; fall through to data path.
                    self.process_established(ctx, hdr);
                    self.try_send(ctx);
                }
            }
            ConnState::Established => {
                self.process_established(ctx, hdr);
            }
        }
        self.maybe_finish(ctx.now());
    }

    fn process_established(&mut self, ctx: &mut Ctx, hdr: &TcpHeader) {
        if hdr.flags.syn() {
            // A retransmitted SYN-ACK means our handshake ACK was lost:
            // answer with a duplicate ACK (challenge ACK) so the peer
            // can leave SYN-RCVD.
            self.send_ack_now(ctx);
            return;
        }
        if hdr.flags.ack() {
            self.process_ack(ctx, hdr);
        }
        if hdr.payload_len > 0 || hdr.flags.fin() {
            self.process_data(ctx, hdr);
        }
    }

    // ---- sender-side ACK handling -------------------------------------

    fn process_ack(&mut self, ctx: &mut Ctx, hdr: &TcpHeader) {
        self.peer_rwnd = hdr.window as u64;
        // Mark selectively acknowledged segments on the scoreboard.
        let mut sack_advanced = false;
        if self.cfg.sack {
            let mut seen = [(0, 0); 3];
            for (slot, block) in seen.iter_mut().zip(hdr.sack.iter().flatten()) {
                let start = offset_of(self.iss.wrapping_add(1), block.0, self.snd_una);
                let end = offset_of(self.iss.wrapping_add(1), block.1, start);
                *slot = (start, end);
                if start < end {
                    sack_advanced |= self.mark_sacked(start, end);
                    self.raise_highest_sacked(end);
                }
            }
            debug_assert!(
                self.segs
                    .iter()
                    .all(|m| m.sacked || !seen.iter().any(|&(s, e)| s <= m.off && m.end() <= e)),
                "memoised SACK marking skipped a segment the full walk marks"
            );
            self.sack_seen = seen;
            self.sack_seen_nxt = self.snd_nxt;
        }
        // The peer's ack field acknowledges our sequence space: our wire
        // seq for offset k is iss + 1 + k (the +1 is our SYN).
        let ack_off = offset_of(self.iss.wrapping_add(1), hdr.ack, self.snd_una);
        if ack_off > self.high_water + 1 {
            return; // acks data we never sent; ignore
        }
        if ack_off > self.snd_una {
            // An ack one past the application limit can only cover the
            // FIN. Keyed on fin_queued (not fin_sent): after a
            // go-back-N reset, fin_sent may be false while the peer
            // already holds — and acknowledges — the earlier FIN.
            let fin_end = self.app_limit.map(|l| l + 1);
            let fin_extra = if self.fin_queued && Some(ack_off) == fin_end {
                1
            } else {
                0
            };
            let bytes_acked = (ack_off - self.snd_una).saturating_sub(fin_extra);
            self.stats.bytes_acked += bytes_acked;
            let data_off = ack_off - fin_extra;
            if fin_extra == 1 {
                self.fin_acked = true;
                self.fin_sent = true;
            }

            // Retire covered segments; pick up a Karn-valid RTT sample
            // from the newest fully-acked, never-retransmitted segment.
            // End offsets increase front to back, so the covered
            // segments are a prefix of the board.
            let mut sample: Option<SimDuration> = None;
            while let Some(meta) = self.segs.front().copied() {
                if meta.end() > ack_off {
                    break;
                }
                self.segs.pop_front();
                self.repair_cursor = self.repair_cursor.saturating_sub(1);
                if meta.in_pipe(self.highest_sacked) {
                    self.pipe_bytes -= meta.seq_len as u64;
                }
                if !meta.retx {
                    sample = Some(ctx.now().saturating_since(meta.sent_at));
                }
            }
            if let Some(rtt) = sample {
                self.rtt.on_sample(rtt);
                if self.cfg.record_samples {
                    self.stats.rtt_samples.push((ctx.now(), rtt));
                }
            }
            // snd_una lives in *data* offset space (excludes FIN's byte).
            debug_assert!(
                self.app_limit.is_none() || data_off <= self.app_limit.unwrap_or(u64::MAX),
                "snd_una {} beyond app_limit {:?} (ack_off {}, fin q/s/a {}{}{})",
                data_off,
                self.app_limit,
                ack_off,
                self.fin_queued as u8,
                self.fin_sent as u8,
                self.fin_acked as u8
            );
            self.snd_una = data_off;
            // After a go-back-N restart the cumulative ACK can jump past
            // the rolled-back send point; never let snd_nxt trail it.
            if self.snd_nxt < self.snd_una {
                self.snd_nxt = self.snd_una;
            }
            self.dupacks = 0;
            self.consec_timeouts = 0;

            match self.recovery {
                Some(recover) if ack_off >= recover => {
                    // Full ACK: leave recovery.
                    self.recovery = None;
                    self.cc.on_recovery_exit();
                    self.record_cwnd(ctx.now());
                }
                Some(_) => {
                    // Partial ACK: repair continues.
                    if self.cfg.sack {
                        self.repair_holes(ctx);
                    } else {
                        self.cc.on_partial_ack(bytes_acked);
                        self.retransmit_front(ctx, false);
                    }
                    self.record_cwnd(ctx.now());
                }
                None => {
                    let info = AckInfo {
                        now: ctx.now(),
                        bytes_acked,
                        rtt_sample: sample,
                        srtt: self.rtt.srtt(),
                        flight: self.flight(),
                        in_recovery: false,
                    };
                    self.cc.on_ack(&info);
                    self.record_cwnd(ctx.now());
                }
            }
            // Restart the RTO for remaining data, or disarm.
            if self.outstanding() {
                self.arm_rto(ctx);
            } else {
                self.disarm_rto();
            }
            self.try_send(ctx);
        } else if ack_off == self.snd_una && self.outstanding() && hdr.payload_len == 0 {
            // Duplicate ACK. With SACK, only ACKs that carry *new* SACK
            // information count towards DupThresh (RFC 6675 §4) —
            // otherwise the bare re-ACKs a receiver emits for spurious
            // go-back-N retransmissions would trigger bogus recoveries.
            if self.cfg.sack && !sack_advanced {
                return;
            }
            self.dupacks += 1;
            match self.recovery {
                Some(_) => {
                    if self.cfg.sack {
                        // RFC 6675-lite: no window inflation; repair
                        // holes while the pipe has room, then let
                        // try_send fill remaining room with new data.
                        self.repair_holes(ctx);
                    } else {
                        self.cc.on_dupack_in_recovery();
                    }
                    self.try_send(ctx);
                }
                None if self.dupacks == 3 => {
                    self.enter_fast_recovery(ctx);
                }
                None => {}
            }
        }
    }

    /// Mark the segments lying wholly inside the SACK block `[start,
    /// end)`; returns whether any was newly marked. When the last ACK
    /// carried a block with the same start, the segments it covered
    /// that were on the board then are marked already: the walk skips
    /// them, so a repeated block costs nothing and one grown at the top
    /// is walked from its old end. Segments appended since lie at or
    /// above that ACK's `snd_nxt` (after a go-back-N clear they can
    /// fall inside the old block) and are walked too.
    fn mark_sacked(&mut self, start: u64, end: u64) -> bool {
        let (old_end, old_nxt) = match self.sack_seen.iter().find(|b| b.0 == start) {
            Some(&(_, e)) => (e, self.sack_seen_nxt),
            None => (start, 0),
        };
        if end <= old_end && end <= old_nxt {
            return false;
        }
        // Offsets and end offsets both increase along the board, so
        // "below the block, or marked by its last copy" is a prefix.
        let first = self
            .segs
            .partition_point(|m| m.off < start || (m.end() <= old_end && m.off < old_nxt));
        let mut advanced = false;
        for meta in self.segs.range_mut(first..) {
            if meta.end() > end {
                break;
            }
            if !meta.sacked {
                if meta.in_pipe(self.highest_sacked) {
                    self.pipe_bytes -= meta.seq_len as u64;
                }
                meta.sacked = true;
                advanced = true;
            }
        }
        advanced
    }

    fn enter_fast_recovery(&mut self, ctx: &mut Ctx) {
        self.stats.fast_retransmits += 1;
        self.recovery = Some(self.snd_nxt + if self.fin_sent { 1 } else { 0 });
        let flight = self.flight();
        self.cc.on_fast_retransmit(flight, ctx.now());
        if self.cfg.sack {
            // Pipe accounting replaces NewReno's +3·MSS inflation.
            self.cc.on_recovery_exit(); // collapse cwnd to ssthresh
        }
        self.record_cwnd(ctx.now());
        // The classic third-dupack retransmission of the front segment.
        self.retransmit_front(ctx, true);
        self.arm_rto(ctx);
    }

    // ---- receiver-side data handling -----------------------------------

    fn process_data(&mut self, ctx: &mut Ctx, hdr: &TcpHeader) {
        // The peer's wire seq for its offset k is irs + 1 + k.
        let start = offset_of(self.irs.wrapping_add(1), hdr.seq, self.rcv_nxt);
        let payload_end = start + hdr.payload_len as u64;
        if hdr.flags.fin() {
            self.peer_fin_offset = Some(payload_end);
        }
        if hdr.payload_len > 0 {
            self.receive(start, payload_end);
        }
        self.send_ack_now(ctx);
    }

    /// Take in the payload bytes `[start, end)`: advance `rcv_nxt` over
    /// what is now in order and hold the rest out of order.
    fn receive(&mut self, start: u64, end: u64) {
        if end <= self.rcv_nxt {
            return;
        }
        if start <= self.rcv_nxt && self.ooo.is_empty() {
            // Nothing is buffered beyond rcv_nxt: the segment just
            // extends it, as inserting and draining would.
            self.stats.bytes_received += end - self.rcv_nxt;
            self.rcv_nxt = end;
        } else {
            self.insert_ooo(start.max(self.rcv_nxt), end);
            debug_assert!(self.ooo_is_valid(self.rcv_nxt), "ooo set broken by insert");
            self.drain_in_order();
            debug_assert!(
                self.ooo_is_valid(self.rcv_nxt + 1),
                "ooo set broken by drain"
            );
        }
    }

    /// Merge `[start, end)` (non-empty) into the out-of-order set. The
    /// intervals are disjoint and non-touching, so both their starts
    /// and their ends ascend, and the ones the new interval meets form
    /// one run: from the first ending at or after `start` to the last
    /// starting at or before `end`.
    fn insert_ooo(&mut self, start: u64, end: u64) {
        let lo = self.ooo.partition_point(|&(_, e)| e < start);
        let hi = lo + self.ooo[lo..].partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ooo.insert(lo, (start, end));
        } else {
            self.ooo[lo] = (start.min(self.ooo[lo].0), end.max(self.ooo[hi - 1].1));
            self.ooo.drain(lo + 1..hi);
        }
    }

    /// Move the intervals that now reach `rcv_nxt` into the stream.
    fn drain_in_order(&mut self) {
        let mut n = 0;
        for &(s, e) in &self.ooo {
            if s > self.rcv_nxt {
                break;
            }
            n += 1;
            if e > self.rcv_nxt {
                self.stats.bytes_received += e - self.rcv_nxt;
                self.rcv_nxt = e;
            }
        }
        self.ooo.drain(..n);
    }

    /// Whether the out-of-order set is sorted, disjoint and
    /// non-touching, with no empty interval and every start at or above
    /// `min_start`.
    fn ooo_is_valid(&self, min_start: u64) -> bool {
        self.ooo.first().is_none_or(|&(s, _)| s >= min_start)
            && self.ooo.iter().all(|&(s, e)| s < e)
            && self.ooo.windows(2).all(|w| w[0].1 < w[1].0)
    }

    /// The receiver's SACK blocks: the first three held intervals by
    /// ascending start, in wire sequence numbers.
    fn sack_blocks(&self) -> SackBlocks {
        let mut sack = NO_SACK;
        if self.cfg.sack {
            for (slot, &(s, e)) in sack.iter_mut().zip(&self.ooo) {
                *slot = Some((
                    wire_seq(self.irs.wrapping_add(1), s),
                    wire_seq(self.irs.wrapping_add(1), e),
                ));
            }
        }
        sack
    }

    fn send_ack_now(&mut self, ctx: &mut Ctx) {
        let fin_bump = match self.peer_fin_offset {
            Some(f) if self.rcv_nxt >= f => 1u32,
            _ => 0,
        };
        let hdr = TcpHeader {
            seq: wire_seq(self.iss.wrapping_add(1), self.snd_nxt),
            ack: wire_seq(self.irs.wrapping_add(1), self.rcv_nxt).wrapping_add(fin_bump),
            flags: TcpFlags::ACK,
            payload_len: 0,
            window: self.adv_window(),
            sack: self.sack_blocks(),
        };
        ctx.send(PacketSpec::tcp(self.flow, self.peer, hdr));
        // Receiving the peer's FIN triggers our own close once our data
        // is out (the agents in this model never keep a half-open
        // connection deliberately).
        if fin_bump == 1 && !self.fin_queued {
            self.close(ctx);
        }
    }

    fn adv_window(&self) -> u32 {
        // Static large window: the simulated apps always drain instantly.
        self.cfg.recv_window
    }

    // ---- transmission ---------------------------------------------------

    /// Data available but not yet transmitted.
    fn untransmitted(&self) -> u64 {
        let limit = self.app_limit.unwrap_or(u64::MAX);
        limit.saturating_sub(self.snd_nxt)
    }

    fn flight(&self) -> u64 {
        debug_assert!(self.snd_nxt >= self.snd_una);
        self.snd_nxt.saturating_sub(self.snd_una)
    }

    /// RFC 6675 pipe: bytes believed to be in the network (see
    /// [`SegMeta::in_pipe`]). Debug builds check the running sum
    /// against a walk of the whole board on every call.
    fn pipe(&self) -> u64 {
        debug_assert_eq!(
            self.pipe_bytes,
            self.segs
                .iter()
                .filter(|m| m.in_pipe(self.highest_sacked))
                .map(|m| m.seq_len as u64)
                .sum::<u64>(),
            "incremental pipe diverged from the scoreboard"
        );
        self.pipe_bytes
    }

    /// Append a freshly transmitted segment at `snd_nxt`.
    fn push_seg(&mut self, meta: SegMeta) {
        debug_assert!(
            self.segs.back().is_none_or(|b| b.end() <= meta.off),
            "scoreboard append below its tail"
        );
        if meta.in_pipe(self.highest_sacked) {
            self.pipe_bytes += meta.seq_len as u64;
        }
        self.segs.push_back(meta);
    }

    /// Raise the loss-inference boundary to `to`: never-retransmitted,
    /// unsacked segments it passes become presumed lost and leave the
    /// pipe. The boundary only rises between board clears, so each
    /// segment is passed at most once.
    fn raise_highest_sacked(&mut self, to: u64) {
        if to <= self.highest_sacked {
            return;
        }
        let first = self.segs.partition_point(|m| m.off < self.highest_sacked);
        for meta in self.segs.range(first..) {
            if meta.off >= to {
                break;
            }
            if !meta.sacked && !meta.retx {
                self.pipe_bytes -= meta.seq_len as u64;
            }
        }
        self.highest_sacked = to;
    }

    /// Bytes counted against the window when deciding to transmit.
    fn effective_flight(&self) -> u64 {
        if self.cfg.sack && self.recovery.is_some() {
            self.pipe()
        } else {
            self.flight()
        }
    }

    fn outstanding(&self) -> bool {
        !self.segs.is_empty()
    }

    /// Transmit as much as the congestion and receive windows allow.
    fn try_send(&mut self, ctx: &mut Ctx) {
        if self.state != ConnState::Established {
            return;
        }
        let mut sent_any = false;
        loop {
            let wnd = self.cc.cwnd().min(self.peer_rwnd);
            let in_flight = self.effective_flight();
            let room = wnd.saturating_sub(in_flight);
            let want = self.untransmitted();
            if want == 0 {
                // Possibly emit the FIN.
                if self.fin_queued && !self.fin_sent {
                    self.emit_fin(ctx);
                    sent_any = true;
                }
                self.note_limit(SendLimit::App, ctx.now());
                break;
            }
            if room == 0 {
                let limit = if self.peer_rwnd < self.cc.cwnd() {
                    SendLimit::Rwnd
                } else {
                    SendLimit::Cwnd
                };
                self.note_limit(limit, ctx.now());
                break;
            }
            // Nagle-free: send a full or partial segment immediately.
            let len = want.min(csig_netsim::DEFAULT_MSS as u64).min(room.max(1)) as u32;
            if (len as u64) < want && (room as u32) < len {
                // Avoid silly small segments when cwnd has sub-MSS room.
                self.note_limit(SendLimit::Cwnd, ctx.now());
                break;
            }
            let offset = self.snd_nxt;
            let is_rexmit = offset < self.high_water;
            let fin_here =
                self.fin_queued && offset + len as u64 == self.app_limit.unwrap_or(u64::MAX);
            let hdr = TcpHeader {
                seq: wire_seq(self.iss.wrapping_add(1), offset),
                ack: wire_seq(self.irs.wrapping_add(1), self.rcv_nxt),
                flags: if fin_here {
                    TcpFlags::ACK | TcpFlags::FIN
                } else {
                    TcpFlags::ACK
                },
                payload_len: len,
                window: self.adv_window(),
                sack: NO_SACK,
            };
            ctx.send(PacketSpec::tcp(self.flow, self.peer, hdr));
            self.push_seg(SegMeta {
                off: offset,
                payload: len,
                seq_len: len + if fin_here { 1 } else { 0 },
                fin: fin_here,
                sent_at: ctx.now(),
                retx: is_rexmit,
                sacked: false,
            });
            self.snd_nxt += len as u64;
            if is_rexmit {
                self.stats.retransmits += 1;
                self.stats.first_retransmit_at.get_or_insert(ctx.now());
                // A resend after go-back-N can straddle the old mark
                // (boundaries shift when snd_una is not an original
                // segment edge); the mark must still track the true
                // maximum or later acks get rejected as invalid.
                self.stats.bytes_sent += self.snd_nxt.saturating_sub(self.high_water);
            } else {
                self.stats.bytes_sent += len as u64;
            }
            self.high_water = self.high_water.max(self.snd_nxt);
            self.stats.segments_sent += 1;
            if fin_here {
                self.fin_sent = true;
                self.fin_ever_sent = true;
            }
            sent_any = true;
        }
        // RFC 6298: start the timer when data goes out and none is
        // running; ACK processing restarts it separately.
        if sent_any && !self.rto_armed {
            self.arm_rto(ctx);
        }
    }

    fn emit_fin(&mut self, ctx: &mut Ctx) {
        let offset = self.snd_nxt;
        let hdr = TcpHeader {
            seq: wire_seq(self.iss.wrapping_add(1), offset),
            ack: wire_seq(self.irs.wrapping_add(1), self.rcv_nxt),
            flags: TcpFlags::ACK | TcpFlags::FIN,
            payload_len: 0,
            window: self.adv_window(),
            sack: NO_SACK,
        };
        ctx.send(PacketSpec::tcp(self.flow, self.peer, hdr));
        self.push_seg(SegMeta {
            off: offset,
            payload: 0,
            seq_len: 1,
            fin: true,
            sent_at: ctx.now(),
            // A FIN never raises high_water, so a re-sent bare FIN is
            // only recognisable by a FIN having gone out before.
            retx: self.snd_nxt < self.high_water || self.fin_ever_sent,
            sacked: false,
        });
        self.fin_sent = true;
        self.fin_ever_sent = true;
        self.stats.segments_sent += 1;
    }

    /// Repair presumed-lost holes while the pipe has room (SACK mode).
    fn repair_holes(&mut self, ctx: &mut Ctx) {
        let cwnd = self.cc.cwnd();
        let mss = csig_netsim::DEFAULT_MSS as u64;
        while self.pipe() + mss <= cwnd {
            if !self.retransmit_front(ctx, false) {
                break;
            }
        }
    }

    /// Retransmit the earliest outstanding segment that the peer has
    /// not selectively acknowledged and that this recovery has not
    /// already retransmitted (the RFC 6675-style "next hole"). The
    /// third-dupack `fast_retransmit` resends the earliest unsacked
    /// segment even if it was retransmitted before. Returns whether a
    /// segment was sent.
    fn retransmit_front(&mut self, ctx: &mut Ctx, fast_retransmit: bool) -> bool {
        let found = if fast_retransmit {
            self.segs.iter().position(|m| !m.sacked)
        } else {
            self.next_hole()
        };
        let Some(idx) = found else {
            return false;
        };
        let meta = &mut self.segs[idx];
        if !meta.in_pipe(self.highest_sacked) {
            // Presumed lost until now: the retransmission is in flight.
            self.pipe_bytes += meta.seq_len as u64;
        }
        meta.retx = true;
        meta.sent_at = ctx.now();
        let (offset, payload, fin) = (meta.off, meta.payload, meta.fin);
        let hdr = TcpHeader {
            seq: wire_seq(self.iss.wrapping_add(1), offset),
            ack: wire_seq(self.irs.wrapping_add(1), self.rcv_nxt),
            flags: if fin {
                TcpFlags::ACK | TcpFlags::FIN
            } else {
                TcpFlags::ACK
            },
            payload_len: payload,
            window: self.adv_window(),
            sack: NO_SACK,
        };
        ctx.send(PacketSpec::tcp(self.flow, self.peer, hdr));
        self.stats.segments_sent += 1;
        self.stats.retransmits += 1;
        self.stats.first_retransmit_at.get_or_insert(ctx.now());
        true
    }

    /// Index of the earliest segment that is neither SACKed nor
    /// retransmitted and, with SACK, lies below `highest_sacked`.
    /// Advances `repair_cursor` past segments that can never qualify
    /// again before the next board clear.
    fn next_hole(&mut self) -> Option<usize> {
        debug_assert!(
            self.segs
                .range(..self.repair_cursor.min(self.segs.len()))
                .all(|m| m.sacked || m.retx),
            "repair cursor skipped a hole"
        );
        while let Some(meta) = self.segs.get(self.repair_cursor) {
            if meta.sacked || meta.retx {
                self.repair_cursor += 1;
                continue;
            }
            // NewReno has no loss inference; with SACK, offsets only
            // grow past this one, so no later segment qualifies either.
            let lost = !self.cfg.sack || meta.off < self.highest_sacked;
            return lost.then_some(self.repair_cursor);
        }
        None
    }

    // ---- timers ----------------------------------------------------------

    /// Tag a connection-local token with this connection's flow id.
    fn token(&self, local: u64) -> TimerToken {
        ((self.flow.0 as u64) << 32) | (local & 0xFFFF_FFFF)
    }

    fn arm_rto(&mut self, ctx: &mut Ctx) {
        self.rto_armed = true;
        self.rto_deadline = ctx.now() + self.rtt.rto();
        self.ensure_rto_event(ctx);
    }

    /// Push a physical timer event only if no pending event already fires
    /// at or before the current deadline. A covering event that fires
    /// early simply re-arms the remainder, so each RTO period costs one
    /// scheduler event instead of one per advancing ACK.
    fn ensure_rto_event(&mut self, ctx: &mut Ctx) {
        match self.rto_timer_at {
            Some(t) if t <= self.rto_deadline => {}
            _ => {
                ctx.set_timer(self.rto_deadline - ctx.now(), self.token(RTO_TOKEN));
                self.rto_timer_at = Some(self.rto_deadline);
            }
        }
    }

    fn disarm_rto(&mut self) {
        self.rto_armed = false;
    }

    /// Handle the firing of a timer this connection set. Its only timer
    /// is the retransmission timer, so the agent that routed the token
    /// here (by [`token_flow`]) need not pass it on.
    pub fn on_timer(&mut self, ctx: &mut Ctx) {
        if self.rto_timer_at == Some(ctx.now()) {
            self.rto_timer_at = None; // the tracked covering event fired
        }
        if !self.rto_armed {
            return;
        }
        if ctx.now() < self.rto_deadline {
            // The deadline moved forward since this event was scheduled;
            // cover the remainder and wait.
            self.ensure_rto_event(ctx);
            return;
        }
        match self.state {
            ConnState::SynSent => {
                self.consec_timeouts += 1;
                if self.consec_timeouts > MAX_CONSECUTIVE_TIMEOUTS {
                    self.state = ConnState::Done;
                    self.stats.closed_at.get_or_insert(ctx.now());
                    return;
                }
                self.rtt.on_timeout();
                self.emit_syn(ctx, false);
                self.arm_rto(ctx);
            }
            ConnState::SynRcvd => {
                self.consec_timeouts += 1;
                if self.consec_timeouts > MAX_CONSECUTIVE_TIMEOUTS {
                    self.state = ConnState::Done;
                    self.stats.closed_at.get_or_insert(ctx.now());
                    return;
                }
                self.rtt.on_timeout();
                self.emit_syn(ctx, true);
                self.arm_rto(ctx);
            }
            ConnState::Established => {
                if !self.outstanding() {
                    self.disarm_rto();
                    return;
                }
                self.stats.timeouts += 1;
                self.consec_timeouts += 1;
                if self.consec_timeouts > MAX_CONSECUTIVE_TIMEOUTS {
                    // Give up, like a real stack exhausting tcp_retries2.
                    self.state = ConnState::Done;
                    self.stats.closed_at.get_or_insert(ctx.now());
                    return;
                }
                let flight = self.flight();
                self.cc.on_retransmission_timeout(flight, ctx.now());
                self.record_cwnd(ctx.now());
                self.rtt.on_timeout();
                self.recovery = None;
                self.dupacks = 0;
                // Go-back-N: roll the send point back to the loss and
                // resend in order under the collapsed window; segments
                // the receiver already holds are re-acked instantly.
                self.snd_nxt = self.snd_una;
                self.segs.clear();
                self.pipe_bytes = 0;
                self.repair_cursor = 0;
                self.highest_sacked = self.snd_una;
                self.sack_seen = [(0, 0); 3];
                if self.fin_sent && !self.fin_acked {
                    self.fin_sent = false;
                }
                self.try_send(ctx);
                self.arm_rto(ctx);
            }
            _ => {}
        }
    }

    // ---- bookkeeping ------------------------------------------------------

    fn record_cwnd(&mut self, now: SimTime) {
        if self.cfg.record_samples {
            self.stats.cwnd_samples.push((now, self.cc.cwnd()));
        }
    }

    fn begin_limit_tracking(&mut self, now: SimTime) {
        self.last_limit = Some((SendLimit::App, now));
    }

    fn note_limit(&mut self, limit: SendLimit, now: SimTime) {
        if let Some((prev, since)) = self.last_limit {
            let idx = match prev {
                SendLimit::Cwnd => 0,
                SendLimit::Rwnd => 1,
                SendLimit::App => 2,
            };
            self.stats.limited[idx] += now.saturating_since(since);
        }
        self.last_limit = Some((limit, now));
    }

    fn maybe_finish(&mut self, now: SimTime) {
        if self.state == ConnState::Established
            && self.fin_acked
            && self.peer_closed()
            && self.send_complete()
        {
            self.state = ConnState::Done;
            self.note_limit(SendLimit::App, now);
            self.stats.closed_at = Some(now);
        }
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;

    #[test]
    fn export_metrics_aggregates_across_connections() {
        let reg = csig_obs::MetricsRegistry::new();
        let a = ConnStats {
            segments_sent: 10,
            retransmits: 2,
            rtt_samples: vec![(SimTime::ZERO, SimDuration::from_millis(40)); 3],
            ..Default::default()
        };
        let b = ConnStats {
            segments_sent: 5,
            timeouts: 1,
            bytes_acked: 1000,
            ..Default::default()
        };
        a.export_metrics(&reg);
        b.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("tcp.segments_sent"), Some(15));
        assert_eq!(snap.counter("tcp.retransmits"), Some(2));
        assert_eq!(snap.counter("tcp.timeouts"), Some(1));
        assert_eq!(snap.counter("tcp.rtt_samples"), Some(3));
        assert_eq!(snap.counter("tcp.bytes_acked"), Some(1000));
    }
}

#[cfg(test)]
mod reassembly_tests {
    use super::*;
    use csig_netsim::{Agent, LinkConfig, Packet, PacketKind, SackBlocks, Simulator};

    const PEER_ISS: u32 = 5000;
    const SEG: u32 = 1000;

    /// A listening connection that records, after each segment, its
    /// `bytes_received` and how many intervals it buffers out of order.
    struct Receiver {
        conn: TcpConnection,
        after: Vec<(u64, usize)>,
    }

    impl Agent for Receiver {
        fn on_start(&mut self, _: &mut Ctx) {}
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            if let PacketKind::Tcp(hdr) = pkt.kind {
                self.conn.on_segment(ctx, &hdr);
                if hdr.payload_len > 0 {
                    self.after
                        .push((self.conn.stats.bytes_received, self.conn.ooo.len()));
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _: TimerToken) {
            self.conn.on_timer(ctx);
        }
    }

    /// Opens a connection, then sends the `SEG`-byte segments numbered
    /// in `order` (1 covers offsets `0..SEG`) back to back, recording
    /// each ACK's number and SACK blocks.
    struct Sender {
        peer: NodeId,
        order: Vec<u32>,
        acks: Vec<(u32, SackBlocks)>,
    }

    impl Sender {
        fn segment(&self, seq: u32, ack: u32, flags: TcpFlags, payload_len: u32) -> PacketSpec {
            let hdr = TcpHeader {
                seq,
                ack,
                flags,
                payload_len,
                window: 1 << 20,
                sack: NO_SACK,
            };
            PacketSpec::tcp(FlowId(1), self.peer, hdr)
        }
    }

    impl Agent for Sender {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send(self.segment(PEER_ISS, 0, TcpFlags::SYN, 0));
        }
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            let PacketKind::Tcp(hdr) = pkt.kind else {
                return;
            };
            if hdr.flags.syn() {
                let ack = hdr.seq.wrapping_add(1);
                ctx.send(self.segment(PEER_ISS + 1, ack, TcpFlags::ACK, 0));
                for &k in &self.order {
                    let seq = PEER_ISS + 1 + (k - 1) * SEG;
                    ctx.send(self.segment(seq, ack, TcpFlags::ACK, SEG));
                }
            } else {
                self.acks.push((hdr.ack, hdr.sack));
            }
        }
        fn on_timer(&mut self, _: &mut Ctx, _: TimerToken) {}
    }

    /// Per data segment: (ACK number, SACK blocks, bytes received, ooo
    /// intervals).
    fn run(order: &[u32]) -> Vec<(u32, SackBlocks, u64, usize)> {
        let mut sim = Simulator::new(1);
        let rx = sim.add_host(Box::new(Receiver {
            conn: TcpConnection::listen(FlowId(1), NodeId(1), TcpConfig::default()),
            after: vec![],
        }));
        let tx = sim.add_host(Box::new(Sender {
            peer: rx,
            order: order.to_vec(),
            acks: vec![],
        }));
        sim.add_duplex_link(
            rx,
            tx,
            LinkConfig::new(100_000_000, SimDuration::from_millis(1)),
        );
        sim.compute_routes();
        sim.run_until(SimTime::from_secs(1)).expect_within_budget();
        let acks = &sim.agent::<Sender>(tx).unwrap().acks;
        let after = &sim.agent::<Receiver>(rx).unwrap().after;
        assert_eq!(acks.len(), after.len(), "one ACK per data segment");
        acks.iter()
            .zip(after)
            .map(|(&(ack, sack), &(bytes, ooo))| (ack, sack, bytes, ooo))
            .collect()
    }

    /// The wire sequence number of the sender's offset `off`.
    fn wire(off: u32) -> u32 {
        PEER_ISS + 1 + off
    }

    #[test]
    fn a_hole_filled_late_acks_and_sacks_as_reassembly_does() {
        let hole = Some((wire(2 * SEG), wire(3 * SEG)));
        assert_eq!(
            run(&[1, 3, 2, 4]),
            vec![
                (wire(SEG), NO_SACK, 1000, 0),
                (wire(SEG), [hole, None, None], 1000, 1),
                (wire(3 * SEG), NO_SACK, 3000, 0),
                (wire(4 * SEG), NO_SACK, 4000, 0),
            ]
        );
    }

    #[test]
    fn an_in_order_run_buffers_nothing_out_of_order() {
        let got = run(&[1, 2, 3, 4]);
        let want: Vec<_> = (1..=4)
            .map(|k| (wire(k * SEG), NO_SACK, u64::from(k * SEG), 0))
            .collect();
        assert_eq!(got, want);
    }
}

#[cfg(test)]
mod ooo_set_tests {
    use super::*;
    use csig_rng::cases;
    use std::collections::BTreeMap;

    /// The receive path over a `BTreeMap` interval set, as it was
    /// before the set became a sorted `Vec`.
    #[derive(Default)]
    struct Reference {
        rcv_nxt: u64,
        bytes_received: u64,
        ooo: BTreeMap<u64, u64>,
    }

    impl Reference {
        fn receive(&mut self, start: u64, end: u64) {
            if end <= self.rcv_nxt {
                return;
            }
            if start <= self.rcv_nxt && self.ooo.is_empty() {
                self.bytes_received += end - self.rcv_nxt;
                self.rcv_nxt = end;
            } else {
                self.insert_ooo(start.max(self.rcv_nxt), end);
                self.drain_in_order();
            }
        }

        fn insert_ooo(&mut self, start: u64, end: u64) {
            if start >= end {
                return;
            }
            let mut new_start = start;
            let mut new_end = end;
            while let Some((&s, &e)) = self.ooo.range(..=end).next_back() {
                if e < start {
                    break;
                }
                self.ooo.remove(&s);
                new_start = new_start.min(s);
                new_end = new_end.max(e);
            }
            self.ooo.insert(new_start, new_end);
        }

        fn drain_in_order(&mut self) {
            while let Some((&s, &e)) = self.ooo.first_key_value() {
                if s > self.rcv_nxt {
                    break;
                }
                self.ooo.pop_first();
                if e > self.rcv_nxt {
                    self.bytes_received += e - self.rcv_nxt;
                    self.rcv_nxt = e;
                }
            }
        }

        /// The first three intervals by ascending start, on the wire of
        /// a peer whose ISS is 0.
        fn sack_blocks(&self) -> SackBlocks {
            let mut sack = NO_SACK;
            for (slot, (&s, &e)) in sack.iter_mut().zip(&self.ooo) {
                *slot = Some((wire_seq(1, s), wire_seq(1, e)));
            }
            sack
        }
    }

    /// Random segments, some on a 100-byte grid (so intervals touch and
    /// duplicates recur), some at any offset; many overlap what is held
    /// or straddle `rcv_nxt`.
    #[test]
    fn prop_flat_set_matches_the_btreemap_reference() {
        cases(256, "prop_flat_set_matches_the_btreemap_reference", |rng| {
            let mut conn = TcpConnection::listen(FlowId(1), NodeId(0), TcpConfig::default());
            let mut reference = Reference::default();
            let segments = rng.gen_range(1usize..80);
            for _ in 0..segments {
                let (start, len) = if rng.gen_bool(0.5) {
                    (100 * rng.gen_range(0u64..40), 100 * rng.gen_range(1u64..4))
                } else {
                    (rng.gen_range(0u64..4_000), rng.gen_range(1u64..400))
                };
                conn.receive(start, start + len);
                reference.receive(start, start + len);
                assert_eq!(conn.rcv_nxt, reference.rcv_nxt);
                assert_eq!(conn.stats.bytes_received, reference.bytes_received);
                let want: Vec<(u64, u64)> = reference.ooo.iter().map(|(&s, &e)| (s, e)).collect();
                assert_eq!(conn.ooo, want, "after [{start}, {})", start + len);
                assert_eq!(conn.sack_blocks(), reference.sack_blocks());
            }
        });
    }
}

#[cfg(test)]
mod sack_memo_tests {
    use super::*;
    use csig_netsim::{Agent, LinkConfig, Packet, PacketKind, Simulator};

    const MSS: u64 = csig_netsim::DEFAULT_MSS as u64;
    const PEER_ISS: u32 = 9000;

    /// The board after an ACK that carried SACK blocks: `pipe()`, the
    /// offsets of the SACKed segments and those of the holes.
    type Board = (u64, Vec<u64>, Vec<u64>);

    /// Sends ten segments and records its board after each SACK.
    struct Sender {
        conn: TcpConnection,
        boards: Vec<Board>,
    }

    impl Agent for Sender {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.conn.send_data(ctx, 10 * MSS);
            self.conn.open(ctx);
        }
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            let PacketKind::Tcp(hdr) = pkt.kind else {
                return;
            };
            self.conn.on_segment(ctx, &hdr);
            if hdr.sack[0].is_some() {
                let offsets = |sacked: bool| {
                    let segs = self.conn.segs.iter().filter(|m| m.sacked == sacked);
                    segs.map(|m| m.off).collect()
                };
                self.boards
                    .push((self.conn.pipe(), offsets(true), offsets(false)));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _: TimerToken) {
            self.conn.on_timer(ctx);
        }
    }

    /// Holds segments 1 and 3–9 of the first flight but ACKs none of
    /// it, so the sender's RTO clears the board and resends segment 0.
    /// It answers that with ACK 2 and SACK [3, 10) (in segments), loses
    /// the resent segment 2 and answers the resent segment 3 with the
    /// same ACK.
    struct Peer {
        sender: NodeId,
        iss: u32,
        data_seen: u32,
    }

    impl Agent for Peer {
        fn on_start(&mut self, _: &mut Ctx) {}
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            let PacketKind::Tcp(hdr) = pkt.kind else {
                return;
            };
            let wire = |segment: u64| self.iss.wrapping_add(1 + (segment * MSS) as u32);
            let mut reply = TcpHeader {
                seq: PEER_ISS + 1,
                ack: wire(2),
                flags: TcpFlags::ACK,
                payload_len: 0,
                window: 1 << 20,
                sack: [Some((wire(3), wire(10))), None, None],
            };
            if hdr.flags.syn() {
                self.iss = hdr.seq;
                reply.seq = PEER_ISS;
                reply.ack = hdr.seq.wrapping_add(1);
                reply.flags = TcpFlags::SYN | TcpFlags::ACK;
                reply.sack = NO_SACK;
            } else if hdr.payload_len > 0 {
                self.data_seen += 1;
                if self.data_seen <= 10 || hdr.seq == wire(2) {
                    return;
                }
            } else {
                return;
            }
            ctx.send(PacketSpec::tcp(pkt.flow, self.sender, reply));
        }
        fn on_timer(&mut self, _: &mut Ctx, _: TimerToken) {}
    }

    #[test]
    fn a_repeated_block_marks_what_go_back_n_resent_since() {
        let mut sim = Simulator::new(1);
        let tx = sim.add_host(Box::new(Sender {
            conn: TcpConnection::active(FlowId(1), NodeId(1), TcpConfig::default()),
            boards: vec![],
        }));
        let rx = sim.add_host(Box::new(Peer {
            sender: tx,
            iss: 0,
            data_seen: 0,
        }));
        sim.add_duplex_link(
            tx,
            rx,
            LinkConfig::new(100_000_000, SimDuration::from_millis(1)),
        );
        sim.compute_routes();
        let _ = sim.run_until(SimTime::from_secs(2));
        let sender = sim.agent::<Sender>(tx).unwrap();
        assert_eq!(sender.conn.stats.timeouts, 1);
        let boards = &sender.boards;
        // The first copy of the block covers none of the board: only
        // segment 0 was back on it. Its ACK lets segments 2 and 3 out,
        // both re-sends, so both count in the pipe.
        assert_eq!(boards[0], (2 * MSS, vec![], vec![2 * MSS, 3 * MSS]));
        // The second copy must mark segment 3, which now lies inside it:
        // only segment 2 is left in the pipe and on the board as a hole.
        assert_eq!(boards[1], (MSS, vec![3 * MSS], vec![2 * MSS]));
        assert_eq!(boards.len(), 2);
    }
}
