//! Timing wrappers around the program's public boundaries, and the
//! in-memory span log of a traced run.
//!
//! Per-packet boundaries (tap records, agent callbacks) are too fine for
//! one span per call: their wrappers accumulate a [`Tally`] per scenario,
//! which becomes one aggregate span.

use crate::alloc::allocations;
use csig_netsim::{Agent, Ctx, Packet, PacketRecord, PacketSink, TimerToken};
use std::sync::OnceLock;
use std::time::Instant;

/// Calls, wall time and allocations accumulated at one boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Wall time inside the calls, ns.
    pub ns: u64,
    /// Allocations made inside the calls.
    pub allocs: u64,
}

impl Tally {
    /// Run `f` as one counted call.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let allocs = allocations();
        let start = Instant::now();
        let out = f();
        self.ns += elapsed_ns(start);
        self.allocs += allocations() - allocs;
        self.calls += 1;
        out
    }
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`PacketSink`] that times every record handed to `inner`.
pub struct TimedSink<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Time spent in `inner`.
    pub tally: Tally,
}

impl<S> TimedSink<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<S: PacketSink> PacketSink for TimedSink<S> {
    fn on_record(&mut self, rec: &PacketRecord) {
        self.tally.time(|| self.inner.on_record(rec));
    }
}

/// An [`Agent`] that times every callback into `inner`.
pub struct TimedAgent<A> {
    /// The wrapped agent.
    pub inner: A,
    /// Time spent in `inner`'s callbacks.
    pub tally: Tally,
}

impl<A> TimedAgent<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> Self {
        TimedAgent {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<A: Agent> Agent for TimedAgent<A> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.tally.time(|| self.inner.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        self.tally.time(|| self.inner.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        self.tally.time(|| self.inner.on_timer(ctx, token));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The instant all span start times are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One span: a timed call at a layer boundary, or the aggregate of a
/// per-packet boundary's calls within its parent.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `netsim.run_until`.
    pub name: &'static str,
    /// Index of the causing span within the same scenario's list
    /// (`None` for the scenario root, whose parent is its pass).
    pub parent: Option<usize>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Duration (for an aggregate: the summed time of its calls), ns.
    pub dur_ns: u64,
    /// Calls covered (1 for a single call).
    pub calls: u64,
}

/// Builds one scenario's span list, root first.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Start a log whose root span began at `start`.
    pub fn new(name: &'static str, start: Instant) -> Self {
        SpanLog {
            spans: vec![Span {
                name,
                parent: None,
                start_ns: since_epoch(start),
                dur_ns: 0,
                calls: 1,
            }],
        }
    }

    /// Record a finished call under `parent`; returns its index.
    pub fn call(
        &mut self,
        name: &'static str,
        parent: usize,
        start: Instant,
        dur_ns: u64,
    ) -> usize {
        self.push(Span {
            name,
            parent: Some(parent),
            start_ns: since_epoch(start),
            dur_ns,
            calls: 1,
        })
    }

    /// Record a per-packet boundary's tally as one aggregate span that
    /// starts with its parent.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, tally: Tally) -> usize {
        let start_ns = self.spans[parent].start_ns;
        self.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            dur_ns: tally.ns,
            calls: tally.calls,
        })
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Close the root span now and return the list.
    pub fn finish(mut self) -> Vec<Span> {
        let root = &mut self.spans[0];
        root.dur_ns = since_epoch(Instant::now()) - root.start_ns;
        self.spans
    }
}

/// Nanoseconds from the run's epoch to `t`.
pub fn since_epoch(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Fix the run's epoch (call once, before any span is taken).
pub fn start_epoch() {
    epoch();
}
