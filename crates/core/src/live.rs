//! Streaming capture analysis: classify flows the moment they close.
//!
//! [`LiveAnalyzer`] is the online equivalent of
//! [`analyze_capture`](crate::analysis::analyze_capture): attached as a
//! [`PacketSink`] (or fed records by hand) it demultiplexes the packet
//! stream to one [`FlowProbe`] per flow, watches each flow's FIN
//! exchange, and emits a [`FlowReport`] as soon as the flow completes —
//! no capture buffer, no post-processing pass. State is bounded: one
//! probe per *open* flow plus a tombstone per closed flow id (flow ids
//! are never reused by the simulator, so a tombstone is one integer in
//! a set, not retained packet data).

use crate::analysis::{FlowQuality, FlowReport};
use crate::classifier::{SignatureClassifier, Verdict};
use csig_features::FlowProbe;
use csig_netsim::{Direction, FlowId, PacketRecord, PacketSink, SimDuration, SimTime};
use csig_obs::{TraceBuffer, TraceEvent};
use csig_trace::OffsetTracker;
use std::collections::{BTreeMap, BTreeSet};

/// Watches one flow's FIN exchange from the server-side tap.
///
/// A download flow is complete when the tap node's FIN has been
/// cumulatively acknowledged *and* the remote side has sent its own
/// FIN. Records after that point cannot change the flow's verdict (all
/// data is acked, the ack accountant is capped at the FIN, and pure
/// ACKs/RSTs carry no payload), so the analyzer stops tracking the
/// flow.
#[derive(Debug, Clone, Default)]
struct FinWatcher {
    tracker: Option<OffsetTracker>,
    fin_end: Option<u64>,
    in_fin: bool,
    fin_acked: bool,
}

impl FinWatcher {
    fn push(&mut self, rec: &PacketRecord) {
        let Some(h) = rec.pkt.tcp() else { return };
        match rec.dir {
            Direction::Out => {
                if h.flags.syn() {
                    if self.tracker.is_none() {
                        self.tracker = Some(OffsetTracker::new(h.seq));
                    }
                    return;
                }
                if h.payload_len == 0 && !h.flags.fin() {
                    return;
                }
                let tr = self
                    .tracker
                    .get_or_insert_with(|| OffsetTracker::new(h.seq.wrapping_sub(1)));
                let start = tr.offset(h.seq);
                if h.flags.fin() {
                    // The FIN occupies one sequence slot after the payload.
                    self.fin_end = Some(start + h.payload_len as u64 + 1);
                }
            }
            Direction::In => {
                if h.flags.fin() {
                    self.in_fin = true;
                }
                if !h.flags.ack() {
                    return;
                }
                let (Some(tr), Some(fin_end)) = (self.tracker.as_ref(), self.fin_end) else {
                    return;
                };
                let ack_off = csig_tcp::seq::offset_of(tr.base().wrapping_add(1), h.ack, fin_end);
                if ack_off >= fin_end {
                    self.fin_acked = true;
                }
            }
        }
    }

    fn closed(&self) -> bool {
        self.in_fin && self.fin_acked
    }
}

#[derive(Debug, Clone)]
struct LiveFlow {
    probe: FlowProbe,
    fin: FinWatcher,
    /// Timestamp of the flow's most recent record (for idle eviction).
    last_seen: SimTime,
}

/// Streaming equivalent of [`analyze_capture`](crate::analyze_capture):
/// classifies every flow of a packet stream, emitting each verdict the
/// moment the flow's FIN exchange completes.
///
/// ```
/// # use csig_core::{LiveAnalyzer, SignatureClassifier, ModelMeta};
/// # use csig_dtree::{Dataset, TreeParams};
/// # use csig_features::CongestionClass;
/// # let mut data = Dataset::new();
/// # for i in 0..20 {
/// #     let x = i as f64 / 20.0;
/// #     data.push(vec![0.7 + 0.3 * x, 0.2 + 0.1 * x], CongestionClass::SelfInduced.index());
/// #     data.push(vec![0.2 * x, 0.05 * x], CongestionClass::External.index());
/// # }
/// # let meta = ModelMeta {
/// #     congestion_threshold: 0.8,
/// #     trained_on: "docs".into(),
/// #     n_train: data.len(),
/// #     n_filtered: 0,
/// # };
/// # let clf = SignatureClassifier::train(&data, TreeParams::default(), meta);
/// let mut live = LiveAnalyzer::new(clf);
/// // … feed records as they are captured: live.push(&record) …
/// let reports = live.finish(); // flows still open are classified too
/// assert!(reports.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LiveAnalyzer {
    clf: SignatureClassifier,
    flows: BTreeMap<FlowId, LiveFlow>,
    closed: BTreeSet<FlowId>,
    done: Vec<FlowReport>,
    idle_timeout: Option<SimDuration>,
    last_sweep: SimTime,
    trace: Option<TraceBuffer>,
    /// Stream time of the most recent record, stamped onto reports of
    /// flows closed at [`LiveAnalyzer::finish`] time.
    last_record_at: SimTime,
}

impl LiveAnalyzer {
    /// An analyzer classifying with `clf`; flows are tracked until they
    /// close or the stream ends (no idle eviction).
    pub fn new(clf: SignatureClassifier) -> Self {
        LiveAnalyzer {
            clf,
            flows: BTreeMap::new(),
            closed: BTreeSet::new(),
            done: Vec::new(),
            idle_timeout: None,
            last_sweep: SimTime::ZERO,
            trace: None,
            last_record_at: SimTime::ZERO,
        }
    }

    /// Builder: emit structured trace events (scope `"live"`) — one per
    /// verdict, skip, or eviction — into `buf`.
    #[must_use]
    pub fn with_trace(mut self, buf: TraceBuffer) -> Self {
        self.trace = Some(buf);
        self
    }

    /// Builder: evict flows that produce no records for at least
    /// `timeout` of *record* time (never wall clock, so eviction is
    /// deterministic). An evicted flow is reported immediately with
    /// [`FlowQuality::idle_evicted`] (and `never_closed`) set rather
    /// than holding state until [`LiveAnalyzer::finish`] — the fate of
    /// flows whose FIN is lost or that simply die. The sweep runs once
    /// per `timeout` of stream time, so eviction happens between one
    /// and two timeouts after a flow's last record.
    ///
    /// # Panics
    /// Panics if `timeout` is zero.
    pub fn with_idle_timeout(mut self, timeout: SimDuration) -> Self {
        assert!(!timeout.is_zero(), "idle timeout must be positive");
        self.idle_timeout = Some(timeout);
        self
    }

    /// Consume one record, routing it to its flow's probe. If this
    /// record completes the flow's FIN exchange, the flow's report is
    /// queued (see [`LiveAnalyzer::drain_completed`]) and its state
    /// dropped. With an idle timeout configured, flows that have been
    /// silent too long are evicted and reported as degraded.
    pub fn push(&mut self, rec: &PacketRecord) {
        let flow = rec.pkt.flow;
        self.last_record_at = rec.time;
        if !self.closed.contains(&flow) {
            let lf = self.flows.entry(flow).or_insert_with(|| LiveFlow {
                probe: FlowProbe::new(flow),
                fin: FinWatcher::default(),
                last_seen: rec.time,
            });
            lf.last_seen = rec.time;
            lf.probe.push(rec);
            lf.fin.push(rec);
            if lf.fin.closed() {
                if let Some(lf) = self.flows.remove(&flow) {
                    self.closed.insert(flow);
                    let quality = FlowQuality {
                        reorder_suspect: lf.probe.reorder_suspect(),
                        ..FlowQuality::default()
                    };
                    self.emit(&lf.probe, quality, rec.time);
                }
            }
        }
        if let Some(timeout) = self.idle_timeout {
            if rec.time.saturating_since(self.last_sweep) >= timeout {
                self.last_sweep = rec.time;
                self.evict_idle(rec.time, timeout);
            }
        }
    }

    /// Evict (and report) every open flow idle for at least `timeout`
    /// as of `now`.
    fn evict_idle(&mut self, now: SimTime, timeout: SimDuration) {
        let expired: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, lf)| now.saturating_since(lf.last_seen) >= timeout)
            .map(|(flow, _)| *flow)
            .collect();
        for flow in expired {
            if let Some(lf) = self.flows.remove(&flow) {
                self.closed.insert(flow);
                let quality = FlowQuality {
                    idle_evicted: true,
                    never_closed: true,
                    reorder_suspect: lf.probe.reorder_suspect(),
                    ..FlowQuality::default()
                };
                self.emit(&lf.probe, quality, now);
            }
        }
    }

    /// Build one flow's report (see [`report_for`]), trace it if a ring
    /// is attached, and queue it for draining.
    fn emit(&mut self, probe: &FlowProbe, quality: FlowQuality, at: SimTime) {
        let report = report_for(&self.clf, probe, quality);
        if let Some(trace) = &self.trace {
            let event = match &report.verdict {
                Ok(v) => TraceEvent::new(at.as_nanos(), "live", "verdict")
                    .field("flow", u64::from(report.flow.0))
                    .field("class", v.class.label())
                    .field("confidence", v.confidence),
                Err(e) => TraceEvent::new(at.as_nanos(), "live", "skip")
                    .field("flow", u64::from(report.flow.0))
                    .field("quality", report.quality.to_string())
                    .field("reason", e.to_string()),
            };
            trace.push(event);
        }
        self.done.push(report);
    }

    /// Number of flows still being tracked.
    pub fn open_flows(&self) -> usize {
        self.flows.len()
    }

    /// Reports of flows that have closed and not been drained yet.
    pub fn completed(&self) -> &[FlowReport] {
        &self.done
    }

    /// Take the reports of flows that closed since the last drain.
    pub fn drain_completed(&mut self) -> Vec<FlowReport> {
        std::mem::take(&mut self.done)
    }

    /// Classify any still-open flows and return all undrained reports,
    /// ordered by flow id (the order
    /// [`analyze_capture`](crate::analyze_capture) reports in). Flows
    /// still open here never completed their FIN exchange, so their
    /// reports carry [`FlowQuality::truncated`] and `never_closed`.
    pub fn finish(mut self) -> Vec<FlowReport> {
        let at = self.last_record_at;
        for (_, lf) in std::mem::take(&mut self.flows) {
            let quality = FlowQuality {
                truncated: true,
                never_closed: true,
                reorder_suspect: lf.probe.reorder_suspect(),
                ..FlowQuality::default()
            };
            self.emit(&lf.probe, quality, at);
        }
        self.done.sort_by_key(|r| r.flow);
        self.done
    }
}

impl PacketSink for LiveAnalyzer {
    fn on_record(&mut self, rec: &PacketRecord) {
        self.push(rec);
    }
}

/// Classify one probe's accumulated state: its slow-start features
/// through the classifier, with the window they cover. Flows whose
/// features cannot be computed get
/// [`FlowQuality::insufficient_samples`] set alongside the `Err`
/// verdict, so quality flags and verdicts never disagree.
fn report_for(
    clf: &SignatureClassifier,
    probe: &FlowProbe,
    mut quality: FlowQuality,
) -> FlowReport {
    let verdict = probe.features().map(|features| {
        let (class, confidence) = clf.classify_with_confidence(&features);
        Verdict {
            class,
            confidence,
            features,
            slow_start: probe.slow_start(),
        }
    });
    quality.insufficient_samples = verdict.is_err();
    FlowReport {
        flow: probe.flow(),
        verdict,
        quality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_capture;
    use crate::classifier::{ModelMeta, SignatureClassifier};
    use csig_dtree::TreeParams;
    use csig_netsim::{LinkConfig, SimDuration, Simulator};
    use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};

    fn tiny_model() -> SignatureClassifier {
        let mut d = csig_dtree::Dataset::new();
        for i in 0..20 {
            let x = i as f64 / 20.0;
            d.push(vec![0.6 + 0.4 * x, 0.15 + 0.2 * x], 0);
            d.push(vec![0.3 * x, 0.05 * x], 1);
        }
        SignatureClassifier::train(
            &d,
            TreeParams::default(),
            ModelMeta {
                congestion_threshold: 0.8,
                trained_on: "unit".into(),
                n_train: 40,
                n_filtered: 0,
            },
        )
    }

    /// One simulation, two taps on the server: a buffering capture and
    /// a live analyzer. The verdicts streamed during the run must match
    /// the capture replayed afterwards, report for report.
    #[test]
    fn live_matches_replayed_capture_on_simulated_run() {
        let clf = tiny_model();
        let mut sim = Simulator::new(21);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            TcpConfig::default(),
            ServerSendPolicy::Fixed(4_000_000),
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Once,
            77,
        )));
        sim.add_duplex_link(
            server,
            client,
            LinkConfig::new(20_000_000, SimDuration::from_millis(20)).buffer_ms(100),
        );
        sim.compute_routes();
        let cap = sim.attach_capture(server);
        let live_h = sim.attach_sink(server, Box::new(LiveAnalyzer::new(clf.clone())));
        sim.set_event_budget(50_000_000);
        sim.run().expect_within_budget();

        let live: &LiveAnalyzer = sim.sink(live_h).expect("live analyzer tap");
        // The download completes inside the run: the verdict streamed
        // out before the simulation even ended.
        assert_eq!(live.completed().len(), 1);
        assert_eq!(live.open_flows(), 0);

        let live_reports = live.clone().finish();
        let capture = sim.take_capture(cap);
        let replayed = analyze_capture(&clf, &capture);
        // `Debug` prints every float exactly, so equal renderings mean
        // bit-identical verdicts and equal quality flags.
        assert_eq!(format!("{live_reports:?}"), format!("{replayed:?}"));
        assert!(
            live_reports.iter().all(|r| r.quality.is_clean()),
            "cleanly closed flows carry no degradation flags: {:?}",
            live_reports.iter().map(|r| r.quality).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_stream_yields_no_reports() {
        let live = LiveAnalyzer::new(tiny_model());
        assert_eq!(live.open_flows(), 0);
        assert!(live.finish().is_empty());
    }

    fn bare_record(flow: u32, t: SimTime) -> PacketRecord {
        use csig_netsim::{NodeId, Packet, PacketId, PacketKind, TcpFlags, TcpHeader, NO_SACK};
        PacketRecord {
            time: t,
            dir: Direction::Out,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(flow),
                src: NodeId(0),
                dst: NodeId(1),
                size: 1052,
                sent_at: t,
                kind: PacketKind::Tcp(TcpHeader {
                    seq: 1,
                    ack: 0,
                    flags: TcpFlags::ACK,
                    payload_len: 1000,
                    window: 65535,
                    sack: NO_SACK,
                }),
            },
        }
    }

    #[test]
    fn idle_flows_are_evicted_with_quality_flags() {
        let mut live = LiveAnalyzer::new(tiny_model()).with_idle_timeout(SimDuration::from_secs(5));
        // Flow 1 goes quiet at t=1s; flow 2 keeps talking.
        live.push(&bare_record(1, SimTime::from_secs(1)));
        for s in 1..=20 {
            live.push(&bare_record(2, SimTime::from_secs(s)));
        }
        assert_eq!(live.open_flows(), 1, "idle flow evicted, live flow kept");
        let evicted = live.drain_completed();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].flow, FlowId(1));
        assert!(evicted[0].quality.idle_evicted);
        assert!(evicted[0].quality.never_closed);
        assert!(!evicted[0].quality.truncated);
        // Late records of the evicted flow are ignored, not revived.
        live.push(&bare_record(1, SimTime::from_secs(21)));
        assert_eq!(live.open_flows(), 1);
        // The still-open flow is truncated when the stream ends.
        let rest = live.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].flow, FlowId(2));
        assert!(rest[0].quality.truncated && rest[0].quality.never_closed);
        assert!(!rest[0].quality.idle_evicted);
    }

    #[test]
    fn short_flows_are_skipped_with_insufficient_samples_and_traced() {
        let trace = TraceBuffer::with_capacity(16);
        let mut live = LiveAnalyzer::new(tiny_model()).with_trace(trace.clone());
        // One bare data record: far below MIN_SAMPLES, never closes.
        live.push(&bare_record(7, SimTime::from_secs(1)));
        let reports = live.finish();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].verdict.is_err(), "no verdict for a short flow");
        assert!(reports[0].quality.insufficient_samples);
        assert!(!reports[0].quality.is_clean());
        assert!(reports[0].quality.to_string().contains("insufficient"));
        assert!(reports[0].quality.truncated);
        let events = trace.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].scope, "live");
        assert_eq!(events[0].kind, "skip");
    }

    #[test]
    fn without_timeout_no_eviction_happens() {
        let mut live = LiveAnalyzer::new(tiny_model());
        live.push(&bare_record(1, SimTime::from_secs(1)));
        live.push(&bare_record(2, SimTime::from_secs(500)));
        assert_eq!(live.open_flows(), 2);
        assert!(live.completed().is_empty());
    }
}
