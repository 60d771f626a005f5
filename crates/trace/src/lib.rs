//! # csig-trace — packet-trace capture analysis
//!
//! The `tcpdump`/`tshark` stage of the paper's pipeline, applied to
//! simulated captures:
//!
//! * [`flow`] — the per-flow sequence reader [`FlowTracker`]:
//!   per-ACK flow-RTT samples with Karn filtering, the slow-start
//!   boundary (first retransmission) and the goodput of its late half,
//!   whole-flow goodput from the cumulative-ACK stream, and the FIN
//!   exchange.
//! * [`pcap`] — genuine libpcap export (synthesized IPv4+TCP bytes,
//!   SACK options, valid IP checksums).
//! * [`pcap_import`] — the one pcap reader: `tcpdump` files (µs/ns
//!   magic, Ethernet or raw-IP framing) and this crate's own exports,
//!   with 4-tuple flow assembly.
//!
//! ## Streaming core
//!
//! Every per-flow analysis is one incremental state machine,
//! [`FlowTracker`], consuming one
//! [`PacketRecord`](csig_netsim::PacketRecord) of one flow at a time:
//! it reads each TCP header once, maps it to stream offsets through one
//! anchor, and keeps state bounded by the flow's in-flight window, not
//! by trace length. There is no buffered-trace API: a caller holding a
//! capture replays its records (for one flow, `Capture::flow`) through
//! a tracker, as `csig-features`' `FlowProbe` does for a live tap.
//!
//! The end-to-end integration test in this crate cross-validates the
//! trace-derived RTT samples against the TCP stack's own Karn-filtered
//! estimator samples — the two measurement paths must agree.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod flow;
pub mod pcap;
pub mod pcap_import;

pub use flow::{FlowTracker, RttSample, SlowStart, ThroughputSummary};
pub use pcap::write_pcap;
pub use pcap_import::{
    assemble_capture, import_pcap, parse_pcap_tcp, ImportError, RawTcpPacket, ServerSelector,
};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use csig_netsim::{FlowId, LinkConfig, PacketRecord, SimDuration, Simulator};
    use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};

    /// Run a download over a bottleneck and capture at the server.
    fn run_download(seed: u64, size: u64) -> (csig_netsim::Capture, csig_tcp::ConnStats) {
        let mut sim = Simulator::new(seed);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            TcpConfig::default(),
            ServerSendPolicy::Fixed(size),
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Once,
            500,
        )));
        sim.add_duplex_link(
            server,
            client,
            LinkConfig::new(20_000_000, SimDuration::from_millis(20)).buffer_ms(100),
        );
        sim.compute_routes();
        let cap = sim.attach_capture(server);
        sim.set_event_budget(50_000_000);
        sim.run().expect_within_budget();
        let s: &TcpServerAgent = sim.agent(server).unwrap();
        let stats = s.completed[0].1.clone();
        (sim.take_capture(cap), stats)
    }

    fn rtt_samples<'a>(records: impl IntoIterator<Item = &'a PacketRecord>) -> Vec<RttSample> {
        let mut tracker = FlowTracker::new();
        records
            .into_iter()
            .filter_map(|r| tracker.push(r))
            .collect()
    }

    fn track<'a>(records: impl IntoIterator<Item = &'a PacketRecord>) -> FlowTracker {
        let mut tracker = FlowTracker::new();
        for r in records {
            tracker.push(r);
        }
        tracker
    }

    #[test]
    fn trace_rtt_matches_in_stack_estimator() {
        let (cap, stats) = run_download(11, 4_000_000);
        let samples = rtt_samples(cap.flow(FlowId(500)));
        assert!(
            samples.len() >= 100,
            "too few trace samples: {}",
            samples.len()
        );
        // During slow start (before the first retransmission) the two
        // measurement paths sample exactly the same ACKs and must agree
        // pairwise. After loss they diverge slightly in which ACKs are
        // Karn-eligible, so comparison is windowed.
        let boundary = stats
            .first_retransmit_at
            .unwrap_or(csig_netsim::SimTime::MAX);
        let trace_ss: Vec<_> = samples.iter().filter(|s| s.at <= boundary).collect();
        let stack_ss: Vec<_> = stats
            .rtt_samples
            .iter()
            .filter(|(t, _)| *t <= boundary)
            .collect();
        assert!(trace_ss.len() >= 10, "too few slow-start samples");
        assert_eq!(trace_ss.len(), stack_ss.len());
        for (t, s) in trace_ss.iter().zip(&stack_ss) {
            let err = (t.rtt.as_millis_f64() - s.1.as_millis_f64()).abs();
            assert!(err < 0.001, "trace {} vs stack {}", t.rtt, s.1);
        }
    }

    #[test]
    fn trace_slow_start_matches_stack_first_retransmit() {
        let (cap, stats) = run_download(12, 4_000_000);
        let ss = track(cap.flow(FlowId(500))).slow_start();
        let stack = stats.first_retransmit_at.expect("loss expected");
        let trace_end = ss.end.expect("trace retransmission expected");
        // The trace sees the retransmission the instant it is sent.
        assert_eq!(trace_end, stack);
    }

    #[test]
    fn trace_throughput_matches_transfer() {
        let (cap, stats) = run_download(13, 4_000_000);
        let tracker = track(cap.flow(FlowId(500)));
        assert!(tracker.closed(), "the whole download was captured");
        let s = tracker.throughput();
        assert_eq!(s.bytes_acked, stats.bytes_acked);
        // 20 Mbps bottleneck: mean goodput below capacity, above half.
        assert!(s.mean_bps < 20.5e6, "{}", s.mean_bps);
        assert!(s.mean_bps > 10e6, "{}", s.mean_bps);
    }

    #[test]
    fn pcap_roundtrip_preserves_analysis() {
        let (cap, _) = run_download(14, 1_000_000);
        let mut buf = Vec::new();
        let n = write_pcap(&cap, &mut buf).unwrap();
        assert!(n > 100);
        let parsed = import_pcap(&buf[..], ServerSelector::Port(pcap::TAP_PORT)).unwrap();
        // The one flow comes back as the importer's first flow id.
        assert!(parsed.records.iter().all(|r| r.pkt.flow == FlowId(0)));
        // RTT extraction on the re-imported capture agrees with the
        // original (timestamps and header fields round-trip).
        let a = rtt_samples(cap.flow(FlowId(500)));
        let b = rtt_samples(&parsed.records);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rtt, y.rtt);
            assert_eq!(x.at, y.at);
        }
    }

    #[test]
    fn slow_start_rtt_signature_visible_in_trace() {
        // The paper's core observation, measured entirely from the
        // trace: slow-start RTT grows from the propagation baseline
        // (~40 ms) toward baseline + buffer (~140 ms).
        let (cap, _) = run_download(15, 4_000_000);
        let boundary = track(cap.flow(FlowId(500))).slow_start().boundary();
        let win: Vec<_> = rtt_samples(cap.flow(FlowId(500)))
            .into_iter()
            .filter(|s| s.at <= boundary)
            .collect();
        assert!(win.len() >= 10);
        let min = win
            .iter()
            .map(|s| s.rtt.as_millis_f64())
            .fold(f64::MAX, f64::min);
        let max = win
            .iter()
            .map(|s| s.rtt.as_millis_f64())
            .fold(0.0, f64::max);
        assert!(min < 50.0, "baseline inflated: {min}");
        assert!(max > 110.0, "buffer never filled: {max}");
    }
}
