//! # csig-trace — packet-trace capture analysis
//!
//! The `tcpdump`/`tshark` stage of the paper's pipeline, applied to
//! simulated captures:
//!
//! * [`flow`] — demultiplex a capture into per-flow traces, recover
//!   initial sequence numbers, translate wire seqs to stream offsets.
//! * [`rtt`] — extract per-ACK flow-RTT samples with Karn filtering.
//! * [`slow_start`] — find the slow-start boundary (first
//!   retransmission) and window samples/throughput to it.
//! * [`throughput`] — goodput summaries and time series from the
//!   cumulative-ACK stream.
//! * [`pcap`] — genuine libpcap export (synthesized IPv4+TCP bytes,
//!   SACK options, valid IP checksums) and re-import.
//! * [`pcap_import`] — import of *foreign* `tcpdump` files (µs/ns
//!   magic, Ethernet or raw-IP framing) with 4-tuple flow assembly.
//!
//! ## Streaming cores
//!
//! Every per-flow analysis is implemented as an incremental state
//! machine consuming one [`PacketRecord`](csig_netsim::PacketRecord) at
//! a time — [`FlowDemux`], [`RttExtractor`], [`AckAccountant`],
//! [`SlowStartTracker`], [`ThroughputTracker`] — with state bounded by
//! the flow's in-flight window, not by trace length. The batch
//! functions ([`extract_rtt_samples`], [`detect_slow_start`],
//! [`throughput_summary`], …) are thin wrappers that replay a buffered
//! trace through the corresponding core, so both paths produce
//! byte-identical results by construction. Only
//! [`throughput_timeseries`] remains batch-only (its binning needs the
//! trace's time span up front).
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
pub mod rtt;
pub mod slow_start;
pub mod throughput;

pub use flow::{split_flows, FlowDemux, FlowIsn, FlowTrace, OffsetTracker};
pub use pcap::{read_pcap, write_pcap, PcapError};
pub use pcap_import::{
    assemble_capture, import_pcap, parse_pcap_tcp, ImportError, RawTcpPacket, ServerSelector,
};
pub use rtt::{bytes_acked_by, extract_rtt_samples, AckAccountant, RttExtractor, RttSample};
pub use slow_start::{
    capacity_estimate_bps, detect_slow_start, slow_start_samples, SlowStart, SlowStartTracker,
};
pub use throughput::{
    throughput_summary, throughput_timeseries, ThroughputSummary, ThroughputTracker,
};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use csig_netsim::{FlowId, LinkConfig, SimDuration, Simulator};
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

    #[test]
    fn trace_rtt_matches_in_stack_estimator() {
        let (cap, stats) = run_download(11, 4_000_000);
        let flows = split_flows(&cap);
        let trace = &flows[&FlowId(500)];
        let samples = extract_rtt_samples(trace);
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
        let flows = split_flows(&cap);
        let ss = detect_slow_start(&flows[&FlowId(500)]);
        let stack = stats.first_retransmit_at.expect("loss expected");
        let trace_end = ss.end.expect("trace retransmission expected");
        // The trace sees the retransmission the instant it is sent.
        assert_eq!(trace_end, stack);
    }

    #[test]
    fn trace_throughput_matches_transfer() {
        let (cap, stats) = run_download(13, 4_000_000);
        let flows = split_flows(&cap);
        let s = throughput_summary(&flows[&FlowId(500)]);
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
        let parsed = read_pcap(&buf[..], cap.node).unwrap();
        // RTT extraction on the re-imported capture agrees with the
        // original (timestamps and header fields round-trip).
        let of = split_flows(&cap);
        let pf = split_flows(&parsed);
        // Flow ids are recovered mod 50k from ports; id 500 is stable.
        let a = extract_rtt_samples(&of[&FlowId(500)]);
        let b = extract_rtt_samples(&pf[&FlowId(500)]);
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
        let flows = split_flows(&cap);
        let trace = &flows[&FlowId(500)];
        let samples = extract_rtt_samples(trace);
        let ss = detect_slow_start(trace);
        let win = slow_start_samples(&samples, &ss);
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
