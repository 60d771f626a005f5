//! Batch vs streaming analysis: the same capture analyzed through the
//! buffer-everything path (`analyze_capture`) and through the online
//! path (`LiveAnalyzer` / `FlowProbe` fed one record at a time). The
//! two produce bit-identical reports; this measures what the streaming
//! path costs in throughput and what it saves in peak memory.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use csig_core::{LiveAnalyzer, ModelMeta, SignatureClassifier};
use csig_dtree::{Dataset, TreeParams};
use csig_features::FlowProbe;
use csig_netsim::{Capture, FlowId, LinkConfig, PacketRecord, SimDuration, Simulator};
use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};
use std::hint::black_box;

/// A realistic server-side capture: a 4 MB download over a 20 Mbps /
/// 100 ms-buffer bottleneck (~6 k packets), same shape as pipeline.rs.
fn sample_capture() -> Capture {
    let mut sim = Simulator::new(1234);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        TcpConfig::default(),
        ServerSendPolicy::Fixed(4_000_000),
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
    sim.take_capture(cap)
}

fn tiny_model() -> SignatureClassifier {
    let mut d = Dataset::new();
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
            trained_on: "bench".into(),
            n_train: 40,
            n_filtered: 0,
        },
    )
}

/// One-shot peak-memory note: what the batch path must buffer vs what
/// the streaming path holds, on the same capture.
fn print_memory_note(cap: &Capture) {
    let batch_bytes = cap.len() * std::mem::size_of::<PacketRecord>();
    let mut probe = FlowProbe::new(FlowId(500));
    let mut peak_outstanding = 0usize;
    for rec in &cap.records {
        probe.push(rec);
        peak_outstanding = peak_outstanding.max(probe.outstanding_len());
    }
    // The probe's variable-size state is the RTT extractor's
    // outstanding-segment list; everything else is O(1) scalars.
    let stream_bytes =
        std::mem::size_of::<FlowProbe>() + peak_outstanding * 3 * std::mem::size_of::<u64>();
    eprintln!(
        "memory-note: batch buffers {} records = {} bytes; \
         streaming probe peak state ~{} bytes ({} outstanding segments) \
         — {:.0}x smaller",
        cap.len(),
        batch_bytes,
        stream_bytes,
        peak_outstanding,
        batch_bytes as f64 / stream_bytes as f64
    );
}

fn bench_analysis(c: &mut Criterion) {
    let cap = sample_capture();
    let clf = tiny_model();
    print_memory_note(&cap);

    let mut g = c.benchmark_group("analysis");
    g.throughput(Throughput::Elements(cap.len() as u64));

    // Batch: buffer everything, then analyze (the pre-refactor shape —
    // analyze_capture now replays through LiveAnalyzer internally).
    g.bench_function("batch_analyze_capture", |b| {
        b.iter(|| black_box(csig_core::analyze_capture(black_box(&clf), black_box(&cap))))
    });

    // Streaming: feed the analyzer one record at a time, as a live tap
    // would, then collect the reports.
    g.bench_function("streaming_live_analyzer", |b| {
        b.iter(|| {
            let mut live = LiveAnalyzer::new(clf.clone());
            for rec in &cap.records {
                live.push(black_box(rec));
            }
            black_box(live.finish())
        })
    });

    // Per-record cost of a single-flow probe (no classification).
    g.bench_function("streaming_flow_probe", |b| {
        b.iter(|| {
            let mut probe = FlowProbe::new(FlowId(500));
            for rec in &cap.records {
                probe.push(black_box(rec));
            }
            black_box(probe.features())
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_analysis
}
criterion_main!(benches);
