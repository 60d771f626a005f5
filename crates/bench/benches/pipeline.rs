//! Microbenchmarks of the analysis pipeline: RTT extraction,
//! slow-start detection, feature computation, tree training/prediction
//! and pcap (de)serialization — the per-flow cost a production
//! deployment of the technique would pay.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use csig_dtree::{Dataset, DecisionTree, TreeParams};
use csig_features::features_from_samples;
use csig_netsim::{Capture, LinkConfig, SimDuration, Simulator};
use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};
use csig_trace::{detect_slow_start, extract_rtt_samples, read_pcap, split_flows, write_pcap};
use std::hint::black_box;

/// A realistic server-side capture: a 4 MB download over a 20 Mbps /
/// 100 ms-buffer bottleneck (~6 k packets).
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

fn training_set(n: usize) -> Dataset {
    use rand::Rng;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut d = Dataset::new();
    for _ in 0..n {
        d.push(
            vec![0.6 + rng.gen::<f64>() * 0.4, 0.1 + rng.gen::<f64>() * 0.3],
            0,
        );
        d.push(vec![rng.gen::<f64>() * 0.4, rng.gen::<f64>() * 0.1], 1);
    }
    d
}

fn bench_pipeline(c: &mut Criterion) {
    let cap = sample_capture();
    let flows = split_flows(&cap);
    let trace = flows.values().next().expect("one flow").clone();
    let samples = extract_rtt_samples(&trace);
    let ss = detect_slow_start(&trace);

    let mut g = c.benchmark_group("pipeline");
    g.bench_function("split_flows_6k_pkts", |b| {
        b.iter(|| black_box(split_flows(black_box(&cap))))
    });
    g.bench_function("extract_rtt_samples", |b| {
        b.iter(|| black_box(extract_rtt_samples(black_box(&trace))))
    });
    g.bench_function("detect_slow_start", |b| {
        b.iter(|| black_box(detect_slow_start(black_box(&trace))))
    });
    g.bench_function("features_from_samples", |b| {
        b.iter(|| black_box(features_from_samples(black_box(&samples), black_box(&ss))))
    });
    g.finish();

    let mut g = c.benchmark_group("dtree");
    let data = training_set(500);
    g.bench_function("fit_1000x2", |b| {
        b.iter(|| black_box(DecisionTree::fit(black_box(&data), TreeParams::default())))
    });
    let tree = DecisionTree::fit(&data, TreeParams::default());
    g.bench_function("predict", |b| {
        b.iter(|| black_box(tree.predict(black_box(&[0.5, 0.2]))))
    });
    g.finish();

    let mut g = c.benchmark_group("pcap");
    g.bench_function("write_6k_pkts", |b| {
        b.iter_batched(
            Vec::new,
            |mut buf| {
                write_pcap(black_box(&cap), &mut buf).expect("write");
                black_box(buf)
            },
            BatchSize::SmallInput,
        )
    });
    let mut encoded = Vec::new();
    write_pcap(&cap, &mut encoded).expect("write");
    g.bench_function("read_6k_pkts", |b| {
        b.iter(|| black_box(read_pcap(black_box(&encoded[..]), cap.node).expect("read")))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pipeline
}
criterion_main!(benches);
