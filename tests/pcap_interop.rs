//! Capture interoperability: a verdict computed from a live capture
//! must survive a pcap export/import round-trip (i.e. the offline
//! `tcpdump → analyze` workflow the paper uses is equivalent to the
//! online one).

use std::collections::BTreeMap;
use tcp_congestion_signatures::netsim::{Capture, Direction, FlowId};
use tcp_congestion_signatures::prelude::*;
use tcp_congestion_signatures::testbed;
use tcp_congestion_signatures::trace::pcap::{flow_port, TAP_PORT};
use tcp_congestion_signatures::trace::{import_pcap, parse_pcap_tcp, write_pcap, ServerSelector};

#[test]
fn verdict_survives_pcap_roundtrip() {
    // Train a quick model.
    let results = Sweep {
        grid: vec![AccessParams::figure1()],
        reps: 3,
        profile: Profile::Scaled,
        seed: 11,
    }
    .run_with(&Executor::sequential(), |_| {});
    let clf = train_from_results(&results, 0.7, TreeParams::default()).expect("model");

    // Run a fresh test, capture at the server.
    let cfg = Profile::Scaled.config(AccessParams::figure1(), 987);
    let mut tb = testbed::build(&cfg);
    let cap = tb
        .sim
        .attach_sink(tb.server1, Box::new(Capture::new(tb.server1)));
    tb.sim
        .run_until(tb.test_end + testbed::DRAIN_TAIL)
        .expect_within_budget();
    let capture = tb.sim.take_sink::<Capture>(cap).unwrap();

    // Online verdicts.
    let online = analyze_capture(&clf, &capture);
    assert_eq!(online.len(), 1);
    let online_verdict = online[0].verdict.as_ref().expect("classifiable");

    // Export to a real pcap file and import it back.
    let mut buf = Vec::new();
    let n = write_pcap(&capture, &mut buf).expect("export");
    assert!(n > 1000, "only {n} packets exported");
    let imported = import_pcap(&buf[..], ServerSelector::Port(TAP_PORT)).expect("import");

    // Offline verdicts agree exactly.
    let offline = analyze_capture(&clf, &imported);
    assert_eq!(offline.len(), 1);
    let offline_verdict = offline[0].verdict.as_ref().expect("classifiable");
    assert_eq!(online_verdict.class, offline_verdict.class);
    assert_eq!(
        online_verdict.features.norm_diff,
        offline_verdict.features.norm_diff
    );
    assert_eq!(online_verdict.features.cov, offline_verdict.features.cov);
    assert_eq!(
        online_verdict.features.samples,
        offline_verdict.features.samples
    );
}

#[test]
fn pcap_file_has_standard_layout() {
    let cfg = Profile::Scaled.config(AccessParams::figure1(), 988);
    let mut tb = testbed::build(&cfg);
    let cap = tb
        .sim
        .attach_sink(tb.server1, Box::new(Capture::new(tb.server1)));
    tb.sim
        .run_until(tb.test_start + SimDuration::from_millis(500))
        .expect_within_budget();
    let capture = tb.sim.take_sink::<Capture>(cap).unwrap();
    let mut buf = Vec::new();
    write_pcap(&capture, &mut buf).expect("export");
    // Nanosecond little-endian magic and LINKTYPE_RAW.
    assert_eq!(&buf[0..4], &0xA1B2_3C4Du32.to_le_bytes());
    assert_eq!(&buf[20..24], &101u32.to_le_bytes());
    // First packet is IPv4 with protocol TCP.
    let first = &buf[24 + 16..];
    assert_eq!(first[0] >> 4, 4, "not IPv4");
    assert_eq!(first[9], 6, "not TCP");
}

/// A hand-built model with the paper's geometry (self-induced flows
/// high in NormDiff/CoV, external flows low).
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
            trained_on: "pcap-interop-test".into(),
            n_train: 40,
            n_filtered: 0,
        },
    )
}

/// Three concurrent downloads from one server, each client behind its
/// own shaped access link, captured at the server.
fn three_flow_capture() -> Capture {
    let ms = SimDuration::from_millis;
    let mut sim = Simulator::new(31);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        TcpConfig::default(),
        ServerSendPolicy::Fixed(1_000_000),
    )));
    let router = sim.add_router();
    sim.add_duplex_link(server, router, LinkConfig::new(1_000_000_000, ms(2)));
    for i in 0..3u32 {
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Once,
            1000 + 100 * i,
        )));
        sim.add_link(
            router,
            client,
            LinkConfig::new(
                10_000_000 + 5_000_000 * u64::from(i),
                ms(10 + 5 * u64::from(i)),
            )
            .buffer_ms(80),
        );
        sim.add_link(
            client,
            router,
            LinkConfig::new(100_000_000, ms(1)).buffer_ms(20),
        );
    }
    sim.compute_routes();
    let cap = sim.attach_sink(server, Box::new(Capture::new(server)));
    sim.set_event_budget(50_000_000);
    sim.run().expect_within_budget();
    sim.take_sink::<Capture>(cap).unwrap()
}

#[test]
fn multi_flow_verdicts_survive_pcap_roundtrip() {
    let capture = three_flow_capture();
    let clf = tiny_model();
    let online = analyze_capture(&clf, &capture);
    assert_eq!(online.len(), 3);

    let mut buf = Vec::new();
    write_pcap(&capture, &mut buf).expect("export");
    let imported = import_pcap(&buf[..], ServerSelector::Port(TAP_PORT)).expect("import");
    let offline = analyze_capture(&clf, &imported);
    assert_eq!(offline.len(), online.len(), "flow count changed");

    // Every packet carries the tap port, so the importer keeps them all,
    // in file order: the parsed packets give each imported flow's client
    // port.
    let packets = parse_pcap_tcp(&buf[..]).expect("parse");
    assert_eq!(packets.len(), imported.records.len());
    let mut client_port: BTreeMap<FlowId, u16> = BTreeMap::new();
    for (rec, pkt) in imported.records.iter().zip(&packets) {
        let port = match rec.dir {
            Direction::Out => pkt.dport,
            Direction::In => pkt.sport,
        };
        assert_eq!(*client_port.entry(rec.pkt.flow).or_insert(port), port);
    }

    for original in &online {
        let port = flow_port(original.flow);
        let copy = offline
            .iter()
            .find(|r| client_port[&r.flow] == port)
            .unwrap_or_else(|| panic!("no imported flow on client port {port}"));
        let a = original.verdict.as_ref().expect("classifiable");
        let b = copy.verdict.as_ref().expect("classifiable");
        assert_eq!(a.class, b.class, "client port {port}");
        assert_eq!(a.features, b.features, "client port {port}");
    }
}
