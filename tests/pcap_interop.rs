//! Capture interoperability: a verdict computed from a live capture
//! must survive a pcap export/import round-trip (i.e. the offline
//! `tcpdump → analyze` workflow the paper uses is equivalent to the
//! online one).

use tcp_congestion_signatures::prelude::*;
use tcp_congestion_signatures::testbed;
use tcp_congestion_signatures::trace::{read_pcap, write_pcap};

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
    let cfg = TestbedConfig::scaled(AccessParams::figure1(), 987);
    let mut tb = testbed::build(&cfg);
    let cap = tb.attach_capture();
    tb.sim
        .run_until(tb.test_end + SimDuration::from_millis(500))
        .expect_within_budget();
    let capture = tb.sim.take_capture(cap);

    // Online verdicts.
    let online = analyze_capture(&clf, &capture);
    assert_eq!(online.len(), 1);
    let online_verdict = online[0].verdict.as_ref().expect("classifiable");

    // Export to a real pcap file and import it back.
    let mut buf = Vec::new();
    let n = write_pcap(&capture, &mut buf).expect("export");
    assert!(n > 1000, "only {n} packets exported");
    let imported = read_pcap(&buf[..], capture.node).expect("import");

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
    let cfg = TestbedConfig::scaled(AccessParams::figure1(), 988);
    let mut tb = testbed::build(&cfg);
    let cap = tb.attach_capture();
    tb.sim
        .run_until(tb.test_start + SimDuration::from_millis(500))
        .expect_within_budget();
    let capture = tb.sim.take_capture(cap);
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
