//! Cross-crate integration: the full paper pipeline, from simulated
//! testbed through training to held-out diagnosis.

use tcp_congestion_signatures::prelude::*;

fn mini_grid() -> Vec<AccessParams> {
    vec![
        AccessParams {
            rate_mbps: 10,
            loss_pct: 0.02,
            latency_ms: 20,
            buffer_ms: 100,
        },
        AccessParams {
            rate_mbps: 20,
            loss_pct: 0.02,
            latency_ms: 40,
            buffer_ms: 50,
        },
        AccessParams {
            rate_mbps: 20,
            loss_pct: 0.02,
            latency_ms: 20,
            buffer_ms: 20,
        },
    ]
}

#[test]
fn train_serialize_reload_classify() {
    let results = Sweep {
        grid: mini_grid(),
        reps: 2,
        profile: Profile::Scaled,
        seed: 9001,
    }
    .run_with(&Executor::sequential(), |_| {});
    let clf = train_from_results(&results, 0.7, TreeParams::default()).expect("model");

    // Model survives JSON round-trip.
    let json = clf.to_json();
    let reloaded = SignatureClassifier::from_json(&json).expect("parse");

    // Fresh, unseen test → both models agree and are correct.
    let t = run_test(&Profile::Scaled.config(AccessParams::figure1(), 4242));
    let f = t.features.expect("features");
    assert_eq!(clf.classify(&f), reloaded.classify(&f));
    assert_eq!(clf.classify(&f), CongestionClass::SelfInduced);

    let cfg = Profile::Scaled.config(AccessParams::figure1(), 4243);
    let t = run_test(&cfg.externally_congested());
    let f = t.features.expect("features");
    assert_eq!(clf.classify(&f), CongestionClass::External);
}

#[test]
fn classifier_needs_no_path_knowledge() {
    // The same model diagnoses paths it never saw: different plan
    // rates, buffers and baseline latencies (the technique's selling
    // point: no a-priori knowledge of capacity or traffic).
    let results = Sweep {
        grid: mini_grid(),
        reps: 2,
        profile: Profile::Scaled,
        seed: 9002,
    }
    .run_with(&Executor::sequential(), |_| {});
    let clf = train_from_results(&results, 0.7, TreeParams::default()).expect("model");

    // An unseen config: 50 Mbps, 150 ms buffer, 40 ms latency.
    let unseen = AccessParams {
        rate_mbps: 50,
        loss_pct: 0.0,
        latency_ms: 40,
        buffer_ms: 150,
    };
    let t = run_test(&Profile::Scaled.config(unseen, 777));
    let f = t.features.expect("features");
    assert_eq!(clf.classify(&f), CongestionClass::SelfInduced);
}

#[test]
fn verdict_confidence_reflects_leaf_purity() {
    let results = Sweep {
        grid: mini_grid(),
        reps: 2,
        profile: Profile::Scaled,
        seed: 9003,
    }
    .run_with(&Executor::sequential(), |_| {});
    let clf = train_from_results(&results, 0.7, TreeParams::default()).expect("model");
    let t = run_test(&Profile::Scaled.config(AccessParams::figure1(), 555));
    let f = t.features.expect("features");
    let (class, conf) = clf.classify_with_confidence(&f);
    assert_eq!(class, CongestionClass::SelfInduced);
    assert!((0.0..=1.0).contains(&conf));
    assert!(conf > 0.5, "confidence {conf}");
}
