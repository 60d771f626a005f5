//! Cross-crate integration over the M-Lab reconstructions: campaign
//! generation, Web100 filtering, labeling and classification.

use tcp_congestion_signatures::dtree::ConfusionMatrix;
use tcp_congestion_signatures::mlab::{
    generate_with, label_dispute2014, run_campaign_with, AccessIsp, Dispute2014Config, Month,
    Tslp2017Config,
};
use tcp_congestion_signatures::prelude::*;
use tcp_congestion_signatures::tslp::{interdomain_episodes, DetectorParams};

#[test]
fn dispute_campaign_passes_mlab_filters() {
    let tests = generate_with(
        &Dispute2014Config {
            tests_per_cell: 2,
            test_duration: SimDuration::from_secs(3),
            seed: 7001,
        },
        &Executor::sequential(),
        |_| {},
    );
    // The paper keeps tests lasting ≥90% of the duration that were
    // congestion-limited ≥90% of the time. Virtually all synthetic NDT
    // tests qualify (they are bulk downloads with a huge rwnd).
    let passing = tests
        .iter()
        .filter(|t| {
            t.measurement
                .web100
                .passes_mlab_filter(SimDuration::from_secs(2))
        })
        .count();
    assert!(
        passing as f64 > 0.9 * tests.len() as f64,
        "{passing}/{} pass",
        tests.len()
    );
    // And the filter actually measures something: sender-limited time
    // is negligible for these flows.
    for t in tests.iter().take(5) {
        assert!(t.measurement.web100.congestion_limited > 0.9);
        assert!(t.measurement.web100.bytes_acked > 0);
    }
}

#[test]
fn dispute_labels_track_generator_ground_truth() {
    let tests = generate_with(
        &Dispute2014Config {
            tests_per_cell: 6,
            test_duration: SimDuration::from_secs(3),
            seed: 7002,
        },
        &Executor::sequential(),
        |_| {},
    );
    let mut cm = ConfusionMatrix::default();
    for t in &tests {
        if let Some(label) = label_dispute2014(t) {
            let truth = if t.congested {
                CongestionClass::External
            } else {
                CongestionClass::SelfInduced
            };
            cm.record(truth.index(), label.index());
        }
    }
    let (agree, labeled) = (cm.correct(), cm.total());
    assert!(labeled > 20, "only {labeled} labeled");
    // The paper's coarse labeling is imperfect by design, but with the
    // synthetic campaign's near-deterministic peak congestion it should
    // agree with ground truth for the vast majority of labeled tests.
    assert!(
        agree as f64 > 0.85 * labeled as f64,
        "{agree}/{labeled} labels agree with ground truth"
    );
}

#[test]
fn cox_is_never_congested_and_always_fast_off_peak() {
    let tests = generate_with(
        &Dispute2014Config {
            tests_per_cell: 4,
            test_duration: SimDuration::from_secs(3),
            seed: 7003,
        },
        &Executor::sequential(),
        |_| {},
    );
    for t in tests.iter().filter(|t| t.isp == AccessIsp::Cox) {
        assert!(!t.congested, "Cox got congested: {t:?}");
    }
    // Jan-Feb Cox throughput should not differ structurally from
    // Mar-Apr Cox throughput (no dispute effect).
    let mean = |months: &[Month]| {
        let v: Vec<f64> = tests
            .iter()
            .filter(|t| t.isp == AccessIsp::Cox && months.contains(&t.month))
            .map(|t| t.measurement.throughput_mbps)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let jf = mean(&[Month::Jan, Month::Feb]);
    let ma = mean(&[Month::Mar, Month::Apr]);
    assert!(
        (jf - ma).abs() < 0.5 * jf.max(ma),
        "Cox changed across the dispute: {jf} vs {ma}"
    );
}

#[test]
fn tslp_campaign_detection_and_classification_agree() {
    let out = run_campaign_with(
        &Tslp2017Config {
            days: 3,
            episode_days: vec![1],
            peak_test_minutes: 90,
            offpeak_test_minutes: 240,
            test_duration: SimDuration::from_secs(3),
            probe_interval: SimDuration::from_secs(600),
            ..Tslp2017Config::default()
        },
        &Executor::sequential(),
        |_| {},
    );
    // TSLP finds exactly the scheduled episode.
    let eps = interdomain_episodes(
        &out.near,
        &out.far,
        DetectorParams {
            min_elevation_ms: 6.0,
            min_run: 2,
        },
    );
    assert_eq!(eps.len(), 1);

    // A testbed-trained classifier marks the episode's tests external
    // and the rest self-induced.
    let results = Sweep {
        grid: tcp_congestion_signatures::testbed::small_grid(),
        reps: 3,
        profile: Profile::Scaled,
        seed: 7004,
    }
    .run_with(&Executor::sequential(), |_| {});
    let clf = train_from_results(&results, 0.7, TreeParams::default()).expect("model");
    let mut cm = ConfusionMatrix::default();
    for t in &out.tests {
        if let Ok(f) = &t.measurement.features {
            let truth = if t.during_episode {
                CongestionClass::External
            } else {
                CongestionClass::SelfInduced
            };
            cm.record(truth.index(), clf.classify(f).index());
        }
    }
    let (s, e) = (
        CongestionClass::SelfInduced.index(),
        CongestionClass::External.index(),
    );
    let (ep_external, ep_total) = (cm.count(e, e), cm.support(e));
    let (clean_self, clean_total) = (cm.count(s, s), cm.support(s));
    assert!(ep_total >= 2);
    assert!(
        ep_external as f64 >= 0.75 * ep_total as f64,
        "{ep_external}/{ep_total} episode tests classified external"
    );
    assert!(
        clean_self as f64 >= 0.9 * clean_total as f64,
        "{clean_self}/{clean_total} clean tests classified self"
    );
}
