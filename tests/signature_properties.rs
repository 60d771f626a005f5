//! Property-style invariants of the signature itself, measured on real
//! simulations (not synthetic feature vectors).

use csig_rng::cases;
use tcp_congestion_signatures::prelude::*;

/// Self-induced NormDiff tracks the buffer's share of the total RTT:
/// deeper buffers give strictly larger NormDiff at equal latency.
#[test]
fn norm_diff_grows_with_buffer_depth() {
    let feature_at = |buffer_ms: u64| {
        let access = AccessParams {
            rate_mbps: 20,
            loss_pct: 0.0,
            latency_ms: 20,
            buffer_ms,
        };
        run_test(&Profile::Scaled.config(access, 2024))
            .features
            .expect("features")
            .norm_diff
    };
    let d20 = feature_at(20);
    let d50 = feature_at(50);
    let d100 = feature_at(100);
    assert!(d20 < d50, "20ms {d20} !< 50ms {d50}");
    assert!(d50 < d100, "50ms {d50} !< 100ms {d100}");
}

/// The theoretical ceiling: NormDiff ≈ buffer / (base RTT + buffer).
#[test]
fn norm_diff_close_to_buffer_fraction() {
    let access = AccessParams {
        rate_mbps: 20,
        loss_pct: 0.0,
        latency_ms: 20,
        buffer_ms: 100,
    };
    let f = run_test(&Profile::Scaled.config(access, 31))
        .features
        .expect("features");
    // Base RTT ≈ 2×latency + core ≈ 46 ms ⇒ ceiling ≈ 100/146 ≈ 0.68.
    // Measured NormDiff should be near (within jitter/overshoot).
    assert!(
        (0.55..0.92).contains(&f.norm_diff),
        "norm_diff {} far from buffer fraction",
        f.norm_diff
    );
}

/// Baseline latency cancels out of the features (they are ratios): the
/// classifier's verdict for a self-induced flow must not flip between
/// 20 ms and 40 ms access latency.
#[test]
fn latency_invariance_of_the_verdict() {
    let results = Sweep {
        grid: vec![AccessParams::figure1()],
        reps: 3,
        profile: Profile::Scaled,
        seed: 71,
    }
    .run_with(&Executor::sequential(), |_| {});
    let clf = train_from_results(&results, 0.7, TreeParams::default()).expect("model");
    for latency_ms in [20u64, 40] {
        let access = AccessParams {
            rate_mbps: 20,
            loss_pct: 0.02,
            latency_ms,
            buffer_ms: 100,
        };
        let f = run_test(&Profile::Scaled.config(access, 72))
            .features
            .expect("features");
        assert_eq!(
            clf.classify(&f),
            CongestionClass::SelfInduced,
            "latency {latency_ms} ms flipped the verdict"
        );
    }
}

/// For any seed, a self-induced scaled run at the Figure-1 setting
/// produces a valid feature vector with NormDiff in (0, 1] and
/// CoV > 0, and classifiable slow-start throughput.
#[test]
fn prop_self_induced_runs_always_yield_valid_features() {
    cases(
        8,
        "prop_self_induced_runs_always_yield_valid_features",
        |rng| {
            let seed = rng.gen_range(0u64..1000);
            let r = run_test(&Profile::Scaled.config(AccessParams::figure1(), seed));
            let f = r.features.expect("self-induced runs are never starved");
            assert!(f.norm_diff > 0.0 && f.norm_diff <= 1.0);
            assert!(f.cov > 0.0);
            assert!(f.samples >= 10);
            assert!(r.ss_throughput_bps > 0.0);
            assert!(r.slow_start.end.is_some(), "slow start never ended");
        },
    );
}
