//! Reproducibility: every layer of the stack is a pure function of its
//! seed.

use tcp_congestion_signatures::prelude::*;

#[test]
fn testbed_results_are_bit_identical_across_runs() {
    let mk = || run_test(&Profile::Scaled.config(AccessParams::figure1(), 31337));
    let a = mk();
    let b = mk();
    assert_eq!(a.throughput.bytes_acked, b.throughput.bytes_acked);
    assert_eq!(a.ss_throughput_bps, b.ss_throughput_bps);
    let (fa, fb) = (a.features.unwrap(), b.features.unwrap());
    assert_eq!(fa.norm_diff, fb.norm_diff);
    assert_eq!(fa.cov, fb.cov);
    assert_eq!(fa.samples, fb.samples);
}

#[test]
fn different_seeds_differ() {
    let a = run_test(&Profile::Scaled.config(AccessParams::figure1(), 1));
    let b = run_test(&Profile::Scaled.config(AccessParams::figure1(), 2));
    // Jitter and cross-traffic randomness must actually vary.
    assert_ne!(
        a.features.unwrap().cov,
        b.features.unwrap().cov,
        "seeds produced identical runs"
    );
}

#[test]
fn training_is_deterministic() {
    let grid = vec![AccessParams::figure1()];
    let mk = || {
        let results = Sweep {
            grid: grid.clone(),
            reps: 2,
            profile: Profile::Scaled,
            seed: 77,
        }
        .run_with(&Executor::sequential(), |_| {});
        train_from_results(&results, 0.7, TreeParams::default()).expect("model")
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn mlab_campaign_is_deterministic() {
    use tcp_congestion_signatures::mlab::{generate_with, Dispute2014Config};
    let cfg = Dispute2014Config {
        tests_per_cell: 1,
        test_duration: SimDuration::from_secs(2),
        seed: 50,
    };
    let a = generate_with(&cfg, &Executor::sequential(), |_| {});
    let b = generate_with(&cfg, &Executor::sequential(), |_| {});
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.hour, y.hour);
        assert_eq!(x.congested, y.congested);
        assert_eq!(
            x.measurement.throughput.bytes_acked,
            y.measurement.throughput.bytes_acked
        );
    }
}
