//! Satellite check for the executor layer: a parallel campaign run
//! (`jobs = 4`) must serialize to *exactly* the same bytes as a
//! sequential run (`jobs = 1`). Byte-level comparison of the JSON
//! output is deliberately stricter than field-wise equality — any
//! scheduling-dependent float or reordering shows up here.

use csig_bench::fig1;
use csig_exec::Executor;
use csig_mlab::{dispute2014, Dispute2014Config};
use csig_netsim::SimDuration;
use csig_testbed::Profile;

#[test]
fn fig1_campaign_is_jobs_invariant() {
    let campaign = fig1::campaign(3, Profile::Scaled, 0xF161);
    let seq = Executor::new(1)
        .run_isolated_with_progress(&campaign, |_| {})
        .expect_artifacts();
    let par = Executor::new(4)
        .run_isolated_with_progress(&campaign, |_| {})
        .expect_artifacts();
    let seq_json = serde_json::to_string(&seq).expect("serialize sequential");
    let par_json = serde_json::to_string(&par).expect("serialize parallel");
    assert_eq!(seq_json, par_json, "fig1 campaign output depends on jobs");
    // And the folded figure data agrees too.
    let a = serde_json::to_string(&fig1::collect(&seq)).unwrap();
    let b = serde_json::to_string(&fig1::collect(&par)).unwrap();
    assert_eq!(a, b);
}

#[test]
fn dispute2014_campaign_is_jobs_invariant() {
    let cfg = Dispute2014Config {
        tests_per_cell: 1,
        test_duration: SimDuration::from_secs(2),
        seed: 0xD157,
    };
    let seq = dispute2014::generate_with(&cfg, &Executor::new(1), |_| {});
    let par = dispute2014::generate_with(&cfg, &Executor::new(4), |_| {});
    assert_eq!(seq.len(), par.len());
    let seq_json = serde_json::to_string(&seq).expect("serialize sequential");
    let par_json = serde_json::to_string(&par).expect("serialize parallel");
    assert_eq!(seq_json, par_json, "Dispute2014 output depends on jobs");
}
