//! Satellite check for the executor layer: a parallel campaign run
//! (`jobs = 4`) must render to *exactly* the same `Debug` text as a
//! sequential run (`jobs = 1`). Derived `Debug` prints every field and
//! each `f64` at round-trip precision (NaN and ±inf distinct), so any
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
    assert_eq!(
        format!("{seq:?}"),
        format!("{par:?}"),
        "fig1 campaign output depends on jobs"
    );
    // And the folded figure data agrees too.
    assert_eq!(
        format!("{:?}", fig1::collect(&seq)),
        format!("{:?}", fig1::collect(&par))
    );
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
    assert_eq!(
        format!("{seq:?}"),
        format!("{par:?}"),
        "Dispute2014 output depends on jobs"
    );
}
