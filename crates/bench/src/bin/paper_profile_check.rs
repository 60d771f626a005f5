//! Spot-check that the full-fidelity paper profile runs: one
//! self-induced and one external test at the paper's exact settings
//! (950 Mbps interconnect, 100 TGcong flows, 10 s test, 2 s warm-up).
//!
//! `cargo run --release -p csig-bench --bin paper_profile_check`
//!
//! Takes no flags. The two tests run one after the other so each
//! wall-clock figure times one test alone.

use csig_exec::cli::CommonArgs;
use csig_exec::{Campaign, Executor};
use csig_testbed::{run_test, AccessParams, Profile};
use std::time::Instant;

fn main() {
    CommonArgs::parse(&[]);
    let mut campaign = Campaign::new(0xFACE);
    for external in [false, true] {
        campaign.push_seeded(0xFACE + external as u64, move |seed| {
            let mut cfg = Profile::Paper.config(AccessParams::figure1(), seed);
            if external {
                cfg = cfg.externally_congested();
            }
            let t0 = Instant::now();
            (external, run_test(&cfg), t0.elapsed())
        });
    }
    let runs = Executor::sequential()
        .run_isolated_with_progress(&campaign, |_| {})
        .expect_artifacts();
    for (external, r, wall) in runs {
        println!(
            "paper profile, external={external}: {:.1} Mbps, features={:?}, \
             {} events in {:.1}s wall",
            r.throughput.mean_bps / 1e6,
            r.features.as_ref().map(|f| (f.norm_diff, f.cov)),
            r.events,
            wall.as_secs_f64()
        );
    }
}
