//! SACK ablation: the paper's 2014-era stacks all negotiated SACK; this
//! measures whether the signature technique depends on it. Runs the
//! Figure-1 setting with SACK on and off, for both scenarios, and
//! reports features + classification accuracy under a SACK-on model.
//!
//! `cargo run --release -p csig-bench --bin exp_sack_ablation [reps]
//!  [--jobs N] [--seed S]`

use csig_bench::dispute::testbed_model_with;
use csig_core::ground_truth_confusion;
use csig_exec::cli::{CommonArgs, Flag, JOBS, SEED};
use csig_exec::Campaign;
use csig_netsim::rng::derive_seed;
use csig_testbed::{run_test, AccessParams, Profile};

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("reps"), JOBS, SEED]);
    let reps = args.count_or(8);
    let exec = args.executor();
    eprintln!("exp_sack_ablation: training reference model…");
    let clf = testbed_model_with(5, Profile::Scaled, 0x5AC0, &exec);
    let base_seed = args.seed_or(0x5AC1);

    let cells: Vec<(bool, bool)> = [true, false]
        .into_iter()
        .flat_map(|sack| [(sack, false), (sack, true)])
        .collect();
    let mut campaign = Campaign::new(base_seed);
    for &(sack, external) in &cells {
        for rep in 0..reps {
            campaign.push_seeded(
                derive_seed(
                    base_seed,
                    ((sack as u64) << 32) | ((external as u64) << 16) | rep as u64,
                ),
                move |seed| {
                    let mut cfg = Profile::Scaled.config(AccessParams::figure1(), seed);
                    // Only the measured flow's stack varies.
                    cfg.sack = sack;
                    if external {
                        cfg = cfg.externally_congested();
                    }
                    run_test(&cfg)
                },
            );
        }
    }
    let results = exec
        .run_isolated_with_progress(&campaign, |_| {})
        .expect_artifacts();

    println!("SACK ablation — {reps} tests/cell at the Figure-1 setting");
    println!(
        "  {:>5} {:>9} {:>9} {:>9} {:>10} {:>5}",
        "sack", "scenario", "NormDiff", "CoV", "accuracy", "n"
    );
    let reps = reps as usize;
    for (i, &(sack, external)) in cells.iter().enumerate() {
        let cell = &results[i * reps..(i + 1) * reps];
        let features: Vec<_> = cell
            .iter()
            .filter_map(|r| r.features.as_ref().ok())
            .collect();
        let nds: Vec<f64> = features.iter().map(|f| f.norm_diff).collect();
        let covs: Vec<f64> = features.iter().map(|f| f.cov).collect();
        let cm = ground_truth_confusion(&clf, cell);
        let med = |v: &[f64]| csig_features::median(v).unwrap_or(f64::NAN);
        println!(
            "  {:>5} {:>9} {:>9.3} {:>9.3} {:>9.0}% {:>5}",
            sack,
            if external { "external" } else { "self" },
            med(&nds),
            med(&covs),
            100.0 * cm.accuracy(),
            cm.total(),
        );
    }
    println!(
        "\nexpected: the signature is a property of the buffer, not of the\n\
         recovery mechanism — NewReno-without-SACK flows carry the same\n\
         slow-start features (SACK only changes post-loss behavior)."
    );
}
