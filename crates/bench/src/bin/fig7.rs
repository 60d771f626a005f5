//! Regenerate Figure 7: % flows classified self-induced per
//! (site, ISP, timeframe), for labeling thresholds 0.7/0.8/0.9, and
//! Figure 8 (median throughput by classified class).
//!
//! `cargo run --release -p csig-bench --bin fig7 [tests_per_cell]
//!  [--jobs N] [--seed S] [--progress]`

use csig_bench::dispute;
use csig_core::train_from_results;
use csig_dtree::TreeParams;
use csig_exec::cli::{CommonArgs, Flag, JOBS, PROGRESS, SEED};
use csig_mlab::{generate_with, Dispute2014Config, TransitSite};
use csig_netsim::SimDuration;
use csig_testbed::{paper_grid, Profile, Sweep};

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("tests_per_cell"), JOBS, SEED, PROGRESS]);
    let tests_per_cell = args.count_or(20);
    eprintln!(
        "fig7: generating Dispute2014 campaign ({} workers)…",
        args.executor().jobs()
    );
    let cfg = Dispute2014Config {
        tests_per_cell,
        test_duration: SimDuration::from_secs(4),
        seed: args.seed_or(0xF167),
    };
    let tests = generate_with(&cfg, &args.executor(), args.progress_printer(200));

    eprintln!("fig7: training testbed models (full grid)…");
    let results = Sweep {
        grid: paper_grid(),
        reps: 2,
        profile: Profile::Scaled,
        seed: 0xF168,
    }
    .run_with(&args.executor(), args.progress_printer(24));
    for threshold in [0.6, 0.7, 0.8] {
        if let Some(clf) = train_from_results(&results, threshold, TreeParams::default()) {
            let bars = dispute::fig7(&clf, &tests);
            dispute::print_fig7(&bars, &format!("threshold {threshold}"));
            println!();
            if (threshold - 0.7).abs() < 1e-9 {
                dispute::print_fig8(
                    &clf,
                    &tests,
                    &[TransitSite::CogentLax, TransitSite::CogentLga],
                    "8a: Cogent LAX+LGA",
                );
                println!();
                dispute::print_fig8(&clf, &tests, &[TransitSite::Level3Atl], "8b: Level3 ATL");
                println!();
            }
        }
    }
}
