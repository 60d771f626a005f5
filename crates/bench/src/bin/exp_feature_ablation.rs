//! Ablations: feature subsets × tree depth (5-fold CV accuracy).
//!
//! `cargo run --release -p csig-bench --bin exp_feature_ablation [reps]
//!  [--paper] [--jobs N] [--seed S] [--progress]`

use csig_bench::ablation;
use csig_exec::cli::{CommonArgs, Flag, JOBS, PAPER, PROGRESS, SEED};
use csig_testbed::{paper_grid, Profile, Sweep};

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("reps"), JOBS, SEED, PAPER, PROGRESS]);
    let reps = args.count_or(3);
    eprintln!(
        "ablation: sweeping full grid reps={reps} ({} workers)…",
        args.executor().jobs()
    );
    let results = Sweep {
        grid: paper_grid(),
        reps,
        profile: if args.paper {
            Profile::Paper
        } else {
            Profile::Scaled
        },
        seed: args.seed_or(0xAB1A),
    }
    .run_with(&args.executor(), args.progress_printer(24));
    let rows = ablation::feature_depth_ablation(&results, 0.7, 5);
    ablation::print(&rows);
}
