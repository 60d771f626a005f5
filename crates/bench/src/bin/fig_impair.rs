//! Impairment robustness: precision/recall under bursty loss and
//! reordering on the access link.
//!
//! `cargo run --release -p csig-bench --bin fig_impair [reps]
//!  [--jobs N] [--seed S]`

use csig_bench::{dispute, impair};
use csig_exec::cli::{CommonArgs, Flag, JOBS, SEED};
use csig_testbed::Profile;

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("reps"), JOBS, SEED]);
    let reps = args.count_or(4);
    eprintln!("fig_impair: training reference model…");
    let clf = dispute::testbed_model_with(5, Profile::Scaled, 0xFA01, &args.executor());
    eprintln!(
        "fig_impair: sweeping {} levels × {reps} reps…",
        impair::levels().len()
    );
    let rows = impair::run(&clf, reps, args.seed_or(0xFA02), &args.executor());
    impair::print(&rows);
}
