//! §6 robustness: congestion-control variants, RED, buffer depths.
//!
//! `cargo run --release -p csig-bench --bin exp_cc_variants [reps]
//!  [--jobs N] [--seed S]`

use csig_bench::{cc_variants, dispute};
use csig_exec::cli::{CommonArgs, Flag, JOBS, SEED};
use csig_testbed::Profile;

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("reps"), JOBS, SEED]);
    let reps = args.count_or(6);
    eprintln!("cc_variants: training reference model…");
    let exec = args.executor();
    let clf = dispute::testbed_model_with(5, Profile::Scaled, 0xCC01, &exec);
    let rows = cc_variants::run(&clf, reps, args.seed_or(0xCC02), &exec);
    cc_variants::print(&rows);
}
