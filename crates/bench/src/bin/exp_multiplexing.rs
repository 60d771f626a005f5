//! Regenerate the §3.3 multiplexing table: classification accuracy as
//! interconnect multiplexing drops and access cross traffic rises.
//!
//! `cargo run --release -p csig-bench --bin exp_multiplexing [reps]
//!  [--paper] [--jobs N] [--seed S]`

use csig_bench::{dispute, multiplexing};
use csig_exec::cli::{CommonArgs, Flag, JOBS, PAPER, SEED};
use csig_testbed::Profile;

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("reps"), JOBS, SEED, PAPER]);
    let reps = args.count_or(8);
    let profile = if args.paper {
        Profile::Paper
    } else {
        Profile::Scaled
    };
    eprintln!("multiplexing: {reps} tests per point (training model first)");
    let exec = args.executor();
    let clf = dispute::testbed_model_with(5, profile, 0xE331, &exec);
    let data = multiplexing::run(&clf, reps, profile, args.seed_or(0xE332), &exec);
    multiplexing::print(&data);
}
