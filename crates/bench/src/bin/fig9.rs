//! Regenerate Figure 9: Figure-7-style classification with the model
//! retrained on 20 % of the Dispute2014 labels (leave-target-out).
//!
//! `cargo run --release -p csig-bench --bin fig9 [tests_per_cell]
//!  [--jobs N] [--seed S] [--progress]`

use csig_bench::dispute;
use csig_exec::cli::{CommonArgs, Flag, JOBS, PROGRESS, SEED};
use csig_mlab::{generate_with, Dispute2014Config};
use csig_netsim::SimDuration;

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("tests_per_cell"), JOBS, SEED, PROGRESS]);
    let tests_per_cell = args.count_or(20);
    let cfg = Dispute2014Config {
        tests_per_cell,
        test_duration: SimDuration::from_secs(4),
        seed: args.seed_or(0xF169),
    };
    eprintln!(
        "fig9: generating campaign ({} workers)…",
        args.executor().jobs()
    );
    let tests = generate_with(&cfg, &args.executor(), args.progress_printer(200));
    let bars = dispute::fig9(&tests, 1);
    dispute::print_fig7(&bars, "model trained on Dispute2014 labels");
}
