//! Regenerate Figure 4 only (NormDiff vs CoV raw scatter, CSV form).
//!
//! `cargo run --release -p csig-bench --bin fig4 [reps] [--full-grid]
//!  [--paper] [--jobs N] [--seed S] [--progress]`

use csig_bench::fig3;
use csig_exec::cli::{CommonArgs, Flag, JOBS, PAPER, PROGRESS, SEED};
use csig_testbed::Profile;

fn main() {
    let args = CommonArgs::parse(&[
        Flag::Count("reps"),
        JOBS,
        SEED,
        PAPER,
        PROGRESS,
        Flag::Switch("--full-grid"),
    ]);
    let reps = args.count_or(5);
    let full = args.has_flag("--full-grid");
    let profile = if args.paper {
        Profile::Paper
    } else {
        Profile::Scaled
    };
    let seed = args.seed_or(0xF164);
    let results =
        fig3::sweep(reps, full, profile, seed).run_with(&args.executor(), args.progress_printer(0));
    let scatter = fig3::fig4_points(&results);
    fig3::print_fig4(&scatter, true);
}
