//! Regenerate Figure 3 (precision/recall vs congestion threshold) and
//! Figure 4 (NormDiff vs CoV scatter) over the §3.1 grid.
//!
//! `cargo run --release -p csig-bench --bin fig3 [reps] [--full-grid]
//!  [--raw] [--paper] [--jobs N] [--seed S] [--progress]`

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
        Flag::Switch("--raw"),
    ]);
    let reps = args.count_or(5);
    let full = args.has_flag("--full-grid");
    let profile = if args.paper {
        Profile::Paper
    } else {
        Profile::Scaled
    };
    let seed = args.seed_or(0xF163);
    eprintln!(
        "fig3/fig4: sweep reps={reps}, grid={}, {} workers",
        if full { "paper(36)" } else { "small(9)" },
        args.executor().jobs()
    );
    let results = fig3::sweep(reps, full, profile, seed)
        .run_with(&args.executor(), args.progress_printer(24));
    let points = fig3::threshold_points(&results, 1);
    fig3::print_fig3(&points);
    println!();
    let scatter = fig3::fig4_points(&results);
    fig3::print_fig4(&scatter, args.has_flag("--raw"));
}
