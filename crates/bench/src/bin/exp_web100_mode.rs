//! Compare Web100-mode (kernel-sample) classification against
//! capture-mode over a testbed sweep, at several sampling strides.
//!
//! `cargo run --release -p csig-bench --bin exp_web100_mode [reps]
//!  [--jobs N] [--seed S] [--progress]`

use csig_bench::{dispute, web100_exp};
use csig_exec::cli::{CommonArgs, Flag, JOBS, PROGRESS, SEED};
use csig_testbed::{paper_grid, Profile, Sweep};

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("reps"), JOBS, SEED, PROGRESS]);
    let reps = args.count_or(3);
    eprintln!("exp_web100_mode: sweeping full grid reps={reps}…");
    let results = Sweep {
        grid: paper_grid(),
        reps,
        profile: Profile::Scaled,
        seed: args.seed_or(0xEB10),
    }
    .run_with(&args.executor(), args.progress_printer(24));
    eprintln!("training model…");
    let clf = dispute::testbed_model_with(5, Profile::Scaled, 0xEB11, &args.executor());
    let points = web100_exp::run(&clf, &results, &[1, 2, 4, 8, 16]);
    web100_exp::print(&points);
}
