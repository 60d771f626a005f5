//! Regenerate Figure 5: diurnal NDT throughput around the dispute
//! (Cogent LAX in Jan–Feb and Mar–Apr; Level3 ATL control).
//!
//! `cargo run --release -p csig-bench --bin fig5 [tests_per_cell]
//!  [--csv PATH] [--jobs N] [--seed S] [--progress]`

use csig_exec::cli::{CommonArgs, Flag, JOBS, PROGRESS, SEED};
use csig_mlab::{generate_with, to_csv, Dispute2014Config, Month, TransitSite};
use csig_netsim::SimDuration;

fn main() {
    let args = CommonArgs::parse(&[
        Flag::Count("tests_per_cell"),
        JOBS,
        SEED,
        PROGRESS,
        Flag::Value("--csv"),
    ]);
    let tests_per_cell = args.count_or(25);
    let cfg = Dispute2014Config {
        tests_per_cell,
        test_duration: SimDuration::from_secs(4),
        seed: args.seed_or(0xF165),
    };
    eprintln!(
        "fig5: generating campaign ({} tests, {} workers)…",
        tests_per_cell * 48,
        args.executor().jobs()
    );
    let tests = generate_with(&cfg, &args.executor(), args.progress_printer(200));
    csig_bench::dispute::print_fig5(
        &tests,
        TransitSite::CogentLax,
        &[Month::Jan, Month::Feb],
        "5a: dispute active",
    );
    println!();
    csig_bench::dispute::print_fig5(
        &tests,
        TransitSite::Level3Atl,
        &[Month::Jan, Month::Feb],
        "5b: control transit",
    );
    println!();
    csig_bench::dispute::print_fig5(
        &tests,
        TransitSite::CogentLax,
        &[Month::Mar, Month::Apr],
        "5c: after resolution",
    );
    // Optional raw dump for external plotting.
    if let Some(path) = args.flag_value("--csv") {
        std::fs::write(path, to_csv(&tests)).expect("write csv");
        eprintln!("wrote campaign CSV to {path}");
    }
}
