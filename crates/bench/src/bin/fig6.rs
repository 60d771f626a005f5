//! Regenerate Figure 6: TSLP latency and NDT throughput around a
//! congestion episode of the TSLP2017 campaign.
//!
//! `cargo run --release -p csig-bench --bin fig6 [days] [--jobs N]
//!  [--seed S] [--progress]`

use csig_bench::tslp_exp;
use csig_exec::cli::{CommonArgs, Flag, JOBS, PROGRESS, SEED};
use csig_mlab::{run_campaign_with, Tslp2017Config};

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("days"), JOBS, SEED, PROGRESS]);
    let days = args.count_or(7);
    let cfg = Tslp2017Config {
        days,
        episode_days: (0..days).filter(|d| d % 3 == 2).collect(),
        seed: args.seed_or(Tslp2017Config::default().seed),
        ..Tslp2017Config::default()
    };
    eprintln!(
        "fig6: running {days}-day campaign ({} NDT workers)…",
        args.executor().jobs()
    );
    let out = run_campaign_with(&cfg, &args.executor(), args.progress_printer(100));
    tslp_exp::print_fig6(&out);
}
