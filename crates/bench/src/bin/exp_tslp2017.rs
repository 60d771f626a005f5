//! Regenerate the §5.4 result: classifier accuracy on the TSLP2017
//! campaign, with both a testbed-trained and a Dispute2014-trained
//! model.
//!
//! `cargo run --release -p csig-bench --bin exp_tslp2017 [days]
//!  [--jobs N] [--seed S] [--progress]`

use csig_bench::{dispute, tslp_exp};
use csig_exec::cli::{CommonArgs, Flag, JOBS, PROGRESS, SEED};
use csig_mlab::{generate_with, run_campaign_with, Dispute2014Config, Tslp2017Config};
use csig_netsim::SimDuration;
use csig_testbed::Profile;

fn main() {
    let args = CommonArgs::parse(&[Flag::Count("days"), JOBS, SEED, PROGRESS]);
    let days = args.count_or(14);
    let cfg = Tslp2017Config {
        days,
        episode_days: (0..days).filter(|d| d % 3 == 2).collect(),
        seed: args.seed_or(Tslp2017Config::default().seed),
        ..Tslp2017Config::default()
    };
    eprintln!(
        "exp_tslp2017: running {days}-day campaign ({} workers)…",
        args.executor().jobs()
    );
    let out = run_campaign_with(&cfg, &args.executor(), args.progress_printer(100));

    eprintln!("training testbed model…");
    let testbed_clf = dispute::testbed_model_with(5, Profile::Scaled, 0x7517, &args.executor());
    tslp_exp::print_accuracy(
        "testbed-trained model",
        &tslp_exp::evaluate(&testbed_clf, &out),
    );

    eprintln!("training Dispute2014 model…");
    let d2014 = generate_with(
        &Dispute2014Config {
            tests_per_cell: 10,
            test_duration: SimDuration::from_secs(4),
            seed: 0x7518,
        },
        &args.executor(),
        args.progress_printer(0),
    );
    match dispute::dispute_model(&d2014, "Dispute2014 labels") {
        Some(clf) => {
            tslp_exp::print_accuracy("Dispute2014-trained model", &tslp_exp::evaluate(&clf, &out))
        }
        None => eprintln!("Dispute2014 labels produced a single class; skipping"),
    }
}
