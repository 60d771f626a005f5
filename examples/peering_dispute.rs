//! A miniature Dispute2014 study: generate a synthetic M-Lab campaign
//! around a peering dispute, show the diurnal throughput collapse on
//! affected paths, and watch the classifier detect the dispute from
//! per-flow signatures alone.
//!
//! ```sh
//! cargo run --release --example peering_dispute
//! ```

use tcp_congestion_signatures::mlab::{
    diurnal_throughput, generate_with, is_off_peak_hour, is_peak_hour, AccessIsp,
    Dispute2014Config, Month, TransitSite,
};
use tcp_congestion_signatures::prelude::*;
use tcp_congestion_signatures::testbed;

fn main() {
    println!("generating a small Dispute2014 campaign (480 simulated NDT tests)…");
    let cfg = Dispute2014Config {
        tests_per_cell: 10,
        test_duration: SimDuration::from_secs(3),
        seed: 14,
    };
    let tests = generate_with(&cfg, &Executor::new(0), |e| {
        if e.done % 120 == 0 {
            println!("  {}/{}", e.done, e.total);
        }
    });

    // The macroscopic evidence (paper Figure 5): peak-hour throughput
    // collapses on Cogent↔Comcast in Jan–Feb, recovers by Mar–Apr, and
    // Cox never suffers.
    println!("\nmean NDT throughput (Mbps), Cogent LAX, Jan–Feb:");
    for isp in AccessIsp::ALL {
        let series = diurnal_throughput(
            &tests,
            TransitSite::CogentLax,
            isp,
            &[Month::Jan, Month::Feb],
        );
        let mean_of = |peak: bool| {
            let v: Vec<f64> = series
                .iter()
                .filter(|(h, _, _)| is_peak_hour(*h) == peak)
                .map(|&(_, m, _)| m)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        println!(
            "  {:>11}: off-peak {:5.1}  peak {:5.1}",
            isp.name(),
            mean_of(false),
            mean_of(true)
        );
    }

    // Train a classifier on testbed data (the paper's methodology) and
    // measure the fraction of flows classified self-induced per
    // (ISP, timeframe) — the paper's Figure 7.
    println!("\ntraining testbed model…");
    let results = Sweep {
        grid: testbed::small_grid(),
        reps: 5,
        profile: Profile::Scaled,
        seed: 99,
    }
    .run_with(&Executor::sequential(), |_| {});
    let clf = train_from_results(&results, 0.7, TreeParams::default()).expect("model");

    println!("fraction of flows classified self-induced (Cogent LAX):");
    println!("  {:>11}  Jan-Feb(peak)  Mar-Apr(off-peak)", "ISP");
    for isp in AccessIsp::ALL {
        let frac = |months: &[Month], peak: bool| {
            let flows: Vec<_> = tests
                .iter()
                .filter(|t| {
                    t.site == TransitSite::CogentLax
                        && t.isp == isp
                        && months.contains(&t.month)
                        && if peak {
                            is_peak_hour(t.hour)
                        } else {
                            is_off_peak_hour(t.hour)
                        }
                })
                .filter_map(|t| t.measurement.features.as_ref().ok())
                .collect();
            if flows.is_empty() {
                return f64::NAN;
            }
            flows
                .iter()
                .filter(|f| clf.classify(f) == CongestionClass::SelfInduced)
                .count() as f64
                / flows.len() as f64
        };
        println!(
            "  {:>11}  {:>12.0}%  {:>16.0}%",
            isp.name(),
            100.0 * frac(&[Month::Jan, Month::Feb], true),
            100.0 * frac(&[Month::Mar, Month::Apr], false),
        );
    }
    println!(
        "\nexpected shape: affected ISPs (Comcast/TimeWarner/Verizon) jump\n\
         from a low self-induced fraction during the dispute to a high one\n\
         after it; Cox stays high throughout."
    );
}
