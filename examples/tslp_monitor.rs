//! Interdomain congestion monitoring with TSLP + per-flow signatures:
//! the paper's 2017 targeted experiment in miniature.
//!
//! A vantage point probes the near and far routers of an interconnect
//! for days while periodic NDT tests run across it. TSLP level-shift
//! detection finds the congestion episodes; the signature classifier
//! independently diagnoses each test — and the two must agree.
//!
//! ```sh
//! cargo run --release --example tslp_monitor
//! ```

use tcp_congestion_signatures::dtree::ConfusionMatrix;
use tcp_congestion_signatures::mlab::{label_tslp2017, run_campaign_with, Tslp2017Config};
use tcp_congestion_signatures::prelude::*;
use tcp_congestion_signatures::testbed;
use tcp_congestion_signatures::tslp::{interdomain_episodes, DetectorParams};

fn main() {
    let cfg = Tslp2017Config {
        days: 5,
        episode_days: vec![1, 3],
        peak_test_minutes: 60,
        offpeak_test_minutes: 180,
        test_duration: SimDuration::from_secs(3),
        ..Tslp2017Config::default()
    };
    println!(
        "running a {}-day campaign (continuous TSLP probing + periodic NDT tests)…",
        cfg.days
    );
    let out = run_campaign_with(&cfg, &Executor::new(0), |e| {
        if e.done % 30 == 0 {
            println!("  NDT test {}/{}", e.done, e.total);
        }
    });

    println!(
        "\nTSLP: {} probes; far-router baseline {:.1} ms (near {:.1} ms)",
        out.far.len(),
        out.far.baseline_ms().unwrap(),
        out.near.baseline_ms().unwrap(),
    );

    let detected = interdomain_episodes(
        &out.near,
        &out.far,
        DetectorParams {
            min_elevation_ms: 6.0,
            min_run: 2,
        },
    );
    println!("detected interdomain congestion episodes:");
    for ep in &detected {
        println!(
            "  day {:.2} → day {:.2}, peak RTT {:.1} ms",
            ep.start.as_secs_f64() / 86_400.0,
            ep.end.as_secs_f64() / 86_400.0,
            ep.peak_ms
        );
    }
    println!("(ground truth: {} scheduled episodes)", out.episodes.len());

    // Classify each NDT test with a testbed-trained model and compare
    // against the TSLP-based labeling.
    println!("\ntraining classifier…");
    let results = Sweep {
        grid: testbed::small_grid(),
        reps: 5,
        profile: Profile::Scaled,
        seed: 3,
    }
    .run_with(&Executor::sequential(), |_| {});
    let clf = train_from_results(&results, 0.7, TreeParams::default()).expect("model");

    let mut cm = ConfusionMatrix::default();
    for t in &out.tests {
        if let (Some(label), Ok(f)) = (label_tslp2017(t), &t.measurement.features) {
            cm.record(label.index(), clf.classify(f).index());
        }
    }
    let ext = CongestionClass::External.index();
    println!(
        "classifier vs TSLP labels: {}/{} agree ({}/{} on external-congestion tests)",
        cm.correct(),
        cm.total(),
        cm.count(ext, ext),
        cm.support(ext),
    );
}
