//! Quickstart: train the congestion-signature classifier on simulated
//! testbed data and diagnose a fresh throughput test.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tcp_congestion_signatures::prelude::*;

fn main() {
    // 1. A small training sweep over the paper's §3.1 grid (scaled
    //    fidelity profile; see DESIGN.md). Each grid point runs both a
    //    self-induced and an externally congested scenario.
    let grid = vec![
        AccessParams {
            rate_mbps: 10,
            loss_pct: 0.02,
            latency_ms: 20,
            buffer_ms: 50,
        },
        AccessParams {
            rate_mbps: 20,
            loss_pct: 0.02,
            latency_ms: 20,
            buffer_ms: 100,
        },
        AccessParams {
            rate_mbps: 50,
            loss_pct: 0.02,
            latency_ms: 40,
            buffer_ms: 50,
        },
    ];
    println!("running training sweep (12 simulated throughput tests)…");
    let results = Sweep {
        grid,
        reps: 2,
        profile: Profile::Scaled,
        seed: 42,
    }
    .run_with(&Executor::sequential(), |e| {
        if e.done % 4 == 0 {
            println!("  {}/{}", e.done, e.total);
        }
    });

    // 2. Train a depth-4 decision tree on [NormDiff, CoV] with the
    //    paper's threshold labeling (0.8 × access capacity).
    let clf = train_from_results(&results, 0.8, TreeParams::default())
        .expect("sweep produced both classes");
    println!(
        "\ntrained on {} flows ({} filtered by labeling); learned rules:\n{}",
        clf.meta.n_train,
        clf.meta.n_filtered,
        clf.render()
    );

    // 3. Diagnose two fresh speed tests the model has never seen.
    println!("diagnosing fresh tests…");
    let fig1 = |seed| Profile::Scaled.config(AccessParams::figure1(), seed);
    let self_test = run_test(&fig1(777));
    let ext_test = run_test(&fig1(778).externally_congested());
    for (name, t) in [
        ("idle path", &self_test),
        ("congested interconnect", &ext_test),
    ] {
        let f = t.features.as_ref().expect("features");
        let class = clf.classify(f);
        println!(
            "  {name:>24}: NormDiff={:.3} CoV={:.3} → {class} \
             (throughput {:.1} Mbps of {} Mbps plan)",
            f.norm_diff,
            f.cov,
            t.throughput.mean_bps / 1e6,
            t.access_rate_bps / 1_000_000,
        );
    }
}
