//! Per-figure regeneration benches: times the smallest meaningful unit
//! of every table/figure pipeline (the `fig*` binaries run the full
//! versions; EXPERIMENTS.md records their outputs). One bench exists
//! per paper artifact so `cargo bench` exercises every experiment path.

use criterion::{criterion_group, criterion_main, Criterion};
use csig_bench::{ablation, dispute, fig1, fig3, multiplexing, tslp_exp};
use csig_core::train_from_results;
use csig_dtree::TreeParams;
use csig_exec::Executor;
use csig_mlab::{generate_with, run_campaign_with, Dispute2014Config, Tslp2017Config};
use csig_netsim::SimDuration;
use csig_testbed::{run_test, AccessParams, CongestionMode, Profile, TestbedConfig};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    let seq = Executor::sequential();
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);

    // Fig. 1 — one test per scenario at the Figure-1 setting.
    g.bench_function("fig1_unit", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(fig1::run_with(1, Profile::Scaled, seed, &seq, |_| {}))
        })
    });

    // Figs. 3/4 — threshold sweep + scatter on precomputed results
    // (the analysis stage; the sweep itself is the testbed bench).
    let sweep_results = fig3::sweep(2, false, Profile::Scaled, 303).run_with(&seq, |_| {});
    g.bench_function("fig3_threshold_sweep_analysis", |b| {
        b.iter(|| black_box(fig3::threshold_points(black_box(&sweep_results), 1)))
    });
    g.bench_function("fig4_scatter_analysis", |b| {
        b.iter(|| black_box(fig3::fig4_points(black_box(&sweep_results))))
    });

    // §3.3 — one reduced-multiplexing external test.
    g.bench_function("multiplexing_unit", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let cfg = TestbedConfig::scaled(
                AccessParams {
                    rate_mbps: 50,
                    loss_pct: 0.02,
                    latency_ms: 20,
                    buffer_ms: 50,
                },
                seed,
            )
            .with_congestion(CongestionMode::TgCong { flows: 8 });
            black_box(run_test(&cfg))
        })
    });

    // Figs. 5/7/8/9 — one Dispute2014 cell (3 NDT micro-sims).
    g.bench_function("dispute2014_cell", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let cfg = Dispute2014Config {
                tests_per_cell: 1,
                test_duration: SimDuration::from_secs(2),
                seed,
            };
            black_box(generate_with(&cfg, &seq, |_| {}))
        })
    });

    // Fig. 7 analysis on a precomputed campaign + model.
    let cfg = Dispute2014Config {
        tests_per_cell: 3,
        test_duration: SimDuration::from_secs(2),
        seed: 707,
    };
    let campaign = generate_with(&cfg, &seq, |_| {});
    let clf = train_from_results(&sweep_results, 0.7, TreeParams::default()).expect("model");
    g.bench_function("fig7_analysis", |b| {
        b.iter(|| black_box(dispute::fig7(black_box(&clf), black_box(&campaign))))
    });
    g.bench_function("fig9_retrain_and_classify", |b| {
        b.iter(|| black_box(dispute::fig9(black_box(&campaign), 1)))
    });

    // Fig. 6 / §5.4 — a 1-day TSLP2017 campaign slice.
    g.bench_function("fig6_tslp_campaign_day", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let cfg = Tslp2017Config {
                days: 1,
                episode_days: vec![0],
                peak_test_minutes: 240,
                offpeak_test_minutes: 480,
                test_duration: SimDuration::from_secs(2),
                probe_interval: SimDuration::from_secs(1800),
                seed,
                ..Tslp2017Config::default()
            };
            black_box(run_campaign_with(&cfg, &seq, |_| {}))
        })
    });
    let tslp_cfg = Tslp2017Config {
        days: 1,
        episode_days: vec![0],
        peak_test_minutes: 120,
        offpeak_test_minutes: 480,
        test_duration: SimDuration::from_secs(2),
        probe_interval: SimDuration::from_secs(900),
        seed: 808,
        ..Tslp2017Config::default()
    };
    let tslp_out = run_campaign_with(&tslp_cfg, &seq, |_| {});
    g.bench_function("exp_tslp2017_evaluate", |b| {
        b.iter(|| {
            black_box(tslp_exp::evaluate(
                black_box(&clf),
                black_box(&tslp_out),
                25,
            ))
        })
    });

    // Ablations — CV analysis on precomputed results.
    g.bench_function("ablation_feature_depth_cv", |b| {
        b.iter(|| {
            black_box(ablation::feature_depth_ablation(
                black_box(&sweep_results),
                0.7,
                5,
            ))
        })
    });

    // §6 — one CUBIC/RED self-induced test.
    g.bench_function("cc_variant_unit", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut cfg = TestbedConfig::scaled(AccessParams::figure1(), seed);
            cfg.tcp.cc = csig_tcp::CcKind::Cubic;
            cfg.queue = csig_netsim::QueueKind::Red(Default::default());
            black_box(run_test(&cfg))
        })
    });

    // Keep the multiplexing module exercised end-to-end at tiny scale.
    g.bench_function("multiplexing_analysis", |b| {
        b.iter(|| black_box(multiplexing::run(black_box(&clf), 1, Profile::Scaled, 9)))
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_figures
}
criterion_main!(benches);
