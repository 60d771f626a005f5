//! Figures 5, 7, 8 and 9: the Dispute2014 analyses.

use csig_core::{train_sweep_with, ModelMeta, SignatureClassifier};
use csig_dtree::{Dataset, TreeParams};
use csig_exec::Executor;
use csig_features::CongestionClass;
use csig_mlab::{
    diurnal_throughput, is_off_peak_hour, is_peak_hour, label_dispute2014, AccessIsp, Month,
    NdtTest, TransitSite,
};
use csig_testbed::{small_grid, Profile, Sweep};

/// The two timeframes of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeframe {
    /// January–February, peak hours (dispute active).
    JanFebPeak,
    /// March–April, off-peak hours (dispute resolved).
    MarAprOffPeak,
}

impl Timeframe {
    /// Both timeframes.
    pub const ALL: [Timeframe; 2] = [Timeframe::JanFebPeak, Timeframe::MarAprOffPeak];

    /// Does a test fall into this frame?
    pub fn contains(&self, t: &NdtTest) -> bool {
        match self {
            Timeframe::JanFebPeak => t.month.dispute_active() && is_peak_hour(t.hour),
            Timeframe::MarAprOffPeak => !t.month.dispute_active() && is_off_peak_hour(t.hour),
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Timeframe::JanFebPeak => "Jan-Feb",
            Timeframe::MarAprOffPeak => "Mar-Apr",
        }
    }
}

/// Print Figure 5: diurnal mean throughput per ISP for one site/months.
pub fn print_fig5(tests: &[NdtTest], site: TransitSite, months: &[Month], title: &str) {
    println!(
        "Figure 5 ({title}) — mean NDT throughput (Mbps) by local hour, {}",
        site.name()
    );
    print!("  hour ");
    for isp in AccessIsp::ALL {
        print!("{:>11}", isp.name());
    }
    println!();
    for h in 0..24u8 {
        let mut row = format!("  {h:>4} ");
        let mut any = false;
        for isp in AccessIsp::ALL {
            let series = diurnal_throughput(tests, site, isp, months);
            match series.iter().find(|(hh, _, _)| *hh == h) {
                Some((_, mean, _)) => {
                    row += &format!("{mean:>11.1}");
                    any = true;
                }
                None => row += &format!("{:>11}", "-"),
            }
        }
        if any {
            println!("{row}");
        }
    }
}

/// Train the testbed reference model used by Figures 7 and 8 and the
/// other M-Lab and robustness experiments: a `small_grid()` sweep of
/// `reps` repetitions under `profile` on `exec`'s workers, labeled at
/// threshold 0.7, with the default tree.
///
/// # Panics
/// Panics if a sweep test fails or the labeled sweep holds a single
/// class.
pub fn testbed_model_with(
    reps: u32,
    profile: Profile,
    seed: u64,
    exec: &Executor,
) -> SignatureClassifier {
    let sweep = Sweep {
        grid: small_grid(),
        reps,
        profile,
        seed,
    };
    let (_, model) = train_sweep_with(&sweep, 0.7, TreeParams::default(), exec, |_| {});
    match model {
        Some(m) => m,
        None => panic!("reference sweep produced no trainable dataset (reps {reps}, seed {seed})"),
    }
}

/// One Figure-7 bar: fraction classified self-induced.
#[derive(Debug, Clone)]
pub struct Fig7Bar {
    /// Transit site.
    pub site: TransitSite,
    /// Access ISP.
    pub isp: AccessIsp,
    /// Timeframe.
    pub frame: Timeframe,
    /// Fraction of classifiable flows classified self-induced.
    pub frac_self: f64,
    /// Number of classifiable flows.
    pub n: usize,
}

/// The Figure-7 bar of one (site, ISP, timeframe): the fraction of
/// its classifiable flows `clf` calls self-induced (NaN when none).
fn fig7_bar(
    clf: &SignatureClassifier,
    tests: &[NdtTest],
    site: TransitSite,
    isp: AccessIsp,
    frame: Timeframe,
) -> Fig7Bar {
    let flows: Vec<_> = tests
        .iter()
        .filter(|t| t.site == site && t.isp == isp && frame.contains(t))
        .filter_map(|t| t.measurement.features.as_ref().ok())
        .collect();
    let self_count = flows
        .iter()
        .filter(|f| clf.classify(f) == CongestionClass::SelfInduced)
        .count();
    Fig7Bar {
        site,
        isp,
        frame,
        frac_self: if flows.is_empty() {
            f64::NAN
        } else {
            self_count as f64 / flows.len() as f64
        },
        n: flows.len(),
    }
}

/// Compute Figure 7 for a classifier.
pub fn fig7(clf: &SignatureClassifier, tests: &[NdtTest]) -> Vec<Fig7Bar> {
    let mut bars = Vec::new();
    for site in TransitSite::ALL {
        for isp in AccessIsp::ALL {
            for frame in Timeframe::ALL {
                bars.push(fig7_bar(clf, tests, site, isp, frame));
            }
        }
    }
    bars
}

/// Print Figure 7.
pub fn print_fig7(bars: &[Fig7Bar], threshold_label: &str) {
    println!("Figure 7 ({threshold_label}) — % flows classified self-induced");
    println!(
        "  {:>13} {:>11} {:>14} {:>16}",
        "site", "ISP", "Jan-Feb(peak)", "Mar-Apr(off-pk)"
    );
    for site in TransitSite::ALL {
        for isp in AccessIsp::ALL {
            let get = |frame: Timeframe| {
                bars.iter()
                    .find(|b| b.site == site && b.isp == isp && b.frame == frame)
                    .map(|b| (b.frac_self, b.n))
                    .unwrap_or((f64::NAN, 0))
            };
            let (a, an) = get(Timeframe::JanFebPeak);
            let (b, bn) = get(Timeframe::MarAprOffPeak);
            println!(
                "  {:>13} {:>11} {:>9.0}% ({an:>3}) {:>11.0}% ({bn:>3})",
                site.name(),
                isp.name(),
                a * 100.0,
                b * 100.0
            );
        }
    }
}

/// Figure 8: median throughput of flows by classified class, per ISP ×
/// timeframe for one transit selection.
pub fn print_fig8(
    clf: &SignatureClassifier,
    tests: &[NdtTest],
    sites: &[TransitSite],
    title: &str,
) {
    println!("Figure 8 ({title}) — median throughput (Mbps) by classified class");
    println!(
        "  {:>11} {:>14} {:>14} {:>14} {:>14}",
        "ISP", "JanFeb self", "JanFeb ext", "MarApr self", "MarApr ext"
    );
    for isp in AccessIsp::ALL {
        let median_of = |frame: Timeframe, class: CongestionClass| {
            let v: Vec<f64> = tests
                .iter()
                .filter(|t| sites.contains(&t.site) && t.isp == isp && frame.contains(t))
                .filter_map(|t| {
                    t.measurement
                        .features
                        .as_ref()
                        .ok()
                        .filter(|f| clf.classify(f) == class)
                        .map(|_| t.measurement.throughput_mbps)
                })
                .collect();
            csig_features::median(&v).unwrap_or(f64::NAN)
        };
        println!(
            "  {:>11} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            isp.name(),
            median_of(Timeframe::JanFebPeak, CongestionClass::SelfInduced),
            median_of(Timeframe::JanFebPeak, CongestionClass::External),
            median_of(Timeframe::MarAprOffPeak, CongestionClass::SelfInduced),
            median_of(Timeframe::MarAprOffPeak, CongestionClass::External),
        );
    }
}

/// Train a model on the Dispute2014 labels of `tests` (unlabeled or
/// unclassifiable tests are skipped), recording
/// `trained_on` in its metadata. `None` unless both classes occur.
pub fn dispute_model<'a>(
    tests: impl IntoIterator<Item = &'a NdtTest>,
    trained_on: &str,
) -> Option<SignatureClassifier> {
    let mut data = Dataset::new();
    for t in tests {
        if let (Some(label), Ok(f)) = (label_dispute2014(t), &t.measurement.features) {
            data.push(f.as_vector().to_vec(), label.index());
        }
    }
    if data.class_counts().iter().filter(|&&c| c > 0).count() < 2 {
        return None;
    }
    let meta = ModelMeta {
        congestion_threshold: f64::NAN,
        trained_on: trained_on.into(),
        n_train: data.len(),
        n_filtered: 0,
    };
    Some(SignatureClassifier::train(
        &data,
        TreeParams::default(),
        meta,
    ))
}

/// Figure 9: retrain the model on 20 % of the Dispute2014 labels,
/// excluding the (site, ISP) combination under test, then classify.
pub fn fig9(tests: &[NdtTest], seed: u64) -> Vec<Fig7Bar> {
    let mut bars = Vec::new();
    for site in TransitSite::ALL {
        for isp in AccessIsp::ALL {
            // Train on the *labeled* tests of all other combinations,
            // subsampled to a deterministic 20 %.
            let others = tests.iter().enumerate().filter(|&(i, t)| {
                !(t.site == site && t.isp == isp) && i % 5 == (seed % 5) as usize
            });
            let Some(clf) = dispute_model(
                others.map(|(_, t)| t),
                "Dispute2014 labels (leave-target-out)",
            ) else {
                continue;
            };
            for frame in Timeframe::ALL {
                bars.push(fig7_bar(&clf, tests, site, isp, frame));
            }
        }
    }
    bars
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_mlab::{generate_with, Dispute2014Config};
    use csig_netsim::SimDuration;

    fn campaign() -> Vec<NdtTest> {
        let cfg = Dispute2014Config {
            tests_per_cell: 8,
            test_duration: SimDuration::from_secs(3),
            seed: 41,
        };
        generate_with(&cfg, &Executor::sequential(), |_| {})
    }

    #[test]
    fn fig7_shows_the_dispute_and_recovery() {
        let tests = campaign();
        let clf = testbed_model_with(4, Profile::Scaled, 42, &Executor::sequential());
        let bars = fig7(&clf, &tests);
        let get = |site, isp, frame| {
            bars.iter()
                .find(|b| b.site == site && b.isp == isp && b.frame == frame)
                .map(|b| b.frac_self)
                .unwrap()
        };
        // Affected pair: big Jan-Feb → Mar-Apr jump in %-self.
        let jf = get(
            TransitSite::CogentLax,
            AccessIsp::Comcast,
            Timeframe::JanFebPeak,
        );
        let ma = get(
            TransitSite::CogentLax,
            AccessIsp::Comcast,
            Timeframe::MarAprOffPeak,
        );
        if !jf.is_nan() && !ma.is_nan() {
            assert!(
                ma - jf > 0.25,
                "Comcast/Cogent should jump: JanFeb {jf} MarApr {ma}"
            );
        }
        // Control site: Level3 stays uniformly high-ish in both frames.
        for isp in AccessIsp::ALL {
            let jf = get(TransitSite::Level3Atl, isp, Timeframe::JanFebPeak);
            if !jf.is_nan() {
                assert!(jf > 0.4, "{} Level3 JanFeb only {jf}", isp.name());
            }
        }
    }

    #[test]
    fn fig9_dispute_trained_model_agrees_qualitatively() {
        let tests = campaign();
        let bars = fig9(&tests, 1);
        assert!(!bars.is_empty());
        // At least one affected pair shows the jump.
        let mut jumps: Vec<f64> = Vec::new();
        for site in TransitSite::ALL.into_iter().filter(|s| s.is_cogent()) {
            for isp in [
                AccessIsp::Comcast,
                AccessIsp::TimeWarner,
                AccessIsp::Verizon,
            ] {
                let get = |frame| {
                    bars.iter()
                        .find(|b| b.site == site && b.isp == isp && b.frame == frame)
                        .map(|b| b.frac_self)
                };
                if let (Some(a), Some(b)) =
                    (get(Timeframe::JanFebPeak), get(Timeframe::MarAprOffPeak))
                {
                    if !a.is_nan() && !b.is_nan() {
                        jumps.push(b - a);
                    }
                }
            }
        }
        assert!(!jumps.is_empty());
        let mean_jump: f64 = jumps.iter().sum::<f64>() / jumps.len() as f64;
        assert!(mean_jump > 0.1, "mean jump {mean_jump} over {jumps:?}");
    }
}
