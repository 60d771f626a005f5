//! Figure 6 and §5.4: the TSLP2017 targeted experiment.

use csig_core::SignatureClassifier;
use csig_dtree::ConfusionMatrix;
use csig_features::CongestionClass;
use csig_mlab::{label_tslp2017, Tslp2017Output};

/// Print Figure 6: TSLP far-router latency and NDT throughput around
/// one episode window.
pub fn print_fig6(out: &Tslp2017Output) {
    let Some(ep) = out.episodes.first() else {
        println!("Figure 6 — no episodes scheduled");
        return;
    };
    let margin = csig_netsim::SimDuration::from_secs(6 * 3600);
    let from = ep.start - margin;
    let to = ep.end + margin;
    println!(
        "Figure 6 — window around the first episode (day {:.2}–{:.2})",
        ep.start.as_secs_f64() / 86_400.0,
        ep.end.as_secs_f64() / 86_400.0
    );
    println!("  (a) TSLP far-router RTT (hourly mean, ms)");
    let mut t = from;
    while t < to {
        let next = t + csig_netsim::SimDuration::from_secs(3600);
        let w = out.far.window(t, next);
        if !w.is_empty() {
            let mean: f64 = w.rtts_ms().iter().sum::<f64>() / w.len() as f64;
            println!(
                "    day {:>5.2} {:>6.1} {}",
                t.as_secs_f64() / 86_400.0,
                mean,
                bar(mean, 40.0)
            );
        }
        t = next;
    }
    println!("  (b) NDT throughput (Mbps)");
    for test in out.tests.iter().filter(|t| t.at >= from && t.at < to) {
        println!(
            "    day {:>5.2} {:>6.1} {}{}",
            test.at.as_secs_f64() / 86_400.0,
            test.measurement.throughput_mbps,
            bar(test.measurement.throughput_mbps, 25.0),
            if test.during_episode {
                "  *episode*"
            } else {
                ""
            }
        );
    }
}

fn bar(v: f64, scale: f64) -> String {
    let n = ((v / scale) * 30.0).clamp(0.0, 40.0) as usize;
    "#".repeat(n)
}

/// Classify every labeled test of the campaign with `clf`, tallied
/// against its TSLP label.
pub fn evaluate(clf: &SignatureClassifier, out: &Tslp2017Output) -> ConfusionMatrix {
    let mut cm = ConfusionMatrix::default();
    for t in &out.tests {
        if let (Some(label), Ok(f)) = (label_tslp2017(t), &t.measurement.features) {
            cm.record(label.index(), clf.classify(f).index());
        }
    }
    cm
}

/// Print the §5.4 result table: per-label accuracy.
pub fn print_accuracy(label: &str, cm: &ConfusionMatrix) {
    let class = |c: CongestionClass| {
        let i = c.index();
        let pct = cm.recall(i).unwrap_or(0.0) * 100.0;
        format!("{}/{} = {pct:.0}%", cm.count(i, i), cm.support(i))
    };
    println!(
        "§5.4 ({label}): self {}, external {}",
        class(CongestionClass::SelfInduced),
        class(CongestionClass::External),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispute::testbed_model_with;
    use csig_exec::Executor;
    use csig_mlab::{run_campaign_with, Tslp2017Config};
    use csig_netsim::SimDuration;
    use csig_testbed::Profile;

    #[test]
    fn section_5_4_accuracies_hold() {
        let cfg = Tslp2017Config {
            days: 4,
            episode_days: vec![1, 3],
            peak_test_minutes: 60,
            offpeak_test_minutes: 180,
            test_duration: SimDuration::from_secs(3),
            ..Tslp2017Config::default()
        };
        let exec = Executor::sequential();
        let out = run_campaign_with(&cfg, &exec, |_| {});
        let clf = testbed_model_with(5, Profile::Scaled, 77, &exec);
        let cm = evaluate(&clf, &out);
        let (s, e) = (
            CongestionClass::SelfInduced.index(),
            CongestionClass::External.index(),
        );
        assert!(cm.support(s) >= 20, "self_total {}", cm.support(s));
        assert!(cm.support(e) >= 2, "external_total {}", cm.support(e));
        // Paper: self ≥ 99 %, external 75–85 %. Require the same order
        // of performance.
        let self_accuracy = cm.recall(s).unwrap_or(0.0);
        let external_accuracy = cm.recall(e).unwrap_or(0.0);
        assert!(self_accuracy >= 0.9, "self accuracy {self_accuracy}");
        assert!(
            external_accuracy >= 0.7,
            "external accuracy {external_accuracy}"
        );
    }
}
