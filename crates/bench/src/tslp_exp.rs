//! Figure 6 and §5.4: the TSLP2017 targeted experiment.

use csig_core::SignatureClassifier;
use csig_features::CongestionClass;
use csig_mlab::{label_tslp2017, Tslp2017Output};
use serde::{Deserialize, Serialize};

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

/// §5.4 accuracy result.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Tslp2017Accuracy {
    /// Correctly classified self-induced-labeled tests.
    pub self_correct: usize,
    /// Total self-induced-labeled tests.
    pub self_total: usize,
    /// Correctly classified external-labeled tests.
    pub external_correct: usize,
    /// Total external-labeled tests.
    pub external_total: usize,
}

impl Tslp2017Accuracy {
    /// Self-induced accuracy in [0, 1].
    pub fn self_accuracy(&self) -> f64 {
        self.self_correct as f64 / self.self_total.max(1) as f64
    }

    /// External accuracy in [0, 1].
    pub fn external_accuracy(&self) -> f64 {
        self.external_correct as f64 / self.external_total.max(1) as f64
    }
}

/// Classify every labeled test of the campaign with `clf`.
pub fn evaluate(
    clf: &SignatureClassifier,
    out: &Tslp2017Output,
    plan_mbps: u64,
) -> Tslp2017Accuracy {
    let mut acc = Tslp2017Accuracy {
        self_correct: 0,
        self_total: 0,
        external_correct: 0,
        external_total: 0,
    };
    for t in &out.tests {
        let (Some(label), Ok(f)) = (label_tslp2017(t, plan_mbps), &t.measurement.features) else {
            continue;
        };
        let pred = clf.classify(f);
        match label {
            CongestionClass::SelfInduced => {
                acc.self_total += 1;
                if pred == label {
                    acc.self_correct += 1;
                }
            }
            CongestionClass::External => {
                acc.external_total += 1;
                if pred == label {
                    acc.external_correct += 1;
                }
            }
        }
    }
    acc
}

/// Print the §5.4 result table.
pub fn print_accuracy(label: &str, acc: &Tslp2017Accuracy) {
    println!(
        "§5.4 ({label}): self {}/{} = {:.0}%, external {}/{} = {:.0}%",
        acc.self_correct,
        acc.self_total,
        acc.self_accuracy() * 100.0,
        acc.external_correct,
        acc.external_total,
        acc.external_accuracy() * 100.0,
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
        let acc = evaluate(&clf, &out, 25);
        assert!(acc.self_total >= 20, "self_total {}", acc.self_total);
        assert!(
            acc.external_total >= 2,
            "external_total {}",
            acc.external_total
        );
        // Paper: self ≥ 99 %, external 75–85 %. Require the same order
        // of performance.
        assert!(
            acc.self_accuracy() >= 0.9,
            "self accuracy {}",
            acc.self_accuracy()
        );
        assert!(
            acc.external_accuracy() >= 0.7,
            "external accuracy {}",
            acc.external_accuracy()
        );
    }
}
