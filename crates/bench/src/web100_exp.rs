//! Web100-mode vs capture-mode classification — quantifying the §6
//! future-work extension implemented in `csig_core::web100_mode`.
//!
//! The paper notes packet captures are "storage and computationally
//! expensive" and suggests sampling RTTs from Web100 instead. This
//! experiment classifies every sweep flow twice — once from its trace
//! features and once from the server's kernel RTT samples at several
//! decimation strides — and reports agreement plus per-mode ground
//! truth accuracy.

use csig_core::{classify_conn_stats, SignatureClassifier};
use csig_dtree::ConfusionMatrix;
use csig_testbed::TestResult;

/// Agreement/accuracy of one sampling stride.
#[derive(Debug, Clone, Copy)]
pub struct Web100Point {
    /// Keep every `stride`-th kernel RTT sample (1 = all, 8 ≈ 5 ms
    /// polling at typical rates).
    pub stride: usize,
    /// Flows classifiable in both modes.
    pub n: usize,
    /// Fraction where both modes give the same verdict.
    pub agreement: f64,
    /// Ground-truth accuracy of capture-mode verdicts.
    pub trace_accuracy: f64,
    /// Ground-truth accuracy of Web100-mode verdicts.
    pub web100_accuracy: f64,
}

/// Evaluate agreement at the given strides.
pub fn run(
    clf: &SignatureClassifier,
    results: &[TestResult],
    strides: &[usize],
) -> Vec<Web100Point> {
    strides
        .iter()
        .map(|&stride| {
            // Tallies: capture vs Web100 verdicts, and each against
            // ground truth; their accuracies are the three columns.
            let mut agreement = ConfusionMatrix::default();
            let mut trace = ConfusionMatrix::default();
            let mut web100 = ConfusionMatrix::default();
            for r in results {
                let (Ok(f), Some(stats)) = (&r.features, &r.conn_stats) else {
                    continue;
                };
                let Ok((web_class, _)) = classify_conn_stats(clf, stats, stride) else {
                    continue;
                };
                let trace_class = clf.classify(f);
                agreement.record(trace_class.index(), web_class.index());
                trace.record(r.intended.index(), trace_class.index());
                web100.record(r.intended.index(), web_class.index());
            }
            Web100Point {
                stride,
                n: trace.total(),
                agreement: agreement.accuracy(),
                trace_accuracy: trace.accuracy(),
                web100_accuracy: web100.accuracy(),
            }
        })
        .collect()
}

/// Print the comparison table.
pub fn print(points: &[Web100Point]) {
    println!("Web100-mode classification vs packet captures (§6 extension)");
    println!(
        "  {:>7} {:>5} {:>10} {:>12} {:>13}",
        "stride", "n", "agreement", "trace acc.", "web100 acc."
    );
    for p in points {
        println!(
            "  {:>7} {:>5} {:>9.0}% {:>11.0}% {:>12.0}%",
            p.stride,
            p.n,
            p.agreement * 100.0,
            p.trace_accuracy * 100.0,
            p.web100_accuracy * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispute::testbed_model_with;
    use csig_exec::Executor;
    use csig_testbed::{small_grid, Profile, Sweep};

    #[test]
    fn web100_mode_matches_trace_mode_on_the_sweep() {
        let results = Sweep {
            grid: small_grid(),
            reps: 2,
            profile: Profile::Scaled,
            seed: 91,
        }
        .run_with(&Executor::sequential(), |_| {});
        let clf = testbed_model_with(3, Profile::Scaled, 92, &Executor::sequential());
        let points = run(&clf, &results, &[1, 4, 8]);
        for p in &points {
            assert!(p.n >= 20, "only {} comparable flows", p.n);
            assert!(
                p.agreement >= 0.9,
                "stride {}: agreement {}",
                p.stride,
                p.agreement
            );
            // Web100 mode must not trail trace mode by more than a few
            // points.
            assert!(p.web100_accuracy + 0.1 >= p.trace_accuracy, "{p:?}");
        }
    }
}
