//! Impairment robustness sweep: classifier precision/recall under
//! bursty access-link loss and packet reordering.
//!
//! The paper's testbed injects only i.i.d. random loss; real access
//! links fail in bursts (Gilbert–Elliott) and occasionally reorder.
//! Both contaminate the slow-start RTT window the classifier reads, so
//! this sweep measures how quickly the self-induced/external decision
//! degrades as burst-loss rate and reorder probability grow. Each cell
//! runs the scaled Figure-1 testbed with a [`FaultPlan`] attached to
//! the downstream access link; the fault stream is drawn from the
//! scenario seed, so rows are byte-identical across `--jobs`.

use csig_core::{ground_truth_confusion, SignatureClassifier};
use csig_exec::{Campaign, Executor, Scenario};
use csig_features::CongestionClass;
use csig_netsim::{FaultPlan, GilbertElliott, SimDuration};
use csig_testbed::{run_test, AccessParams, Profile, TestResult};

/// Mean burst length of the Gilbert–Elliott loss chain, packets.
pub const BURST_LEN: f64 = 8.0;
/// Extra delay a reordered packet is held back, ms.
pub const REORDER_HOLD_MS: u64 = 3;

/// One impairment level of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImpairKind {
    /// No impairment (baseline row).
    Clean,
    /// Gilbert–Elliott bursty loss at this stationary loss rate.
    BurstLoss {
        /// Stationary (mean) loss probability.
        mean_loss: f64,
    },
    /// Random reordering: each packet is held back an extra
    /// [`REORDER_HOLD_MS`] with this probability.
    Reorder {
        /// Per-packet reorder probability.
        probability: f64,
    },
}

impl ImpairKind {
    /// The fault plan for this level (empty for [`ImpairKind::Clean`]).
    pub fn plan(&self) -> FaultPlan {
        match *self {
            ImpairKind::Clean => FaultPlan::new(),
            ImpairKind::BurstLoss { mean_loss } => {
                FaultPlan::new().gilbert_elliott(GilbertElliott::bursty(BURST_LEN, mean_loss))
            }
            ImpairKind::Reorder { probability } => {
                FaultPlan::new().reorder(probability, SimDuration::from_millis(REORDER_HOLD_MS))
            }
        }
    }

    /// Human-readable row label.
    pub fn label(&self) -> String {
        match *self {
            ImpairKind::Clean => "clean".into(),
            ImpairKind::BurstLoss { mean_loss } => {
                format!("burst loss {:.2}%", mean_loss * 100.0)
            }
            ImpairKind::Reorder { probability } => {
                format!("reorder {:.1}%", probability * 100.0)
            }
        }
    }
}

/// The default sweep levels: a clean baseline, then rising burst-loss
/// and reorder intensities.
pub fn levels() -> Vec<ImpairKind> {
    let mut l = vec![ImpairKind::Clean];
    for mean_loss in [0.0025, 0.005, 0.01, 0.02] {
        l.push(ImpairKind::BurstLoss { mean_loss });
    }
    for probability in [0.005, 0.01, 0.02, 0.05] {
        l.push(ImpairKind::Reorder { probability });
    }
    l
}

/// One cell of the sweep as a self-contained [`Scenario`].
#[derive(Debug, Clone, Copy)]
pub struct ImpairScenario {
    /// The impairment applied to the access link.
    pub kind: ImpairKind,
    /// Run with an externally congested interconnect?
    pub external: bool,
}

impl Scenario for ImpairScenario {
    type Artifact = (ImpairKind, bool, TestResult);

    fn run(&self, seed: u64) -> Self::Artifact {
        let mut cfg = Profile::Scaled
            .config(AccessParams::figure1(), seed)
            .with_access_fault(self.kind.plan());
        if self.external {
            cfg = cfg.externally_congested();
        }
        (self.kind, self.external, run_test(&cfg))
    }
}

/// Precision/recall of the self-induced decision at one impairment
/// level (self-induced is the positive class).
#[derive(Debug, Clone)]
pub struct ImpairRow {
    /// Impairment label.
    pub impairment: String,
    /// Of flows classified self-induced, fraction truly self-induced.
    pub precision: f64,
    /// Of truly self-induced flows, fraction classified self-induced.
    pub recall: f64,
    /// Classifiable self-induced runs.
    pub n_self: usize,
    /// Classifiable external runs.
    pub n_external: usize,
    /// Runs whose features could not be computed (too few RTT samples
    /// survived the impairment).
    pub n_skipped: usize,
}

/// Run the sweep: `reps` repetitions per level per scenario, executed
/// as one campaign (parallelism and failure isolation come from the
/// executor).
pub fn run(clf: &SignatureClassifier, reps: u32, seed: u64, exec: &Executor) -> Vec<ImpairRow> {
    let levels = levels();
    let mut campaign = Campaign::new(seed);
    for &kind in &levels {
        for _rep in 0..reps {
            for external in [false, true] {
                campaign.push(ImpairScenario { kind, external });
            }
        }
    }
    let artifacts = exec
        .run_isolated_with_progress(&campaign, |_| {})
        .expect_artifacts();

    levels
        .iter()
        .map(|&kind| {
            let cells = || {
                artifacts
                    .iter()
                    .filter(move |(k, _, _)| *k == kind)
                    .map(|(_, _, r)| r)
            };
            let cm = ground_truth_confusion(clf, cells());
            let s = CongestionClass::SelfInduced.index();
            ImpairRow {
                impairment: kind.label(),
                precision: cm.precision(s).unwrap_or(0.0),
                recall: cm.recall(s).unwrap_or(0.0),
                n_self: cm.support(s),
                n_external: cm.support(CongestionClass::External.index()),
                n_skipped: cells().filter(|r| r.features.is_err()).count(),
            }
        })
        .collect()
}

/// Print the sweep table.
pub fn print(rows: &[ImpairRow]) {
    println!("impairment sweep — self-induced precision/recall");
    println!(
        "  {:>18} {:>10} {:>8} {:>7} {:>7} {:>8}",
        "impairment", "precision", "recall", "n_self", "n_ext", "skipped"
    );
    for r in rows {
        println!(
            "  {:>18} {:>9.0}% {:>7.0}% {:>7} {:>7} {:>8}",
            r.impairment,
            r.precision * 100.0,
            r.recall * 100.0,
            r.n_self,
            r.n_external,
            r.n_skipped
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispute::testbed_model_with;

    #[test]
    fn clean_baseline_beats_heavy_impairment_structurally() {
        let exec = Executor::new(0);
        let clf = testbed_model_with(3, Profile::Scaled, 91, &exec);
        // Tiny sweep: baseline plus one heavy level of each axis.
        let kinds = [
            ImpairKind::Clean,
            ImpairKind::BurstLoss { mean_loss: 0.02 },
            ImpairKind::Reorder { probability: 0.05 },
        ];
        let mut campaign = Campaign::new(92);
        for &kind in &kinds {
            for _ in 0..2 {
                for external in [false, true] {
                    campaign.push(ImpairScenario { kind, external });
                }
            }
        }
        let artifacts = exec
            .run_isolated_with_progress(&campaign, |_| {})
            .expect_artifacts();
        assert_eq!(artifacts.len(), 12);
        // Every cell produced a result for its own level, and the clean
        // baseline stays classifiable with the expected signature.
        let clean_self: Vec<_> = artifacts
            .iter()
            .filter(|(k, e, _)| *k == ImpairKind::Clean && !*e)
            .collect();
        assert_eq!(clean_self.len(), 2);
        for (_, _, r) in clean_self {
            let f = r.features.as_ref().expect("clean run classifiable");
            assert_eq!(clf.classify(f), CongestionClass::SelfInduced);
        }
        // Heavy burst loss actually lost packets (the plan attached).
        let lossy = artifacts
            .iter()
            .filter(|(k, _, _)| matches!(k, ImpairKind::BurstLoss { .. }))
            .count();
        assert_eq!(lossy, 4);
    }

    #[test]
    fn levels_and_labels_are_wellformed() {
        let l = levels();
        assert_eq!(l[0], ImpairKind::Clean);
        assert!(l.len() >= 7);
        assert!(ImpairKind::Clean.plan().is_empty());
        assert!(!ImpairKind::BurstLoss { mean_loss: 0.01 }.plan().is_empty());
        assert_eq!(
            ImpairKind::BurstLoss { mean_loss: 0.01 }.label(),
            "burst loss 1.00%"
        );
        assert_eq!(
            ImpairKind::Reorder { probability: 0.02 }.label(),
            "reorder 2.0%"
        );
    }
}
