//! Training and evaluation against testbed sweeps — the §3.2/§3.3
//! methodology.

use crate::classifier::{ModelMeta, SignatureClassifier};
use csig_dtree::{ConfusionMatrix, TreeParams};
use csig_exec::{Executor, ProgressEvent};
use csig_features::CongestionClass;
use csig_testbed::{build_dataset, Sweep, TestResult};

/// Train a classifier from raw testbed results, applying the paper's
/// congestion-threshold labeling. Returns `None` if labeling leaves an
/// empty or single-class dataset.
pub fn train_from_results(
    results: &[TestResult],
    threshold: f64,
    params: TreeParams,
) -> Option<SignatureClassifier> {
    let (data, filtered) = build_dataset(results, threshold);
    let populated = data.class_counts().iter().filter(|&&c| c > 0).count();
    if data.is_empty() || populated < 2 {
        return None;
    }
    let meta = ModelMeta {
        congestion_threshold: threshold,
        trained_on: "testbed sweep".into(),
        n_train: data.len(),
        n_filtered: filtered,
    };
    Some(SignatureClassifier::train(&data, params, meta))
}

/// Run a sweep's campaign on `exec`'s workers and train on the
/// results: the testbed → executor →
/// classifier path in one call. Returns the raw results alongside the
/// model (None under the usual degenerate labelings) so callers can
/// evaluate without re-running the sweep.
pub fn train_sweep_with<F: FnMut(ProgressEvent)>(
    sweep: &Sweep,
    threshold: f64,
    params: TreeParams,
    exec: &Executor,
    progress: F,
) -> (Vec<TestResult>, Option<SignatureClassifier>) {
    let results = sweep.run_with(exec, progress);
    let model = train_from_results(&results, threshold, params);
    (results, model)
}

/// Per-class precision/recall at one labeling threshold — one point of
/// the paper's Figure 3.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdPoint {
    /// The labeling threshold.
    pub threshold: f64,
    /// Precision for the self-induced class.
    pub precision_self: f64,
    /// Recall for the self-induced class.
    pub recall_self: f64,
    /// Precision for the external class.
    pub precision_external: f64,
    /// Recall for the external class.
    pub recall_external: f64,
    /// Labeled samples surviving the filter.
    pub n: usize,
}

/// Train/test at one threshold (70/30 split) and measure per-class
/// precision and recall. Returns `None` when the threshold leaves too
/// little data of either class.
pub fn threshold_point(
    results: &[TestResult],
    threshold: f64,
    params: TreeParams,
    seed: u64,
) -> Option<ThresholdPoint> {
    let (data, _) = build_dataset(results, threshold);
    if data.len() < 10 || data.class_counts().iter().any(|&c| c < 3) {
        return None;
    }
    let (train, test) = data.train_test_split(0.7, seed);
    if train.n_classes() < 2 || test.is_empty() {
        return None;
    }
    let tree = csig_dtree::DecisionTree::fit(&train, params);
    let cm: ConfusionMatrix = csig_dtree::evaluate(&tree, &test);
    let s = CongestionClass::SelfInduced.index();
    let e = CongestionClass::External.index();
    Some(ThresholdPoint {
        threshold,
        precision_self: cm.precision(s).unwrap_or(0.0),
        recall_self: cm.recall(s).unwrap_or(0.0),
        precision_external: cm.precision(e).unwrap_or(0.0),
        recall_external: cm.recall(e).unwrap_or(0.0),
        n: data.len(),
    })
}

/// Sweep labeling thresholds (the paper's Figure 3 x-axis).
pub fn threshold_sweep(
    results: &[TestResult],
    thresholds: &[f64],
    params: TreeParams,
    seed: u64,
) -> Vec<ThresholdPoint> {
    thresholds
        .iter()
        .filter_map(|&t| threshold_point(results, t, params, seed))
        .collect()
}

/// Tally `clf`'s verdicts on the classifiable `results` against each
/// scenario's ground truth ([`TestResult::intended`]), indexed by
/// [`CongestionClass::index`]; results without features are skipped.
/// Per-class accuracy is the matrix's recall.
pub fn ground_truth_confusion<'a>(
    clf: &SignatureClassifier,
    results: impl IntoIterator<Item = &'a TestResult>,
) -> ConfusionMatrix {
    let mut cm = ConfusionMatrix::default();
    for r in results {
        if let Ok(f) = &r.features {
            cm.record(r.intended.index(), clf.classify(f).index());
        }
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_features::FlowFeatures;
    use csig_netsim::SimDuration;
    use csig_trace::{SlowStart, ThroughputSummary};

    /// Build a synthetic result with given features/utilization.
    fn result(intended: CongestionClass, nd: f64, cov: f64, util: f64) -> TestResult {
        TestResult {
            features: Ok(FlowFeatures {
                norm_diff: nd,
                cov,
                samples: 20,
                min_rtt_ms: 20.0,
                max_rtt_ms: 60.0,
            }),
            slow_start: SlowStart {
                first_data_at: None,
                end: None,
                bytes_acked: 0,
            },
            throughput: ThroughputSummary {
                bytes_acked: 0,
                active: SimDuration::ZERO,
                mean_bps: util * 20e6,
            },
            ss_throughput_bps: util * 20e6,
            intended,
            access_rate_bps: 20_000_000,
            interconnect_max_occupancy: 0.0,
            events: 0,
            seed: 0,
            conn_stats: None,
        }
    }

    fn synthetic_results(n: usize) -> Vec<TestResult> {
        let mut rng = csig_rng::StdRng::seed_from_u64(3);
        let mut v = Vec::new();
        for _ in 0..n {
            v.push(result(
                CongestionClass::SelfInduced,
                0.6 + rng.gen::<f64>() * 0.3,
                0.15 + rng.gen::<f64>() * 0.25,
                0.9 + rng.gen::<f64>() * 0.1,
            ));
            v.push(result(
                CongestionClass::External,
                rng.gen::<f64>() * 0.3,
                rng.gen::<f64>() * 0.08,
                0.2 + rng.gen::<f64>() * 0.3,
            ));
        }
        v
    }

    #[test]
    fn training_from_results_works() {
        let results = synthetic_results(100);
        let clf = train_from_results(&results, 0.8, TreeParams::default()).expect("model");
        assert_eq!(clf.meta.n_train, 200);
        let cm = ground_truth_confusion(&clf, &results);
        let s = CongestionClass::SelfInduced.index();
        let e = CongestionClass::External.index();
        assert!(cm.recall(s).unwrap() > 0.95);
        assert!(cm.recall(e).unwrap() > 0.95);
        assert_eq!(cm.support(s), 100);
    }

    #[test]
    fn threshold_sweep_produces_points() {
        let results = synthetic_results(60);
        let pts = threshold_sweep(&results, &[0.5, 0.6, 0.7, 0.8], TreeParams::default(), 1);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.precision_self > 0.9, "{p:?}");
            assert!(p.recall_external > 0.9, "{p:?}");
        }
    }

    #[test]
    fn extreme_threshold_filters_everything() {
        let results = synthetic_results(30);
        // Threshold 1.0: no self-induced flow can exceed it → single
        // class → None.
        assert!(train_from_results(&results, 1.0, TreeParams::default()).is_none());
    }

    #[test]
    fn empty_results_yield_no_model() {
        assert!(train_from_results(&[], 0.8, TreeParams::default()).is_none());
        assert!(threshold_point(&[], 0.8, TreeParams::default(), 1).is_none());
    }
}
