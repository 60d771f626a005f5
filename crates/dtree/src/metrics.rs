//! Classification metrics: confusion matrix, precision/recall/F1,
//! accuracy, and cross-validation — the evaluation vocabulary of the
//! paper's Figure 3.

use crate::data::Dataset;
use crate::tree::{DecisionTree, TreeParams};

/// Confusion matrix: `counts[actual][predicted]`.
///
/// The one place (truth, prediction) pairs become counts, precision,
/// recall and accuracy. Start from an empty tally
/// ([`ConfusionMatrix::default`]) and [`record`](Self::record) pairs;
/// every rate of an empty tally is defined (`None` or `0`), so callers
/// never special-case "no samples".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Build from parallel actual/predicted label slices.
    ///
    /// # Panics
    /// Panics if the slices differ in length or are empty (an empty
    /// test set has no accuracy to evaluate; start an empty tally with
    /// [`ConfusionMatrix::default`] instead).
    fn from_labels(actual: &[usize], predicted: &[usize]) -> Self {
        assert_eq!(actual.len(), predicted.len(), "length mismatch");
        assert!(!actual.is_empty(), "no samples");
        let mut cm = ConfusionMatrix::default();
        for (&a, &p) in actual.iter().zip(predicted) {
            cm.record(a, p);
        }
        cm
    }

    /// Count one sample of class `actual` predicted as `predicted`,
    /// growing the matrix to cover both classes.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        let k = actual.max(predicted) + 1;
        if k > self.counts.len() {
            for row in &mut self.counts {
                row.resize(k, 0);
            }
            self.counts.resize(k, vec![0; k]);
        }
        self.counts[actual][predicted] += 1;
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.counts.len()
    }

    /// `counts[actual][predicted]` (0 for classes never observed).
    pub fn count(&self, actual: usize, predicted: usize) -> usize {
        self.counts
            .get(actual)
            .and_then(|row| row.get(predicted))
            .copied()
            .unwrap_or(0)
    }

    /// Number of recorded samples.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }

    /// Number of samples whose prediction matches their class.
    pub fn correct(&self) -> usize {
        (0..self.n_classes()).map(|i| self.counts[i][i]).sum()
    }

    /// Number of samples of class `class` (its row total; 0 for
    /// classes never observed).
    pub fn support(&self, class: usize) -> usize {
        self.counts.get(class).map_or(0, |row| row.iter().sum())
    }

    /// Overall accuracy; 0 for an empty tally.
    pub fn accuracy(&self) -> f64 {
        self.correct() as f64 / self.total().max(1) as f64
    }

    /// Precision of `class`: TP / (TP + FP). `None` when the class is
    /// never predicted (including classes beyond the observed range).
    pub fn precision(&self, class: usize) -> Option<f64> {
        let tp = self.count(class, class);
        let predicted: usize = (0..self.n_classes()).map(|a| self.count(a, class)).sum();
        (predicted > 0).then(|| tp as f64 / predicted as f64)
    }

    /// Recall of `class`: TP / (TP + FN), the per-class accuracy the
    /// paper reports against ground truth. `None` when the class has no
    /// actual samples (including classes beyond the observed range).
    pub fn recall(&self, class: usize) -> Option<f64> {
        let actual = self.support(class);
        (actual > 0).then(|| self.count(class, class) as f64 / actual as f64)
    }

    /// F1 score of `class` (harmonic mean of precision and recall).
    pub fn f1(&self, class: usize) -> Option<f64> {
        let p = self.precision(class)?;
        let r = self.recall(class)?;
        if p + r == 0.0 {
            Some(0.0)
        } else {
            Some(2.0 * p * r / (p + r))
        }
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "actual \\ predicted")?;
        for (a, row) in self.counts.iter().enumerate() {
            write!(f, "  {a}:")?;
            for c in row {
                write!(f, " {c:>6}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Evaluate a fitted tree on a test set.
pub fn evaluate(tree: &DecisionTree, test: &Dataset) -> ConfusionMatrix {
    let preds = tree.predict_all(test);
    ConfusionMatrix::from_labels(&test.labels, &preds)
}

/// Mean k-fold cross-validated accuracy.
pub fn cross_val_accuracy(data: &Dataset, params: TreeParams, k: usize, seed: u64) -> f64 {
    let folds = data.k_folds(k, seed);
    let mut acc = 0.0;
    let n = folds.len() as f64;
    for (train, val) in folds {
        let tree = DecisionTree::fit(&train, params);
        acc += evaluate(&tree, &val).accuracy();
    }
    acc / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let actual = vec![0, 1, 0, 1];
        let cm = ConfusionMatrix::from_labels(&actual, &actual);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.precision(0), Some(1.0));
        assert_eq!(cm.recall(1), Some(1.0));
        assert_eq!(cm.f1(0), Some(1.0));
    }

    #[test]
    fn known_confusion() {
        // actual:    0 0 0 1 1
        // predicted: 0 0 1 1 0
        let cm = ConfusionMatrix::from_labels(&[0, 0, 0, 1, 1], &[0, 0, 1, 1, 0]);
        assert_eq!(cm.count(0, 0), 2);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(1, 0), 1);
        assert_eq!(cm.count(1, 1), 1);
        assert!((cm.accuracy() - 0.6).abs() < 1e-12);
        // precision(0) = 2/3, recall(0) = 2/3.
        assert!((cm.precision(0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall(0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        // precision(1) = 1/2, recall(1) = 1/2, f1 = 1/2.
        assert!((cm.f1(1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn never_predicted_class_has_no_precision() {
        let cm = ConfusionMatrix::from_labels(&[0, 1], &[0, 0]);
        assert_eq!(cm.precision(1), None);
        assert_eq!(cm.recall(1), Some(0.0));
    }

    #[test]
    fn out_of_range_class_is_not_a_panic() {
        // A degenerate test split where only class 0 exists.
        let cm = ConfusionMatrix::from_labels(&[0, 0], &[0, 0]);
        assert_eq!(cm.n_classes(), 1);
        assert_eq!(cm.count(1, 1), 0);
        assert_eq!(cm.precision(1), None);
        assert_eq!(cm.recall(1), None);
        assert_eq!(cm.f1(1), None);
    }

    #[test]
    fn empty_tally_is_defined() {
        let cm = ConfusionMatrix::default();
        assert_eq!(cm.n_classes(), 0);
        assert_eq!((cm.total(), cm.correct(), cm.support(0)), (0, 0, 0));
        assert_eq!(cm.count(0, 0), 0);
        for class in 0..2 {
            assert_eq!(cm.precision(class), None);
            assert_eq!(cm.recall(class), None);
            assert_eq!(cm.f1(class), None);
        }
        assert_eq!(cm.accuracy(), 0.0);
    }

    #[test]
    fn recorded_pairs_match_from_labels() {
        let actual = [1, 0, 2, 1, 1, 0];
        let predicted = [1, 1, 0, 1, 0, 0];
        let mut cm = ConfusionMatrix::default();
        for (&a, &p) in actual.iter().zip(&predicted) {
            cm.record(a, p);
        }
        assert_eq!(cm, ConfusionMatrix::from_labels(&actual, &predicted));
        assert_eq!(cm.n_classes(), 3);
        assert_eq!((cm.total(), cm.correct()), (6, 3));
        assert_eq!((cm.support(0), cm.support(1), cm.support(2)), (2, 3, 1));
        assert_eq!(cm.recall(1), Some(2.0 / 3.0));
    }

    #[test]
    fn display_renders() {
        let cm = ConfusionMatrix::from_labels(&[0, 1], &[0, 1]);
        let s = cm.to_string();
        assert!(s.contains("actual"));
    }

    #[test]
    fn cross_validation_on_separable_data_is_high() {
        let mut d = Dataset::new();
        for i in 0..200 {
            let x = i as f64 / 200.0;
            d.push(vec![x], usize::from(x > 0.5));
        }
        let acc = cross_val_accuracy(&d, TreeParams::default(), 5, 42);
        assert!(acc > 0.95, "cv accuracy {acc}");
    }
}
