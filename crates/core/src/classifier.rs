//! The congestion-signature classifier: the paper's primary
//! contribution packaged as a library type.

use csig_dtree::{ConfusionMatrix, Dataset, DecisionTree, TreeParams};
use csig_features::{CongestionClass, FlowFeatures};
use csig_trace::SlowStart;

mod json;
pub use json::ModelError;

/// Metadata describing how a model was trained.
#[derive(Debug, Clone)]
pub struct ModelMeta {
    /// Congestion threshold used to label the training data.
    pub congestion_threshold: f64,
    /// Free-form provenance ("testbed scaled sweep", "Dispute2014", …).
    pub trained_on: String,
    /// Number of labeled training samples.
    pub n_train: usize,
    /// Training samples filtered out by labeling.
    pub n_filtered: usize,
}

/// A trained classifier that maps slow-start RTT features to a
/// [`CongestionClass`].
#[derive(Debug, Clone)]
pub struct SignatureClassifier {
    tree: DecisionTree,
    /// Provenance and labeling parameters.
    pub meta: ModelMeta,
}

/// A complete per-flow diagnosis.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The predicted congestion class.
    pub class: CongestionClass,
    /// Leaf purity for the predicted class (a confidence proxy).
    pub confidence: f64,
    /// The features the verdict was based on.
    pub features: FlowFeatures,
    /// The slow-start window the features were computed over.
    pub slow_start: SlowStart,
}

impl SignatureClassifier {
    /// Train on an already-labeled dataset (class indices per
    /// [`CongestionClass::index`]).
    ///
    /// # Panics
    /// Panics if the dataset is empty or not two-dimensional.
    pub fn train(data: &Dataset, params: TreeParams, meta: ModelMeta) -> Self {
        assert!(!data.is_empty(), "empty training set");
        assert_eq!(data.dim(), 2, "expected [NormDiff, CoV] features");
        SignatureClassifier {
            tree: DecisionTree::fit(data, params),
            meta,
        }
    }

    /// Classify a feature vector.
    pub fn classify(&self, features: &FlowFeatures) -> CongestionClass {
        CongestionClass::from_index(self.tree.predict(&features.as_vector()))
    }

    /// Classify with a confidence proxy (training purity of the
    /// reached leaf for the predicted class).
    pub fn classify_with_confidence(&self, features: &FlowFeatures) -> (CongestionClass, f64) {
        let proba = self.tree.predict_proba(&features.as_vector());
        let class = self.classify(features);
        (class, proba[class.index()])
    }

    /// Evaluate on a labeled dataset.
    pub fn evaluate(&self, test: &Dataset) -> ConfusionMatrix {
        csig_dtree::evaluate(&self.tree, test)
    }

    /// The underlying decision tree.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Human-readable rendering of the learned rules.
    pub fn render(&self) -> String {
        self.tree.render(&["NormDiff", "CoV"])
    }

    /// The model file: pretty-printed JSON (schema in DESIGN.md §3.1).
    pub fn to_json(&self) -> String {
        json::write(self)
    }

    /// Load a model file written by [`to_json`](Self::to_json). Any
    /// departure from its schema, or a tree `fit` could not have
    /// built, is an error naming the problem.
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        json::parse(json)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A synthetic dataset with the paper's geometry: self-induced
    /// flows have high NormDiff/CoV, external flows low.
    pub(crate) fn synthetic_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = csig_rng::StdRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let nd: f64 = 0.6 + rng.gen::<f64>() * 0.35;
            let cov: f64 = 0.15 + rng.gen::<f64>() * 0.3;
            d.push(vec![nd, cov], CongestionClass::SelfInduced.index());
            let nd: f64 = rng.gen::<f64>() * 0.3;
            let cov: f64 = rng.gen::<f64>() * 0.08;
            d.push(vec![nd, cov], CongestionClass::External.index());
        }
        d
    }

    pub(crate) fn meta() -> ModelMeta {
        ModelMeta {
            congestion_threshold: 0.8,
            trained_on: "synthetic".into(),
            n_train: 0,
            n_filtered: 0,
        }
    }

    #[test]
    fn classifies_synthetic_geometry() {
        let data = synthetic_dataset(200, 5);
        let clf = SignatureClassifier::train(&data, TreeParams::default(), meta());
        let hi = FlowFeatures {
            norm_diff: 0.8,
            cov: 0.3,
            samples: 20,
            min_rtt_ms: 20.0,
            max_rtt_ms: 120.0,
        };
        assert_eq!(clf.classify(&hi), CongestionClass::SelfInduced);
        let lo = FlowFeatures {
            norm_diff: 0.05,
            cov: 0.02,
            samples: 20,
            min_rtt_ms: 80.0,
            max_rtt_ms: 85.0,
        };
        assert_eq!(clf.classify(&lo), CongestionClass::External);
        let (_, conf) = clf.classify_with_confidence(&hi);
        assert!(conf > 0.9, "confidence {conf}");
    }

    #[test]
    fn evaluation_on_heldout_is_accurate() {
        let data = synthetic_dataset(300, 7);
        let (train, test) = data.train_test_split(0.7, 1);
        let clf = SignatureClassifier::train(&train, TreeParams::default(), meta());
        let cm = clf.evaluate(&test);
        assert!(cm.accuracy() > 0.95, "accuracy {}", cm.accuracy());
    }

    #[test]
    fn render_mentions_feature_names() {
        let data = synthetic_dataset(50, 11);
        let clf = SignatureClassifier::train(&data, TreeParams::default(), meta());
        let s = clf.render();
        assert!(s.contains("NormDiff") || s.contains("CoV"), "{s}");
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_rejected() {
        let mut d = Dataset::new();
        d.push(vec![1.0], 0);
        let _ = SignatureClassifier::train(&d, TreeParams::default(), meta());
    }
}
