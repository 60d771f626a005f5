//! Dataset containers for the classifier.

/// A labeled dataset: row-major feature matrix plus class indices.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature rows; every row has the same length.
    pub features: Vec<Vec<f64>>,
    /// Class index per row.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Append one labeled sample.
    ///
    /// # Panics
    /// Panics if the feature dimension differs from existing rows.
    pub fn push(&mut self, features: Vec<f64>, label: usize) {
        if let Some(first) = self.features.first() {
            assert_eq!(first.len(), features.len(), "feature dimension mismatch");
        }
        self.features.push(features);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension (0 when empty).
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Number of distinct classes (= max label + 1).
    pub fn n_classes(&self) -> usize {
        self.labels.iter().max().map_or(0, |&m| m + 1)
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.n_classes()];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Merge another dataset into this one.
    pub fn extend(&mut self, other: &Dataset) {
        for (f, &l) in other.features.iter().zip(&other.labels) {
            self.push(f.clone(), l);
        }
    }

    /// Deterministically shuffle and split into `(train, test)` with
    /// `train_frac` of samples in the training set.
    pub fn train_test_split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_frac), "bad fraction");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = csig_rng::StdRng::seed_from_u64(seed);
        rng.shuffle(&mut idx);
        let cut = (self.len() as f64 * train_frac).round() as usize;
        let mut train = Dataset::new();
        let mut test = Dataset::new();
        for (i, &j) in idx.iter().enumerate() {
            let target = if i < cut { &mut train } else { &mut test };
            target.push(self.features[j].clone(), self.labels[j]);
        }
        (train, test)
    }

    /// Split into `k` deterministic folds for cross-validation; returns
    /// `(train, validation)` pairs.
    pub fn k_folds(&self, k: usize, seed: u64) -> Vec<(Dataset, Dataset)> {
        assert!(k >= 2, "need at least 2 folds");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = csig_rng::StdRng::seed_from_u64(seed);
        rng.shuffle(&mut idx);
        (0..k)
            .map(|fold| {
                let mut train = Dataset::new();
                let mut val = Dataset::new();
                for (i, &j) in idx.iter().enumerate() {
                    let target = if i % k == fold { &mut val } else { &mut train };
                    target.push(self.features[j].clone(), self.labels[j]);
                }
                (train, val)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n {
            d.push(vec![i as f64, (i * 2) as f64], i % 2);
        }
        d
    }

    #[test]
    fn push_and_shape() {
        let d = toy(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.class_counts(), vec![5, 5]);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_rejected() {
        let mut d = toy(2);
        d.push(vec![1.0], 0);
    }

    #[test]
    fn split_partitions_everything() {
        let d = toy(100);
        let (tr, te) = d.train_test_split(0.8, 7);
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
        // Deterministic for a fixed seed.
        let (tr2, _) = d.train_test_split(0.8, 7);
        assert_eq!(tr.features, tr2.features);
        // Different seed shuffles differently.
        let (tr3, _) = d.train_test_split(0.8, 8);
        assert_ne!(tr.features, tr3.features);
    }

    #[test]
    fn k_folds_cover_all_samples_once() {
        let d = toy(30);
        let folds = d.k_folds(3, 1);
        assert_eq!(folds.len(), 3);
        let total_val: usize = folds.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total_val, 30);
        for (tr, v) in &folds {
            assert_eq!(tr.len() + v.len(), 30);
        }
    }

    #[test]
    fn extend_merges() {
        let mut a = toy(3);
        let b = toy(2);
        a.extend(&b);
        assert_eq!(a.len(), 5);
    }
}
