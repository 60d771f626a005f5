//! CART decision tree (Gini impurity, axis-aligned splits) — the
//! from-scratch stand-in for `sklearn.tree.DecisionTreeClassifier`.
//!
//! The paper trains a depth-3..5 tree on the two RTT features; this
//! implementation supports arbitrary dimensions and class counts with
//! the standard hyperparameters (max depth, minimum samples to split,
//! minimum samples per leaf).

use crate::data::Dataset;

/// Training hyperparameters (defaults match the paper: depth 4).
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes with fewer samples than this.
    pub min_samples_split: usize,
    /// Both children of a split must keep at least this many samples.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 4,
            min_samples_split: 2,
            min_samples_leaf: 1,
        }
    }
}

impl TreeParams {
    /// Params with the given depth and defaults otherwise.
    pub fn with_depth(max_depth: usize) -> Self {
        TreeParams {
            max_depth,
            ..TreeParams::default()
        }
    }
}

/// A node in the fitted tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// Terminal node predicting `class`.
    Leaf {
        /// Predicted class (argmax of `counts`).
        class: usize,
        /// Training-sample class histogram at this leaf.
        counts: Vec<usize>,
    },
    /// Internal split: `feature < threshold` goes left, else right.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Index of the left child in the node arena.
        left: usize,
        /// Index of the right child in the node arena.
        right: usize,
    },
}

/// A fitted CART classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    dim: usize,
    n_classes: usize,
    params: TreeParams,
}

fn gini(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    impurity: f64,
}

impl DecisionTree {
    /// Fit a tree on `data`.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn fit(data: &Dataset, params: TreeParams) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let n_classes = data.n_classes().max(1);
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            dim: data.dim(),
            n_classes,
            params,
        };
        let idx: Vec<usize> = (0..data.len()).collect();
        tree.build(data, idx, 0);
        tree
    }

    /// Build a subtree over `idx`; returns the node's arena index.
    fn build(&mut self, data: &Dataset, idx: Vec<usize>, depth: usize) -> usize {
        let counts = self.count_classes(data, &idx);
        let node_gini = gini(&counts);
        let Some(majority) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(i, _)| i)
        else {
            unreachable!("count_classes returns one slot per class")
        };

        let stop = depth >= self.params.max_depth
            || idx.len() < self.params.min_samples_split
            || node_gini == 0.0;
        if !stop {
            if let Some(split) = self.best_split(data, &idx, node_gini) {
                let (li, ri): (Vec<usize>, Vec<usize>) = idx
                    .iter()
                    .partition(|&&i| data.features[i][split.feature] < split.threshold);
                if li.len() >= self.params.min_samples_leaf
                    && ri.len() >= self.params.min_samples_leaf
                {
                    let slot = self.nodes.len();
                    // Reserve the slot; children are built after.
                    self.nodes.push(Node::Leaf {
                        class: majority,
                        counts: counts.clone(),
                    });
                    let left = self.build(data, li, depth + 1);
                    let right = self.build(data, ri, depth + 1);
                    self.nodes[slot] = Node::Split {
                        feature: split.feature,
                        threshold: split.threshold,
                        left,
                        right,
                    };
                    return slot;
                }
            }
        }
        self.nodes.push(Node::Leaf {
            class: majority,
            counts,
        });
        self.nodes.len() - 1
    }

    fn count_classes(&self, data: &Dataset, idx: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &i in idx {
            counts[data.labels[i]] += 1;
        }
        counts
    }

    /// Exhaustive best split: for each feature, sort samples and scan
    /// boundaries between distinct values.
    fn best_split(&self, data: &Dataset, idx: &[usize], _parent_gini: f64) -> Option<BestSplit> {
        let n = idx.len() as f64;
        let mut best: Option<BestSplit> = None;
        for feature in 0..self.dim {
            let mut order: Vec<usize> = idx.to_vec();
            order.sort_by(|&a, &b| data.features[a][feature].total_cmp(&data.features[b][feature]));
            let mut left_counts = vec![0usize; self.n_classes];
            let mut right_counts = self.count_classes(data, idx);
            for w in 0..order.len() - 1 {
                let i = order[w];
                left_counts[data.labels[i]] += 1;
                right_counts[data.labels[i]] -= 1;
                let v0 = data.features[i][feature];
                let v1 = data.features[order[w + 1]][feature];
                if v0 == v1 {
                    continue; // can't split between equal values
                }
                let nl = (w + 1) as f64;
                let nr = n - nl;
                let impurity = (nl / n) * gini(&left_counts) + (nr / n) * gini(&right_counts);
                // Weighted child impurity never exceeds the parent's
                // (Gini is concave), so accept even zero-gain splits —
                // like sklearn — or XOR-style data would never split.
                if best.as_ref().is_none_or(|b| impurity < b.impurity) {
                    best = Some(BestSplit {
                        feature,
                        threshold: (v0 + v1) / 2.0,
                        impurity,
                    });
                }
            }
        }
        best
    }

    /// Reassemble a tree from its parts, as a loaded model file holds
    /// them. The parts must form a tree [`fit`](Self::fit) could have
    /// built, so that prediction neither loops nor indexes out of
    /// range: at least one node; every split's `feature` below `dim`
    /// and its `left`/`right` after its own index, inside the arena
    /// and no other split's child (`fit` pushes children after their
    /// parent); every leaf's `class` below `n_classes` and `counts`
    /// of length `n_classes`.
    pub fn from_parts(
        nodes: Vec<Node>,
        dim: usize,
        n_classes: usize,
        params: TreeParams,
    ) -> Result<Self, String> {
        if nodes.is_empty() {
            return Err("the tree has no nodes".into());
        }
        let mut parent = vec![None; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            match node {
                Node::Leaf { class, counts } => {
                    if *class >= n_classes {
                        return Err(format!(
                            "node {i}: `class` {class} is not below `n_classes` {n_classes}"
                        ));
                    }
                    if counts.len() != n_classes {
                        return Err(format!(
                            "node {i}: `counts` has {} entries, not `n_classes` {n_classes}",
                            counts.len()
                        ));
                    }
                }
                Node::Split {
                    feature,
                    left,
                    right,
                    ..
                } => {
                    if *feature >= dim {
                        return Err(format!(
                            "node {i}: `feature` {feature} is not below `dim` {dim}"
                        ));
                    }
                    for (name, child) in [("left", *left), ("right", *right)] {
                        if child <= i || child >= nodes.len() {
                            return Err(format!(
                                "node {i}: `{name}` {child} is outside {}..{} (a child comes after its parent)",
                                i + 1,
                                nodes.len()
                            ));
                        }
                        if let Some(other) = parent[child].replace(i) {
                            return Err(format!(
                                "node {i}: `{name}` {child} is already a child of node {other}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(DecisionTree {
            nodes,
            dim,
            n_classes,
            params,
        })
    }

    /// The node arena; node 0 is the root.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Predict the class of a feature vector.
    ///
    /// # Panics
    /// Panics if the dimension does not match the training data.
    pub fn predict(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { class, .. } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Class probabilities from the reached leaf's training histogram.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { counts, .. } => {
                    let total: usize = counts.iter().sum();
                    return counts
                        .iter()
                        .map(|&c| {
                            if total == 0 {
                                0.0
                            } else {
                                c as f64 / total as f64
                            }
                        })
                        .collect();
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predict all rows of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<usize> {
        data.features.iter().map(|x| self.predict(x)).collect()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        walk(&self.nodes, 0)
    }

    /// Number of nodes.
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Feature-vector dimension the tree was fitted on.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes the tree predicts.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Training parameters the tree was fitted with.
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// Gini feature importances: total impurity decrease contributed by
    /// splits on each feature, weighted by the fraction of training
    /// samples reaching the split, normalized to sum to 1 (all zeros
    /// for a single-leaf tree). Mirrors sklearn's
    /// `feature_importances_`.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut importance = vec![0.0; self.dim];
        let total_samples = match &self.nodes.first() {
            Some(Node::Leaf { counts, .. }) => counts.iter().sum::<usize>() as f64,
            Some(Node::Split { .. }) => self.node_samples(0) as f64,
            None => return importance,
        };
        for i in 0..self.nodes.len() {
            if let Node::Split {
                feature,
                left,
                right,
                ..
            } = &self.nodes[i]
            {
                let (n, g) = (self.node_samples(i) as f64, self.node_gini(i));
                let (nl, gl) = (self.node_samples(*left) as f64, self.node_gini(*left));
                let (nr, gr) = (self.node_samples(*right) as f64, self.node_gini(*right));
                let decrease = g - (nl / n) * gl - (nr / n) * gr;
                importance[*feature] += (n / total_samples) * decrease.max(0.0);
            }
        }
        let sum: f64 = importance.iter().sum();
        if sum > 0.0 {
            for v in &mut importance {
                *v /= sum;
            }
        }
        importance
    }

    /// Training samples that reached a node (recomputed from leaves).
    fn node_samples(&self, at: usize) -> usize {
        match &self.nodes[at] {
            Node::Leaf { counts, .. } => counts.iter().sum(),
            Node::Split { left, right, .. } => self.node_samples(*left) + self.node_samples(*right),
        }
    }

    /// Gini impurity of the training samples that reached a node.
    fn node_gini(&self, at: usize) -> f64 {
        match &self.nodes[at] {
            Node::Leaf { counts, .. } => gini(counts),
            Node::Split { left, right, .. } => {
                // Recombine child histograms.
                let mut counts = self.node_counts(*left);
                for (c, v) in counts.iter_mut().zip(self.node_counts(*right)) {
                    *c += v;
                }
                gini(&counts)
            }
        }
    }

    fn node_counts(&self, at: usize) -> Vec<usize> {
        match &self.nodes[at] {
            Node::Leaf { counts, .. } => counts.clone(),
            Node::Split { left, right, .. } => {
                let mut counts = self.node_counts(*left);
                for (c, v) in counts.iter_mut().zip(self.node_counts(*right)) {
                    *c += v;
                }
                counts
            }
        }
    }

    /// Human-readable rendering of the tree (debugging, reports).
    pub fn render(&self, feature_names: &[&str]) -> String {
        let mut out = String::new();
        self.render_node(0, 0, feature_names, &mut out);
        out
    }

    fn render_node(&self, at: usize, indent: usize, names: &[&str], out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(indent);
        match &self.nodes[at] {
            Node::Leaf { class, counts } => {
                let _ = writeln!(out, "{pad}=> class {class} {counts:?}");
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let name = names.get(*feature).copied().unwrap_or("f?");
                let _ = writeln!(out, "{pad}if {name} < {threshold:.4}:");
                self.render_node(*left, indent + 1, names, out);
                let _ = writeln!(out, "{pad}else:");
                self.render_node(*right, indent + 1, names, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_rng::{cases, StdRng};

    fn separable() -> Dataset {
        // Class 0 clusters near (0.1, 0.1), class 1 near (0.9, 0.9).
        let mut d = Dataset::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let n0: f64 = rng.gen::<f64>() * 0.2;
            let n1: f64 = rng.gen::<f64>() * 0.2;
            d.push(vec![0.0 + n0, 0.0 + n1], 0);
            d.push(vec![0.8 + n0, 0.8 + n1], 1);
        }
        d
    }

    #[test]
    fn fits_separable_data_perfectly() {
        let d = separable();
        let tree = DecisionTree::fit(&d, TreeParams::default());
        let preds = tree.predict_all(&d);
        assert_eq!(preds, d.labels);
        assert!(tree.depth() <= 4);
    }

    #[test]
    fn respects_max_depth() {
        // XOR-ish data needs depth ≥ 2; verify depth-1 stays depth-1.
        let mut d = Dataset::new();
        for _ in 0..5 {
            d.push(vec![0.0, 0.0], 0);
            d.push(vec![1.0, 1.0], 0);
            d.push(vec![0.0, 1.0], 1);
            d.push(vec![1.0, 0.0], 1);
        }
        for depth in [1usize, 2, 3] {
            let tree = DecisionTree::fit(&d, TreeParams::with_depth(depth));
            assert!(tree.depth() <= depth, "depth {} > {}", tree.depth(), depth);
        }
        // With enough depth, XOR is solved exactly.
        let tree = DecisionTree::fit(&d, TreeParams::with_depth(3));
        assert_eq!(tree.predict_all(&d), d.labels);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(vec![i as f64], 0);
        }
        let tree = DecisionTree::fit(&d, TreeParams::default());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[3.0]), 0);
    }

    #[test]
    fn min_samples_leaf_honored() {
        let mut d = Dataset::new();
        // One outlier of class 1 among class 0.
        for i in 0..20 {
            d.push(vec![i as f64], usize::from(i == 19));
        }
        let params = TreeParams {
            min_samples_leaf: 5,
            ..TreeParams::default()
        };
        let tree = DecisionTree::fit(&d, params);
        // A split isolating the single outlier would violate
        // min_samples_leaf... verify every leaf holds ≥5 samples.
        for n in 0..tree.node_count() {
            if let Node::Leaf { counts, .. } = &tree.nodes[n] {
                assert!(counts.iter().sum::<usize>() >= 5);
            }
        }
    }

    #[test]
    fn predict_proba_sums_to_one() {
        let d = separable();
        let tree = DecisionTree::fit(&d, TreeParams::default());
        let p = tree.predict_proba(&[0.05, 0.05]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1]);
    }

    #[test]
    fn render_is_readable() {
        let d = separable();
        let tree = DecisionTree::fit(&d, TreeParams::with_depth(2));
        let s = tree.render(&["norm_diff", "cov"]);
        assert!(s.contains("if "));
        assert!(s.contains("class"));
    }

    #[test]
    fn feature_importances_identify_the_informative_axis() {
        // Labels depend only on feature 0; feature 1 is pure noise.
        let mut d = Dataset::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let x: f64 = rng.gen();
            let noise: f64 = rng.gen();
            d.push(vec![x, noise], usize::from(x > 0.5));
        }
        let tree = DecisionTree::fit(&d, TreeParams::with_depth(3));
        let imp = tree.feature_importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.8, "importances {imp:?}");
    }

    #[test]
    fn single_leaf_tree_has_zero_importances() {
        let mut d = Dataset::new();
        for i in 0..5 {
            d.push(vec![i as f64, 0.0], 0);
        }
        let tree = DecisionTree::fit(&d, TreeParams::default());
        assert_eq!(tree.feature_importances(), vec![0.0, 0.0]);
    }

    #[test]
    fn gini_values() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
        assert!((gini(&[1, 1, 1, 1]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn prop_training_accuracy_beats_majority() {
        cases(32, "prop_training_accuracy_beats_majority", |rng| {
            let seed = rng.gen_range(0u64..1000);
            let n = rng.gen_range(20usize..100);
            // Random labels over informative features: the tree must do
            // at least as well as the majority class on training data.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = Dataset::new();
            for _ in 0..n {
                let x: f64 = rng.gen();
                let y: f64 = rng.gen();
                let label = usize::from(x + y > 1.0);
                d.push(vec![x, y], label);
            }
            let tree = DecisionTree::fit(&d, TreeParams::default());
            let preds = tree.predict_all(&d);
            let correct = preds.iter().zip(&d.labels).filter(|(a, b)| a == b).count();
            let majority = d.class_counts().into_iter().max().unwrap();
            assert!(correct >= majority);
        });
    }

    #[test]
    fn prop_depth_bound_holds() {
        cases(32, "prop_depth_bound_holds", |rng| {
            let seed = rng.gen_range(0u64..200);
            let depth = rng.gen_range(1usize..6);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = Dataset::new();
            for _ in 0..60 {
                d.push(vec![rng.gen(), rng.gen()], rng.gen_range(0..3usize));
            }
            let tree = DecisionTree::fit(&d, TreeParams::with_depth(depth));
            assert!(tree.depth() <= depth);
        });
    }

    #[test]
    fn prop_prediction_is_deterministic() {
        cases(32, "prop_prediction_is_deterministic", |rng| {
            let mut rng = StdRng::seed_from_u64(rng.gen_range(0u64..100));
            let mut d = Dataset::new();
            for _ in 0..50 {
                d.push(vec![rng.gen(), rng.gen()], rng.gen_range(0..2usize));
            }
            let t1 = DecisionTree::fit(&d, TreeParams::default());
            let t2 = DecisionTree::fit(&d, TreeParams::default());
            assert_eq!(t1.predict_all(&d), t2.predict_all(&d));
        });
    }
}
