//! # csig-dtree — decision-tree classifier
//!
//! A from-scratch CART implementation (Gini impurity, axis-aligned
//! splits) replacing the paper's `sklearn.tree.DecisionTreeClassifier`,
//! together with dataset plumbing and evaluation metrics:
//!
//! * [`data`] — labeled datasets, train/test splits, k-folds.
//! * [`tree`] — fitting, prediction, probabilities, reassembly from a
//!   loaded model's parts, human-readable rendering.
//! * [`metrics`] — confusion matrices, precision/recall/F1/accuracy and
//!   cross-validation (the vocabulary of the paper's Figure 3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod data;
pub mod metrics;
pub mod tree;

pub use data::Dataset;
pub use metrics::{cross_val_accuracy, evaluate, ConfusionMatrix};
pub use tree::{DecisionTree, Node, TreeParams};
