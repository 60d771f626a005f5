//! Ablations over the design choices DESIGN.md calls out:
//!
//! * both features vs NormDiff-only vs CoV-only (§3.3 "Why do we need
//!   both metrics?"),
//! * tree depth 3/4/5 (§3.2).

use csig_dtree::{cross_val_accuracy, Dataset, TreeParams};
use csig_testbed::{build_dataset, TestResult};

/// Which feature subset to train on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSet {
    /// NormDiff and CoV (the paper's choice).
    Both,
    /// NormDiff only.
    NormDiffOnly,
    /// CoV only.
    CovOnly,
}

impl FeatureSet {
    /// All variants.
    pub const ALL: [FeatureSet; 3] = [
        FeatureSet::Both,
        FeatureSet::NormDiffOnly,
        FeatureSet::CovOnly,
    ];

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FeatureSet::Both => "NormDiff+CoV",
            FeatureSet::NormDiffOnly => "NormDiff only",
            FeatureSet::CovOnly => "CoV only",
        }
    }

    /// Project a 2-d `[NormDiff, CoV]` dataset onto this subset.
    fn project(self, data: &Dataset) -> Dataset {
        let mut out = Dataset::new();
        for (row, &label) in data.features.iter().zip(&data.labels) {
            let projected = match self {
                FeatureSet::Both => row.clone(),
                FeatureSet::NormDiffOnly => vec![row[0]],
                FeatureSet::CovOnly => vec![row[1]],
            };
            out.push(projected, label);
        }
        out
    }
}

/// One ablation row: cross-validated accuracy for a feature set and
/// tree depth.
#[derive(Debug, Clone, Copy)]
pub struct AblationRow {
    /// Feature subset.
    pub features: FeatureSet,
    /// Tree depth.
    pub depth: usize,
    /// 5-fold cross-validated accuracy.
    pub cv_accuracy: f64,
}

/// Cross-validate every (feature set × depth) combination on labeled
/// sweep results.
pub fn feature_depth_ablation(
    results: &[TestResult],
    threshold: f64,
    seed: u64,
) -> Vec<AblationRow> {
    let (data, _) = build_dataset(results, threshold);
    let mut rows = Vec::new();
    for features in FeatureSet::ALL {
        let projected = features.project(&data);
        for depth in [3usize, 4, 5] {
            rows.push(AblationRow {
                features,
                depth,
                cv_accuracy: cross_val_accuracy(&projected, TreeParams::with_depth(depth), 5, seed),
            });
        }
    }
    rows
}

/// Print the ablation table.
pub fn print(rows: &[AblationRow]) {
    println!("Ablation — 5-fold CV accuracy by feature set and tree depth");
    println!("  {:>14} {:>6} {:>9}", "features", "depth", "accuracy");
    for r in rows {
        println!(
            "  {:>14} {:>6} {:>8.1}%",
            r.features.label(),
            r.depth,
            r.cv_accuracy * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_exec::Executor;
    use csig_testbed::{small_grid, Profile, Sweep};

    #[test]
    fn both_features_never_lose_badly_to_either_alone() {
        let results = Sweep {
            grid: small_grid(),
            reps: 3,
            profile: Profile::Scaled,
            seed: 61,
        }
        .run_with(&Executor::sequential(), |_| {});
        let rows = feature_depth_ablation(&results, 0.7, 1);
        assert_eq!(rows.len(), 9);
        let acc = |f: FeatureSet, d: usize| {
            rows.iter()
                .find(|r| r.features == f && r.depth == d)
                .unwrap()
                .cv_accuracy
        };
        for d in [3, 4, 5] {
            let both = acc(FeatureSet::Both, d);
            assert!(both > 0.7, "depth {d}: both-features accuracy {both}");
            assert!(both + 0.1 >= acc(FeatureSet::NormDiffOnly, d));
            assert!(both + 0.1 >= acc(FeatureSet::CovOnly, d));
        }
    }

    #[test]
    fn projection_shapes() {
        let mut d = Dataset::new();
        d.push(vec![0.5, 0.2], 0);
        d.push(vec![0.1, 0.05], 1);
        assert_eq!(FeatureSet::Both.project(&d).dim(), 2);
        assert_eq!(FeatureSet::NormDiffOnly.project(&d).dim(), 1);
        let cov = FeatureSet::CovOnly.project(&d);
        assert_eq!(cov.features[0], vec![0.2]);
    }
}
