//! Figures 3 & 4: classifier precision/recall vs the congestion
//! threshold, and the raw NormDiff/CoV scatter over the full grid.

use csig_core::{threshold_sweep, ThresholdPoint};
use csig_dtree::TreeParams;
use csig_features::CongestionClass;
use csig_testbed::{paper_grid, small_grid, Profile, Sweep, TestResult};

/// The sweep specification backing Figures 3 and 4; run it with
/// [`Sweep::run_with`].
pub fn sweep(reps: u32, full_grid: bool, profile: Profile, seed: u64) -> Sweep {
    Sweep {
        grid: if full_grid {
            paper_grid()
        } else {
            small_grid()
        },
        reps,
        profile,
        seed,
    }
}

/// The Figure-3 threshold sweep over pre-computed results.
pub fn threshold_points(results: &[TestResult], seed: u64) -> Vec<ThresholdPoint> {
    let thresholds: Vec<f64> = (1..20).map(|i| i as f64 * 0.05).collect();
    threshold_sweep(results, &thresholds, TreeParams::default(), seed)
}

/// Print Figure 3 as a table.
pub fn print_fig3(points: &[ThresholdPoint]) {
    println!("Figure 3 — precision/recall vs congestion threshold");
    println!(
        "  {:>9} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "threshold", "P(self)", "R(self)", "P(ext)", "R(ext)", "n"
    );
    for p in points {
        println!(
            "  {:>9.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>6}",
            p.threshold,
            p.precision_self,
            p.recall_self,
            p.precision_external,
            p.recall_external,
            p.n
        );
    }
}

/// One Figure-4 scatter point.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Point {
    /// NormDiff.
    pub norm_diff: f64,
    /// CoV.
    pub cov: f64,
    /// Scenario ground truth.
    pub class: CongestionClass,
}

/// Figure-4 scatter from sweep results.
pub fn fig4_points(results: &[TestResult]) -> Vec<Fig4Point> {
    results
        .iter()
        .filter_map(|r| {
            r.features.as_ref().ok().map(|f| Fig4Point {
                norm_diff: f.norm_diff,
                cov: f.cov,
                class: r.intended,
            })
        })
        .collect()
}

/// Print Figure 4 as summary statistics plus raw points.
pub fn print_fig4(points: &[Fig4Point], raw: bool) {
    println!("Figure 4 — NormDiff vs CoV by scenario");
    for class in [CongestionClass::SelfInduced, CongestionClass::External] {
        let nd: Vec<f64> = points
            .iter()
            .filter(|p| p.class == class)
            .map(|p| p.norm_diff)
            .collect();
        let cov: Vec<f64> = points
            .iter()
            .filter(|p| p.class == class)
            .map(|p| p.cov)
            .collect();
        let med = |v: &[f64]| csig_features::median(v).unwrap_or(f64::NAN);
        let p10 = |v: &[f64]| csig_features::percentile(v, 10.0).unwrap_or(f64::NAN);
        let p90 = |v: &[f64]| csig_features::percentile(v, 90.0).unwrap_or(f64::NAN);
        println!(
            "  {:>8}: n={:<4} NormDiff p10/med/p90 = {:.2}/{:.2}/{:.2}  CoV = {:.3}/{:.3}/{:.3}",
            class.label(),
            nd.len(),
            p10(&nd),
            med(&nd),
            p90(&nd),
            p10(&cov),
            med(&cov),
            p90(&cov),
        );
    }
    if raw {
        println!("  norm_diff,cov,class");
        for p in points {
            println!("  {:.4},{:.4},{}", p.norm_diff, p.cov, p.class.label());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_exec::Executor;

    fn scaled_results(reps: u32, seed: u64) -> Vec<TestResult> {
        sweep(reps, false, Profile::Scaled, seed).run_with(&Executor::sequential(), |_| {})
    }

    #[test]
    fn threshold_sweep_is_stable_in_the_paper_band() {
        let results = scaled_results(5, 21);
        let pts = threshold_points(&results, 1);
        assert!(!pts.is_empty());
        // Within the paper's reliable band (0.6–0.9 in the paper; a
        // scaled testbed keeps good behavior in 0.5–0.8), the *band
        // average* of recall stays high for both classes (individual
        // points are noisy at unit-test sample sizes).
        let band: Vec<_> = pts
            .iter()
            .filter(|p| (0.5..=0.8).contains(&p.threshold))
            .collect();
        assert!(band.len() >= 3);
        let mean = |f: fn(&ThresholdPoint) -> f64| {
            band.iter().map(|p| f(p)).sum::<f64>() / band.len() as f64
        };
        assert!(mean(|p| p.recall_self) > 0.75, "{band:?}");
        assert!(mean(|p| p.recall_external) > 0.75, "{band:?}");
        assert!(mean(|p| p.precision_self) > 0.75, "{band:?}");
    }

    #[test]
    fn fig4_separates_classes() {
        let results = scaled_results(2, 22);
        let pts = fig4_points(&results);
        let med = |class: CongestionClass, f: fn(&Fig4Point) -> f64| {
            csig_features::median(
                &pts.iter()
                    .filter(|p| p.class == class)
                    .map(f)
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        assert!(
            med(CongestionClass::SelfInduced, |p| p.norm_diff)
                > med(CongestionClass::External, |p| p.norm_diff)
        );
        assert!(
            med(CongestionClass::SelfInduced, |p| p.cov)
                > med(CongestionClass::External, |p| p.cov)
        );
    }
}
