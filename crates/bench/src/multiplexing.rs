//! §3.3 multiplexing experiment: classifier robustness as the
//! assumption of many-flow interconnect congestion (or an exclusive
//! access link) is relaxed.
//!
//! Paper results (50 Mbps access): external-congestion accuracy falls
//! 93 % → 84 % → 74 % → 50 % as `TGcong` drops 100 → 50 → 20 → 10
//! flows; self-induced accuracy falls 86 % → 70 % as access cross
//! traffic rises from 1 to 5 flows.

use csig_core::{ground_truth_confusion, SignatureClassifier};
use csig_exec::{Campaign, Executor};
use csig_netsim::rng::derive_seed;
use csig_testbed::{run_test, AccessParams, Profile};

/// One row of the multiplexing result.
#[derive(Debug, Clone, Copy)]
pub struct MultiplexPoint {
    /// `TGcong` flows (external rows) or access cross flows (self rows).
    pub flows: u32,
    /// Fraction classified according to the scenario's ground truth.
    pub accuracy: f64,
    /// Tests with valid features.
    pub n: usize,
}

/// Full §3.3 output.
#[derive(Debug, Clone)]
pub struct MultiplexData {
    /// External accuracy vs `TGcong` flow count (descending).
    pub external_vs_flows: Vec<MultiplexPoint>,
    /// Self accuracy vs access-link cross flows.
    pub self_vs_cross: Vec<MultiplexPoint>,
}

fn access50() -> AccessParams {
    AccessParams {
        rate_mbps: 50,
        loss_pct: 0.02,
        latency_ms: 20,
        buffer_ms: 50,
    }
}

/// Run the experiment: `reps` tests per point, as one campaign on
/// `exec`. Flow counts are the paper's, scaled ×0.4 under the scaled
/// profile (whose baseline external scenario uses 40 flows instead of
/// 100).
pub fn run(
    clf: &SignatureClassifier,
    reps: u32,
    profile: Profile,
    seed: u64,
    exec: &Executor,
) -> MultiplexData {
    let flow_counts: Vec<u32> = match profile {
        Profile::Paper => vec![100, 50, 20, 10],
        Profile::Scaled => vec![40, 20, 8, 4],
    };
    // (external?, `TGcong` or access cross flows) per point.
    let points: Vec<(bool, u32)> = flow_counts
        .iter()
        .map(|&flows| (true, flows))
        .chain([1, 2, 5].map(|cross| (false, cross)))
        .collect();
    let mut campaign = Campaign::new(seed);
    for &(external, flows) in &points {
        let tag = if external {
            (flows as u64) << 20
        } else {
            0xAC0000 | (flows as u64) << 8
        };
        for rep in 0..reps {
            campaign.push_seeded(derive_seed(seed, tag | rep as u64), move |s| {
                let mut cfg = profile.config(access50(), s);
                if external {
                    cfg.tgcong_flows = flows;
                } else {
                    cfg.access_cross_flows = flows;
                }
                run_test(&cfg)
            });
        }
    }
    let results = exec
        .run_isolated_with_progress(&campaign, |_| {})
        .expect_artifacts();

    let reps = reps as usize;
    let mut rows = points.iter().enumerate().map(|(i, &(_, flows))| {
        let cm = ground_truth_confusion(clf, &results[i * reps..(i + 1) * reps]);
        MultiplexPoint {
            flows,
            accuracy: cm.accuracy(),
            n: cm.total(),
        }
    });
    MultiplexData {
        external_vs_flows: rows.by_ref().take(flow_counts.len()).collect(),
        self_vs_cross: rows.collect(),
    }
}

/// Print the §3.3 table.
pub fn print(data: &MultiplexData) {
    println!("§3.3 — external accuracy vs TGcong multiplexing (50 Mbps access)");
    println!("  {:>6} {:>9} {:>4}", "flows", "accuracy", "n");
    for p in &data.external_vs_flows {
        println!("  {:>6} {:>8.0}% {:>4}", p.flows, p.accuracy * 100.0, p.n);
    }
    println!("§3.3 — self accuracy vs access-link cross flows");
    println!("  {:>6} {:>9} {:>4}", "cross", "accuracy", "n");
    for p in &data.self_vs_cross {
        println!("  {:>6} {:>8.0}% {:>4}", p.flows, p.accuracy * 100.0, p.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn external_accuracy_decays_with_fewer_flows() {
        let clf = crate::dispute::testbed_model_with(
            3,
            Profile::Scaled,
            31,
            &csig_exec::Executor::sequential(),
        );
        let data = run(
            &clf,
            3,
            Profile::Scaled,
            32,
            &csig_exec::Executor::sequential(),
        );
        assert_eq!(data.external_vs_flows.len(), 4);
        let first = data.external_vs_flows.first().unwrap();
        let last = data.external_vs_flows.last().unwrap();
        // Monotone-ish decay: full multiplexing beats minimal.
        assert!(
            first.accuracy >= last.accuracy,
            "{} (at {}) vs {} (at {})",
            first.accuracy,
            first.flows,
            last.accuracy,
            last.flows
        );
        assert!(first.accuracy > 0.5, "baseline accuracy {}", first.accuracy);
    }
}
