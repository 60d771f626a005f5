//! §3.3 multiplexing experiment: classifier robustness as the
//! assumption of many-flow interconnect congestion (or an exclusive
//! access link) is relaxed.
//!
//! Paper results (50 Mbps access): external-congestion accuracy falls
//! 93 % → 84 % → 74 % → 50 % as `TGcong` drops 100 → 50 → 20 → 10
//! flows; self-induced accuracy falls 86 % → 70 % as access cross
//! traffic rises from 1 to 5 flows.

use csig_core::SignatureClassifier;
use csig_features::CongestionClass;
use csig_netsim::rng::derive_seed;
use csig_testbed::{run_test, AccessParams, CongestionMode, Profile, TestbedConfig};
use serde::{Deserialize, Serialize};

/// One row of the multiplexing result.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MultiplexPoint {
    /// `TGcong` flows (external rows) or access cross flows (self rows).
    pub flows: u32,
    /// Fraction classified according to the scenario's ground truth.
    pub accuracy: f64,
    /// Tests with valid features.
    pub n: usize,
}

/// Full §3.3 output.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

fn accuracy_over(
    clf: &SignatureClassifier,
    configs: impl Iterator<Item = TestbedConfig>,
    expect: CongestionClass,
) -> MultiplexPoint {
    let mut right = 0usize;
    let mut n = 0usize;
    let mut flows = 0;
    for cfg in configs {
        flows = match cfg.congestion {
            CongestionMode::TgCong { flows } => flows,
            _ => cfg.access_cross_flows,
        };
        let r = run_test(&cfg);
        if let Ok(f) = &r.features {
            n += 1;
            if clf.classify(f) == expect {
                right += 1;
            }
        }
    }
    MultiplexPoint {
        flows,
        accuracy: if n == 0 { 0.0 } else { right as f64 / n as f64 },
        n,
    }
}

/// Run the experiment: `reps` tests per point. Flow counts are the
/// paper's, scaled ×0.4 under the scaled profile (whose baseline
/// external scenario uses 40 flows instead of 100).
pub fn run(clf: &SignatureClassifier, reps: u32, profile: Profile, seed: u64) -> MultiplexData {
    let flow_counts: Vec<u32> = match profile {
        Profile::Paper => vec![100, 50, 20, 10],
        Profile::Scaled => vec![40, 20, 8, 4],
    };
    let mk = |s: u64| match profile {
        Profile::Paper => TestbedConfig::paper(access50(), s),
        Profile::Scaled => TestbedConfig::scaled(access50(), s),
    };
    let external_vs_flows = flow_counts
        .iter()
        .map(|&flows| {
            accuracy_over(
                clf,
                (0..reps).map(|rep| {
                    mk(derive_seed(seed, ((flows as u64) << 20) | rep as u64))
                        .with_congestion(CongestionMode::TgCong { flows })
                }),
                CongestionClass::External,
            )
        })
        .collect();

    let self_vs_cross = [1u32, 2, 5]
        .iter()
        .map(|&cross| {
            accuracy_over(
                clf,
                (0..reps).map(|rep| {
                    let mut cfg = mk(derive_seed(
                        seed,
                        0xAC0000 | ((cross as u64) << 8) | rep as u64,
                    ));
                    cfg.access_cross_flows = cross;
                    cfg
                }),
                CongestionClass::SelfInduced,
            )
        })
        .collect();

    MultiplexData {
        external_vs_flows,
        self_vs_cross,
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
        let data = run(&clf, 3, Profile::Scaled, 32);
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
