//! §6 robustness study: congestion-control variants, queue disciplines
//! and buffer depths.
//!
//! The paper's limitations section argues the technique survives any
//! queueing mechanism that lets RTT grow (e.g. RED) and works with
//! loss-based TCPs, while latency-controlling TCPs like BBR "might
//! confound" it. This module measures all three claims.

use csig_core::{ground_truth_confusion, SignatureClassifier};
use csig_exec::{Campaign, Executor};
use csig_features::CongestionClass;
use csig_netsim::rng::derive_seed;
use csig_netsim::QueueKind;
use csig_tcp::CcKind;
use csig_testbed::{run_test, AccessParams, Profile, TestbedConfig};

/// One robustness row.
#[derive(Debug, Clone)]
pub struct VariantRow {
    /// What was varied.
    pub variant: String,
    /// Self-induced-scenario accuracy.
    pub self_accuracy: f64,
    /// External-scenario accuracy.
    pub external_accuracy: f64,
    /// Classifiable flows per scenario.
    pub n: usize,
}

/// Run the §6 robustness sweep: CC variant × queue discipline, plus a
/// buffer-depth sweep (1–5 × BDP-ish via the paper's buffer grid), as
/// one campaign on `exec`. Every row runs `reps` self-induced and
/// `reps` external tests, each seeded `derive_seed(row_seed, rep << 1 |
/// external)`.
pub fn run(clf: &SignatureClassifier, reps: u32, seed: u64, exec: &Executor) -> Vec<VariantRow> {
    // (label, row seed, self-induced config; its seed is set per test).
    let mut variants: Vec<(String, u64, TestbedConfig)> = Vec::new();
    let base = AccessParams::figure1();

    for cc in [CcKind::NewReno, CcKind::Cubic, CcKind::BbrLite] {
        for (qname, queue, tag) in [
            ("drop-tail", QueueKind::DropTail, 0),
            ("RED", QueueKind::Red(Default::default()), 1),
        ] {
            // Only the measured flow's stack varies; the background
            // stays on the default (the Internet does not switch
            // algorithms with you).
            let cfg = TestbedConfig {
                cc,
                queue,
                ..Profile::Scaled.config(base, 0)
            };
            variants.push((
                format!("{} / {}", cc.name(), qname),
                derive_seed(seed, cc as u64 * 31 + tag),
                cfg,
            ));
        }
    }

    // Buffer-depth sweep with the default stack (the §6 "1–5× BDP"
    // claim): BDP at 20 Mbps / ~46 ms RTT ≈ 115 kB ≈ 46 ms of buffer.
    for buffer_ms in [20u64, 50, 100, 150, 200] {
        variants.push((
            format!("buffer {buffer_ms} ms"),
            derive_seed(seed, 0xB0F + buffer_ms),
            Profile::Scaled.config(AccessParams { buffer_ms, ..base }, 0),
        ));
    }

    let mut campaign = Campaign::new(seed);
    for (_, row_seed, cfg) in &variants {
        for rep in 0..reps {
            for external in [false, true] {
                let cell = if external {
                    cfg.clone().externally_congested()
                } else {
                    cfg.clone()
                };
                campaign.push_seeded(
                    derive_seed(*row_seed, (rep as u64) << 1 | external as u64),
                    move |seed| {
                        run_test(&TestbedConfig {
                            seed,
                            ..cell.clone()
                        })
                    },
                );
            }
        }
    }
    let results = exec
        .run_isolated_with_progress(&campaign, |_| {})
        .expect_artifacts();

    let per_row = 2 * reps as usize;
    variants
        .into_iter()
        .enumerate()
        .map(|(i, (variant, _, _))| {
            let cm = ground_truth_confusion(clf, &results[i * per_row..(i + 1) * per_row]);
            let s = CongestionClass::SelfInduced.index();
            let e = CongestionClass::External.index();
            VariantRow {
                variant,
                self_accuracy: cm.recall(s).unwrap_or(0.0),
                external_accuracy: cm.recall(e).unwrap_or(0.0),
                n: cm.support(s).min(cm.support(e)),
            }
        })
        .collect()
}

/// Print the robustness table.
pub fn print(rows: &[VariantRow]) {
    println!("§6 robustness — per-scenario accuracy under variants");
    println!(
        "  {:>22} {:>10} {:>10} {:>4}",
        "variant", "self", "external", "n"
    );
    for r in rows {
        println!(
            "  {:>22} {:>9.0}% {:>9.0}% {:>4}",
            r.variant,
            r.self_accuracy * 100.0,
            r.external_accuracy * 100.0,
            r.n
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispute::testbed_model_with;
    use csig_exec::Executor;

    #[test]
    fn loss_based_stacks_stay_accurate_bbr_may_not() {
        let exec = Executor::sequential();
        let clf = testbed_model_with(4, Profile::Scaled, 71, &exec);
        let rows = run(&clf, 3, 72, &exec);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.variant.starts_with(name))
                .expect("row")
        };
        // NewReno and CUBIC on drop-tail keep strong self-accuracy.
        assert!(get("newreno / drop-tail").self_accuracy >= 0.6);
        assert!(get("cubic / drop-tail").self_accuracy >= 0.6);
        // RED still produces RTT growth → self flows stay identifiable.
        assert!(get("newreno / RED").self_accuracy >= 0.5);
        // The buffer-depth sweep includes deep buffers where the
        // signature is strongest.
        assert!(get("buffer 100 ms").self_accuracy >= 0.6);
        assert!(get("buffer 200 ms").self_accuracy >= 0.6);
    }
}
