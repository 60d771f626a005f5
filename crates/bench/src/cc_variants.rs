//! §6 robustness study: congestion-control variants, queue disciplines
//! and buffer depths.
//!
//! The paper's limitations section argues the technique survives any
//! queueing mechanism that lets RTT grow (e.g. RED) and works with
//! loss-based TCPs, while latency-controlling TCPs like BBR "might
//! confound" it. This module measures all three claims.

use csig_core::SignatureClassifier;
use csig_features::CongestionClass;
use csig_netsim::rng::derive_seed;
use csig_netsim::QueueKind;
use csig_tcp::CcKind;
use csig_testbed::{run_test, AccessParams, TestbedConfig};
use serde::{Deserialize, Serialize};

/// One robustness row.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

fn accuracy(
    clf: &SignatureClassifier,
    mut mk: impl FnMut(u64, bool) -> TestbedConfig,
    reps: u32,
    seed: u64,
) -> (f64, f64, usize) {
    let mut counts = [[0usize; 2]; 2];
    for rep in 0..reps {
        for external in [false, true] {
            let cfg = mk(
                derive_seed(seed, (rep as u64) << 1 | external as u64),
                external,
            );
            let r = run_test(&cfg);
            if let Ok(f) = &r.features {
                let pred = clf.classify(f);
                counts[external as usize][(pred == CongestionClass::External) as usize] += 1;
            }
        }
    }
    let self_n = counts[0][0] + counts[0][1];
    let ext_n = counts[1][0] + counts[1][1];
    (
        counts[0][0] as f64 / self_n.max(1) as f64,
        counts[1][1] as f64 / ext_n.max(1) as f64,
        self_n.min(ext_n),
    )
}

/// Run the §6 robustness sweep: CC variant × queue discipline, plus a
/// buffer-depth sweep (1–5 × BDP-ish via the paper's buffer grid).
pub fn run(clf: &SignatureClassifier, reps: u32, seed: u64) -> Vec<VariantRow> {
    let mut rows = Vec::new();
    let base = AccessParams::figure1();

    for cc in [CcKind::NewReno, CcKind::Cubic, CcKind::BbrLite] {
        for (qname, queue) in [
            ("drop-tail", QueueKind::DropTail),
            ("RED", QueueKind::Red(Default::default())),
        ] {
            let (self_acc, ext_acc, n) = accuracy(
                clf,
                |s, external| {
                    let mut cfg = TestbedConfig::scaled(base, s);
                    cfg.tcp.cc = cc;
                    // Only the measured flow's stack varies; the
                    // background stays on the default (the Internet does
                    // not switch algorithms with you).
                    cfg.cross_tcp = Some(csig_tcp::TcpConfig {
                        record_samples: false,
                        ..csig_tcp::TcpConfig::default()
                    });
                    cfg.queue = queue;
                    if external {
                        cfg = cfg.externally_congested();
                    }
                    cfg
                },
                reps,
                derive_seed(seed, cc as u64 * 31 + queue_tag(queue)),
            );
            rows.push(VariantRow {
                variant: format!("{} / {}", cc.name(), qname),
                self_accuracy: self_acc,
                external_accuracy: ext_acc,
                n,
            });
        }
    }

    // Buffer-depth sweep with the default stack (the §6 "1–5× BDP"
    // claim): BDP at 20 Mbps / ~46 ms RTT ≈ 115 kB ≈ 46 ms of buffer.
    for buffer_ms in [20u64, 50, 100, 150, 200] {
        let access = AccessParams { buffer_ms, ..base };
        let (self_acc, ext_acc, n) = accuracy(
            clf,
            |s, external| {
                let mut cfg = TestbedConfig::scaled(access, s);
                if external {
                    cfg = cfg.externally_congested();
                }
                cfg
            },
            reps,
            derive_seed(seed, 0xB0F + buffer_ms),
        );
        rows.push(VariantRow {
            variant: format!("buffer {buffer_ms} ms"),
            self_accuracy: self_acc,
            external_accuracy: ext_acc,
            n,
        });
    }
    rows
}

fn queue_tag(q: QueueKind) -> u64 {
    match q {
        QueueKind::DropTail => 0,
        QueueKind::Red(_) => 1,
    }
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
    use csig_testbed::Profile;

    #[test]
    fn loss_based_stacks_stay_accurate_bbr_may_not() {
        let clf = testbed_model_with(4, Profile::Scaled, 71, &Executor::sequential());
        let rows = run(&clf, 3, 72);
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
