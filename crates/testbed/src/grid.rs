//! The paper's parameter grid (§3.1) and sweep runner.

use crate::config::{AccessParams, Profile, TestbedConfig};
use crate::runner::{run_test, run_test_observed, TestResult};
use csig_exec::{Campaign, Executor, ProgressEvent, Scenario};
use csig_obs::{MetricsRegistry, Snapshot, TraceBuffer, TraceEvent};

/// Canonical §3.1 grid axes. Every grid in the workspace is built from
/// these values; do not restate the literals elsewhere.
pub mod axes {
    /// Access-link rates, Mbit/s.
    pub const RATES_MBPS: [u64; 3] = [10, 20, 50];
    /// Random-loss rates, percent.
    pub const LOSSES_PCT: [f64; 2] = [0.02, 0.05];
    /// Added last-mile latencies, ms.
    pub const LATENCIES_MS: [u64; 2] = [20, 40];
    /// Access buffer depths, ms.
    pub const BUFFERS_MS: [u64; 3] = [20, 50, 100];
}

/// The §3.1 access-link grid: rate {10, 20, 50} Mbps × loss
/// {0.02, 0.05} % × latency {20, 40} ms × buffer {20, 50, 100} ms.
pub fn paper_grid() -> Vec<AccessParams> {
    let mut grid = Vec::new();
    for &rate_mbps in &axes::RATES_MBPS {
        for &loss_pct in &axes::LOSSES_PCT {
            for &latency_ms in &axes::LATENCIES_MS {
                for &buffer_ms in &axes::BUFFERS_MS {
                    grid.push(AccessParams {
                        rate_mbps,
                        loss_pct,
                        latency_ms,
                        buffer_ms,
                    });
                }
            }
        }
    }
    grid
}

/// A compact grid for quick runs and tests: the first loss/latency
/// point of the paper axes, over all rates and buffers.
pub fn small_grid() -> Vec<AccessParams> {
    let mut grid = Vec::new();
    for &rate_mbps in &axes::RATES_MBPS {
        for &buffer_ms in &axes::BUFFERS_MS {
            grid.push(AccessParams {
                rate_mbps,
                loss_pct: axes::LOSSES_PCT[0],
                latency_ms: axes::LATENCIES_MS[0],
                buffer_ms,
            });
        }
    }
    grid
}

/// One sweep cell — a grid point in one congestion scenario — as a
/// self-contained [`Scenario`].
#[derive(Debug, Clone, Copy)]
pub struct SweepScenario {
    /// The access-link grid point.
    pub access: AccessParams,
    /// Run with an externally congested interconnect?
    pub external: bool,
    /// Fidelity profile.
    pub profile: Profile,
}

impl SweepScenario {
    /// The testbed configuration this cell runs.
    fn config(&self, seed: u64) -> TestbedConfig {
        let mut cfg = self.profile.config(self.access, seed);
        if self.external {
            cfg = cfg.externally_congested();
        }
        cfg
    }

    /// Run this cell with a **fresh per-scenario** metrics registry and,
    /// if `traced`, a fresh trace ring, returning the measurement
    /// together with the scenario's metrics snapshot and trace events
    /// (none without a ring).
    ///
    /// Creating the registry inside the scenario — rather than sharing
    /// one across workers — is what makes campaign-level metrics
    /// jobs-invariant: each scenario's counters depend only on its own
    /// seed, and the executor returns artifacts in submission order, so
    /// merged snapshots are byte-identical at any `--jobs`.
    pub fn observe(&self, seed: u64, traced: bool) -> (TestResult, Snapshot, Vec<TraceEvent>) {
        let reg = MetricsRegistry::new();
        let ring = traced.then(TraceBuffer::new);
        let result = run_test_observed(&self.config(seed), &reg, ring.clone());
        let events = ring.map(|r| r.drain()).unwrap_or_default();
        (result, reg.snapshot(), events)
    }
}

impl Scenario for SweepScenario {
    type Artifact = TestResult;

    fn run(&self, seed: u64) -> TestResult {
        run_test(&self.config(seed))
    }
}

/// Sweep specification.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Access-link grid points.
    pub grid: Vec<AccessParams>,
    /// Repetitions per grid point per scenario (paper: 50).
    pub reps: u32,
    /// Fidelity profile.
    pub profile: Profile,
    /// Base seed; every test derives its own stream from it.
    pub seed: u64,
}

impl Sweep {
    /// The default scaled sweep over the full paper grid.
    pub fn scaled(reps: u32, seed: u64) -> Self {
        Sweep {
            grid: paper_grid(),
            reps,
            profile: Profile::Scaled,
            seed,
        }
    }

    /// The sweep as an executable campaign. Scenario order (and thus
    /// each scenario's derived seed) is grid point × rep ×
    /// {self-induced, external} — the same 1-based tag scheme the
    /// original inline loop used, so per-test results are unchanged.
    pub fn campaign(&self) -> Campaign<SweepScenario> {
        let mut campaign = Campaign::new(self.seed);
        for &access in &self.grid {
            for _rep in 0..self.reps {
                for external in [false, true] {
                    campaign.push(SweepScenario {
                        access,
                        external,
                        profile: self.profile,
                    });
                }
            }
        }
        campaign
    }

    /// Run the sweep on `exec`'s workers. Results come back in campaign
    /// order and are byte-identical for any worker count.
    ///
    /// # Panics
    /// Panics with the failure summary if any test failed.
    pub fn run_with<F: FnMut(ProgressEvent)>(
        &self,
        exec: &Executor,
        progress: F,
    ) -> Vec<TestResult> {
        exec.run_isolated_with_progress(&self.campaign(), progress)
            .expect_artifacts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_has_36_points() {
        let g = paper_grid();
        assert_eq!(g.len(), 36);
        // All distinct.
        let set: std::collections::HashSet<String> = g.iter().map(|a| format!("{a:?}")).collect();
        assert_eq!(set.len(), 36);
    }

    #[test]
    fn small_grid_subset_of_paper_grid_values() {
        let g = small_grid();
        assert_eq!(g.len(), 9);
        for a in g {
            assert!(axes::RATES_MBPS.contains(&a.rate_mbps));
            assert!(axes::BUFFERS_MS.contains(&a.buffer_ms));
            assert!(axes::LOSSES_PCT.contains(&a.loss_pct));
            assert!(axes::LATENCIES_MS.contains(&a.latency_ms));
        }
    }

    #[test]
    fn sweep_counts() {
        let s = Sweep {
            grid: small_grid(),
            reps: 3,
            profile: Profile::Scaled,
            seed: 1,
        };
        assert_eq!(s.campaign().len(), 54);
    }

    #[test]
    fn campaign_seeds_match_the_legacy_tag_scheme() {
        let s = Sweep {
            grid: small_grid(),
            reps: 2,
            profile: Profile::Scaled,
            seed: 0xBEEF,
        };
        for (i, (seed, _)) in s.campaign().iter().enumerate() {
            assert_eq!(*seed, csig_netsim::rng::derive_seed(0xBEEF, i as u64 + 1));
        }
    }

    #[test]
    fn tiny_sweep_produces_balanced_scenarios() {
        let s = Sweep {
            grid: vec![AccessParams::figure1()],
            reps: 2,
            profile: Profile::Scaled,
            seed: 9,
        };
        let mut calls = 0;
        let results = s.run_with(&Executor::sequential(), |_| calls += 1);
        assert_eq!(results.len(), 4);
        assert_eq!(calls, 4);
        let self_count = results
            .iter()
            .filter(|r| r.intended == csig_features::CongestionClass::SelfInduced)
            .count();
        assert_eq!(self_count, 2);
    }

    #[test]
    fn observed_scenario_snapshots_are_deterministic() {
        let sc = SweepScenario {
            access: AccessParams::figure1(),
            external: false,
            profile: Profile::Scaled,
        };
        let (r1, s1, t1) = sc.observe(0xABCD, true);
        let (r2, s2, t2) = sc.observe(0xABCD, true);
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
        // Every metric is a simulation fact, so the snapshot is
        // byte-identical.
        assert_eq!(s1.to_json(), s2.to_json());
        assert!(!s1.is_empty());
        assert_eq!(t1.len(), t2.len());
        for (a, b) in t1.iter().zip(&t2) {
            assert_eq!(a.to_json_line(), b.to_json_line());
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let s = Sweep {
            grid: vec![AccessParams::figure1()],
            reps: 2,
            profile: Profile::Scaled,
            seed: 17,
        };
        let seq = s.run_with(&Executor::sequential(), |_| {});
        let par = s.run_with(&Executor::new(4), |_| {});
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
