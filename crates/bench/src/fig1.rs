//! Figure 1: CDFs of (max − min) slow-start RTT and slow-start RTT CoV
//! for self-induced vs external congestion.
//!
//! Paper setting: a 20 Mbps emulated access link with a 100 ms buffer
//! and 20 ms added latency (zero loss), served by the interconnect; 50
//! tests per scenario. Self-induced flows should show a max−min close
//! to the 100 ms buffer depth and clearly higher CoV.

use csig_exec::{Campaign, Executor, ProgressEvent};
use csig_netsim::rng::derive_seed;
use csig_obs::{MetricsRegistry, Snapshot, TraceEvent};
use csig_testbed::{AccessParams, Profile, SweepScenario, TestResult};

/// One flow's Figure-1 metrics.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Point {
    /// max − min slow-start RTT, ms.
    pub max_minus_min_ms: f64,
    /// Slow-start RTT coefficient of variation.
    pub cov: f64,
}

/// Both scenarios' point clouds.
#[derive(Debug, Clone, Default)]
pub struct Fig1Data {
    /// Self-induced-scenario flows.
    pub self_induced: Vec<Fig1Point>,
    /// External-scenario flows.
    pub external: Vec<Fig1Point>,
}

/// The Figure-1 campaign: `reps` tests per scenario on the figure-1
/// access point, interleaved self/external. Each test keeps its bespoke
/// seed `derive_seed(seed, rep << 1 | external)` from the original
/// loop, so measurements are unchanged.
pub fn campaign(reps: u32, profile: Profile, seed: u64) -> Campaign<SweepScenario> {
    let mut campaign = Campaign::new(seed);
    for rep in 0..reps {
        for external in [false, true] {
            campaign.push_seeded(
                derive_seed(seed, (rep as u64) << 1 | external as u64),
                SweepScenario {
                    access: AccessParams::figure1(),
                    external,
                    profile,
                },
            );
        }
    }
    campaign
}

/// Fold executor artifacts into the two Figure-1 point clouds.
pub fn collect(results: &[TestResult]) -> Fig1Data {
    let mut data = Fig1Data::default();
    for r in results {
        if let Ok(f) = &r.features {
            let point = Fig1Point {
                max_minus_min_ms: f.max_rtt_ms - f.min_rtt_ms,
                cov: f.cov,
            };
            if r.intended == csig_features::CongestionClass::External {
                data.external.push(point);
            } else {
                data.self_induced.push(point);
            }
        }
    }
    data
}

/// Figure-1 results together with the campaign's observability.
#[derive(Debug, Clone)]
pub struct Fig1Observed {
    /// Both scenarios' point clouds.
    pub data: Fig1Data,
    /// Merged campaign metrics: executor counters plus every
    /// scenario's snapshot absorbed in submission order.
    pub metrics: Snapshot,
    /// Trace events from all scenarios, each tagged with its campaign
    /// index, concatenated in submission order; empty unless the run
    /// was traced.
    pub trace: Vec<TraceEvent>,
}

/// Run the Figure-1 experiment with `reps` tests per scenario on
/// `exec`'s workers. Every cell runs with its
/// own registry, and the per-cell snapshots are merged into one
/// campaign registry with the executor's own counters. With `traced`,
/// every cell also gets a trace ring and the events are collected.
///
/// The figure data does not depend on `traced`, and data, metrics and
/// trace are byte-identical across same-seed runs at any worker count.
///
/// # Panics
/// Panics with the failure summary if any test failed.
pub fn run_with<F: FnMut(ProgressEvent)>(
    reps: u32,
    profile: Profile,
    seed: u64,
    traced: bool,
    exec: &Executor,
    progress: F,
) -> Fig1Observed {
    let mut observed = Campaign::new(seed);
    for &(scenario_seed, sc) in campaign(reps, profile, seed).iter() {
        observed.push_seeded(scenario_seed, move |s| sc.observe(s, traced));
    }
    let reg = MetricsRegistry::new();
    let run = exec.run_isolated_with_progress(&observed, progress);
    run.export_metrics(&reg);
    let artifacts = run.expect_artifacts();
    let mut results = Vec::with_capacity(artifacts.len());
    let mut trace = Vec::new();
    for (i, (result, snapshot, events)) in artifacts.into_iter().enumerate() {
        reg.absorb(&snapshot);
        trace.extend(
            events
                .into_iter()
                .map(|e| e.field("campaign_index", i as u64)),
        );
        results.push(result);
    }
    Fig1Observed {
        data: collect(&results),
        metrics: reg.snapshot(),
        trace,
    }
}

/// Print the two CDFs as aligned percentile tables.
pub fn print(data: &Fig1Data) {
    let pct = |v: &[f64], p: f64| csig_features::percentile(v, p).unwrap_or(f64::NAN);
    let series = |pts: &[Fig1Point]| {
        let mm: Vec<f64> = pts.iter().map(|p| p.max_minus_min_ms).collect();
        let cov: Vec<f64> = pts.iter().map(|p| p.cov).collect();
        (mm, cov)
    };
    let (smm, scov) = series(&data.self_induced);
    let (emm, ecov) = series(&data.external);
    println!("Figure 1a — max−min slow-start RTT (ms), CDF percentiles");
    println!("  {:>6} {:>10} {:>10}", "pct", "self", "external");
    for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
        println!(
            "  {:>5.0}% {:>10.1} {:>10.1}",
            p,
            pct(&smm, p),
            pct(&emm, p)
        );
    }
    println!("Figure 1b — slow-start RTT CoV, CDF percentiles");
    println!("  {:>6} {:>10} {:>10}", "pct", "self", "external");
    for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
        println!(
            "  {:>5.0}% {:>10.3} {:>10.3}",
            p,
            pct(&scov, p),
            pct(&ecov, p)
        );
    }
    println!(
        "  n_self={} n_external={}",
        data.self_induced.len(),
        data.external.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_matches_untraced_and_is_jobs_invariant() {
        let run = |traced, exec: &Executor| run_with(2, Profile::Scaled, 21, traced, exec, |_| {});
        let plain = run(false, &Executor::sequential());
        let seq = run(true, &Executor::sequential());
        let par = run(true, &Executor::new(4));
        // Figure data and metrics unchanged by the trace rings, apart
        // from the ring's own eviction count.
        assert_eq!(format!("{:?}", plain.data), format!("{:?}", seq.data));
        assert!(plain.trace.is_empty());
        assert_eq!(seq.metrics.counter("trace.dropped"), Some(0));
        let mut ringless = seq.metrics.clone();
        ringless.entries.retain(|e| e.name != "trace.dropped");
        assert_eq!(plain.metrics, ringless);
        // Metrics identical across worker counts.
        assert_eq!(seq.metrics.to_json(), par.metrics.to_json());
        assert!(seq.metrics.counter("sim.events").unwrap_or(0) > 0);
        assert!(seq.metrics.counter("rtt.samples").unwrap_or(0) > 0);
        assert!(seq.metrics.counter("flows.features_ok").unwrap_or(0) > 0);
        assert_eq!(seq.metrics.counter("exec.scenarios_ok"), Some(4));
        // Traces are identical too (sim-time only, no wall clock).
        assert!(!seq.trace.is_empty());
        assert_eq!(
            seq.trace
                .iter()
                .map(|e| e.to_json_line())
                .collect::<Vec<_>>(),
            par.trace
                .iter()
                .map(|e| e.to_json_line())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn figure1_shape_holds() {
        let exec = Executor::sequential();
        let data = run_with(3, Profile::Scaled, 11, false, &exec, |_| {}).data;
        assert!(data.self_induced.len() >= 2);
        assert!(data.external.len() >= 2);
        let med = |v: Vec<f64>| csig_features::median(&v).unwrap();
        let self_mm = med(data
            .self_induced
            .iter()
            .map(|p| p.max_minus_min_ms)
            .collect());
        let ext_mm = med(data.external.iter().map(|p| p.max_minus_min_ms).collect());
        // Self-induced flows fill the ~100 ms buffer; external flows
        // see a much smaller swing.
        assert!(self_mm > 80.0, "self max-min {self_mm}");
        assert!(ext_mm < self_mm, "external {ext_mm} vs self {self_mm}");
        let self_cov = med(data.self_induced.iter().map(|p| p.cov).collect());
        let ext_cov = med(data.external.iter().map(|p| p.cov).collect());
        assert!(self_cov > ext_cov);
    }
}
