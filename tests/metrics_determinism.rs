//! Observability-layer integration tests: campaign metrics must be
//! deterministic wherever the underlying quantities are.
//!
//! * The same seed at `--jobs 1` and `--jobs 4` must produce
//!   byte-identical **per-scenario** deterministic metrics snapshots —
//!   per-scenario registries are created inside the scenario, so no
//!   counter can observe worker scheduling.
//! * The merged campaign snapshot (per-scenario snapshots absorbed into
//!   one registry) must likewise be byte-identical, after stripping the
//!   wall-clock timers via [`csig_obs::Snapshot::deterministic`].
//! * The headline counters the paper pipeline depends on — simulator
//!   events, RTT samples, verdicts — must actually be non-empty.

use csig_exec::{Campaign, Executor, Scenario};
use csig_obs::{MetricsRegistry, Snapshot, TraceEvent};
use csig_testbed::{AccessParams, Profile, SweepScenario, TestResult};

/// A small interleaved self/external campaign on the figure-1 point,
/// each cell observed through its own registry and trace buffer.
fn campaign(
    reps: u32,
    seed: u64,
) -> Campaign<impl Scenario<Artifact = (TestResult, Snapshot, Vec<TraceEvent>)> + Sync> {
    let mut campaign = Campaign::new(seed);
    for _ in 0..reps {
        for external in [false, true] {
            let sc = SweepScenario {
                access: AccessParams::figure1(),
                external,
                profile: Profile::Scaled,
            };
            campaign.push(move |s| sc.run_observed(s));
        }
    }
    campaign
}

#[test]
fn per_scenario_metrics_are_jobs_invariant() {
    let reg1 = MetricsRegistry::new();
    let reg4 = MetricsRegistry::new();
    let seq = Executor::new(1)
        .run_observed_with_progress(&campaign(3, 0x0B5), &reg1, |_| {})
        .expect_artifacts();
    let par = Executor::new(4)
        .run_observed_with_progress(&campaign(3, 0x0B5), &reg4, |_| {})
        .expect_artifacts();
    assert_eq!(seq.len(), par.len());

    for (i, ((r1, s1, t1), (r4, s4, t4))) in seq.iter().zip(&par).enumerate() {
        // The measurement itself is jobs-invariant (pre-existing
        // contract), and so is every per-scenario snapshot and trace.
        assert_eq!(format!("{r1:?}"), format!("{r4:?}"), "result {i}");
        assert_eq!(
            s1.deterministic().to_json(),
            s4.deterministic().to_json(),
            "scenario {i} deterministic snapshot depends on --jobs"
        );
        let l1: Vec<String> = t1.iter().map(|e| e.to_json_line()).collect();
        let l4: Vec<String> = t4.iter().map(|e| e.to_json_line()).collect();
        assert_eq!(l1, l4, "scenario {i} trace depends on --jobs");
        // The snapshots carry real content.
        assert!(s1.counter("sim.events").unwrap_or(0) > 0, "scenario {i}");
        assert!(s1.counter("rtt.samples").unwrap_or(0) > 0, "scenario {i}");
        assert_eq!(
            s1.counter("flows.verdicts").unwrap_or(0)
                + s1.counter("flows.skips_insufficient").unwrap_or(0),
            1,
            "scenario {i} must be counted exactly once"
        );
    }

    // Merged campaign view: absorb per-scenario snapshots in submission
    // order and compare the deterministic subset byte-for-byte — the
    // same merge `fig1 --metrics-out` writes.
    for (_, snap, _) in &seq {
        reg1.absorb(snap);
    }
    for (_, snap, _) in &par {
        reg4.absorb(snap);
    }
    let merged1 = reg1.snapshot().deterministic();
    let merged4 = reg4.snapshot().deterministic();
    assert_eq!(merged1.to_json(), merged4.to_json());
    assert!(!merged1.is_empty());
    assert_eq!(merged1.counter("exec.scenarios_ok"), Some(6));
    assert!(merged1.counter("flows.verdicts").unwrap_or(0) > 0);
    // The raw (non-deterministic) snapshot does carry wall-clock
    // timers; determinism is a property of the stripped view only.
    assert!(reg1.snapshot().histogram("time.scenario_wall_us").is_some());
    assert!(merged1.histogram("time.scenario_wall_us").is_none());
}
