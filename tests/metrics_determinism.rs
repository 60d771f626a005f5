//! Observability-layer integration tests: campaign metrics must be
//! deterministic wherever the underlying quantities are.
//!
//! * The same seed at `--jobs 1` and `--jobs 4` must produce
//!   byte-identical **per-scenario** deterministic metrics snapshots —
//!   per-scenario registries are created inside the scenario, so no
//!   counter can observe worker scheduling.
//! * The merged campaign snapshot (per-scenario snapshots absorbed into
//!   one registry) must likewise be byte-identical.
//! * The headline counters the paper pipeline depends on — simulator
//!   events, RTT samples, flows with features — must actually be
//!   non-empty.
//! * The simulator's packet counters close the ledger on real
//!   Figure-1 cells: every sent or injected packet was delivered,
//!   dropped or is still in flight at the horizon.

use csig_exec::{Campaign, Executor, Scenario};
use csig_obs::{MetricsRegistry, Snapshot, TraceEvent};
use csig_testbed::{build, AccessParams, Profile, SweepScenario, TestResult, DRAIN_TAIL};

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
            campaign.push(move |s| sc.observe(s, true));
        }
    }
    campaign
}

#[test]
fn per_scenario_metrics_are_jobs_invariant() {
    let reg1 = MetricsRegistry::new();
    let reg4 = MetricsRegistry::new();
    let run1 = Executor::new(1).run_isolated_with_progress(&campaign(3, 0x0B5), |_| {});
    let run4 = Executor::new(4).run_isolated_with_progress(&campaign(3, 0x0B5), |_| {});
    run1.export_metrics(&reg1);
    run4.export_metrics(&reg4);
    let seq = run1.expect_artifacts();
    let par = run4.expect_artifacts();
    assert_eq!(seq.len(), par.len());

    for (i, ((r1, s1, t1), (r4, s4, t4))) in seq.iter().zip(&par).enumerate() {
        // The measurement itself is jobs-invariant (pre-existing
        // contract), and so is every per-scenario snapshot and trace.
        assert_eq!(format!("{r1:?}"), format!("{r4:?}"), "result {i}");
        assert_eq!(
            s1.to_json(),
            s4.to_json(),
            "scenario {i} snapshot depends on --jobs"
        );
        let l1: Vec<String> = t1.iter().map(|e| e.to_json_line()).collect();
        let l4: Vec<String> = t4.iter().map(|e| e.to_json_line()).collect();
        assert_eq!(l1, l4, "scenario {i} trace depends on --jobs");
        // The snapshots carry real content.
        assert!(s1.counter("sim.events").unwrap_or(0) > 0, "scenario {i}");
        assert!(s1.counter("rtt.samples").unwrap_or(0) > 0, "scenario {i}");
        assert_eq!(
            s1.counter("flows.features_ok").unwrap_or(0)
                + s1.counter("flows.skips_insufficient").unwrap_or(0),
            1,
            "scenario {i} must be counted exactly once"
        );
    }

    // Merged campaign view: absorb per-scenario snapshots in submission
    // order and compare byte-for-byte — the same merge
    // `fig1 --metrics-out` writes.
    for (_, snap, _) in &seq {
        reg1.absorb(snap);
    }
    for (_, snap, _) in &par {
        reg4.absorb(snap);
    }
    let merged1 = reg1.snapshot();
    let merged4 = reg4.snapshot();
    assert_eq!(merged1.to_json(), merged4.to_json());
    assert!(!merged1.is_empty());
    assert_eq!(merged1.counter("exec.scenarios_ok"), Some(6));
    assert!(merged1.counter("flows.features_ok").unwrap_or(0) > 0);
}

#[test]
fn figure1_cells_balance_the_packet_ledger() {
    for external in [false, true] {
        let mut cfg = Profile::Scaled.config(AccessParams::figure1(), 2);
        if external {
            cfg = cfg.externally_congested();
        }
        let mut tb = build(&cfg);
        let reg = MetricsRegistry::new();
        tb.sim.attach_obs(&reg);
        tb.sim
            .run_until(tb.test_end + DRAIN_TAIL)
            .expect_within_budget();
        let snap = reg.snapshot();
        let count = |name| snap.counter(name).unwrap_or(0);
        let in_flight = tb.sim.packets_in_flight() as u64;
        assert!(count("sim.packets_dropped") > 0, "external={external}");
        assert!(in_flight > 0, "horizon cuts traffic mid-flight");
        assert_eq!(
            count("sim.packets_sent") + count("sim.packets_injected"),
            count("sim.packets_delivered") + count("sim.packets_dropped") + in_flight,
            "external={external}: sent + injected = delivered + dropped + in flight"
        );
    }
}
