//! Robustness-layer integration tests: fault-injection determinism
//! across worker counts, and campaign-level panic isolation.
//!
//! * A seeded [`FaultPlan`] must produce a byte-identical impairment
//!   trace whether the campaign runs on 1 worker or 8 — impairment
//!   randomness comes only from the scenario seed.
//! * A scenario that panics mid-campaign, by hand or by exhausting its
//!   simulator's event budget, must surface as a structured
//!   [`ScenarioError`] while every other scenario's artifact stays
//!   byte-identical to a run that never contained the bad scenarios —
//!   at any worker count.

use csig_exec::{Campaign, CampaignRun, Executor, Scenario};
use csig_netsim::{
    FaultPlan, GilbertElliott, ImpairmentRecord, LinkConfig, SimDuration, SimTime, Simulator,
};
use csig_tcp::{ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent};

/// One impaired TCP download: a server→client transfer over a duplex
/// link whose downstream direction carries the full fault menu (bursty
/// loss, reordering, duplication, a mid-flow flap).
#[derive(Clone, Copy)]
struct ImpairedTransfer {
    /// The simulator's event budget: too small a one makes the run
    /// panic in `expect_within_budget()`.
    event_budget: u64,
}

/// A transfer whose budget is ample for the whole download.
const TRANSFER: ImpairedTransfer = ImpairedTransfer {
    event_budget: 50_000_000,
};

/// The artifact: the impairment log plus a digest of what the client
/// actually received — both must be independent of worker scheduling.
type TransferArtifact = (Vec<ImpairmentRecord>, u64, u64);

impl Scenario for ImpairedTransfer {
    type Artifact = TransferArtifact;

    fn run(&self, seed: u64) -> TransferArtifact {
        let mut sim = Simulator::new(seed);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            TcpConfig::default(),
            ServerSendPolicy::Fixed(400_000),
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            TcpConfig::default(),
            ClientBehavior::Once,
            7,
        )));
        let (down, _up) = sim.add_duplex_link(
            server,
            client,
            LinkConfig::new(10_000_000, SimDuration::from_millis(10)).buffer_ms(100),
        );
        sim.attach_fault_plan(
            down,
            FaultPlan::new()
                .gilbert_elliott(GilbertElliott::bursty(6.0, 0.01))
                .reorder(0.01, SimDuration::from_millis(2))
                .duplicate(0.002)
                .down_between(SimTime::from_millis(150), SimTime::from_millis(180)),
        );
        sim.compute_routes();
        sim.set_event_budget(self.event_budget);
        sim.run().expect_within_budget();
        let stats = &sim.link(down).stats;
        (
            sim.fault_log(down).to_vec(),
            stats.dropped_total(),
            stats.delivered_bytes,
        )
    }
}

#[test]
fn fault_plans_are_jobs_invariant() {
    let mut campaign = Campaign::new(0xFA17);
    for _ in 0..6 {
        campaign.push(TRANSFER);
    }
    let seq = Executor::new(1)
        .run_isolated_with_progress(&campaign, |_| {})
        .expect_artifacts();
    let par = Executor::new(8)
        .run_isolated_with_progress(&campaign, |_| {})
        .expect_artifacts();
    assert_eq!(
        format!("{seq:?}"),
        format!("{par:?}"),
        "impairment traces depend on jobs"
    );
    // The plans actually fired: every scenario logged impairments and
    // lost something (GE loss + a flap over a 400 kB transfer).
    for (log, dropped, delivered) in &seq {
        assert!(!log.is_empty(), "no impairments logged");
        assert!(*dropped > 0, "nothing dropped");
        assert!(*delivered > 0, "nothing delivered");
    }
    // Different seeds produce different impairment sequences (the log
    // is seed-derived, not constant).
    assert_ne!(seq[0].0, seq[1].0);
}

#[test]
fn panicking_scenario_is_isolated_and_rest_is_byte_identical() {
    // Suppress the default panic-hook backtrace noise from the
    // deliberately panicking worker.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // One scenario panics outright; another runs out of events, the
    // deterministic guard against a runaway simulation.
    let bad_index = 3;
    let starved_index = 6;
    let mut full = Campaign::new(0);
    let mut clean = Campaign::new(0);
    for i in 0..8u64 {
        // Seeds fixed at submission so removing the bad scenarios does
        // not shift anyone else's seed.
        let seed = 0x5EED_0000 + i;
        let scenario = move |s: u64| {
            if i == bad_index {
                panic!("deliberate failure in scenario {i}");
            }
            let event_budget = if i == starved_index {
                100
            } else {
                TRANSFER.event_budget
            };
            ImpairedTransfer { event_budget }.run(s)
        };
        full.push_seeded(seed, scenario);
        if i != bad_index && i != starved_index {
            clean.push_seeded(seed, scenario);
        }
    }

    let seq = Executor::new(1).run_isolated_with_progress(&full, |_| {});
    let par = Executor::new(4).run_isolated_with_progress(&full, |_| {});
    std::panic::set_hook(hook);

    // Failures carry what reproduces them, and only their wall-clock
    // `elapsed` may differ between worker counts.
    let failed = |run: &CampaignRun<_>| -> Vec<(usize, u64, String)> {
        run.failures()
            .iter()
            .map(|e| (e.index, e.seed, e.message.clone()))
            .collect()
    };
    let failures = failed(&par);
    assert_eq!(failed(&seq), failures, "failures depend on jobs");
    assert_eq!(failures.len(), 2);
    assert_eq!(failures[0].0, bad_index as usize);
    assert_eq!(failures[0].1, 0x5EED_0000 + bad_index);
    assert!(failures[0].2.contains("deliberate failure"));
    assert_eq!(failures[1].0, starved_index as usize);
    assert_eq!(failures[1].1, 0x5EED_0000 + starved_index);
    assert!(
        failures[1].2.contains("event budget exhausted"),
        "{}",
        failures[1].2
    );
    for e in par.failures() {
        assert!(e.to_string().contains("panicked"), "{e}");
    }
    assert!(par.summary().contains("2/8 scenarios failed"));

    // Every surviving artifact is byte-identical to a campaign that
    // never contained the failing scenarios, at either worker count.
    let reference = Executor::new(2)
        .run_isolated_with_progress(&clean, |_| {})
        .expect_artifacts();
    for (jobs, run) in [(1, seq), (4, par)] {
        assert_eq!(
            format!("{:?}", run.artifacts()),
            format!("{reference:?}"),
            "panic isolation perturbed surviving artifacts at jobs={jobs}"
        );
    }
}
