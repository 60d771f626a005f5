//! `testbed_fig1`: the Figure-1 campaign on the scaled Figure-2 testbed.
//!
//! Self-induced and externally congested cells alternate at the
//! Figure-1 access point. End-to-end passes run each cell through
//! `run_test` (the `SweepScenario` path every `fig*` binary takes);
//! traced passes repeat `run_test`'s public steps — `build`, attach the
//! probe tap, `run_until(test_end + 500 ms)`, `features` — with the tap
//! wrapped in a timer, and must reproduce the same events and features.

use crate::alloc::allocations;
use crate::harness::{
    execute, fnv1a, span, Classified, Counts, Pass, Quality, ScenarioTrace, Times, TracedPass,
    Workload,
};
use crate::reference::Reference;
use crate::timed::{elapsed_ns, SpanLog, TimedSink};
use csig_exec::{Campaign, Scenario};
use csig_features::{median, CongestionClass, FeatureError, FlowFeatures, FlowProbe};
use csig_netsim::rng::derive_seed;
use csig_netsim::SimDuration;
use csig_obs::MetricsRegistry;
use csig_tcp::TcpServerAgent;
use csig_testbed::{
    build, AccessParams, Profile, SweepScenario, TestResult, TestbedConfig, TEST_FLOW,
};
use std::hint::black_box;
use std::time::Instant;

/// Cells of each kind per pass: 16 self-induced and 16 external, so a
/// pass holds enough external cells (a third of which end slow start
/// with too few RTT samples for features) for steady output quality.
const REPS: u64 = 16;
/// Distinct campaigns a run cycles through: whether an external cell
/// yields features depends on its seed, so output quality over a few
/// 32-cell campaigns moves with the seed by a cell or two.
const CAMPAIGNS: usize = 4;
/// Seed stream of the campaigns within the workload seed.
const CAMPAIGN_STREAM: u64 = 0xF161;
/// Figure 1a: self-induced flows fill most of the 100 ms access buffer.
const MIN_SELF_SWING_MS: f64 = 80.0;

/// The workload for one seed.
pub struct TestbedFig1 {
    seed: u64,
}

impl TestbedFig1 {
    /// The workload whose inputs derive from `seed`.
    pub fn new(seed: u64) -> Self {
        TestbedFig1 { seed }
    }

    /// `(scenario seed, external)` per cell of campaign `index`, self and
    /// external alternating, each seeded the way `fig1` seeds its cells.
    fn cells(&self, index: usize) -> Vec<(u64, bool)> {
        let master = derive_seed(derive_seed(self.seed, CAMPAIGN_STREAM), index as u64);
        (0..REPS)
            .flat_map(|rep| {
                [false, true].map(|ext| (derive_seed(master, rep << 1 | ext as u64), ext))
            })
            .collect()
    }

    fn campaign(&self, index: usize) -> Campaign<SweepScenario> {
        let mut campaign = Campaign::new(self.seed);
        for (seed, external) in self.cells(index) {
            campaign.push_seeded(
                seed,
                SweepScenario {
                    access: AccessParams::figure1(),
                    external,
                    profile: Profile::Scaled,
                },
            );
        }
        campaign
    }

    fn traced_campaign(&self) -> Campaign<TracedCell> {
        let mut campaign = Campaign::new(self.seed);
        for (seed, external) in self.cells(0) {
            campaign.push_seeded(seed, TracedCell { external });
        }
        campaign
    }
}

/// The configuration `SweepScenario` runs for a Figure-1 cell.
fn cell_config(external: bool, seed: u64) -> TestbedConfig {
    let cfg = Profile::Scaled.config(AccessParams::figure1(), seed);
    if external {
        cfg.externally_congested()
    } else {
        cfg
    }
}

/// Fingerprint shared by the untraced and traced artifact of a cell.
fn key(events: u64, features: &Result<FlowFeatures, FeatureError>) -> u64 {
    fnv1a(format!("{events}|{features:?}").as_bytes())
}

/// Figure-1 shape: self-induced median max−min RTT of at least 80 ms,
/// and a higher self-induced than external median CoV.
fn figure1_shape(self_pts: &[(f64, f64)], ext_pts: &[(f64, f64)]) -> Result<(), String> {
    let med = |pts: &[(f64, f64)], f: fn(&(f64, f64)) -> f64| {
        median(&pts.iter().map(f).collect::<Vec<_>>())
    };
    let (Some(self_swing), Some(self_cov), Some(ext_cov)) = (
        med(self_pts, |p| p.0),
        med(self_pts, |p| p.1),
        med(ext_pts, |p| p.1),
    ) else {
        return Err("Figure-1 shape: a scenario kind has no flow with features".into());
    };
    if self_swing < MIN_SELF_SWING_MS {
        return Err(format!(
            "Figure-1 shape: self-induced median max-min RTT {self_swing:.1} ms < {MIN_SELF_SWING_MS} ms"
        ));
    }
    if self_cov <= ext_cov {
        return Err(format!(
            "Figure-1 shape: self-induced median CoV {self_cov:.4} <= external {ext_cov:.4}"
        ));
    }
    Ok(())
}

impl Workload for TestbedFig1 {
    type Product = Reference;
    const SETUP_REPS: usize = 3;
    const CAMPAIGNS: usize = CAMPAIGNS;

    fn setup(&self, tick: &mut dyn FnMut()) -> Reference {
        Reference::train(self.seed, tick)
    }

    fn inspect(&self, reference: &Reference) -> Result<(String, f64), String> {
        reference.inspect()
    }

    fn pass(
        &self,
        reference: &Reference,
        campaign: usize,
        digest: bool,
        tick: &mut dyn FnMut(),
    ) -> Pass {
        let start = Instant::now();
        let (outcomes, exec) = execute(&self.campaign(campaign), tick);
        let results: Vec<&TestResult> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
        let (mut verdicts, mut right) = (0usize, 0usize);
        let (mut self_pts, mut ext_pts) = (Vec::new(), Vec::new());
        for r in &results {
            let Ok(f) = &r.features else { continue };
            verdicts += 1;
            right += usize::from(reference.model.classify(f) == r.intended);
            let point = (f.max_rtt_ms - f.min_rtt_ms, f.cov);
            match r.intended {
                CongestionClass::External => ext_pts.push(point),
                CongestionClass::SelfInduced => self_pts.push(point),
            }
        }
        let check = figure1_shape(&self_pts, &ext_pts);
        let wall = start.elapsed();
        Pass {
            wall,
            exec,
            keys: outcomes
                .iter()
                .map(|o| o.as_ref().ok().map(|r| key(r.events, &r.features)))
                .collect(),
            quality: Quality {
                right,
                judged: verdicts,
                classified: verdicts,
                flows: outcomes.len(),
            },
            check,
            digest: digest.then(|| fnv1a(format!("{results:?}").as_bytes())),
        }
    }

    fn traced_pass(&self, reference: &Reference) -> TracedPass {
        let start = Instant::now();
        let (outcomes, _) = execute(&self.traced_campaign(), &mut || {});
        let classify_start = Instant::now();
        let mut c = Classified::default();
        for (_, features) in outcomes.iter().flatten() {
            match features {
                Ok(f) => {
                    black_box(reference.model.classify(black_box(f)));
                    c.verdicts += 1;
                }
                Err(_) => c.skips += 1,
            }
        }
        c.ns = elapsed_ns(classify_start);
        TracedPass {
            wall: start.elapsed(),
            scenarios: outcomes.into_iter().map(|o| o.ok().map(|a| a.0)).collect(),
            classified: Some((classify_start, c)),
        }
    }
}

/// One Figure-1 cell, run as `run_test`'s public steps with timers at
/// each boundary.
struct TracedCell {
    external: bool,
}

impl Scenario for TracedCell {
    type Artifact = (ScenarioTrace, Result<FlowFeatures, FeatureError>);

    fn run(&self, seed: u64) -> Self::Artifact {
        let allocs = allocations();
        let mut log = SpanLog::new("exec.scenario", Instant::now());
        let cfg = cell_config(self.external, seed);
        let (mut tb, build_ns) = span(&mut log, "testbed.build", 0, || build(&cfg));
        let reg = MetricsRegistry::new();
        tb.sim.attach_obs(&reg);
        let probe = tb.sim.attach_sink(
            tb.server1,
            Box::new(TimedSink::new(FlowProbe::new(TEST_FLOW))),
        );
        let horizon = tb.test_end + SimDuration::from_millis(500);

        let loop_allocs = allocations();
        let loop_start = Instant::now();
        tb.sim.run_until(horizon);
        let loop_ns = elapsed_ns(loop_start);
        let loop_allocs = allocations() - loop_allocs;
        let loop_span = log.call("netsim.run_until", 0, loop_start, loop_ns);

        let Some(probe) = tb.sim.sink::<TimedSink<FlowProbe>>(probe) else {
            unreachable!("handle attached above holds a timed FlowProbe")
        };
        log.aggregate("features.tap", loop_span, probe.tally);
        let (features, features_ns) =
            span(&mut log, "features.extract", 0, || probe.inner.features());

        let (segments_sent, retransmits, timeouts) = tb
            .sim
            .agent::<TcpServerAgent>(tb.server1)
            .and_then(|s| s.connection(TEST_FLOW))
            .map_or((0, 0, 0), |c| {
                (c.stats.segments_sent, c.stats.retransmits, c.stats.timeouts)
            });
        let snap = reg.snapshot();
        let counter = |name| snap.counter(name).unwrap_or(0);
        let events = tb.sim.events_processed();
        let mut counts = Counts {
            events,
            loop_allocs,
            peak_pending: tb.sim.peak_pending_events() as u64,
            peak_pool: tb.sim.peak_pool_packets() as u64,
            packets_sent: counter("sim.packets_sent"),
            packets_delivered: counter("sim.packets_delivered"),
            packets_dropped: counter("sim.packets_dropped"),
            queue_hwm_bytes: snap.gauge("sim.queue_hwm_bytes").unwrap_or(0),
            segments_sent,
            retransmits,
            timeouts,
            tap_records: probe.tally.calls,
            rtt_samples: probe.inner.samples_total() as u64,
            ..Counts::default()
        };
        let times = Times {
            build: build_ns,
            sim_loop: loop_ns,
            tap: probe.tally.ns,
            features: features_ns,
            ..Times::default()
        };
        let key = key(events, &features);
        counts.scenario_allocs = allocations() - allocs;
        let trace = ScenarioTrace {
            key,
            counts,
            times,
            spans: log.finish(),
        };
        (trace, features)
    }
}
