//! `ndt_dispute`: the Dispute2014 M-Lab campaign over every
//! (site × ISP × month) cell, labelled and classified with the
//! reference model.
//!
//! Each test is one `NdtScenario` (its client draws, then `run_ndt`).
//! `run_ndt` builds and runs its simulator internally, so from outside
//! a traced test yields only its time, its allocations and its Web100
//! counters; the simulator, tap and TCP layers of this workload wait
//! for tracing inside the program.

use crate::alloc::allocations;
use crate::harness::{
    execute, fnv1a, Classified, Counts, Pass, Quality, ScenarioTrace, Times, TracedPass, Workload,
};
use crate::reference::Reference;
use crate::timed::{elapsed_ns, SpanLog};
use csig_exec::{Campaign, Scenario};
use csig_features::CongestionClass;
use csig_mlab::dispute2014::campaign;
use csig_mlab::{
    is_off_peak_hour, is_peak_hour, label_dispute2014, Dispute2014Config, NdtScenario, NdtTest,
};
use csig_netsim::rng::derive_seed;
use csig_netsim::SimDuration;
use std::hint::black_box;
use std::time::Instant;

/// Tests per (site, ISP, month) cell: 192 tests per campaign, enough
/// that the affected pairs' Mar–Apr off-peak hours hold about ten tests.
const TESTS_PER_CELL: u32 = 4;
/// Distinct campaigns a run cycles through. A test's cost follows its
/// drawn access plan, so the cost of one 192-test campaign varies with
/// the seed by several percent; six campaigns (1152 tests) average
/// that out.
const CAMPAIGNS: usize = 6;
/// NDT test length, as `fig5`/`fig7` run it.
const TEST_SECS: u64 = 4;
/// Seed stream of the campaign within the workload seed.
const CAMPAIGN_STREAM: u64 = 0xD15B;

/// The workload for one seed.
pub struct NdtDispute {
    seed: u64,
}

impl NdtDispute {
    /// The workload whose inputs derive from `seed`.
    pub fn new(seed: u64) -> Self {
        NdtDispute { seed }
    }

    fn campaign(&self, index: usize) -> Campaign<NdtScenario> {
        campaign(&Dispute2014Config {
            tests_per_cell: TESTS_PER_CELL,
            test_duration: SimDuration::from_secs(TEST_SECS),
            seed: derive_seed(derive_seed(self.seed, CAMPAIGN_STREAM), index as u64),
        })
    }
}

/// Fingerprint shared by the untraced and traced artifact of a test.
fn key(t: &NdtTest) -> u64 {
    fnv1a(
        format!(
            "{}|{}|{}|{}|{:?}",
            t.hour,
            t.plan_mbps,
            t.congested,
            t.measurement.throughput.bytes_acked,
            t.measurement.features
        )
        .as_bytes(),
    )
}

/// Is the test on a Cogent interconnect the dispute congested?
fn affected(t: &NdtTest) -> bool {
    t.site.is_cogent() && t.isp.affected_by_dispute()
}

/// The dispute's signature: congested tests are slower, and the
/// affected pairs' self-induced share rises from Jan–Feb peak hours to
/// Mar–Apr off-peak hours.
fn dispute_signature(
    tests: &[&NdtTest],
    verdicts: &[Option<CongestionClass>],
) -> Result<(), String> {
    let mean_mbps = |congested: bool| {
        let v: Vec<f64> = tests
            .iter()
            .filter(|t| t.congested == congested)
            .map(|t| t.measurement.throughput_mbps)
            .collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    };
    match (mean_mbps(true), mean_mbps(false)) {
        (Some(c), Some(u)) if c < u => {}
        (c, u) => {
            return Err(format!(
                "dispute signature: congested tests not slower (congested {c:?} Mbps, uncongested {u:?} Mbps)"
            ))
        }
    }
    let self_share = |frame: fn(&NdtTest) -> bool| {
        let v: Vec<bool> = tests
            .iter()
            .zip(verdicts)
            .filter(|(t, _)| affected(t) && frame(t))
            .filter_map(|(_, v)| v.map(|c| c == CongestionClass::SelfInduced))
            .collect();
        (!v.is_empty()).then(|| v.iter().filter(|&&s| s).count() as f64 / v.len() as f64)
    };
    let peak = self_share(|t| t.month.dispute_active() && is_peak_hour(t.hour));
    let off_peak = self_share(|t| !t.month.dispute_active() && is_off_peak_hour(t.hour));
    match (peak, off_peak) {
        (Some(p), Some(o)) if o > p => Ok(()),
        (p, o) => Err(format!(
            "dispute signature: affected pairs' self-induced share does not rise (Jan-Feb peak {p:?}, Mar-Apr off-peak {o:?})"
        )),
    }
}

impl Workload for NdtDispute {
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
        let tests: Vec<&NdtTest> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
        let verdicts: Vec<Option<CongestionClass>> = tests
            .iter()
            .map(|t| {
                t.measurement
                    .features
                    .as_ref()
                    .ok()
                    .map(|f| reference.model.classify(f))
            })
            .collect();
        let mut quality = Quality {
            classified: verdicts.iter().flatten().count(),
            flows: outcomes.len(),
            ..Quality::default()
        };
        for (t, verdict) in tests.iter().zip(&verdicts) {
            if let (Some(label), Some(verdict)) = (label_dispute2014(t), verdict) {
                quality.judged += 1;
                quality.right += usize::from(label == *verdict);
            }
        }
        let check = dispute_signature(&tests, &verdicts);
        let wall = start.elapsed();
        Pass {
            wall,
            exec,
            keys: outcomes.iter().map(|o| o.as_ref().ok().map(key)).collect(),
            quality,
            check,
            digest: digest.then(|| fnv1a(format!("{tests:?}").as_bytes())),
        }
    }

    fn traced_pass(&self, reference: &Reference) -> TracedPass {
        let start = Instant::now();
        let mut traced = Campaign::new(self.seed);
        for (seed, scenario) in self.campaign(0).iter() {
            traced.push_seeded(*seed, TracedTest(*scenario));
        }
        let (outcomes, _) = execute(&traced, &mut || {});
        let classify_start = Instant::now();
        let mut c = Classified::default();
        for (_, test) in outcomes.iter().flatten() {
            match &test.measurement.features {
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

/// One NDT test with its time and allocations taken from outside.
struct TracedTest(NdtScenario);

impl Scenario for TracedTest {
    type Artifact = (ScenarioTrace, NdtTest);

    fn run(&self, seed: u64) -> Self::Artifact {
        let allocs = allocations();
        let start = Instant::now();
        let mut log = SpanLog::new("exec.scenario", start);
        let test = self.0.run(seed);
        log.call("mlab.ndt_test", 0, start, elapsed_ns(start));
        let counts = Counts {
            retransmits: test.measurement.web100.retransmits,
            timeouts: test.measurement.web100.timeouts,
            scenario_allocs: allocations() - allocs,
            ..Counts::default()
        };
        let trace = ScenarioTrace {
            key: key(&test),
            counts,
            times: Times::default(),
            spans: log.finish(),
        };
        (trace, test)
    }
}
