//! Unified Scenario/Campaign execution layer.
//!
//! Every experiment in this workspace has the same shape: a list of
//! self-contained simulation units, each parameterized by a derived
//! seed, whose results are collected in order and then analyzed. This
//! crate factors that shape out of the per-experiment loops:
//!
//! * [`Scenario`] — one self-contained unit of simulation. Given its
//!   seed it produces a typed artifact; it must not depend on any other
//!   scenario having run.
//! * [`Campaign`] — an ordered collection of scenarios, each paired
//!   with a seed derived from the campaign's master seed (or supplied
//!   explicitly for experiments with bespoke seed schemes).
//! * [`Executor`] — runs a campaign either sequentially or across a
//!   `std::thread::scope` worker pool, merging artifacts in
//!   **submission order** so a parallel run is byte-identical to a
//!   sequential one, and reporting per-scenario completion through a
//!   [`ProgressEvent`] callback. It has one run method,
//!   [`Executor::run_isolated_with_progress`]. Callers that need every
//!   artifact chain [`CampaignRun::expect_artifacts`];
//!   [`CampaignRun::export_metrics`] records the campaign's `exec.*`
//!   metrics.
//!
//! Determinism contract: each scenario's randomness must come only
//! from its seed, so the artifact vector depends only on the campaign
//! definition — never on `jobs`, thread scheduling, or wall-clock.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cli;

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use csig_netsim::rng::derive_seed;
use csig_obs::MetricsRegistry;

/// One self-contained, seed-parameterized unit of simulation.
///
/// `run` must be a pure function of `self` and `seed`: no shared
/// mutable state, no ordering dependence on other scenarios. That is
/// what lets the executor schedule scenarios on any worker in any
/// order and still merge a deterministic result.
pub trait Scenario {
    /// The result of running this scenario.
    type Artifact: Send;

    /// Execute the scenario with the given seed.
    fn run(&self, seed: u64) -> Self::Artifact;
}

/// Any closure `(seed) -> artifact` is a scenario; campaigns over
/// heterogeneous work can box closures instead of defining a type.
impl<A: Send, F: Fn(u64) -> A> Scenario for F {
    type Artifact = A;

    fn run(&self, seed: u64) -> A {
        self(seed)
    }
}

/// An ordered collection of seeded scenarios.
#[derive(Debug, Clone)]
pub struct Campaign<S> {
    master_seed: u64,
    entries: Vec<(u64, S)>,
}

impl<S> Campaign<S> {
    /// An empty campaign with the given master seed.
    pub fn new(master_seed: u64) -> Self {
        Campaign {
            master_seed,
            entries: Vec::new(),
        }
    }

    /// Append a scenario, deriving its seed as
    /// `derive_seed(master_seed, n)` where `n` is its 1-based position
    /// — the tag scheme the experiments in this workspace already use,
    /// so refactoring a hand-rolled loop onto a campaign preserves
    /// every per-scenario seed.
    pub fn push(&mut self, scenario: S) {
        let tag = self.entries.len() as u64 + 1;
        self.entries
            .push((derive_seed(self.master_seed, tag), scenario));
    }

    /// Append a scenario with an explicitly derived seed, for
    /// experiments whose seed scheme is not the 1-based tag.
    pub fn push_seeded(&mut self, seed: u64, scenario: S) {
        self.entries.push((seed, scenario));
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the campaign holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(seed, scenario)` pairs in submission order.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, S)> {
        self.entries.iter()
    }
}

/// Completion notice for one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Submission index of the scenario that just finished.
    pub index: usize,
    /// How many scenarios have finished so far (including this one).
    pub done: usize,
    /// Total scenarios in the campaign.
    pub total: usize,
    /// Wall-clock time since the campaign started.
    pub elapsed: Duration,
    /// Id of the worker that ran it (0 for a sequential run).
    pub worker: usize,
    /// Whether the scenario produced an artifact (`false`: it panicked).
    pub ok: bool,
    /// Wall-clock time this scenario itself ran (not campaign time).
    pub scenario_elapsed: Duration,
}

/// Structured record of a scenario that panicked: everything needed
/// to reproduce it (`seed`) and triage it (panic payload, timing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Submission index within the campaign.
    pub index: usize,
    /// The seed the scenario ran with — rerunning the same scenario
    /// with this seed reproduces the failure deterministically.
    pub seed: u64,
    /// The panic payload (if it was a string).
    pub message: String,
    /// How long the scenario ran before failing.
    pub elapsed: Duration,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario {} (seed {:#018x}) panicked after {:.2}s: {}",
            self.index,
            self.seed,
            self.elapsed.as_secs_f64(),
            self.message
        )
    }
}

impl std::error::Error for ScenarioError {}

/// Outcome of one scenario in an isolated run.
pub type ScenarioOutcome<A> = Result<A, ScenarioError>;

/// Results of a fault-isolated campaign run: one outcome per scenario,
/// in submission order. A panicking scenario becomes a
/// [`ScenarioError`] entry; every other scenario still completes and
/// its artifact is byte-identical to what a run without the failing
/// scenario would produce (scenario seeds are fixed at submission).
#[derive(Debug)]
pub struct CampaignRun<A> {
    /// Per-scenario outcomes in submission order.
    pub outcomes: Vec<ScenarioOutcome<A>>,
}

impl<A> CampaignRun<A> {
    /// The failures, in submission order.
    pub fn failures(&self) -> Vec<&ScenarioError> {
        self.outcomes
            .iter()
            .filter_map(|o| o.as_ref().err())
            .collect()
    }

    /// Whether every scenario produced an artifact.
    fn is_success(&self) -> bool {
        self.outcomes.iter().all(Result::is_ok)
    }

    /// The artifacts of successful scenarios, in submission order
    /// (failed scenarios are skipped).
    pub fn artifacts(self) -> Vec<A> {
        self.outcomes.into_iter().filter_map(Result::ok).collect()
    }

    /// End-of-campaign failure summary: one line per failure, or a
    /// success note.
    pub fn summary(&self) -> String {
        let failures = self.failures();
        if failures.is_empty() {
            return format!("all {} scenarios succeeded", self.outcomes.len());
        }
        let mut s = format!(
            "{}/{} scenarios failed:",
            failures.len(),
            self.outcomes.len()
        );
        for e in failures {
            s.push_str("\n  ");
            s.push_str(&e.to_string());
        }
        s
    }

    /// Record the campaign's execution metrics into `reg`:
    ///
    /// * `exec.scenarios_ok` / `exec.scenarios_failed` — counters of
    ///   scenario outcomes;
    /// * `exec.campaign_scenarios_hwm` — gauge of the largest campaign
    ///   this registry has seen.
    ///
    /// All three depend on scenario behaviour only, never on
    /// scheduling, so they are the same at any worker count.
    pub fn export_metrics(&self, reg: &MetricsRegistry) {
        let failed = self.outcomes.iter().filter(|o| o.is_err()).count() as u64;
        reg.add("exec.scenarios_ok", self.outcomes.len() as u64 - failed);
        reg.add("exec.scenarios_failed", failed);
        reg.record_max("exec.campaign_scenarios_hwm", self.outcomes.len() as u64);
    }

    /// All artifacts, panicking with the failure summary if any
    /// scenario failed — the strict path: callers that cannot use a
    /// partial campaign chain it onto
    /// [`Executor::run_isolated_with_progress`].
    pub fn expect_artifacts(self) -> Vec<A> {
        if !self.is_success() {
            panic!("{}", self.summary());
        }
        self.artifacts()
    }
}

/// Render a caught panic payload (string payloads pass through).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker count for `--jobs 0` / unspecified: one per available core.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs campaigns; `jobs` controls the worker pool size.
///
/// Scenarios run fault-isolated: a panic inside [`Scenario::run`] is
/// caught in the worker and turned into a [`ScenarioError`] carrying
/// the panic payload and the scenario's seed; the rest of the campaign
/// completes. A runaway simulation is caught the same way, since it
/// panics on exhausting its event budget. There is one run method,
/// [`Executor::run_isolated_with_progress`], which returns the
/// per-scenario outcomes. A caller that needs every artifact chains
/// [`CampaignRun::expect_artifacts`], which aborts with the
/// end-of-campaign summary on any failure.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with the given worker count (`0` means one per
    /// available core).
    pub fn new(jobs: usize) -> Self {
        Executor {
            jobs: if jobs == 0 { default_jobs() } else { jobs },
        }
    }

    /// A single-worker executor (runs on the calling thread).
    pub fn sequential() -> Self {
        Executor::new(1)
    }

    /// The effective worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run the campaign fault-isolated, invoking `progress` on the
    /// calling thread as each scenario completes. Outcomes come back
    /// in submission order regardless of `jobs`; only the order of
    /// progress events reflects actual completion order.
    pub fn run_isolated_with_progress<S, F>(
        &self,
        campaign: &Campaign<S>,
        mut progress: F,
    ) -> CampaignRun<S::Artifact>
    where
        S: Scenario + Sync,
        F: FnMut(ProgressEvent),
    {
        let total = campaign.len();
        let started = Instant::now();

        if self.jobs <= 1 || total <= 1 {
            let outcomes = campaign
                .entries
                .iter()
                .enumerate()
                .map(|(index, (seed, scenario))| {
                    let (outcome, scenario_elapsed) = run_one(scenario, *seed, index);
                    progress(ProgressEvent {
                        index,
                        done: index + 1,
                        total,
                        elapsed: started.elapsed(),
                        worker: 0,
                        ok: outcome.is_ok(),
                        scenario_elapsed,
                    });
                    outcome
                })
                .collect();
            return CampaignRun { outcomes };
        }

        let next = AtomicUsize::new(0);
        type Done<A> = (usize, usize, ScenarioOutcome<A>, Duration);
        let (tx, rx) = mpsc::channel::<Done<S::Artifact>>();
        let mut slots: Vec<Option<ScenarioOutcome<S::Artifact>>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);

        std::thread::scope(|scope| {
            for worker in 0..self.jobs.min(total) {
                let tx = tx.clone();
                let next = &next;
                let entries = &campaign.entries;
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= entries.len() {
                        break;
                    }
                    let (seed, scenario) = &entries[index];
                    let (outcome, scenario_elapsed) = run_one(scenario, *seed, index);
                    // The receiver outlives all workers; a send only
                    // fails if the main thread panicked, in which case
                    // the scope is unwinding anyway.
                    if tx.send((index, worker, outcome, scenario_elapsed)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // Progress callbacks run here on the calling thread, so
            // `progress` needs neither Send nor Sync. Every worker
            // sends exactly one outcome per claimed index (panics are
            // caught inside `run_one`), so `total` messages arrive.
            for done in 1..=total {
                let Ok((index, worker, outcome, scenario_elapsed)) = rx.recv() else {
                    unreachable!("workers cannot die: scenario panics are caught");
                };
                progress(ProgressEvent {
                    index,
                    done,
                    total,
                    elapsed: started.elapsed(),
                    worker,
                    ok: outcome.is_ok(),
                    scenario_elapsed,
                });
                slots[index] = Some(outcome);
            }
        });

        let outcomes = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| match slot {
                Some(outcome) => outcome,
                None => unreachable!("scenario {index} neither completed nor failed"),
            })
            .collect();
        CampaignRun { outcomes }
    }
}

/// Run one scenario under `catch_unwind`. Returns the outcome plus
/// the scenario's own wall-clock time.
///
/// `AssertUnwindSafe` is sound here because a failed scenario's state
/// is never observed again: scenarios are `Fn(&self, seed)` over shared
/// immutable state, and the executor drops nothing mid-campaign.
fn run_one<S: Scenario>(
    scenario: &S,
    seed: u64,
    index: usize,
) -> (ScenarioOutcome<S::Artifact>, Duration) {
    let started = Instant::now();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| scenario.run(seed)));
    let elapsed = started.elapsed();
    let outcome = result.map_err(|payload| ScenarioError {
        index,
        seed,
        message: panic_message(payload.as_ref()),
        elapsed,
    });
    (outcome, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scenario that spends its seed on something order-sensitive.
    struct Mix(u64);

    impl Scenario for Mix {
        type Artifact = u64;

        fn run(&self, seed: u64) -> u64 {
            let mut acc = seed ^ self.0;
            for _ in 0..1000 {
                acc = csig_netsim::rng::splitmix64(acc);
            }
            acc
        }
    }

    /// The strict path: every artifact, or a panic with the summary.
    fn run_all<S: Scenario + Sync>(exec: &Executor, c: &Campaign<S>) -> Vec<S::Artifact> {
        exec.run_isolated_with_progress(c, |_| {})
            .expect_artifacts()
    }

    fn campaign(n: u64) -> Campaign<Mix> {
        let mut c = Campaign::new(0xC0FFEE);
        for i in 0..n {
            c.push(Mix(i));
        }
        c
    }

    #[test]
    fn push_uses_the_one_based_tag_scheme() {
        let c = campaign(4);
        for (i, (seed, _)) in c.iter().enumerate() {
            assert_eq!(*seed, derive_seed(0xC0FFEE, i as u64 + 1));
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let c = campaign(37);
        let seq = run_all(&Executor::sequential(), &c);
        for jobs in [2, 4, 8] {
            assert_eq!(run_all(&Executor::new(jobs), &c), seq, "jobs={jobs}");
        }
    }

    #[test]
    fn closures_are_scenarios() {
        let mut c = Campaign::new(7);
        for _ in 0..5 {
            c.push(|seed: u64| seed.wrapping_mul(3));
        }
        let out = run_all(&Executor::new(4), &c);
        assert_eq!(out.len(), 5);
        for (got, (seed, _)) in out.iter().zip(c.iter()) {
            assert_eq!(*got, seed.wrapping_mul(3));
        }
    }

    #[test]
    fn progress_events_cover_every_scenario() {
        let c = campaign(16);
        let mut events = Vec::new();
        let out = Executor::new(4)
            .run_isolated_with_progress(&c, |e| events.push(e))
            .expect_artifacts();
        assert_eq!(out.len(), 16);
        assert_eq!(events.len(), 16);
        // `done` counts up in arrival order; indices form a permutation.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.done, i + 1);
            assert_eq!(e.total, 16);
            assert!(e.worker < 4);
        }
        let mut indices: Vec<usize> = events.iter().map(|e| e.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_progress_is_in_submission_order() {
        let c = campaign(5);
        let mut seen = Vec::new();
        Executor::sequential().run_isolated_with_progress(&c, |e| {
            assert_eq!(e.worker, 0);
            seen.push(e.index);
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert_eq!(Executor::new(0).jobs(), default_jobs());
        assert!(Executor::new(3).jobs() == 3);
    }

    /// A scenario that optionally panics — for isolation tests.
    enum Maybe {
        Good(u64),
        Panic,
        Slow,
    }

    impl Scenario for Maybe {
        type Artifact = u64;

        fn run(&self, seed: u64) -> u64 {
            match self {
                Maybe::Good(x) => {
                    let mut acc = seed ^ x;
                    for _ in 0..100 {
                        acc = csig_netsim::rng::splitmix64(acc);
                    }
                    acc
                }
                Maybe::Panic => panic!("deliberate failure"),
                Maybe::Slow => {
                    std::thread::sleep(Duration::from_millis(50));
                    seed
                }
            }
        }
    }

    /// Suppress the default panic hook's stderr spew for the duration
    /// of a test that deliberately panics inside workers.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn panicking_scenario_is_isolated_and_artifacts_are_identical() {
        // Fixed explicit seeds so removing the bad scenario does not
        // shift anyone else's seed.
        let mut with_bad = Campaign::new(0);
        let mut without_bad = Campaign::new(0);
        for i in 0..12u64 {
            if i == 5 {
                with_bad.push_seeded(999, Maybe::Panic);
                continue;
            }
            with_bad.push_seeded(100 + i, Maybe::Good(i));
            without_bad.push_seeded(100 + i, Maybe::Good(i));
        }
        let (run, clean) = quiet_panics(|| {
            let run = Executor::new(4).run_isolated_with_progress(&with_bad, |_| {});
            let clean = run_all(&Executor::new(4), &without_bad);
            (run, clean)
        });
        assert!(!run.is_success());
        let failures = run.failures();
        assert_eq!(failures.len(), 1);
        let e = failures[0];
        assert_eq!(e.index, 5);
        assert_eq!(e.seed, 999);
        assert_eq!(e.message, "deliberate failure");
        assert!(e.to_string().contains("panicked"), "{e}");
        assert!(run.summary().contains("1/12 scenarios failed"));
        // Non-failing scenarios match a run that never had the bad one.
        assert_eq!(run.artifacts(), clean);
    }

    #[test]
    fn progress_reports_failures() {
        let mut c = Campaign::new(0);
        c.push_seeded(1, Maybe::Good(1));
        c.push_seeded(2, Maybe::Panic);
        let mut not_ok = vec![];
        let run = quiet_panics(|| {
            Executor::sequential().run_isolated_with_progress(&c, |e| {
                if !e.ok {
                    not_ok.push(e.index);
                }
            })
        });
        assert_eq!(not_ok, vec![1]);
        assert!(run.outcomes[0].is_ok());
        assert!(run.outcomes[1].is_err());
    }

    #[test]
    #[should_panic(expected = "scenarios failed")]
    fn strict_run_panics_with_summary() {
        let mut c = Campaign::new(0);
        c.push_seeded(1, Maybe::Panic);
        c.push_seeded(2, Maybe::Good(0));
        quiet_panics(|| run_all(&Executor::new(2), &c));
    }

    #[test]
    fn success_summary_counts_the_scenarios() {
        let mut c = Campaign::new(0);
        c.push_seeded(2, Maybe::Good(2));
        let run = Executor::sequential().run_isolated_with_progress(&c, |_| {});
        assert!(run.is_success());
        assert_eq!(run.summary(), "all 1 scenarios succeeded");
    }

    #[test]
    fn progress_carries_per_scenario_elapsed() {
        let mut c = Campaign::new(0);
        c.push_seeded(1, Maybe::Good(1));
        c.push_seeded(2, Maybe::Slow);
        let mut per_scenario = Vec::new();
        Executor::sequential().run_isolated_with_progress(&c, |e| {
            per_scenario.push((e.index, e.scenario_elapsed));
        });
        let slow = per_scenario
            .iter()
            .find(|(i, _)| *i == 1)
            .map(|(_, d)| *d)
            .expect("slow scenario reported");
        assert!(slow >= Duration::from_millis(50), "slow elapsed {slow:?}");
    }

    #[test]
    fn exported_metrics_count_outcomes() {
        let reg = MetricsRegistry::new();
        let mut c = Campaign::new(0);
        c.push_seeded(1, Maybe::Good(1));
        c.push_seeded(2, Maybe::Good(2));
        c.push_seeded(3, Maybe::Panic);
        let run = quiet_panics(|| Executor::new(2).run_isolated_with_progress(&c, |_| {}));
        assert_eq!(run.failures().len(), 1);
        run.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("exec.scenarios_ok"), Some(2));
        assert_eq!(snap.counter("exec.scenarios_failed"), Some(1));
        assert_eq!(snap.gauge("exec.campaign_scenarios_hwm"), Some(3));
    }
}
