//! The measurement loop every workload shares.
//!
//! A run sets up (training the reference model, or building topology),
//! then repeats closed-loop *passes* until `--seconds` have elapsed: each
//! pass runs one of the workload's campaigns through a single-worker
//! [`Executor`], so the next scenario starts only when the previous one
//! returned, and then analyses and classifies the artifacts.
//!
//! A workload may hold several distinct campaigns, all derived from the
//! seed, that the passes cycle through, so that one run measures more
//! distinct inputs than one pass holds. A pass of a campaign seen before
//! has the same inputs, so it must reproduce its artifacts.
//!
//! The end-to-end run first makes one untimed warm-up pass of the first
//! campaign. It then reports the median set-up time, and the throughput
//! of one cycle through the campaigns, each campaign timed at the median
//! of its passes. Every set-up and pass is timed by a host-calibration
//! [`Meter`] and scaled to the reference host speed (see
//! [`crate::calibrate`]). The traced run alternates an untraced pass with
//! a traced one of the first campaign, checks that both give the same
//! artifacts and that traced counts repeat exactly, and derives the
//! per-layer metrics from raw wall times.

use crate::args::Options;
use crate::calibrate::{Calibration, Meter};
use crate::report::{median, tail_percentile, Metric, Outcome};
use crate::timed::{elapsed_ns, since_epoch, Span};
use csig_exec::{Campaign, Executor, Scenario, ScenarioOutcome};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Fewest end-to-end passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Fewest traced passes: two are needed to compare counts.
const MIN_TRACED_PASSES: usize = 2;

/// Deterministic per-scenario counts taken by a traced scenario. A
/// layer the workload cannot observe from outside stays 0.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Simulator events processed.
    pub events: u64,
    /// Allocations inside `Simulator::run_until`.
    pub loop_allocs: u64,
    /// Allocations inside the whole scenario.
    pub scenario_allocs: u64,
    /// Scheduler high-water mark of pending events.
    pub peak_pending: u64,
    /// Packet-pool high-water mark.
    pub peak_pool: u64,
    /// `sim.packets_sent`.
    pub packets_sent: u64,
    /// `sim.packets_delivered`.
    pub packets_delivered: u64,
    /// `sim.packets_dropped`.
    pub packets_dropped: u64,
    /// `sim.queue_hwm_bytes`.
    pub queue_hwm_bytes: u64,
    /// Wrapped TCP agent callbacks.
    pub callbacks: u64,
    /// Allocations inside wrapped agent callbacks.
    pub callback_allocs: u64,
    /// TCP segments sent (test flow, or all flows without one).
    pub segments_sent: u64,
    /// TCP retransmissions.
    pub retransmits: u64,
    /// TCP retransmission timeouts.
    pub timeouts: u64,
    /// Records handed to the wrapped tap.
    pub tap_records: u64,
    /// RTT samples the tap extracted.
    pub rtt_samples: u64,
}

/// Wall times of one traced scenario, ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Times {
    /// `csig_testbed::build`.
    pub build: u64,
    /// `Simulator::run_until`.
    pub sim_loop: u64,
    /// Wrapped agent callbacks (inside the loop).
    pub callbacks: u64,
    /// Wrapped tap records (inside the loop).
    pub tap: u64,
    /// `FlowProbe::features`.
    pub features: u64,
}

/// What a traced scenario hands back.
#[derive(Debug)]
pub struct ScenarioTrace {
    /// Fingerprint of the artifact; must equal the untraced one.
    pub key: u64,
    /// Deterministic counts.
    pub counts: Counts,
    /// Wall times.
    pub times: Times,
    /// The scenario's spans, root first.
    pub spans: Vec<Span>,
}

/// Classifier work of one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Classified {
    /// Flows classified.
    pub verdicts: u64,
    /// Flows skipped for lack of features.
    pub skips: u64,
    /// Wall time of all `classify` calls, ns.
    pub ns: u64,
}

/// Output quality of one pass, as counts so that passes add up.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    /// Verdicts matching ground truth.
    pub right: usize,
    /// Verdicts compared with ground truth.
    pub judged: usize,
    /// Flows with features.
    pub classified: usize,
    /// Flows run.
    pub flows: usize,
}

impl std::ops::AddAssign for Quality {
    fn add_assign(&mut self, q: Quality) {
        self.right += q.right;
        self.judged += q.judged;
        self.classified += q.classified;
        self.flows += q.flows;
    }
}

/// How a campaign ran on the executor.
#[derive(Debug)]
pub struct ExecTiming {
    /// The executor call.
    pub wall: Duration,
    /// Each scenario's own time, as the executor reports it.
    pub scenario_wall: Vec<Duration>,
}

/// One end-to-end pass.
#[derive(Debug)]
pub struct Pass {
    /// Campaign plus analysis and classification.
    pub wall: Duration,
    /// The executor's part of the pass.
    pub exec: ExecTiming,
    /// Artifact fingerprints in submission order (`None`: failed).
    pub keys: Vec<Option<u64>>,
    /// Output quality.
    pub quality: Quality,
    /// The workload's output-correctness gates.
    pub check: Result<(), String>,
    /// Digest of the full artifacts, when asked for.
    pub digest: Option<u64>,
}

/// One traced pass.
#[derive(Debug)]
pub struct TracedPass {
    /// Campaign plus classification.
    pub wall: Duration,
    /// Scenario traces in submission order (`None`: failed).
    pub scenarios: Vec<Option<ScenarioTrace>>,
    /// Classifier work, with the instant it started.
    pub classified: Option<(Instant, Classified)>,
}

/// A reference set-up: the product plus the model-fit time inside it.
pub struct Setup<T> {
    /// What the passes use.
    pub product: T,
    /// Key that every set-up of one run must reproduce.
    pub key: String,
    /// Model fit alone (`train_from_results`), ms; 0 without a model.
    pub train_ms: f64,
}

/// A benchmark workload.
pub trait Workload {
    /// What set-up produces for the passes.
    type Product;
    /// Set-ups per end-to-end run (the median is reported).
    const SETUP_REPS: usize;
    /// Distinct campaigns the end-to-end passes cycle through.
    const CAMPAIGNS: usize = 1;
    /// The timed set-up; `tick` is called between its scenarios.
    fn setup(&self, tick: &mut dyn FnMut()) -> Self::Product;
    /// Key and model-fit time of a set-up product (untimed).
    fn inspect(&self, product: &Self::Product) -> Result<(String, f64), String>;
    /// One end-to-end pass of campaign `campaign` (< `CAMPAIGNS`);
    /// `tick` is called between its scenarios.
    fn pass(
        &self,
        product: &Self::Product,
        campaign: usize,
        digest: bool,
        tick: &mut dyn FnMut(),
    ) -> Pass;
    /// One traced pass of the first campaign.
    fn traced_pass(&self, product: &Self::Product) -> TracedPass;
}

/// Run `campaign` on a single-worker executor, timing the call and
/// each scenario, and calling `tick` after each scenario.
pub fn execute<S: Scenario + Sync>(
    campaign: &Campaign<S>,
    tick: &mut dyn FnMut(),
) -> (Vec<ScenarioOutcome<S::Artifact>>, ExecTiming) {
    let mut scenario_wall = Vec::with_capacity(campaign.len());
    let start = Instant::now();
    let run = Executor::sequential().run_isolated_with_progress(campaign, |e| {
        scenario_wall.push(e.scenario_elapsed);
        tick();
    });
    let wall = start.elapsed();
    for failure in run.failures() {
        eprintln!("perfbench: {failure}");
    }
    (
        run.outcomes,
        ExecTiming {
            wall,
            scenario_wall,
        },
    )
}

/// FNV-1a over `bytes`, for artifact fingerprints and digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Set-up times of a run: wall seconds, and seconds at the reference
/// host speed.
struct SetupTimes {
    wall: Vec<f64>,
    at_reference: Vec<f64>,
}

/// Set up `reps` times; every product must reproduce the first's key.
fn set_up<W: Workload>(
    w: &W,
    reps: usize,
    cal: &mut Calibration,
    problems: &mut Vec<String>,
) -> (SetupTimes, Setup<W::Product>) {
    let mut times = SetupTimes {
        wall: Vec::with_capacity(reps),
        at_reference: Vec::with_capacity(reps),
    };
    let mut first: Option<Setup<W::Product>> = None;
    for rep in 0..reps {
        let mut meter = Meter::start(cal);
        let product = w.setup(&mut || meter.tick());
        let timed = meter.finish();
        times.wall.push(timed.wall);
        times.at_reference.push(timed.at_reference);
        let (key, train_ms) = w.inspect(&product).unwrap_or_else(|e| {
            problems.push(e);
            (String::new(), 0.0)
        });
        match &first {
            None => {
                first = Some(Setup {
                    product,
                    key,
                    train_ms,
                })
            }
            Some(f) if f.key != key => problems.push(format!("set-up {rep} differs from set-up 0")),
            Some(_) => {}
        }
    }
    match first {
        Some(setup) => (times, setup),
        None => unreachable!("reps >= 1"),
    }
}

/// Check a later pass against the first of its campaign: same inputs,
/// same artifacts.
fn compare_pass(first: &Pass, pass: &Pass, n: usize, problems: &mut Vec<String>) {
    if pass.keys != first.keys {
        problems.push(format!(
            "pass {n} artifacts differ from an earlier pass of its campaign (same inputs)"
        ));
    }
}

/// Median of each campaign's pass times, summed over the campaigns.
fn cycle_secs(per_campaign: &[Vec<f64>]) -> f64 {
    per_campaign.iter().map(|t| median(t)).sum()
}

/// The end-to-end run: median set-up time, and the throughput of one
/// cycle through the campaigns, both at the reference host speed.
pub fn run<W: Workload>(w: &W, opts: &Options) -> Outcome {
    if opts.trace {
        return run_traced(w, opts);
    }
    let mut problems = Vec::new();
    let mut cal = Calibration::new();
    let (setup_times, setup) = set_up(w, W::SETUP_REPS, &mut cal, &mut problems);
    // Untimed warm-up, which also takes the digest: the first pass of
    // each campaign is the one its later passes are checked against.
    let mut firsts = vec![w.pass(&setup.product, 0, true, &mut || {})];
    let digest = firsts[0].digest;
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let (mut wall, mut at_reference) = (
        vec![Vec::new(); W::CAMPAIGNS],
        vec![Vec::new(); W::CAMPAIGNS],
    );
    let (mut passes, mut attempted, mut failed) = (0usize, 0usize, 0usize);
    while passes < MIN_PASSES.max(W::CAMPAIGNS) || start.elapsed() < budget {
        let campaign = passes % W::CAMPAIGNS;
        let mut meter = Meter::start(&mut cal);
        let pass = w.pass(&setup.product, campaign, false, &mut || meter.tick());
        let timed = meter.finish();
        wall[campaign].push(timed.wall);
        at_reference[campaign].push(timed.at_reference);
        attempted += pass.keys.len();
        failed += pass.keys.iter().filter(|k| k.is_none()).count();
        match firsts.get(campaign) {
            Some(first) => compare_pass(first, &pass, passes, &mut problems),
            None => firsts.push(pass),
        }
        passes += 1;
    }
    let mut quality = Quality::default();
    let mut completed = 0usize;
    for first in &firsts {
        if let Err(e) = &first.check {
            problems.push(e.clone());
        }
        quality += first.quality;
        completed += first.keys.iter().flatten().count();
    }
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        problems.push(e);
        0.0
    });
    if let Some(d) = digest {
        eprintln!(
            "perfbench: {} outputs_digest {d:#018x}",
            opts.workload.name()
        );
    }
    eprintln!(
        "perfbench: {passes} passes over {} campaigns of {} scenarios: wall {:.3} scenarios/s, set-up {:.4} s (medians)",
        W::CAMPAIGNS,
        completed,
        completed as f64 / cycle_secs(&wall),
        median(&setup_times.wall),
    );
    Outcome::new(
        attempted,
        failed,
        vec![
            Metric::new(
                "scenarios_per_s",
                completed as f64 / cycle_secs(&at_reference),
                "1/s",
            ),
            Metric::new("setup_s", median(&setup_times.at_reference), "s"),
            Metric::new("peak_rss_mb", rss, "MiB"),
            Metric::new(
                "accuracy",
                quality.right as f64 / quality.judged as f64,
                "ratio",
            ),
            Metric::new(
                "classified_share",
                quality.classified as f64 / quality.flows as f64,
                "ratio",
            ),
            Metric::new(
                "completed_share",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
        ],
        problems,
    )
}

/// The traced run: alternate untraced and traced passes, check they
/// agree, and derive the per-layer metrics.
fn run_traced<W: Workload>(w: &W, opts: &Options) -> Outcome {
    let mut problems = Vec::new();
    let mut cal = Calibration::new();
    let (_, setup) = set_up(w, 1, &mut cal, &mut problems);
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut hosts = Vec::new();
    let mut spans = String::new();
    while traced.len() < MIN_TRACED_PASSES || start.elapsed() < budget {
        let meter = Meter::start(&mut cal);
        let pass = w.pass(&setup.product, 0, plain.is_empty(), &mut || {});
        hosts.push(meter.finish().host_ops_per_s());
        if let Some(first) = plain.first() {
            compare_pass(first, &pass, plain.len(), &mut problems);
        }
        let pass_start = Instant::now();
        let t = w.traced_pass(&setup.product);
        let keys: Vec<Option<u64>> = t
            .scenarios
            .iter()
            .map(|s| s.as_ref().map(|s| s.key))
            .collect();
        if keys != pass.keys {
            problems.push(format!(
                "traced pass {} artifacts differ from the untraced pass",
                traced.len()
            ));
        }
        if let Some(first) = traced.first() {
            let counts = |p: &TracedPass| -> Vec<Option<Counts>> {
                p.scenarios
                    .iter()
                    .map(|s| s.as_ref().map(|s| s.counts.clone()))
                    .collect()
            };
            if counts(first) != counts(&t) {
                problems.push(format!(
                    "traced pass {} counts differ from traced pass 0 (same seed)",
                    traced.len()
                ));
            }
        }
        write_spans(&mut spans, traced.len(), pass_start, &t);
        plain.push(pass);
        traced.push(t);
    }
    if let Err(e) = &plain[0].check {
        problems.push(e.clone());
    }
    let path = format!(".bench_out/spans-{}.jsonl", opts.workload.name());
    if let Err(e) =
        std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, spans))
    {
        problems.push(format!("cannot write {path}: {e}"));
    } else {
        eprintln!("perfbench: spans written to {path}");
    }
    let attempted: usize = traced.iter().map(|p| p.scenarios.len()).sum();
    let failed: usize = traced
        .iter()
        .map(|p| p.scenarios.iter().filter(|s| s.is_none()).count())
        .sum();
    let mut metrics = layer_metrics(&plain, &traced, setup.train_ms);
    metrics.push(Metric::new("bench.host_ops_per_s", median(&hosts), "1/s"));
    Outcome::new(attempted, failed, metrics, problems)
}

/// Append one traced pass's spans as JSON lines: a pass root, each
/// scenario's spans under it, and the classifier span.
fn write_spans(out: &mut String, pass: usize, pass_start: Instant, t: &TracedPass) {
    let mut line = |id: String, parent: String, scenario: String, s: &Span| {
        let _ = writeln!(
            out,
            "{{\"id\":\"{id}\",\"parent\":{parent},\"pass\":{pass},\"scenario\":{scenario},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
            s.name, s.start_ns, s.dur_ns, s.calls
        );
    };
    let root = format!("p{pass}");
    line(
        root.clone(),
        "null".into(),
        "null".into(),
        &Span {
            name: "pass",
            parent: None,
            start_ns: since_epoch(pass_start),
            dur_ns: u64::try_from(t.wall.as_nanos()).unwrap_or(u64::MAX),
            calls: 1,
        },
    );
    for (i, sc) in t.scenarios.iter().enumerate() {
        let Some(sc) = sc else { continue };
        for (j, s) in sc.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => format!("\"p{pass}s{i}.{p}\""),
                None => format!("\"{root}\""),
            };
            line(format!("p{pass}s{i}.{j}"), parent, i.to_string(), s);
        }
    }
    if let Some((start, c)) = t.classified {
        line(
            format!("p{pass}c"),
            format!("\"{root}\""),
            "null".into(),
            &Span {
                name: "core.classify",
                parent: None,
                start_ns: since_epoch(start),
                dur_ns: c.ns,
                calls: c.verdicts,
            },
        );
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics: deterministic counts per scenario from the first
/// traced pass, times summed over every traced pass, executor timings
/// from the untraced passes.
fn layer_metrics(plain: &[Pass], traced: &[TracedPass], train_ms: f64) -> Vec<Metric> {
    let first: Vec<&ScenarioTrace> = traced[0].scenarios.iter().flatten().collect();
    let all: Vec<&ScenarioTrace> = traced
        .iter()
        .flat_map(|p| p.scenarios.iter().flatten())
        .collect();
    let n = first.len() as f64;
    let n_all = all.len() as f64;
    let sum = |f: &dyn Fn(&Counts) -> u64| first.iter().map(|s| f(&s.counts) as f64).sum::<f64>();
    let mean = |f: &dyn Fn(&Counts) -> u64| ratio(sum(f), n);
    let max =
        |f: &dyn Fn(&Counts) -> u64| first.iter().map(|s| f(&s.counts)).max().unwrap_or(0) as f64;
    let time = |f: &dyn Fn(&Times) -> u64| all.iter().map(|s| f(&s.times) as f64).sum::<f64>();
    let count_all =
        |f: &dyn Fn(&Counts) -> u64| all.iter().map(|s| f(&s.counts) as f64).sum::<f64>();

    let scenario_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.exec.scenario_wall.iter().map(|d| d.as_secs_f64() * 1e3))
        .collect();
    let (tail_pct, tail_ms) = tail_percentile(&scenario_ms);
    let overhead_ms: Vec<f64> = plain
        .iter()
        .map(|p| {
            let in_scenarios: Duration = p.exec.scenario_wall.iter().sum();
            p.exec.wall.saturating_sub(in_scenarios).as_secs_f64() * 1e3
        })
        .collect();
    let plain_ms: Vec<f64> = plain.iter().map(|p| p.wall.as_secs_f64() * 1e3).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|p| p.wall.as_secs_f64() * 1e3).collect();
    let classified: Vec<Classified> = traced
        .iter()
        .filter_map(|p| p.classified.map(|c| c.1))
        .collect();
    let first_classified = classified.first().copied().unwrap_or_default();
    let loop_ns = time(&|t| t.sim_loop);

    vec![
        Metric::new("exec.scenario_ms_p50", median(&scenario_ms), "ms"),
        Metric::new("exec.scenario_ms_tail", tail_ms, "ms"),
        Metric::new("exec.scenario_ms_tail_pct", tail_pct, "%"),
        Metric::new("exec.scenarios_timed", scenario_ms.len() as f64, "count"),
        Metric::new("exec.overhead_ms", median(&overhead_ms), "ms"),
        Metric::new(
            "exec.allocs_per_scenario",
            mean(&|c| c.scenario_allocs),
            "count",
        ),
        Metric::new(
            "bench.tracing_overhead_ms",
            median(&traced_ms) - median(&plain_ms),
            "ms",
        ),
        Metric::new(
            "testbed.build_us",
            ratio(time(&|t| t.build), n_all) / 1e3,
            "us",
        ),
        Metric::new("netsim.events", mean(&|c| c.events), "count"),
        Metric::new("netsim.loop_ms", ratio(loop_ns, n_all) / 1e6, "ms"),
        Metric::new(
            "netsim.allocs_per_event",
            ratio(sum(&|c| c.loop_allocs), sum(&|c| c.events)),
            "count",
        ),
        Metric::new(
            "netsim.self_ns_per_event",
            ratio(
                loop_ns - time(&|t| t.tap) - time(&|t| t.callbacks),
                count_all(&|c| c.events),
            ),
            "ns",
        ),
        Metric::new(
            "netsim.peak_pending_events",
            max(&|c| c.peak_pending),
            "count",
        ),
        Metric::new("netsim.peak_pool_packets", max(&|c| c.peak_pool), "count"),
        Metric::new("netsim.packets_sent", mean(&|c| c.packets_sent), "count"),
        Metric::new(
            "netsim.packets_delivered",
            mean(&|c| c.packets_delivered),
            "count",
        ),
        Metric::new(
            "netsim.packets_dropped",
            mean(&|c| c.packets_dropped),
            "count",
        ),
        Metric::new(
            "netsim.packet_ledger_gap",
            mean(&|c| c.packets_sent)
                - mean(&|c| c.packets_delivered)
                - mean(&|c| c.packets_dropped),
            "count",
        ),
        Metric::new(
            "netsim.queue_hwm_bytes",
            max(&|c| c.queue_hwm_bytes),
            "bytes",
        ),
        Metric::new("tcp.callbacks", mean(&|c| c.callbacks), "count"),
        Metric::new(
            "tcp.callback_ns",
            ratio(time(&|t| t.callbacks), count_all(&|c| c.callbacks)),
            "ns",
        ),
        Metric::new(
            "tcp.callback_share",
            ratio(time(&|t| t.callbacks), loop_ns),
            "ratio",
        ),
        Metric::new(
            "tcp.allocs_per_callback",
            ratio(sum(&|c| c.callback_allocs), sum(&|c| c.callbacks)),
            "count",
        ),
        Metric::new("tcp.segments_sent", mean(&|c| c.segments_sent), "count"),
        Metric::new("tcp.retransmits", mean(&|c| c.retransmits), "count"),
        Metric::new("tcp.timeouts", mean(&|c| c.timeouts), "count"),
        Metric::new("tap.records", mean(&|c| c.tap_records), "count"),
        Metric::new(
            "tap.ns_per_record",
            ratio(time(&|t| t.tap), count_all(&|c| c.tap_records)),
            "ns",
        ),
        Metric::new("tap.share", ratio(time(&|t| t.tap), loop_ns), "ratio"),
        Metric::new("features.rtt_samples", mean(&|c| c.rtt_samples), "count"),
        Metric::new(
            "features.extract_us",
            ratio(time(&|t| t.features), n_all) / 1e3,
            "us",
        ),
        Metric::new("core.train_ms", train_ms, "ms"),
        Metric::new(
            "core.classify_ns",
            ratio(
                classified.iter().map(|c| c.ns as f64).sum(),
                classified.iter().map(|c| c.verdicts as f64).sum(),
            ),
            "ns",
        ),
        Metric::new("core.verdicts", first_classified.verdicts as f64, "count"),
        Metric::new("core.skips", first_classified.skips as f64, "count"),
        Metric::new(
            "outputs_digest",
            // 48 bits, so the value survives a JSON double exactly.
            (plain[0].digest.unwrap_or(0) >> 16) as f64,
            "digest",
        ),
    ]
}

/// Time `f` as a span under `parent` in `log`, returning its result and
/// its duration in ns.
pub fn span<R>(
    log: &mut crate::timed::SpanLog,
    name: &'static str,
    parent: usize,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    let ns = elapsed_ns(start);
    log.call(name, parent, start, ns);
    (out, ns)
}
