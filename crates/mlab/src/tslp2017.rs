//! The `TSLP2017` dataset: the paper's targeted 2017 experiment between
//! an Ark node in Comcast (Massachusetts) and an M-Lab server hosted by
//! TATA in New York, whose interconnect was occasionally congested.
//!
//! Two coupled simulations driven by one ground-truth congestion
//! schedule:
//!
//! 1. A **continuous probing simulation** spanning the whole campaign:
//!    a TSLP prober measures the near (Comcast) and far (TATA) routers
//!    across the interconnect, whose state is switched by
//!    `LinkReconfig` events at episode boundaries — reproducing the
//!    paper's Figure 6a latency spikes (baseline ≈ 18 ms, peaks >
//!    30 ms from the ~15 ms interconnect buffer).
//! 2. **Per-test NDT micro-simulations** at the scheduled test times
//!    (hourly off-peak, every 15 min peak in the paper; configurable),
//!    congested when they fall inside an episode.

use crate::ndt::{run_ndt, CongestedState, NdtMeasurement, NdtPath};
use csig_exec::{Campaign, Executor, ProgressEvent, Scenario};
use csig_features::CongestionClass;
use csig_netsim::rng::{derive_seed, stream_rng};
use csig_netsim::{FlowId, LinkConfig, NodeId, SimDuration, SimTime, Simulator};
use csig_tslp::{LatencySeries, TslpProber};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct Tslp2017Config {
    /// Campaign length in days (paper: ~75; scaled default: 14).
    pub days: u32,
    /// TSLP probe interval (paper probes continuously; default 5 min).
    pub probe_interval: SimDuration,
    /// Minutes between NDT tests during peak hours (paper: 15).
    pub peak_test_minutes: u32,
    /// Minutes between NDT tests off-peak (paper: 60; scaled: 120).
    pub offpeak_test_minutes: u32,
    /// Days (0-based) whose evenings have a congestion episode.
    pub episode_days: Vec<u32>,
    /// NDT test duration.
    pub test_duration: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl Default for Tslp2017Config {
    fn default() -> Self {
        Tslp2017Config {
            days: 14,
            probe_interval: SimDuration::from_secs(300),
            peak_test_minutes: 30,
            offpeak_test_minutes: 120,
            episode_days: vec![2, 5, 9, 12],
            test_duration: SimDuration::from_secs(4),
            seed: 2017,
        }
    }
}

/// One congestion episode window in campaign time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeWindow {
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// Severity of the episode.
    pub state: CongestedState,
}

impl EpisodeWindow {
    /// Does `t` fall inside the window?
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// One scheduled NDT test and its outcome.
#[derive(Debug, Clone)]
pub struct TslpNdtTest {
    /// Campaign time the test started.
    pub at: SimTime,
    /// Ground truth: did the test run inside an episode?
    pub during_episode: bool,
    /// The measurement.
    pub measurement: NdtMeasurement,
}

/// Full campaign output.
#[derive(Debug, Clone)]
pub struct Tslp2017Output {
    /// Near-router (Comcast side) probe series.
    pub near: LatencySeries,
    /// Far-router (TATA side) probe series.
    pub far: LatencySeries,
    /// Scheduled NDT tests in time order.
    pub tests: Vec<TslpNdtTest>,
    /// Ground-truth episode windows.
    pub episodes: Vec<EpisodeWindow>,
    /// Baseline far-router RTT, ms (for labeling).
    pub base_rtt_ms: f64,
}

/// Base one-way latencies of the Ark↔TATA path (client→near router and
/// near→far across the interconnect): 18 ms baseline RTT to the far
/// side, as the paper measured.
const CLIENT_NEAR_MS: u64 = 8;
const NEAR_FAR_MS: u64 = 1;

/// Subscriber plan of the Ark host, Mbit/s.
const PLAN_MBPS: u64 = 25;

/// Labeling thresholds from §4.2/§5.4 of the paper (plan 25 Mbps,
/// baseline 18 ms): external ⇔ throughput < 15 Mbps ∧ min RTT > 30 ms;
/// self ⇔ throughput > 20 Mbps ∧ min RTT < 20 ms; else unlabeled.
pub fn label_tslp2017(test: &TslpNdtTest) -> Option<CongestionClass> {
    let tput = test.measurement.throughput_mbps;
    let min_rtt = test.measurement.min_rtt_ms?;
    let plan = PLAN_MBPS as f64;
    if tput < 0.6 * plan && min_rtt > 30.0 {
        Some(CongestionClass::External)
    } else if tput > 0.8 * plan && min_rtt < 20.0 {
        Some(CongestionClass::SelfInduced)
    } else {
        None
    }
}

/// Build the episode schedule: evenings (19:00–22:30) of the configured
/// days, with per-episode severity jitter.
pub fn build_schedule(cfg: &Tslp2017Config) -> Vec<EpisodeWindow> {
    let mut rng = stream_rng(cfg.seed, 0xE915);
    cfg.episode_days
        .iter()
        .filter(|&&d| d < cfg.days)
        .map(|&d| {
            let day = SimTime::from_secs(d as u64 * 86_400);
            let start = day + SimDuration::from_secs(19 * 3600 + rng.gen_range(0..1800));
            let len = SimDuration::from_secs(rng.gen_range(9_000..13_500)); // 2.5–3.75 h
            EpisodeWindow {
                start,
                end: start + len,
                state: CongestedState {
                    available_mbps: 8.0 + rng.gen::<f64>() * 5.0,
                    standing_delay_ms: 12.0 + rng.gen::<f64>() * 3.0,
                    headroom_ms: 9.0 + rng.gen::<f64>() * 4.0,
                },
            }
        })
        .collect()
}

/// Run the continuous probing simulation over the schedule. Panics if
/// the simulation exhausts its event budget (the series would be
/// truncated).
fn run_probe_campaign(
    cfg: &Tslp2017Config,
    episodes: &[EpisodeWindow],
) -> (LatencySeries, LatencySeries) {
    let ms = SimDuration::from_millis;
    let mut sim = Simulator::new(derive_seed(cfg.seed, 1));
    let horizon = SimTime::from_secs(cfg.days as u64 * 86_400);
    let client = sim.add_host(Box::new(TslpProber::new(
        vec![NodeId(1), NodeId(2)],
        cfg.probe_interval,
        horizon,
        FlowId(1),
    )));
    let near = sim.add_router();
    let far = sim.add_router();
    sim.add_duplex_link(
        client,
        near,
        LinkConfig::new(100_000_000, ms(CLIENT_NEAR_MS)),
    );
    let idle = LinkConfig::new(200_000_000, ms(NEAR_FAR_MS)).buffer_ms(15);
    let (nf, _fn_) = sim.add_duplex_link(near, far, idle.clone());
    sim.compute_routes();

    // Schedule interconnect state changes at episode boundaries.
    for ep in episodes {
        let congested = LinkConfig::new(
            (ep.state.available_mbps * 1e6) as u64,
            ms(NEAR_FAR_MS) + SimDuration::from_secs_f64(ep.state.standing_delay_ms / 1e3),
        )
        .buffer_ms(ep.state.headroom_ms.max(1.0) as u64);
        sim.schedule_link_reconfig(ep.start, nf, congested);
        sim.schedule_link_reconfig(ep.end, nf, idle.clone());
    }
    sim.set_event_budget(200_000_000);
    sim.run_until(horizon + SimDuration::from_secs(60))
        .expect_within_budget();

    let Some(prober) = sim.agent::<TslpProber>(client) else {
        unreachable!("client added above as a TslpProber")
    };
    let Some(far) = prober.far() else {
        unreachable!("prober constructed with two targets")
    };
    (prober.near().clone(), far.clone())
}

/// The NDT test schedule in campaign time.
pub fn test_schedule(cfg: &Tslp2017Config) -> Vec<SimTime> {
    let mut times = Vec::new();
    for day in 0..cfg.days as u64 {
        let day_start = day * 86_400;
        let mut minute = 0u64;
        while minute < 24 * 60 {
            let hour = (minute / 60) as u8;
            let peak = (16..24).contains(&hour);
            times.push(SimTime::from_secs(day_start + minute * 60));
            minute += if peak {
                cfg.peak_test_minutes as u64
            } else {
                cfg.offpeak_test_minutes as u64
            };
        }
    }
    times
}

/// One scheduled TSLP2017 NDT test as a self-contained [`Scenario`]:
/// the campaign-time slot plus the episode state (if any) it falls in.
#[derive(Debug, Clone, Copy)]
pub struct TslpNdtScenario {
    /// Campaign time the test starts.
    pub at: SimTime,
    /// The episode state covering `at`, if any.
    pub episode: Option<CongestedState>,
    /// NDT test duration.
    pub duration: SimDuration,
}

impl Scenario for TslpNdtScenario {
    type Artifact = TslpNdtTest;

    fn run(&self, seed: u64) -> TslpNdtTest {
        let path = NdtPath {
            plan_mbps: PLAN_MBPS,
            access_buffer_ms: 20, // the paper's small-buffer worst case
            access_latency_ms: CLIENT_NEAR_MS,
            server_one_way_ms: NEAR_FAR_MS,
            interconnect_buffer_ms: 15,
            congestion: self.episode,
            duration: self.duration,
            seed,
        };
        TslpNdtTest {
            at: self.at,
            during_episode: self.episode.is_some(),
            measurement: run_ndt(&path),
        }
    }
}

/// The NDT half of the campaign over a prebuilt episode schedule. The
/// i-th test keeps its bespoke seed `derive_seed(cfg.seed, 0x7E57 + i)`
/// from the original loop, so measurements are unchanged.
fn ndt_campaign(cfg: &Tslp2017Config, episodes: &[EpisodeWindow]) -> Campaign<TslpNdtScenario> {
    let mut campaign = Campaign::new(cfg.seed);
    for (i, at) in test_schedule(cfg).into_iter().enumerate() {
        let episode = episodes.iter().find(|e| e.contains(at));
        campaign.push_seeded(
            derive_seed(cfg.seed, 0x7E57 + i as u64),
            TslpNdtScenario {
                at,
                episode: episode.map(|e| e.state),
                duration: cfg.test_duration,
            },
        );
    }
    campaign
}

/// Run the full campaign, spreading the NDT tests over `exec`'s
/// workers with a progress callback over them. The continuous probing simulation is one coupled system and
/// stays sequential; only the independent NDT micro-simulations
/// parallelize. Output is byte-identical for every worker count.
///
/// # Panics
/// Panics with the failure summary if any NDT test failed.
pub fn run_campaign_with<F: FnMut(ProgressEvent)>(
    cfg: &Tslp2017Config,
    exec: &Executor,
    progress: F,
) -> Tslp2017Output {
    let episodes = build_schedule(cfg);
    let (near, far) = run_probe_campaign(cfg, &episodes);
    let tests = exec
        .run_isolated_with_progress(&ndt_campaign(cfg, &episodes), progress)
        .expect_artifacts();

    Tslp2017Output {
        near,
        far,
        tests,
        episodes,
        base_rtt_ms: 2.0 * (CLIENT_NEAR_MS + NEAR_FAR_MS) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_tslp::{interdomain_episodes, DetectorParams};

    fn tiny_cfg() -> Tslp2017Config {
        Tslp2017Config {
            days: 2,
            probe_interval: SimDuration::from_secs(600),
            peak_test_minutes: 120,
            offpeak_test_minutes: 360,
            episode_days: vec![1],
            test_duration: SimDuration::from_secs(3),
            ..Tslp2017Config::default()
        }
    }

    #[test]
    fn schedule_builds_evening_windows() {
        let cfg = Tslp2017Config::default();
        let eps = build_schedule(&cfg);
        assert_eq!(eps.len(), 4);
        for ep in &eps {
            let day_sec = ep.start.as_nanos() / 1_000_000_000 % 86_400;
            let hour = day_sec / 3600;
            assert!((19..21).contains(&hour), "episode starts at hour {hour}");
            assert!(ep.end > ep.start);
        }
    }

    #[test]
    fn campaign_probes_detect_the_episode() {
        let out = run_campaign_with(&tiny_cfg(), &Executor::sequential(), |_| {});
        assert!(!out.near.is_empty() && !out.far.is_empty());
        // Far baseline ≈ 18 ms.
        let base = out.far.baseline_ms().unwrap();
        assert!((base - 18.0).abs() < 2.0, "baseline {base}");
        let detected = interdomain_episodes(
            &out.near,
            &out.far,
            DetectorParams {
                min_elevation_ms: 6.0,
                min_run: 2,
            },
        );
        assert_eq!(detected.len(), 1, "{detected:?}");
        // Detected window overlaps the scheduled one.
        let truth = out.episodes[0];
        assert!(detected[0].start >= truth.start - SimDuration::from_secs(1200));
        assert!(detected[0].end <= truth.end + SimDuration::from_secs(1200));
    }

    #[test]
    fn tests_during_episodes_are_externally_limited() {
        let out = run_campaign_with(&tiny_cfg(), &Executor::sequential(), |_| {});
        let episode_tests: Vec<_> = out.tests.iter().filter(|t| t.during_episode).collect();
        let clean_tests: Vec<_> = out.tests.iter().filter(|t| !t.during_episode).collect();
        assert!(!episode_tests.is_empty(), "no tests hit the episode window");
        assert!(!clean_tests.is_empty());
        for t in &episode_tests {
            assert!(
                t.measurement.throughput_mbps < 16.0,
                "episode test at {} got {} Mbps",
                t.at,
                t.measurement.throughput_mbps
            );
        }
        // Labeling recovers the structure.
        let ext = episode_tests
            .iter()
            .filter(|t| label_tslp2017(t) == Some(CongestionClass::External))
            .count();
        assert!(ext > 0, "no episode test labeled external");
        let selfs = clean_tests
            .iter()
            .filter(|t| label_tslp2017(t) == Some(CongestionClass::SelfInduced))
            .count();
        assert!(
            selfs as f64 > 0.8 * clean_tests.len() as f64,
            "only {selfs}/{} clean tests labeled self",
            clean_tests.len()
        );
    }
}
