//! The `Dispute2014` dataset: a generative model of the M-Lab NDT
//! measurement campaign around the 2014 Cogent peering dispute.
//!
//! The real dataset (NDT tests from Comcast/TimeWarner/Verizon/Cox
//! customers to Cogent servers in LAX/LGA and a Level3 server in ATL,
//! January–April 2014) is not available offline, so its published
//! macroscopic structure is encoded as ground truth:
//!
//! * Cogent interconnects to Comcast, TimeWarner and Verizon are
//!   congested during **peak hours in January–February** and clean
//!   afterwards (the dispute resolved late February).
//! * Cox (direct Netflix peering) and Level3 are never congested.
//! * Test arrivals follow a diurnal usage curve.
//!
//! Every synthetic test is *executed as a real simulation*
//! ([`run_ndt`]), producing a genuine packet trace, Web100 log and
//! feature vector — the classifier is exercised on measured data, not
//! on sampled feature values.

use crate::isp::{AccessIsp, Month, TransitSite};
use crate::ndt::{run_ndt, CongestedState, NdtMeasurement, NdtPath};
use csig_exec::{Campaign, Executor, ProgressEvent, Scenario};
use csig_features::CongestionClass;
use csig_netsim::rng::stream_rng;
use csig_netsim::SimDuration;
use csig_rng::StdRng;

/// Campaign generator configuration.
#[derive(Debug, Clone)]
pub struct Dispute2014Config {
    /// Tests per (site, ISP, month) cell.
    pub tests_per_cell: u32,
    /// NDT test duration (paper: 10 s; scaled default: 4 s).
    pub test_duration: SimDuration,
    /// Master seed.
    pub seed: u64,
}

/// One synthetic NDT test with its metadata.
#[derive(Debug, Clone)]
pub struct NdtTest {
    /// M-Lab server site.
    pub site: TransitSite,
    /// Client's access ISP.
    pub isp: AccessIsp,
    /// Month of the test.
    pub month: Month,
    /// Local hour of day (0–23).
    pub hour: u8,
    /// Client's service plan, Mbit/s.
    pub plan_mbps: u64,
    /// Generator ground truth: was the interconnect congested?
    pub congested: bool,
    /// The simulated measurement.
    pub measurement: NdtMeasurement,
}

/// Relative network load by local hour — the diurnal curve shaping both
/// test arrivals and congestion probability (peak ≈ 20–21 h).
pub fn diurnal_load(hour: u8) -> f64 {
    let h = hour as f64;
    let peak = (-((h - 20.5) * (h - 20.5)) / (2.0 * 3.2 * 3.2)).exp();
    // Secondary morning shoulder.
    let morning = 0.25 * (-((h - 9.0) * (h - 9.0)) / (2.0 * 3.0 * 3.0)).exp();
    (0.3 + 0.7 * peak + morning).min(1.0)
}

/// Probability that an affected interconnect is congested at this hour
/// while the dispute is active. Calibrated so congestion covers most of
/// the 16:00–24:00 peak window the paper's labeling uses (Figure 5a
/// shows the throughput drop spanning that whole window).
fn congestion_probability(hour: u8) -> f64 {
    ((diurnal_load(hour) - 0.45) / 0.3).clamp(0.0, 1.0)
}

/// Sample an hour of day weighted by the diurnal usage curve.
fn sample_hour(rng: &mut StdRng) -> u8 {
    let weights: Vec<f64> = (0..24).map(diurnal_load).collect();
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (h, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return h as u8;
        }
    }
    23
}

/// One scheduled Dispute2014 NDT test as a self-contained [`Scenario`]:
/// a (site, ISP, month) cell slot whose client-side variation (hour,
/// plan, home buffer, congestion draw) all derives from its seed.
#[derive(Debug, Clone, Copy)]
pub struct NdtScenario {
    /// M-Lab server site.
    pub site: TransitSite,
    /// Client's access ISP.
    pub isp: AccessIsp,
    /// Month of the test.
    pub month: Month,
    /// NDT test duration.
    pub duration: SimDuration,
}

impl Scenario for NdtScenario {
    type Artifact = NdtTest;

    fn run(&self, seed: u64) -> NdtTest {
        let mut rng = stream_rng(seed, 0);
        run_one(self, seed, &mut rng)
    }
}

/// The generation campaign: every cell of (site × ISP × month) gets
/// `tests_per_cell` scenarios, in cell order. Scenario order matches
/// the original inline loop's 1-based tag scheme, so every per-test
/// seed — and thus every measurement — is unchanged.
pub fn campaign(cfg: &Dispute2014Config) -> Campaign<NdtScenario> {
    let mut campaign = Campaign::new(cfg.seed);
    for site in TransitSite::ALL {
        for isp in AccessIsp::ALL {
            for month in Month::ALL {
                for _ in 0..cfg.tests_per_cell {
                    campaign.push(NdtScenario {
                        site,
                        isp,
                        month,
                        duration: cfg.test_duration,
                    });
                }
            }
        }
    }
    campaign
}

/// Generate the campaign on `exec`'s workers: every cell of
/// (site × ISP × month) gets
/// `tests_per_cell` simulated tests. Results are byte-identical for
/// every worker count.
///
/// # Panics
/// Panics with the failure summary if any test failed.
pub fn generate_with<F: FnMut(ProgressEvent)>(
    cfg: &Dispute2014Config,
    exec: &Executor,
    progress: F,
) -> Vec<NdtTest> {
    exec.run_isolated_with_progress(&campaign(cfg), progress)
        .expect_artifacts()
}

fn run_one(scenario: &NdtScenario, seed: u64, rng: &mut StdRng) -> NdtTest {
    let NdtScenario {
        site,
        isp,
        month,
        duration,
    } = *scenario;
    let hour = sample_hour(rng);
    let plan_mbps = isp.sample_plan(rng);

    // Is the interconnect congested for this test?
    let affected = site.is_cogent() && isp.affected_by_dispute() && month.dispute_active();
    let congested = affected && rng.gen::<f64>() < congestion_probability(hour);

    // Home-side variation: buffer depth and last-mile latency.
    let access_buffer_ms = [25u64, 45, 60, 100, 180][rng.gen_range(0..5)];
    let access_latency_ms = rng.gen_range(5..=15);

    let congestion = congested.then(|| {
        let intensity = congestion_probability(hour);
        CongestedState {
            // Deeper congestion → smaller fair share, noisier.
            available_mbps: (14.0 - 6.0 * intensity + rng.gen::<f64>() * 4.0 - 2.0).max(4.0),
            standing_delay_ms: 17.0 + 5.0 * intensity + rng.gen::<f64>() * 3.0,
            headroom_ms: 12.0 + rng.gen::<f64>() * 6.0,
        }
    });

    let path = NdtPath {
        plan_mbps,
        access_buffer_ms,
        access_latency_ms,
        server_one_way_ms: site.base_one_way_ms(),
        interconnect_buffer_ms: 25,
        congestion,
        duration,
        seed,
    };
    NdtTest {
        site,
        isp,
        month,
        hour,
        plan_mbps,
        congested,
        measurement: run_ndt(&path),
    }
}

/// Peak hours per the paper's labeling (16:00–24:00 local).
pub fn is_peak_hour(hour: u8) -> bool {
    (16..24).contains(&hour)
}

/// Off-peak hours per the paper's labeling (01:00–08:00 local).
pub fn is_off_peak_hour(hour: u8) -> bool {
    (1..9).contains(&hour)
}

/// The paper's coarse Dispute2014 labeling: peak-hour Jan–Feb tests
/// from affected ISPs to Cogent sites → external; off-peak Mar–Apr
/// tests → self-induced; everything else unlabeled.
pub fn label_dispute2014(test: &NdtTest) -> Option<CongestionClass> {
    if test.measurement.features.is_err() {
        return None;
    }
    if test.month.dispute_active()
        && is_peak_hour(test.hour)
        && test.site.is_cogent()
        && test.isp.affected_by_dispute()
    {
        Some(CongestionClass::External)
    } else if !test.month.dispute_active() && is_off_peak_hour(test.hour) {
        Some(CongestionClass::SelfInduced)
    } else {
        None
    }
}

/// Aggregate: mean throughput by hour of day for one (site, isp,
/// month-pair) slice — the series of the paper's Figure 5.
pub fn diurnal_throughput(
    tests: &[NdtTest],
    site: TransitSite,
    isp: AccessIsp,
    months: &[Month],
) -> Vec<(u8, f64, usize)> {
    (0..24u8)
        .filter_map(|h| {
            let vals: Vec<f64> = tests
                .iter()
                .filter(|t| {
                    t.site == site && t.isp == isp && months.contains(&t.month) && t.hour == h
                })
                .map(|t| t.measurement.throughput_mbps)
                .collect();
            if vals.is_empty() {
                None
            } else {
                let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                Some((h, mean, vals.len()))
            }
        })
        .collect()
}

/// Export a campaign as CSV (one row per test) for external analysis.
pub fn to_csv(tests: &[NdtTest]) -> String {
    let mut out = String::from(
        "site,isp,month,hour,plan_mbps,congested,throughput_mbps,norm_diff,cov,samples,min_rtt_ms,label\n",
    );
    for t in tests {
        let (nd, cov, n) = match &t.measurement.features {
            Ok(f) => (
                format!("{:.4}", f.norm_diff),
                format!("{:.4}", f.cov),
                f.samples.to_string(),
            ),
            Err(_) => ("".into(), "".into(), "0".into()),
        };
        let label = label_dispute2014(t)
            .map(|c| c.label().to_string())
            .unwrap_or_default();
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.3},{},{},{},{},{}\n",
            t.site.name(),
            t.isp.name(),
            t.month.name(),
            t.hour,
            t.plan_mbps,
            t.congested,
            t.measurement.throughput_mbps,
            nd,
            cov,
            n,
            t.measurement
                .min_rtt_ms
                .map(|v| format!("{v:.2}"))
                .unwrap_or_default(),
            label,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<NdtTest> {
        let cfg = Dispute2014Config {
            tests_per_cell: 3,
            test_duration: SimDuration::from_secs(3),
            seed: 99,
        };
        generate_with(&cfg, &Executor::sequential(), |_| {})
    }

    #[test]
    fn diurnal_curve_peaks_in_the_evening() {
        assert!(diurnal_load(20) > 0.9);
        assert!(diurnal_load(4) < 0.45);
        assert!(diurnal_load(20) > diurnal_load(12));
        for h in 0..24 {
            let l = diurnal_load(h);
            assert!((0.0..=1.0).contains(&l));
        }
    }

    #[test]
    fn only_affected_cells_get_congested_tests() {
        let tests = tiny();
        assert_eq!(tests.len(), 3 * 4 * 4 * 3);
        for t in &tests {
            if t.congested {
                assert!(t.site.is_cogent(), "{t:?}");
                assert!(t.isp.affected_by_dispute());
                assert!(t.month.dispute_active());
            }
        }
        // Some congestion must exist.
        assert!(tests.iter().any(|t| t.congested));
    }

    #[test]
    fn congested_tests_are_slower() {
        let tests = tiny();
        let mean = |congested: bool| {
            let v: Vec<f64> = tests
                .iter()
                .filter(|t| t.congested == congested)
                .map(|t| t.measurement.throughput_mbps)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        assert!(
            mean(true) < mean(false),
            "congested {} vs idle {}",
            mean(true),
            mean(false)
        );
    }

    #[test]
    fn labeling_follows_paper_rules() {
        let tests = tiny();
        for t in &tests {
            match label_dispute2014(t) {
                Some(CongestionClass::External) => {
                    assert!(t.month.dispute_active() && is_peak_hour(t.hour));
                    assert!(t.site.is_cogent() && t.isp.affected_by_dispute());
                }
                Some(CongestionClass::SelfInduced) => {
                    assert!(!t.month.dispute_active() && is_off_peak_hour(t.hour));
                }
                None => {}
            }
        }
    }

    #[test]
    fn diurnal_throughput_aggregates() {
        let tests = tiny();
        let series = diurnal_throughput(
            &tests,
            TransitSite::CogentLax,
            AccessIsp::Comcast,
            &[Month::Jan, Month::Feb],
        );
        let n: usize = series.iter().map(|(_, _, c)| c).sum();
        assert_eq!(n, 6); // 3 per month × 2 months
    }

    #[test]
    fn csv_export_has_one_row_per_test() {
        let tests = tiny();
        let csv = to_csv(&tests);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), tests.len() + 1);
        assert!(lines[0].starts_with("site,isp,month"));
        assert!(lines[1].split(',').count() >= 12);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hour, y.hour);
            assert_eq!(x.plan_mbps, y.plan_mbps);
            assert_eq!(
                x.measurement.throughput.bytes_acked,
                y.measurement.throughput.bytes_acked
            );
        }
    }
}
