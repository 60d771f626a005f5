//! Congestion-episode detection from latency time series.
//!
//! Following Luckie et al.: an episode is a sustained *level shift* of
//! the far-side RTT above its baseline that the near-side RTT does not
//! share — pointing at queueing on the interdomain link between the two
//! probed routers.

use crate::timeseries::LatencySeries;
use csig_netsim::SimTime;

/// Detector parameters.
#[derive(Debug, Clone, Copy)]
pub struct DetectorParams {
    /// RTT elevation above baseline (ms) that counts as congested —
    /// roughly the interdomain buffer's queueing delay (the paper's
    /// TATA link showed ~15 ms).
    pub min_elevation_ms: f64,
    /// Minimum consecutive elevated samples to open an episode (filters
    /// isolated spikes).
    pub min_run: usize,
}

impl Default for DetectorParams {
    fn default() -> Self {
        DetectorParams {
            min_elevation_ms: 5.0,
            min_run: 3,
        }
    }
}

/// One detected congestion episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// First elevated probe's send time.
    pub start: SimTime,
    /// Last elevated probe's send time.
    pub end: SimTime,
    /// Peak RTT during the episode, ms.
    pub peak_ms: f64,
}

impl Episode {
    /// Does `t` fall within the episode (inclusive)?
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t <= self.end
    }
}

/// Find level-shift episodes in a single series.
pub fn detect_episodes(series: &LatencySeries, params: DetectorParams) -> Vec<Episode> {
    let Some(baseline) = series.baseline_ms() else {
        return Vec::new();
    };
    let threshold = baseline + params.min_elevation_ms;
    let mut episodes = Vec::new();
    let mut run: Vec<(SimTime, f64)> = Vec::new();
    for &(t, rtt) in &series.points {
        let ms = rtt.as_millis_f64();
        if ms >= threshold {
            run.push((t, ms));
        } else {
            flush_run(&mut run, params.min_run, &mut episodes);
        }
    }
    flush_run(&mut run, params.min_run, &mut episodes);
    episodes
}

fn flush_run(run: &mut Vec<(SimTime, f64)>, min_run: usize, episodes: &mut Vec<Episode>) {
    if run.len() >= min_run {
        episodes.push(Episode {
            start: run[0].0,
            end: run[run.len() - 1].0,
            peak_ms: run.iter().map(|&(_, m)| m).fold(0.0, f64::max),
        });
    }
    run.clear();
}

/// Interdomain-link congestion: episodes on the far series that are
/// *not* mirrored on the near series (a shared elevation would point at
/// congestion before the near router instead).
pub fn interdomain_episodes(
    near: &LatencySeries,
    far: &LatencySeries,
    params: DetectorParams,
) -> Vec<Episode> {
    let near_eps = detect_episodes(near, params);
    detect_episodes(far, params)
        .into_iter()
        .filter(|fe| {
            // Keep the far episode unless the near side is elevated for
            // (roughly) the same span.
            !near_eps
                .iter()
                .any(|ne| ne.start <= fe.end && fe.start <= ne.end)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::SimDuration;

    fn series(values_ms: &[u64]) -> LatencySeries {
        let mut s = LatencySeries::new();
        for (i, &v) in values_ms.iter().enumerate() {
            s.push(SimTime::from_secs(i as u64), SimDuration::from_millis(v));
        }
        s
    }

    #[test]
    fn detects_a_level_shift() {
        let mut vals = vec![18u64; 20];
        vals.extend(vec![33u64; 10]); // +15 ms episode
        vals.extend(vec![18u64; 20]);
        let eps = detect_episodes(&series(&vals), DetectorParams::default());
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].start, SimTime::from_secs(20));
        assert_eq!(eps[0].end, SimTime::from_secs(29));
        assert_eq!(eps[0].peak_ms, 33.0);
        assert!(eps[0].contains(SimTime::from_secs(25)));
        assert!(!eps[0].contains(SimTime::from_secs(31)));
    }

    #[test]
    fn short_spikes_are_filtered() {
        let mut vals = vec![18u64; 10];
        vals.push(40); // 1-sample spike
        vals.extend(vec![18u64; 10]);
        let eps = detect_episodes(&series(&vals), DetectorParams::default());
        assert!(eps.is_empty());
    }

    #[test]
    fn flat_series_has_no_episodes() {
        let eps = detect_episodes(&series(&[20; 50]), DetectorParams::default());
        assert!(eps.is_empty());
    }

    #[test]
    fn interdomain_requires_far_only_elevation() {
        let mut far_vals = vec![18u64; 10];
        far_vals.extend(vec![35u64; 6]);
        far_vals.extend(vec![18u64; 10]);
        let far = series(&far_vals);
        // Near flat: episode attributed to the interdomain link.
        let near_flat = series(&[8; 26]);
        let eps = interdomain_episodes(&near_flat, &far, DetectorParams::default());
        assert_eq!(eps.len(), 1);
        // Near elevated over the same span: not the interdomain link.
        let mut near_vals = vec![8u64; 10];
        near_vals.extend(vec![25u64; 6]);
        near_vals.extend(vec![8u64; 10]);
        let near_up = series(&near_vals);
        let eps = interdomain_episodes(&near_up, &far, DetectorParams::default());
        assert!(eps.is_empty());
    }

    #[test]
    fn multiple_episodes_detected() {
        let mut vals = Vec::new();
        for _ in 0..3 {
            vals.extend(vec![18u64; 10]);
            vals.extend(vec![33u64; 5]);
        }
        vals.extend(vec![18u64; 10]);
        let eps = detect_episodes(&series(&vals), DetectorParams::default());
        assert_eq!(eps.len(), 3);
    }
}
