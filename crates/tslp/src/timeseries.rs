//! Latency time series collected by the prober.

use csig_netsim::{SimDuration, SimTime};

/// RTT samples over time for one probe target.
#[derive(Debug, Clone, Default)]
pub struct LatencySeries {
    /// `(probe send time, measured RTT)`, in send order.
    pub points: Vec<(SimTime, SimDuration)>,
}

impl LatencySeries {
    /// Empty series.
    pub fn new() -> Self {
        LatencySeries::default()
    }

    /// Append a sample.
    pub fn push(&mut self, at: SimTime, rtt: SimDuration) {
        self.points.push((at, rtt));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no samples exist.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// RTT values in milliseconds.
    pub fn rtts_ms(&self) -> Vec<f64> {
        self.points.iter().map(|(_, r)| r.as_millis_f64()).collect()
    }

    /// Median RTT in milliseconds.
    pub fn median_ms(&self) -> Option<f64> {
        csig_features::median(&self.rtts_ms())
    }

    /// Interpolated percentile of RTT in milliseconds.
    fn percentile_ms(&self, p: f64) -> Option<f64> {
        csig_features::percentile(&self.rtts_ms(), p)
    }

    /// Baseline latency: a low percentile (default p10), robust to
    /// congestion episodes occupying a minority of samples.
    pub fn baseline_ms(&self) -> Option<f64> {
        self.percentile_ms(10.0)
    }

    /// Samples within `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> LatencySeries {
        LatencySeries {
            points: self
                .points
                .iter()
                .filter(|(t, _)| *t >= from && *t < to)
                .copied()
                .collect(),
        }
    }

    /// Minimum RTT within `[from, to)`, in milliseconds.
    #[cfg(test)]
    fn min_in_window_ms(&self, from: SimTime, to: SimTime) -> Option<f64> {
        self.points
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, r)| r.as_millis_f64())
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values_ms: &[u64]) -> LatencySeries {
        let mut s = LatencySeries::new();
        for (i, &v) in values_ms.iter().enumerate() {
            s.push(SimTime::from_secs(i as u64), SimDuration::from_millis(v));
        }
        s
    }

    #[test]
    fn summary_statistics() {
        let s = series(&[10, 12, 11, 50, 10]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.median_ms(), Some(11.0));
        assert!(s.baseline_ms().unwrap() < 11.0);
    }

    #[test]
    fn windowing() {
        let s = series(&[10, 20, 30, 40]);
        let w = s.window(SimTime::from_secs(1), SimTime::from_secs(3));
        assert_eq!(w.len(), 2);
        assert_eq!(
            s.min_in_window_ms(SimTime::from_secs(1), SimTime::from_secs(4)),
            Some(20.0)
        );
        assert_eq!(
            s.min_in_window_ms(SimTime::from_secs(10), SimTime::from_secs(20)),
            None
        );
    }

    #[test]
    fn empty_series_is_safe() {
        let s = LatencySeries::new();
        assert!(s.is_empty());
        assert_eq!(s.median_ms(), None);
        assert_eq!(s.baseline_ms(), None);
    }
}
