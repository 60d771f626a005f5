//! Web100-style per-test instrumentation.
//!
//! Every NDT measurement logs kernel TCP statistics (the Web100 patch);
//! the paper filters tests on them: downstream tests lasting ≥ 9 s that
//! spent ≥ 90 % of the test in the *congestion limited* state. This
//! module condenses our in-stack [`ConnStats`] into the fields that
//! pipeline needs.

use csig_netsim::SimDuration;
use csig_tcp::ConnStats;

/// Condensed Web100 log for one NDT test.
#[derive(Debug, Clone)]
pub struct Web100Log {
    /// Test duration (handshake to close/abort).
    pub duration: SimDuration,
    /// Payload bytes acknowledged.
    pub bytes_acked: u64,
    /// Fraction of established time spent congestion-limited.
    pub congestion_limited: f64,
    /// Fraction of established time spent receiver-limited.
    pub receiver_limited: f64,
    /// Fraction of established time spent sender(app)-limited.
    pub sender_limited: f64,
    /// Total retransmitted segments.
    pub retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Minimum in-stack RTT sample, ms (`None` if no samples).
    pub min_rtt_ms: Option<f64>,
    /// Smoothed (mean of samples) RTT, ms.
    pub mean_rtt_ms: Option<f64>,
}

impl Web100Log {
    /// Build from a finished/aborted connection's counters.
    pub fn from_stats(stats: &ConnStats) -> Self {
        let duration = match (stats.established_at, stats.closed_at) {
            (Some(a), Some(b)) => b.saturating_since(a),
            _ => SimDuration::ZERO,
        };
        let total: f64 = stats.limited.iter().map(|d| d.as_secs_f64()).sum();
        let frac = |d: SimDuration| {
            if total <= 0.0 {
                0.0
            } else {
                d.as_secs_f64() / total
            }
        };
        let rtts = stats.rtt_samples.iter().map(|(_, r)| r.as_millis_f64());
        let min_rtt_ms = rtts.clone().reduce(f64::min);
        let n = stats.rtt_samples.len();
        let mean_rtt_ms = (n > 0).then(|| rtts.sum::<f64>() / n as f64);
        Web100Log {
            duration,
            bytes_acked: stats.bytes_acked,
            congestion_limited: frac(stats.limited[0]),
            receiver_limited: frac(stats.limited[1]),
            sender_limited: frac(stats.limited[2]),
            retransmits: stats.retransmits,
            timeouts: stats.timeouts,
            min_rtt_ms,
            mean_rtt_ms,
        }
    }

    /// The paper's M-Lab pre-processing filter: test ran ≥
    /// `min_duration` and was congestion-limited ≥ 90 % of the time.
    pub fn passes_mlab_filter(&self, min_duration: SimDuration) -> bool {
        self.duration >= min_duration && self.congestion_limited >= 0.9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_netsim::SimTime;

    fn stats(cwnd_s: u64, rwnd_s: u64, app_s: u64) -> ConnStats {
        ConnStats {
            established_at: Some(SimTime::from_secs(1)),
            closed_at: Some(SimTime::from_secs(11)),
            limited: [
                SimDuration::from_secs(cwnd_s),
                SimDuration::from_secs(rwnd_s),
                SimDuration::from_secs(app_s),
            ],
            rtt_samples: vec![
                (SimTime::from_secs(2), SimDuration::from_millis(30)),
                (SimTime::from_secs(3), SimDuration::from_millis(50)),
            ],
            ..ConnStats::default()
        }
    }

    #[test]
    fn fractions_and_rtts() {
        let log = Web100Log::from_stats(&stats(9, 1, 0));
        assert_eq!(log.duration, SimDuration::from_secs(10));
        assert!((log.congestion_limited - 0.9).abs() < 1e-12);
        assert!((log.receiver_limited - 0.1).abs() < 1e-12);
        assert_eq!(log.min_rtt_ms, Some(30.0));
        assert_eq!(log.mean_rtt_ms, Some(40.0));
    }

    #[test]
    fn filter_thresholds() {
        let log = Web100Log::from_stats(&stats(9, 1, 0));
        assert!(log.passes_mlab_filter(SimDuration::from_secs(9)));
        assert!(!log.passes_mlab_filter(SimDuration::from_secs(11)));
        let weak = Web100Log::from_stats(&stats(5, 5, 0));
        assert!(!weak.passes_mlab_filter(SimDuration::from_secs(9)));
    }

    #[test]
    fn empty_stats_are_safe() {
        let log = Web100Log::from_stats(&ConnStats::default());
        assert_eq!(log.duration, SimDuration::ZERO);
        assert_eq!(log.min_rtt_ms, None);
        assert!(!log.passes_mlab_filter(SimDuration::from_secs(1)));
    }
}
