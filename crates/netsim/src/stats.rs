//! Per-link counters used by tests and experiment reports.

use crate::time::SimDuration;

/// Counters a [`crate::link::Link`] accumulates over its lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// Packets offered to the link (before loss/queue admission).
    pub offered_pkts: u64,
    /// Bytes offered to the link.
    pub offered_bytes: u64,
    /// Packets that departed onto the wire (counted when the link
    /// retires them, so current as of the last admission or the end of
    /// the last run).
    pub delivered_pkts: u64,
    /// Bytes that departed onto the wire (counted like `delivered_pkts`).
    pub delivered_bytes: u64,
    /// Packets dropped by i.i.d. random loss.
    pub dropped_loss: u64,
    /// Packets dropped because the buffer was full.
    pub dropped_full: u64,
    /// Packets dropped by early detection (RED).
    pub dropped_early: u64,
    /// Packets dropped because the link was down (fault injection).
    pub dropped_down: u64,
    /// Packets duplicated by fault injection (extra copies admitted).
    pub duplicated: u64,
    /// Packets deliberately delivered out of order by fault injection.
    pub reordered: u64,
    /// Sum of per-packet queueing delay (enqueue → departure) over the
    /// packets counted in `delivered_pkts`.
    pub total_queue_delay: SimDuration,
}

impl LinkStats {
    /// Record a departure.
    pub(crate) fn record_delivery(&mut self, bytes: u64, queue_delay: SimDuration) {
        self.delivered_pkts += 1;
        self.delivered_bytes += bytes;
        self.total_queue_delay += queue_delay;
    }

    /// All drops regardless of cause.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_loss + self.dropped_full + self.dropped_early + self.dropped_down
    }

    /// Mean queueing delay of delivered packets.
    pub fn mean_queue_delay(&self) -> SimDuration {
        if self.delivered_pkts == 0 {
            SimDuration::ZERO
        } else {
            self.total_queue_delay / self.delivered_pkts
        }
    }

    /// Fraction of offered packets that were dropped.
    #[cfg(test)]
    fn drop_rate(&self) -> f64 {
        if self.offered_pkts == 0 {
            0.0
        } else {
            self.dropped_total() as f64 / self.offered_pkts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let mut s = LinkStats {
            offered_pkts: 10,
            dropped_loss: 1,
            dropped_full: 2,
            ..Default::default()
        };
        s.record_delivery(1500, SimDuration::from_millis(2));
        s.record_delivery(1500, SimDuration::from_millis(4));
        assert_eq!(s.dropped_total(), 3);
        assert_eq!(s.delivered_pkts, 2);
        assert_eq!(s.mean_queue_delay(), SimDuration::from_millis(3));
        assert!((s.drop_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = LinkStats::default();
        assert_eq!(s.mean_queue_delay(), SimDuration::ZERO);
        assert_eq!(s.drop_rate(), 0.0);
    }
}
