//! Congestion-control algorithms.
//!
//! The sender state machine delegates window management to a
//! [`CongestionControl`] implementation. Three are provided:
//!
//! * [`NewReno`](reno::NewReno) — the loss-based algorithm the paper's
//!   2014-era testbed effectively exercised, with classic slow start,
//!   AIMD congestion avoidance and NewReno recovery inflation.
//! * [`Cubic`](cubic::Cubic) — the Linux default since 2.6.19.
//! * [`BbrLite`](bbr::BbrLite) — a window-based approximation of BBR's
//!   model (max-bandwidth × min-RTT), included because §6 of the paper
//!   calls out latency-controlling TCPs as a potential confounder.

pub mod bbr;
pub mod cubic;
pub mod reno;

use csig_netsim::{SimDuration, SimTime};

/// Everything an algorithm may want to know about an arriving ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckInfo {
    /// Arrival time of the ACK.
    pub now: SimTime,
    /// Bytes newly acknowledged by this ACK.
    pub bytes_acked: u64,
    /// RTT sample attributable to this ACK (Karn-filtered).
    pub rtt_sample: Option<SimDuration>,
    /// Smoothed RTT after processing this sample.
    pub srtt: Option<SimDuration>,
    /// Bytes still in flight after this ACK.
    pub flight: u64,
    /// Whether the sender is in fast recovery.
    pub in_recovery: bool,
}

/// A pluggable congestion controller. All quantities are in bytes.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Process an ACK that advanced `snd_una` (not a duplicate).
    fn on_ack(&mut self, info: &AckInfo);

    /// A duplicate ACK arrived while already in recovery (NewReno
    /// window inflation). Default: no-op.
    fn on_dupack_in_recovery(&mut self) {}

    /// A partial ACK during recovery acknowledged `bytes_acked` new
    /// bytes (NewReno deflation). Default: no-op.
    fn on_partial_ack(&mut self, _bytes_acked: u64) {}

    /// Loss detected via triple duplicate ACK; `flight` is bytes
    /// outstanding at detection.
    fn on_fast_retransmit(&mut self, flight: u64, now: SimTime);

    /// Recovery completed (the recovery point was acknowledged).
    fn on_recovery_exit(&mut self) {}

    /// The retransmission timer fired.
    fn on_retransmission_timeout(&mut self, flight: u64, now: SimTime);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> u64;

    /// Is the algorithm in its exponential-growth phase?
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }

    /// Algorithm label.
    fn name(&self) -> &'static str;
}

/// Initial congestion window in segments (the Linux default).
pub const INIT_CWND_SEGMENTS: u32 = 10;

/// Algorithm selector carried in `TcpConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// Classic NewReno.
    NewReno,
    /// CUBIC (RFC 8312).
    Cubic,
    /// Simplified BBR.
    BbrLite,
}

impl CcKind {
    /// Instantiate the algorithm with a
    /// [`DEFAULT_MSS`](csig_netsim::DEFAULT_MSS) segment size and a
    /// [`INIT_CWND_SEGMENTS`]-segment initial window.
    pub fn build(self) -> Box<dyn CongestionControl> {
        let (mss, iw) = (csig_netsim::DEFAULT_MSS, INIT_CWND_SEGMENTS);
        match self {
            CcKind::NewReno => Box::new(reno::NewReno::new(mss, iw)),
            CcKind::Cubic => Box::new(cubic::Cubic::new(mss, iw)),
            CcKind::BbrLite => Box::new(bbr::BbrLite::new(mss, iw)),
        }
    }

    /// Label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CcKind::NewReno => "newreno",
            CcKind::Cubic => "cubic",
            CcKind::BbrLite => "bbr-lite",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_kind() {
        for (kind, name) in [
            (CcKind::NewReno, "newreno"),
            (CcKind::Cubic, "cubic"),
            (CcKind::BbrLite, "bbr-lite"),
        ] {
            let cc = kind.build();
            assert_eq!(cc.name(), name);
            assert_eq!(kind.name(), name);
            assert_eq!(cc.cwnd(), 10 * 1448);
            assert!(cc.in_slow_start());
        }
    }
}
