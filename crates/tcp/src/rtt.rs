//! RTT estimation and retransmission-timeout computation (RFC 6298).
//!
//! Mirrors the Linux-style estimator the paper's testbed ran: SRTT and
//! RTTVAR exponentially-weighted means with `RTO = SRTT + 4·RTTVAR`,
//! Linux's 200 ms floor ([`MIN_RTO`]), a 60 s ceiling ([`MAX_RTO`]), and
//! exponential backoff on timeout. Karn's rule (never sample a
//! retransmitted segment) is enforced by the caller.
//!
//! The averages (α = 1/8, β = 1/4) are integer nanoseconds rounded half
//! up: `srtt ← (7·srtt + rtt + 4) >> 3` and
//! `rttvar ← (3·rttvar + |srtt − rtt| + 2) >> 2`. For every value below
//! 2⁵⁰ ns (13 days) these equal the `f64` forms
//! `(0.875·srtt + 0.125·rtt).round()` and
//! `(0.75·rttvar + 0.25·err).round()`, whose products and sums are then
//! exact in a 53-bit mantissa.

use csig_netsim::SimDuration;

/// RTT estimator state.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    /// Smallest raw sample ever observed (the flow's propagation floor).
    min_rtt: Option<SimDuration>,
    /// Latest raw sample.
    #[cfg(test)]
    last_rtt: Option<SimDuration>,
    samples: u64,
}

/// RTO floor (Linux: 200 ms).
pub const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// RTO ceiling.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator::new()
    }
}

impl RttEstimator {
    /// Estimator before its first sample; initial RTO is 1 s per RFC
    /// 6298.
    pub fn new() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: SimDuration::from_secs(1),
            min_rtt: None,
            #[cfg(test)]
            last_rtt: None,
            samples: 0,
        }
    }

    /// Feed one RTT sample (from a never-retransmitted segment).
    pub fn on_sample(&mut self, rtt: SimDuration) {
        self.samples += 1;
        #[cfg(test)]
        {
            self.last_rtt = Some(rtt);
        }
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        });
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let (s, r) = (srtt.as_nanos(), rtt.as_nanos());
                let err = s.abs_diff(r);
                self.rttvar = SimDuration::from_nanos((3 * self.rttvar.as_nanos() + err + 2) >> 2);
                self.srtt = Some(SimDuration::from_nanos((7 * s + r + 4) >> 3));
            }
        }
        let Some(srtt) = self.srtt else {
            unreachable!("srtt set above on first sample")
        };
        let granularity = SimDuration::from_millis(1);
        self.rto = (srtt + (self.rttvar * 4).max(granularity)).clamp(MIN_RTO, MAX_RTO);
    }

    /// Double the RTO after a retransmission timeout (Karn backoff).
    pub fn on_timeout(&mut self) {
        self.rto = self.rto.saturating_mul(2).min(MAX_RTO);
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Smoothed RTT (`None` before the first sample).
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// RTT variance estimate.
    #[cfg(test)]
    fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// Minimum raw sample seen.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// Most recent raw sample.
    #[cfg(test)]
    fn last_rtt(&self) -> Option<SimDuration> {
        self.last_rtt
    }

    /// Number of samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_rng::cases;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::default();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        e.on_sample(ms(100));
        assert_eq!(e.srtt(), Some(ms(100)));
        assert_eq!(e.rttvar(), ms(50));
        // RTO = 100 + 4×50 = 300 ms.
        assert_eq!(e.rto(), ms(300));
        assert_eq!(e.min_rtt(), Some(ms(100)));
        assert_eq!(e.samples(), 1);
    }

    #[test]
    fn converges_on_stable_rtt() {
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.on_sample(ms(50));
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_millis_f64() - 50.0).abs() < 0.5);
        // Variance decays; RTO approaches the floor.
        assert_eq!(e.rto(), ms(200));
    }

    #[test]
    fn rto_floor_and_ceiling() {
        let mut e = RttEstimator::new();
        e.on_sample(ms(1)); // tiny RTT → raw RTO ~3 ms, floored at 200.
        assert_eq!(e.rto(), MIN_RTO);
        // 200 ms doubles past 60 s on the ninth timeout and stays there.
        for _ in 0..12 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), MAX_RTO);
    }

    #[test]
    fn timeout_backoff_doubles() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(100));
        let r0 = e.rto();
        e.on_timeout();
        assert_eq!(e.rto(), r0 * 2);
        e.on_timeout();
        assert_eq!(e.rto(), r0 * 4);
        // A fresh sample resets the backoff.
        e.on_sample(ms(100));
        assert!(e.rto() <= r0 * 2);
    }

    #[test]
    fn min_rtt_tracks_floor() {
        let mut e = RttEstimator::default();
        e.on_sample(ms(80));
        e.on_sample(ms(20));
        e.on_sample(ms(120));
        assert_eq!(e.min_rtt(), Some(ms(20)));
        assert_eq!(e.last_rtt(), Some(ms(120)));
    }

    #[test]
    fn variance_rises_on_jittery_path() {
        let mut stable = RttEstimator::default();
        let mut jittery = RttEstimator::default();
        for i in 0..50 {
            stable.on_sample(ms(50));
            jittery.on_sample(ms(if i % 2 == 0 { 20 } else { 80 }));
        }
        assert!(jittery.rttvar() > stable.rttvar());
        assert!(jittery.rto() >= stable.rto());
    }

    #[test]
    fn prop_integer_update_equals_the_f64_rounding() {
        cases(256, "prop_integer_update_equals_the_f64_rounding", |rng| {
            let srtt = rng.gen_range(0u64..(1 << 50));
            let rttvar = rng.gen_range(0u64..(1 << 50));
            let rtt = rng.gen_range(0u64..(1 << 50));
            let mut e = RttEstimator {
                srtt: Some(SimDuration::from_nanos(srtt)),
                rttvar: SimDuration::from_nanos(rttvar),
                ..RttEstimator::default()
            };
            e.on_sample(SimDuration::from_nanos(rtt));
            // The RFC 6298 update in f64, rounded half away from zero.
            let (alpha, beta) = (1.0 / 8.0, 1.0 / 4.0);
            let err = srtt.abs_diff(rtt);
            let want_var = ((1.0 - beta) * rttvar as f64 + beta * err as f64).round() as u64;
            let want_srtt = ((1.0 - alpha) * srtt as f64 + alpha * rtt as f64).round() as u64;
            assert_eq!(e.rttvar().as_nanos(), want_var);
            assert_eq!(e.srtt().map(SimDuration::as_nanos), Some(want_srtt));
        });
    }
}
