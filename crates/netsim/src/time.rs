//! Simulated time.
//!
//! The simulator uses a 64-bit nanosecond clock starting at zero. All
//! scheduling, queueing and protocol timers are expressed in [`SimTime`]
//! (an absolute instant) and [`SimDuration`] (a span). Both are thin
//! wrappers over `u64` nanoseconds so arithmetic is exact and the entire
//! simulation is reproducible bit-for-bit from a seed.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Instant expressed as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Instant expressed as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is actually later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span (used as an "infinite" sentinel).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond;
    /// negative values clamp to zero).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((s * 1e9).round() as u64)
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Span expressed as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Span expressed as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` for the zero-length span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition of two spans.
    #[inline]
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction of two spans.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer factor, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scale by a non-negative float (rounds to nearest nanosecond).
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative duration scale");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs > self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Nanoseconds needed to serialize `bytes` onto a link of `rate_bps`
/// bits per second, rounded up so that a nonzero packet never takes
/// zero time on a finite-rate link. The dividend `bytes · 8 · 10⁹` is
/// computed in `u64`, which holds it up to 2,305,843,009 bytes, and only
/// beyond that in `u128` (the result saturating at `u64::MAX` ns).
///
/// # Panics
/// Panics if `rate_bps` is zero.
#[inline]
pub fn transmission_time(bytes: u64, rate_bps: u64) -> SimDuration {
    assert!(rate_bps > 0, "link rate must be positive");
    match bytes.checked_mul(BIT_NS_PER_BYTE) {
        Some(bit_ns) => SimDuration(bit_ns.div_ceil(rate_bps)),
        None => {
            let ns = (bytes as u128 * BIT_NS_PER_BYTE as u128).div_ceil(rate_bps as u128);
            SimDuration(ns.min(u64::MAX as u128) as u64)
        }
    }
}

/// Bits times nanoseconds per second, per byte: `bytes · 8 · 10⁹` is
/// the dividend of [`transmission_time`]. It is also the token bucket's
/// credit per byte, because one elapsed ns at `rate_bps` then adds
/// exactly `rate_bps` units and the credit stays exact in integers.
pub(crate) const BIT_NS_PER_BYTE: u64 = 8 * 1_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(4).as_nanos(), 4_000);
        assert_eq!(SimDuration::from_secs(1).as_millis_f64(), 1000.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!((t + d).as_nanos(), 15_000_000);
        assert_eq!((t - d).as_nanos(), 5_000_000);
        assert_eq!(((t + d) - t).as_nanos(), d.as_nanos());
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(15));
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn duration_clamp_and_ordering() {
        let lo = SimDuration::from_millis(1);
        let hi = SimDuration::from_millis(10);
        assert_eq!(
            SimDuration::from_millis(5).clamp(lo, hi),
            SimDuration::from_millis(5)
        );
        assert_eq!(SimDuration::ZERO.clamp(lo, hi), lo);
        assert_eq!(SimDuration::from_secs(1).clamp(lo, hi), hi);
    }

    #[test]
    fn transmission_time_exact() {
        // 1500 bytes at 12 Mbps = 1 ms exactly.
        assert_eq!(
            transmission_time(1500, 12_000_000),
            SimDuration::from_millis(1)
        );
        // 1 byte at 8 Gbps = 1 ns.
        assert_eq!(
            transmission_time(1, 8_000_000_000),
            SimDuration::from_nanos(1)
        );
    }

    #[test]
    fn transmission_time_rounds_up() {
        // 1 byte at 9 Gbps is slightly under 1 ns; must round up to 1.
        assert_eq!(
            transmission_time(1, 9_000_000_000),
            SimDuration::from_nanos(1)
        );
        assert_eq!(transmission_time(0, 1_000), SimDuration::ZERO);
    }

    #[test]
    fn transmission_time_u64_path_matches_the_u128_formula() {
        // The all-u128 reference: widen, divide, saturate.
        let wide = |bytes: u64, rate: u64| {
            let ns = (bytes as u128 * 8 * 1_000_000_000).div_ceil(rate as u128);
            SimDuration(ns.min(u64::MAX as u128) as u64)
        };
        // The largest size whose dividend fits a u64.
        const NARROW_TX_BYTES: u64 = 2_305_843_009;
        for rate in [1, 950_000_000, 10_000_000_000] {
            for bytes in [0, 1, 1500, NARROW_TX_BYTES, NARROW_TX_BYTES + 1, u64::MAX] {
                assert_eq!(
                    transmission_time(bytes, rate),
                    wide(bytes, rate),
                    "{bytes} B at {rate} bps"
                );
            }
        }
        // The boundary itself takes the u64 path; one byte more does not.
        assert!(NARROW_TX_BYTES.checked_mul(BIT_NS_PER_BYTE).is_some());
        assert!((NARROW_TX_BYTES + 1).checked_mul(BIT_NS_PER_BYTE).is_none());
    }

    #[test]
    #[should_panic]
    fn transmission_time_zero_rate_panics() {
        let _ = transmission_time(100, 0);
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(2)), "2ns");
    }
}
