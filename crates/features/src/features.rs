//! The paper's two flow features, computed from slow-start RTT samples.
//!
//! * **NormDiff** — `(max RTT − min RTT) / max RTT`: how much of the
//!   eventual RTT the flow itself added by filling the bottleneck
//!   buffer.
//! * **CoV** — `stddev(RTT) / mean(RTT)`: how much the RTT varied while
//!   the window ramped.
//!
//! Flows with fewer than [`MIN_SAMPLES`] slow-start samples are
//! rejected, exactly as in §3.2 of the paper ("for statistical
//! validity, we discard flows that have fewer than 10 RTT samples
//! during slow-start").

use crate::stats::Summary;

/// Minimum slow-start RTT samples required for a valid feature vector.
pub const MIN_SAMPLES: usize = 10;

/// The two congestion classes the paper distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CongestionClass {
    /// The flow itself filled an otherwise idle bottleneck buffer
    /// (typical of an access-link bottleneck).
    SelfInduced,
    /// The flow started behind an already congested link (typical of a
    /// congested interconnect).
    External,
}

impl CongestionClass {
    /// Class index used by the decision tree (self-induced = 0).
    pub fn index(self) -> usize {
        match self {
            CongestionClass::SelfInduced => 0,
            CongestionClass::External => 1,
        }
    }

    /// Inverse of [`CongestionClass::index`].
    ///
    /// # Panics
    /// Panics on an index other than 0 or 1.
    pub fn from_index(idx: usize) -> Self {
        match idx {
            0 => CongestionClass::SelfInduced,
            1 => CongestionClass::External,
            other => panic!("invalid class index {other}"),
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CongestionClass::SelfInduced => "self",
            CongestionClass::External => "external",
        }
    }
}

impl std::fmt::Display for CongestionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The classifier's input features for one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowFeatures {
    /// `(max − min) / max` of slow-start RTT.
    pub norm_diff: f64,
    /// Coefficient of variation of slow-start RTT.
    pub cov: f64,
    /// Number of slow-start RTT samples the features were computed from.
    pub samples: usize,
    /// Minimum slow-start RTT in milliseconds (diagnostic).
    pub min_rtt_ms: f64,
    /// Maximum slow-start RTT in milliseconds (diagnostic).
    pub max_rtt_ms: f64,
}

impl FlowFeatures {
    /// The feature vector in the order the decision tree consumes it.
    pub fn as_vector(&self) -> [f64; 2] {
        [self.norm_diff, self.cov]
    }
}

/// Why a flow produced no feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureError {
    /// Fewer than [`MIN_SAMPLES`] slow-start RTT samples.
    TooFewSamples {
        /// How many samples were available.
        got: usize,
    },
    /// RTT samples were degenerate (max = 0).
    DegenerateRtt,
}

impl std::fmt::Display for FeatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeatureError::TooFewSamples { got } => {
                write!(f, "only {got} slow-start RTT samples (need {MIN_SAMPLES})")
            }
            FeatureError::DegenerateRtt => write!(f, "degenerate RTT samples"),
        }
    }
}

impl std::error::Error for FeatureError {}

/// Online feature accumulator: the streaming core behind
/// [`features_from_rtts_ms`].
///
/// Wraps the one-pass [`Summary`] (Welford), so NormDiff and CoV update
/// per RTT sample in O(1) state — no sample vector is retained.
#[derive(Debug, Clone, Copy)]
pub struct FeatureAccumulator {
    summary: Summary,
}

impl Default for FeatureAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        FeatureAccumulator {
            summary: Summary::new(),
        }
    }

    /// Add one slow-start RTT sample, in milliseconds.
    pub fn push(&mut self, rtt_ms: f64) {
        self.summary.push(rtt_ms);
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> usize {
        self.summary.count() as usize
    }

    /// The feature vector implied by the samples seen so far.
    pub fn finish(&self) -> Result<FlowFeatures, FeatureError> {
        let got = self.count();
        if got < MIN_SAMPLES {
            return Err(FeatureError::TooFewSamples { got });
        }
        let (Some(max), Some(min)) = (self.summary.max(), self.summary.min()) else {
            unreachable!("count checked non-zero above")
        };
        // NaN must be checked explicitly — `<= 0.0` lets it through
        // into the divisions below. A zero mean with a positive max
        // cannot happen with physical (non-negative) RTTs, but negative
        // garbage samples could manufacture it and CoV would divide by
        // it.
        let mean = self.summary.mean();
        if max.is_nan() || max <= 0.0 || mean.is_nan() || mean <= 0.0 {
            return Err(FeatureError::DegenerateRtt);
        }
        Ok(FlowFeatures {
            norm_diff: (max - min) / max,
            cov: self.summary.cov(),
            samples: got,
            min_rtt_ms: min,
            max_rtt_ms: max,
        })
    }
}

/// Compute features from raw RTT values in milliseconds.
///
/// Thin wrapper over [`FeatureAccumulator`]: replays the values through
/// the streaming core.
pub fn features_from_rtts_ms(rtts_ms: &[f64]) -> Result<FlowFeatures, FeatureError> {
    let mut acc = FeatureAccumulator::new();
    for &v in rtts_ms {
        acc.push(v);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_rng::{cases, StdRng};

    #[test]
    fn self_induced_shape_has_high_features() {
        // RTT ramping 40 → 140 ms (buffer filling).
        let rtts: Vec<f64> = (0..20).map(|i| 40.0 + 5.0 * i as f64).collect();
        let f = features_from_rtts_ms(&rtts).unwrap();
        assert!((f.norm_diff - (135.0 - 40.0) / 135.0).abs() < 1e-12);
        assert!(f.cov > 0.2, "cov {}", f.cov);
        assert_eq!(f.samples, 20);
    }

    #[test]
    fn external_shape_has_low_features() {
        // RTT pinned near 90 ms by a full buffer, small noise.
        let rtts: Vec<f64> = (0..20).map(|i| 90.0 + (i % 3) as f64).collect();
        let f = features_from_rtts_ms(&rtts).unwrap();
        assert!(f.norm_diff < 0.05, "norm_diff {}", f.norm_diff);
        assert!(f.cov < 0.02, "cov {}", f.cov);
    }

    #[test]
    fn too_few_samples_rejected() {
        let rtts = vec![50.0; MIN_SAMPLES - 1];
        assert_eq!(
            features_from_rtts_ms(&rtts),
            Err(FeatureError::TooFewSamples {
                got: MIN_SAMPLES - 1
            })
        );
    }

    #[test]
    fn degenerate_rtts_rejected() {
        let rtts = vec![0.0; MIN_SAMPLES];
        assert_eq!(
            features_from_rtts_ms(&rtts),
            Err(FeatureError::DegenerateRtt)
        );
    }

    #[test]
    fn zero_mean_with_positive_max_rejected() {
        // Samples averaging to zero would make CoV divide by zero even
        // though max > 0; such flows must be rejected, not classified.
        let mut rtts = vec![0.0; MIN_SAMPLES];
        rtts[0] = 5.0;
        rtts[1] = -5.0;
        assert_eq!(
            features_from_rtts_ms(&rtts),
            Err(FeatureError::DegenerateRtt)
        );
    }

    #[test]
    fn congestion_class_roundtrip() {
        for c in [CongestionClass::SelfInduced, CongestionClass::External] {
            assert_eq!(CongestionClass::from_index(c.index()), c);
        }
        assert_eq!(CongestionClass::SelfInduced.to_string(), "self");
        assert_eq!(CongestionClass::External.label(), "external");
    }

    #[test]
    fn error_display() {
        assert!(FeatureError::TooFewSamples { got: 3 }
            .to_string()
            .contains("3"));
        assert!(FeatureError::DegenerateRtt
            .to_string()
            .contains("degenerate"));
    }

    /// `MIN_SAMPLES..max_len` RTTs in `[low, high)` ms.
    fn random_rtts(rng: &mut StdRng, max_len: usize, low: f64, high: f64) -> Vec<f64> {
        let len = rng.gen_range(MIN_SAMPLES..max_len);
        (0..len).map(|_| rng.gen_range(low..high)).collect()
    }

    #[test]
    fn prop_norm_diff_in_unit_interval() {
        cases(256, "prop_norm_diff_in_unit_interval", |rng| {
            let f = features_from_rtts_ms(&random_rtts(rng, 100, 0.1, 1e4)).unwrap();
            assert!((0.0..=1.0).contains(&f.norm_diff));
            assert!(f.cov >= 0.0);
            assert!(f.min_rtt_ms <= f.max_rtt_ms);
        });
    }

    #[test]
    fn prop_scale_invariance() {
        cases(256, "prop_scale_invariance", |rng| {
            let rtts = random_rtts(rng, 50, 1.0, 1e3);
            let scale = rng.gen_range(0.1..100.0);
            // Both features are dimensionless: scaling all RTTs by a
            // constant must not change them.
            let f1 = features_from_rtts_ms(&rtts).unwrap();
            let scaled: Vec<f64> = rtts.iter().map(|r| r * scale).collect();
            let f2 = features_from_rtts_ms(&scaled).unwrap();
            assert!((f1.norm_diff - f2.norm_diff).abs() < 1e-9);
            assert!((f1.cov - f2.cov).abs() < 1e-9);
        });
    }

    #[test]
    fn prop_shift_reduces_both_features() {
        cases(256, "prop_shift_reduces_both_features", |rng| {
            let rtts = random_rtts(rng, 50, 1.0, 1e3);
            let shift = rng.gen_range(10.0..1e4);
            // Adding baseline latency (an already-full buffer) lowers
            // both NormDiff and CoV — the core of the paper's intuition.
            let f1 = features_from_rtts_ms(&rtts).unwrap();
            let shifted: Vec<f64> = rtts.iter().map(|r| r + shift).collect();
            let f2 = features_from_rtts_ms(&shifted).unwrap();
            assert!(f2.norm_diff <= f1.norm_diff + 1e-9);
            assert!(f2.cov <= f1.cov + 1e-9);
        });
    }
}
