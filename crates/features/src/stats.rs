//! Summary statistics used by the feature extractor.

/// One-pass summary of a sample set: count, mean, standard deviation,
/// extremes. Uses Welford's algorithm for numerical stability.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Summarize a slice.
    pub fn of(values: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample");
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for the empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 with fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Minimum (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Coefficient of variation: `stddev / mean` (0 if mean is 0).
    pub fn cov(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.stddev() / m
        }
    }
}

/// Median of a slice (average of middle two for even length); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Interpolated percentile; `None` when the slice is empty, when `p`
/// is NaN or outside `[0, 100]`, or when any sample is NaN (a NaN rank
/// would otherwise index garbage).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(v[lo] * (1.0 - frac) + v[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_rng::{cases, StdRng};

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        // Population stddev of 1..4 = sqrt(1.25).
        assert!((s.stddev() - 1.25f64.sqrt()).abs() < 1e-12);
        assert!((s.cov() - 1.25f64.sqrt() / 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.cov(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn constant_samples_have_zero_cov() {
        let s = Summary::of(&[5.0; 10]);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.cov(), 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 50.0), Some(20.0));
        assert_eq!(percentile(&v, 100.0), Some(30.0));
        assert_eq!(percentile(&v, 25.0), Some(15.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_rejects_bad_inputs_without_panicking() {
        let v = [10.0, 20.0, 30.0];
        // Out-of-range p used to assert!; it must degrade to None.
        assert_eq!(percentile(&v, -0.001), None);
        assert_eq!(percentile(&v, 100.001), None);
        assert_eq!(percentile(&v, f64::NAN), None);
        // NaN samples would produce a NaN rank downstream.
        assert_eq!(percentile(&[1.0, f64::NAN], 50.0), None);
        // Infinite-but-not-NaN samples still sort deterministically.
        assert_eq!(percentile(&[f64::INFINITY, 1.0], 0.0), Some(1.0));
    }

    /// `len` values in `[-1e6, 1e6)`, `len` drawn from `lens`.
    fn random_values(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<f64> {
        let len = rng.gen_range(lens);
        (0..len).map(|_| rng.gen_range(-1e6..1e6)).collect()
    }

    #[test]
    fn prop_welford_matches_naive() {
        cases(256, "prop_welford_matches_naive", |rng| {
            let values = random_values(rng, 1..200);
            let s = Summary::of(&values);
            let n = values.len() as f64;
            let mean: f64 = values.iter().sum::<f64>() / n;
            let var: f64 = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            assert!((s.stddev() - var.sqrt()).abs() < 1e-5 * (1.0 + var.sqrt()));
        });
    }

    #[test]
    fn prop_min_max_bound_mean() {
        cases(256, "prop_min_max_bound_mean", |rng| {
            let s = Summary::of(&random_values(rng, 1..100));
            assert!(s.min().unwrap() <= s.mean() + 1e-9);
            assert!(s.max().unwrap() >= s.mean() - 1e-9);
        });
    }
}
