//! Result line and the order statistics behind it.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// A run's verdict and metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Scenarios attempted.
    pub attempted: usize,
    /// Scenarios that produced no artifact.
    pub failed: usize,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Every failed check; the run is correct only when empty.
    pub problems: Vec<String>,
}

impl Outcome {
    /// An outcome; non-finite metric values are recorded as problems.
    pub fn new(
        attempted: usize,
        failed: usize,
        metrics: Vec<Metric>,
        mut problems: Vec<String>,
    ) -> Self {
        for m in &metrics {
            if !m.value.is_finite() {
                problems.push(format!("metric {} is not finite ({})", m.name, m.value));
            }
        }
        if failed > 0 {
            problems.push(format!("{failed} of {attempted} scenarios failed"));
        }
        Outcome {
            attempted,
            failed,
            metrics,
            problems,
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` (in percent, to 0.001) among
/// `n` sorted samples, in exact integer arithmetic.
fn nearest_rank(n: usize, p: f64) -> usize {
    let per_100k = (p * 1000.0).round() as usize;
    (n * per_100k).div_ceil(100_000).clamp(1, n)
}

/// Nearest-rank percentile `p` (in percent) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[nearest_rank(v.len(), p) - 1]
}

/// The highest of p50, p75, p90, p95, p99 and p99.9 that still has at
/// least ten samples above it (p50 when none has), as `(p, value)`.
pub fn tail_percentile(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let p = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n > 0 && n - nearest_rank(n, p) >= 10)
        .unwrap_or(50.0);
    (p, percentile(values, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (90.0, 90.0));
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&w).0, 99.0);
        assert_eq!(tail_percentile(&[1.0, 2.0]).0, 50.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let o = Outcome::new(
            4,
            0,
            vec![
                Metric::new("setup_s", 0.25, "s"),
                Metric::new("accuracy", 1.0, "ratio"),
            ],
            vec![],
        );
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"accuracy\": {\"value\": 1, \"unit\": \"ratio\"}}}"
        );
        let bad = Outcome::new(4, 1, vec![Metric::new("x", f64::NAN, "s")], vec![]);
        assert!(!bad.correct());
        assert!(bad.to_json().contains("\"value\": 0,"));
    }
}
