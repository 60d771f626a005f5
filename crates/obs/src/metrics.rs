//! The metrics registry: counters, gauges, snapshots.

use crate::json_escape;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter. Cheap to clone (an `Arc` over one
/// atomic); increments are relaxed atomic adds.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// High-water-mark gauge: [`Gauge::record`] keeps the maximum of all
/// recorded values (queue depths, occupancy peaks).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Record an observation; the gauge keeps the maximum.
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current high-water mark.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
}

impl Metric {
    fn kind_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
        }
    }
}

/// Registry of named metrics shared by every instrumented component of
/// one scenario (or one process).
///
/// Cloning the registry clones a handle to the same underlying metrics.
/// Registration is idempotent: asking for an existing name returns a
/// handle to the same cell, so independent components may register the
/// same metric (e.g. `rtt.samples`) and their updates aggregate.
///
/// # Panics
/// Registering an existing name as a *different* metric kind panics —
/// that is a programming error, not a runtime condition.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let Ok(mut map) = self.inner.lock() else {
            unreachable!("metrics registry lock poisoned")
        };
        if let Some(existing) = map.get(name) {
            assert_eq!(
                existing.kind_name(),
                make().kind_name(),
                "metric `{name}` re-registered as a different kind"
            );
            return existing.clone();
        }
        let metric = make();
        map.insert(name.to_string(), metric.clone());
        metric
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || {
            Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Metric::Counter(c) => c,
            Metric::Gauge(_) => unreachable!("kind checked in register"),
        }
    }

    /// Register (or look up) a high-water-mark gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0))))) {
            Metric::Gauge(g) => g,
            Metric::Counter(_) => unreachable!("kind checked in register"),
        }
    }

    /// Freeze every registered metric into a [`Snapshot`] (entries in
    /// name order, so equal registries render identical snapshots).
    pub fn snapshot(&self) -> Snapshot {
        let Ok(map) = self.inner.lock() else {
            unreachable!("metrics registry lock poisoned")
        };
        let entries = map
            .iter()
            .map(|(name, metric)| MetricEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                },
            })
            .collect();
        Snapshot { entries }
    }

    /// Merge a snapshot into this registry: counters add, gauges take
    /// the max. Used to aggregate per-scenario snapshots into a
    /// campaign-level registry.
    pub fn absorb(&self, snap: &Snapshot) {
        for e in &snap.entries {
            match e.value {
                MetricValue::Counter(v) => self.counter(&e.name).add(v),
                MetricValue::Gauge(v) => self.gauge(&e.name).record(v),
            }
        }
    }
}

/// One frozen metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Registered name.
    pub name: String,
    /// Frozen value.
    pub value: MetricValue,
}

/// A frozen metric value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge high-water mark.
    Gauge(u64),
}

/// A frozen, name-ordered view of a registry — comparable and
/// renderable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Frozen metrics in ascending name order.
    pub entries: Vec<MetricEntry>,
}

impl Snapshot {
    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry named `name`, if registered.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// Counter value by name (`None` if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge high-water mark by name (`None` if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Render as a stable, human-diffable JSON object keyed by metric
    /// name, one integer per metric.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (MetricValue::Counter(v) | MetricValue::Gauge(v)) = e.value;
            out.push_str(&format!("\n  \"{}\": {v}", json_escape(&e.name)));
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same underlying cell");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.gauge("x")));
        assert!(r.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.counter("z.last").add(5);
            reg.gauge("a.first").record(9);
            reg.gauge("a.first").record(3); // HWM keeps 9
            reg.counter("m.mid").add(100);
            reg.snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(
            s1.to_json(),
            "{\n  \"a.first\": 9,\n  \"m.mid\": 100,\n  \"z.last\": 5\n}\n"
        );
        assert_eq!(s1.gauge("a.first"), Some(9));
        assert_eq!(s1.counter("z.last"), Some(5));
        assert_eq!(s1.counter("a.first"), None, "kind-checked accessor");
    }

    #[test]
    fn absorb_merges_counters_and_gauges() {
        let mk = |c: u64, g: u64| {
            let reg = MetricsRegistry::new();
            reg.counter("c").add(c);
            reg.gauge("g").record(g);
            reg.snapshot()
        };
        let total = MetricsRegistry::new();
        total.absorb(&mk(1, 10));
        total.absorb(&mk(2, 7));
        let s = total.snapshot();
        assert_eq!(s.counter("c"), Some(3));
        assert_eq!(s.gauge("g"), Some(10));
    }

    #[test]
    fn updates_are_atomic_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
