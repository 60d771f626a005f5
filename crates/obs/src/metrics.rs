//! The metrics registry: named counters and high-water marks, and
//! snapshots of them.

use crate::json_escape;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Registry of named metric values shared by every component of one
/// scenario (or one process).
///
/// Components count in plain fields of their own and write their totals
/// here once per run: [`MetricsRegistry::add`] for counters,
/// [`MetricsRegistry::record_max`] for high-water marks. Cloning the
/// registry clones a handle to the same values, so independent
/// components may write the same name (e.g. `rtt.samples`) and their
/// writes aggregate.
///
/// # Panics
/// Writing an existing name as the *other* kind panics — that is a
/// naming bug, not a runtime condition.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, MetricValue>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge `value` into the metric `name`, registering it on first
    /// use: counters add, gauges keep the maximum.
    fn update(&self, name: &str, value: MetricValue) {
        let Ok(mut map) = self.inner.lock() else {
            unreachable!("metrics registry lock poisoned")
        };
        match (map.get_mut(name), value) {
            (None, _) => {
                map.insert(name.to_string(), value);
            }
            (Some(MetricValue::Counter(c)), MetricValue::Counter(n)) => *c += n,
            (Some(MetricValue::Gauge(g)), MetricValue::Gauge(v)) => *g = (*g).max(v),
            (Some(_), _) => panic!("metric `{name}` re-registered as a different kind"),
        }
    }

    /// Add `n` to the counter `name` (registered at zero on first use,
    /// so `add(name, 0)` registers it).
    pub fn add(&self, name: &str, n: u64) {
        self.update(name, MetricValue::Counter(n));
    }

    /// Raise the high-water-mark gauge `name` to `v` if `v` is larger
    /// (registered at zero on first use).
    pub fn record_max(&self, name: &str, v: u64) {
        self.update(name, MetricValue::Gauge(v));
    }

    /// Freeze every registered metric into a [`Snapshot`] (entries in
    /// name order, so equal registries render identical snapshots).
    pub fn snapshot(&self) -> Snapshot {
        let Ok(map) = self.inner.lock() else {
            unreachable!("metrics registry lock poisoned")
        };
        let entries = map
            .iter()
            .map(|(name, &value)| MetricEntry {
                name: name.clone(),
                value,
            })
            .collect();
        Snapshot { entries }
    }

    /// Merge a snapshot into this registry: counters add, gauges take
    /// the max. Used to aggregate per-scenario snapshots into a
    /// campaign-level registry.
    pub fn absorb(&self, snap: &Snapshot) {
        for e in &snap.entries {
            self.update(&e.name, e.value);
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
    fn writes_aggregate_and_are_kind_checked() {
        let reg = MetricsRegistry::new();
        reg.add("x", 1);
        reg.clone().add("x", 2);
        assert_eq!(reg.snapshot().counter("x"), Some(3), "same value");
        reg.add("zero", 0);
        assert_eq!(
            reg.snapshot().counter("zero"),
            Some(0),
            "registered at zero"
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.record_max("x", 1)));
        assert!(r.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let build = || {
            let reg = MetricsRegistry::new();
            reg.add("z.last", 5);
            reg.record_max("a.first", 9);
            reg.record_max("a.first", 3); // HWM keeps 9
            reg.add("m.mid", 100);
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
            reg.add("c", c);
            reg.record_max("g", g);
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
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = reg.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        reg.add("c", 1);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("c"), Some(40_000));
    }
}
