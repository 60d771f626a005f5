//! Structured trace events and the bounded ring buffer holding them.

use crate::json_escape;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A single trace-event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Floating-point field.
    F64(f64),
    /// String field.
    Str(String),
}

impl FieldValue {
    fn render_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    // JSON has no NaN/Inf; degrade to null.
                    out.push_str("null");
                }
            }
            FieldValue::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured trace event: where and when something happened, what
/// kind of thing it was, and a small bag of typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event time in simulation nanoseconds (deterministic — never
    /// wall-clock).
    pub time_ns: u64,
    /// Emitting component (`"sim"`, …).
    pub scope: &'static str,
    /// Event kind within the scope (`"drop"`, `"fault"`, …).
    pub kind: &'static str,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// Build an event with no fields.
    pub fn new(time_ns: u64, scope: &'static str, kind: &'static str) -> Self {
        Self {
            time_ns,
            scope,
            kind,
            fields: Vec::new(),
        }
    }

    /// Builder-style field append.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Render as one JSONL line (no trailing newline). Key order is
    /// fixed — `time_ns`, `scope`, `kind`, then fields in insertion
    /// order — so identical events render identical lines.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"time_ns\": {}, \"scope\": \"{}\", \"kind\": \"{}\"",
            self.time_ns,
            json_escape(self.scope),
            json_escape(self.kind)
        );
        for (key, value) in &self.fields {
            out.push_str(&format!(", \"{}\": ", json_escape(key)));
            value.render_json(&mut out);
        }
        out.push('}');
        out
    }
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s. Cloning yields another
/// handle to the same ring, so every component of one scenario can push
/// into one shared buffer. When full, the **oldest** event is evicted
/// and the dropped count incremented — tracing never blocks or grows
/// without bound.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    inner: Arc<Mutex<Ring>>,
}

impl TraceBuffer {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A ring holding up to `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Ring {
                events: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            })),
        }
    }

    /// A ring with [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        let Ok(ring) = self.inner.lock() else {
            unreachable!("trace ring lock poisoned")
        };
        ring
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&self, event: TraceEvent) {
        let mut ring = self.lock();
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Copy out the current contents, oldest first, without draining.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Remove and return all events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.lock().events.drain(..).collect()
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_renders_stable_jsonl() {
        let e = TraceEvent::new(42, "sim", "drop")
            .field("link", 3u64)
            .field("reason", "full")
            .field("delta", -1i64)
            .field("frac", 0.5f64);
        assert_eq!(
            e.to_json_line(),
            "{\"time_ns\": 42, \"scope\": \"sim\", \"kind\": \"drop\", \
             \"link\": 3, \"reason\": \"full\", \"delta\": -1, \"frac\": 0.5}"
        );
        let nan = TraceEvent::new(0, "s", "k").field("x", f64::NAN);
        assert!(nan.to_json_line().ends_with("\"x\": null}"));
    }

    #[test]
    fn ring_wraps_dropping_oldest() {
        let buf = TraceBuffer::with_capacity(3);
        for i in 0..5u64 {
            buf.push(TraceEvent::new(i, "t", "e"));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        let times: Vec<u64> = buf.snapshot().iter().map(|e| e.time_ns).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest evicted first");
        // Drain empties the ring but keeps the dropped count.
        let drained = buf.drain();
        assert_eq!(drained.len(), 3);
        assert!(buf.is_empty());
        assert_eq!(buf.dropped(), 2);
    }

    #[test]
    fn handles_share_one_ring() {
        let a = TraceBuffer::with_capacity(8);
        let b = a.clone();
        a.push(TraceEvent::new(1, "x", "y"));
        b.push(TraceEvent::new(2, "x", "y"));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }
}
