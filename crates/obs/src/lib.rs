//! Zero-dependency observability layer for the congestion-signature
//! stack.
//!
//! Every component between a packet entering `csig-netsim` and a
//! verdict leaving `csig-core` reports into the two primitives here:
//!
//! * [`MetricsRegistry`] — named counter and high-water-mark *values*.
//!   Components count in plain integer fields of their own and write
//!   their totals once per run with [`MetricsRegistry::add`] and
//!   [`MetricsRegistry::record_max`]; a mutex guards the map, and no
//!   per-event update touches it. A [`Snapshot`] freezes every metric
//!   for rendering or comparison.
//! * [`TraceBuffer`] — a bounded ring of structured
//!   [`TraceEvent`]s (`time`, `scope`, `kind`, `fields`) with JSONL
//!   rendering, for after-the-fact inspection of what the measurement
//!   path actually did.
//!
//! # Determinism contract
//!
//! Every metric is fed from simulation state only, so the same seed
//! produces bit-identical snapshots regardless of worker count or
//! wall-clock; a whole [`Snapshot`] is the cross-run correctness oracle
//! the integration tests compare. Wall-clock timing is deliberately not
//! recorded here: the `perfbench` harness times each layer from
//! outside the library.
//!
//! The crate deliberately depends on nothing: JSON is rendered by
//! hand.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod metrics;
mod trace;

pub use metrics::{MetricEntry, MetricValue, MetricsRegistry, Snapshot};
pub use trace::{FieldValue, TraceBuffer, TraceEvent};

/// Escape a string for embedding in a JSON string literal (quotes,
/// backslashes and control characters).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
