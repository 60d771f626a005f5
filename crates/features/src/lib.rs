//! # csig-features — flow feature extraction
//!
//! Computes the paper's two classifier inputs from slow-start RTT
//! samples: **NormDiff** (`(max − min) / max`) and **CoV**
//! (`stddev / mean`), plus the summary-statistics toolbox they are
//! built on ([`stats`]).
//!
//! The end-to-end path is one pass over a server-side packet stream:
//! [`FlowProbe`], a [`PacketSink`](csig_netsim::PacketSink), feeds each
//! record of its flow to `csig-trace`'s per-flow sequence reader
//! (`FlowTracker`: RTT samples, slow-start window, goodput, FIN
//! exchange), and folds the samples inside the slow-start window into a
//! [`FeatureAccumulator`] (online NormDiff/CoV) — no samples or records
//! are buffered. `csig-dtree`/`csig-core` classify the resulting
//! [`FlowFeatures`]. [`features_from_rtts_ms`] computes the same vector
//! from RTT values that are already windowed, such as a connection's
//! in-stack samples.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod features;
pub mod probe;
pub mod stats;

pub use features::{
    features_from_rtts_ms, CongestionClass, FeatureAccumulator, FeatureError, FlowFeatures,
    MIN_SAMPLES,
};
pub use probe::FlowProbe;
pub use stats::{median, percentile, Summary};
