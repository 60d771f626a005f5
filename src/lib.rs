//! # tcp-congestion-signatures
//!
//! A complete Rust reproduction of **"TCP Congestion Signatures"**
//! (Sundaresan, Dhamdhere, Allman, claffy — IMC 2017): a server-side,
//! per-flow technique that tells whether a TCP flow's congestion was
//! **self-induced** (the flow filled an idle bottleneck, typically the
//! subscriber's access link) or **external** (the flow ran into an
//! already congested link, typically an interconnect), from two
//! statistics of the flow RTT during slow start.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`netsim`] | deterministic discrete-event network simulator |
//! | [`tcp`] | packet-level TCP endpoints (NewReno/CUBIC/BBR-lite, SACK) |
//! | [`trace`] | capture analysis: RTT extraction, slow start, pcap |
//! | [`features`] | NormDiff / CoV feature extraction |
//! | [`dtree`] | CART decision tree + metrics |
//! | [`testbed`] | the paper's §3 controlled-experiment harness |
//! | [`tslp`] | time-series latency probing |
//! | [`mlab`] | synthetic Dispute2014 / TSLP2017 campaigns |
//! | [`exec`] | scenario/campaign execution (sequential or parallel) |
//! | [`core`] | the classifier API tying it all together |
//!
//! ## Quickstart
//!
//! ```no_run
//! use tcp_congestion_signatures::prelude::*;
//!
//! // 1. Generate labeled training data from the §3 testbed.
//! let sweep = Sweep::scaled(2, 42);
//! let results = sweep.run_with(&Executor::sequential(), |_| {});
//!
//! // 2. Train the classifier (threshold 0.8, tree depth 4).
//! let clf = train_from_results(&results, 0.8, TreeParams::default()).unwrap();
//!
//! // 3. Diagnose a new throughput test.
//! let test = run_test(&Profile::Scaled.config(AccessParams::figure1(), 7));
//! let class = clf.classify(&test.features.unwrap());
//! println!("congestion was: {class}");
//! ```

pub use csig_core as core;
pub use csig_dtree as dtree;
pub use csig_exec as exec;
pub use csig_features as features;
pub use csig_mlab as mlab;
pub use csig_netsim as netsim;
pub use csig_tcp as tcp;
pub use csig_testbed as testbed;
pub use csig_trace as trace;
pub use csig_tslp as tslp;

/// The most common imports in one place.
pub mod prelude {
    pub use csig_core::{
        analyze_capture, threshold_sweep, train_from_results, ModelMeta, SignatureClassifier,
        Verdict,
    };
    pub use csig_dtree::{Dataset, DecisionTree, TreeParams};
    pub use csig_exec::{Campaign, Executor, ProgressEvent, Scenario};
    pub use csig_features::{features_from_rtts_ms, CongestionClass, FlowFeatures, FlowProbe};
    pub use csig_netsim::{LinkConfig, NodeId, QueueKind, SimDuration, SimTime, Simulator};
    pub use csig_tcp::{
        CcKind, ClientBehavior, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent,
    };
    pub use csig_testbed::{run_test, AccessParams, Profile, Sweep, TestResult, TestbedConfig};
}
