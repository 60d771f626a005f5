//! # csig-testbed — the paper's controlled-experiment harness
//!
//! Recreates §3 of the paper on the simulator: the Figure-2 topology
//! ([`topology`]), the `TGtrans`/`TGcong` cross-traffic generators and
//! a CBR source ([`agents`]), netperf-style throughput tests with
//! trace analysis ([`runner`]), congestion-threshold labeling
//! ([`labeling`]) and the §3.1 parameter-grid sweep ([`grid`]).
//!
//! Two fidelity profiles exist: `Profile::Paper` uses the paper's exact
//! settings (950 Mbps interconnect, 100 TGcong flows, 10 s tests) and
//! `Profile::Scaled` a one-fifth-rate version that preserves every
//! buffer-delay ratio — the classifier features are dimensionless so
//! results carry over (validated by the tests in this crate).
//! `Profile::config` is the one constructor of a [`TestbedConfig`].
//! Experiments vary the test flow's congestion control and SACK; cross
//! traffic always runs the default stack.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod agents;
pub mod config;
pub mod grid;
pub mod labeling;
pub mod runner;
pub mod topology;

pub use agents::{CbrAgent, MultiClientAgent};
pub use config::{AccessParams, Profile, TestbedConfig};
pub use grid::{paper_grid, small_grid, Sweep, SweepScenario};
pub use labeling::{build_dataset, label_with_threshold};
pub use runner::{observe_download, run_test, run_test_observed, Download, TestResult, DRAIN_TAIL};
pub use topology::{build, Testbed, TEST_FLOW};
