//! # csig-bench — experiment and benchmark harness
//!
//! One module per table/figure of the paper's evaluation, reused by the
//! `fig*`/`exp_*` binaries (full output). See EXPERIMENTS.md for the
//! measured results and the paper-vs-measured comparison.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig1`] | Fig. 1a/1b — RTT signature CDFs |
//! | [`fig3`] | Fig. 3 (threshold sweep) and Fig. 4 (feature scatter) |
//! | [`multiplexing`] | §3.3 multiplexing accuracy table |
//! | [`dispute`] | Figs. 5, 7, 8, 9 — Dispute2014 analyses |
//! | [`tslp_exp`] | Fig. 6 and §5.4 — TSLP2017 |
//! | [`ablation`] | feature-set / tree-depth ablations |
//! | [`cc_variants`] | §6 robustness: CC algorithm, queue, buffer |
//! | [`impair`] | robustness extension: precision/recall under bursty loss and reordering |
//! | [`web100_exp`] | §6 extension: kernel-sample (Web100) classification |

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ablation;
pub mod cc_variants;
pub mod dispute;
pub mod fig1;
pub mod fig3;
pub mod impair;
pub mod multiplexing;
pub mod tslp_exp;
pub mod web100_exp;
