//! # csig-mlab — synthetic M-Lab measurement campaigns
//!
//! Generative reconstructions of the paper's two real-world datasets
//! (the originals are 2014/2017 M-Lab data not available offline; see
//! DESIGN.md for the substitution argument):
//!
//! * [`dispute2014`] — the NDT campaign around the 2014 Cogent peering
//!   dispute: diurnal congestion on affected (Cogent × Comcast/TWC/
//!   Verizon) interconnects in Jan–Feb that disappears in Mar–Apr, with
//!   Cox and Level3 as controls. Every test is a real micro-simulation.
//! * [`tslp2017`] — the targeted Comcast↔TATA experiment: a continuous
//!   TSLP probing simulation plus scheduled NDT tests, driven by one
//!   ground-truth congestion schedule.
//! * [`ndt`] — one NDT test as a micro-simulation, with link-state
//!   modulation standing in for elastic interconnect congestion.
//! * [`web100`] — Web100-style logs and the paper's M-Lab filters.
//! * [`isp`] — ISPs, transit sites, months and plan catalogs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dispute2014;
pub mod isp;
pub mod ndt;
pub mod tslp2017;
pub mod web100;

pub use dispute2014::{
    diurnal_load, diurnal_throughput, generate_with, is_off_peak_hour, is_peak_hour,
    label_dispute2014, to_csv, Dispute2014Config, NdtScenario, NdtTest,
};
pub use isp::{AccessIsp, Month, TransitSite};
pub use ndt::{run_ndt, CongestedState, NdtMeasurement, NdtPath, NDT_FLOW};
pub use tslp2017::{
    build_schedule, label_tslp2017, run_campaign_with, test_schedule, EpisodeWindow,
    Tslp2017Config, Tslp2017Output, TslpNdtScenario, TslpNdtTest,
};
pub use web100::Web100Log;
