//! Polarity assignment for multiple power mode designs (Section VI).
//!
//! A multi-mode design's sink arrival times differ per mode (voltage
//! islands speed up or slow down), so the skew bound must hold in *every*
//! mode. The flow (Fig. 13):
//!
//! 1. compute per-mode feasible intervals and intersect them
//!    ([`intersect`]); if a feasible intersection exists, solve the MOSP
//!    problem with per-mode noise vectors concatenated into one weight;
//! 2. otherwise insert adjustable delay buffers to restore feasibility
//!    ([`adb`] — the stand-in for the embedder of Kim et al. \[17\]), then
//!    re-run with leaf ADBs allowed to become the proposed adjustable
//!    delay inverters (ADIs).

pub mod adb;
pub mod clkwavemin_m;
pub mod intersect;

pub use adb::{insert_adbs, AdbPlan};
pub use clkwavemin_m::ClkWaveMinM;
pub use intersect::{FeasibleIntersection, IntersectionSet};
