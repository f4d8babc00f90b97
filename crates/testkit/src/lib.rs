//! Shared test and benchmark fixtures for the WaveMin workspace.
//!
//! Everything fixture-shaped that the bench binaries, the conformance
//! suites and the integration tests share lives here, in five modules:
//!
//! * [`mosp`] — the layered WaveMin-shaped MOSP graph and the solver
//!   rows `bench_mosp` and the `overhead` bench time;
//! * [`timing`] — the one micro-benchmark timer: per-call quartiles and
//!   paired A/B ratios, with the row filter the bench mains share;
//! * [`designs`] — deterministic clock-tree designs: benchmark-derived
//!   and randomized polarity trees for conformance sweeps;
//! * [`configs`] — the small/strict/hard [`WaveMinConfig`] presets the
//!   conformance and session suites share;
//! * [`golden`] — the golden-snapshot compare/regenerate helper
//!   (`GOLDEN_REGEN=1` rewrites, peak lines compared to 1e-9).
//!
//! This crate is test support: it is a regular dependency only of
//! `wavemin-bench` and a dev-dependency everywhere else. Like the
//! bench bins, it is loud by design — fixture construction panics
//! rather than propagating errors into every test signature.
#![allow(clippy::expect_used, clippy::unwrap_used)]

pub mod configs;
pub mod designs;
pub mod golden;
pub mod mosp;
pub mod timing;

pub use wavemin::prelude::WaveMinConfig;
