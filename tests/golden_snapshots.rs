//! Golden snapshot tests: small canonical designs with frozen optimizer
//! output committed under `tests/golden/`. Any change to the numeric
//! kernels, dominance handling, or solver ordering that shifts a chosen
//! assignment or the achieved peak (beyond 1e-9 mA) diffs against these
//! files and must be an explicit, reviewed regeneration:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p wavemin --test golden_snapshots
//! ```

use std::path::PathBuf;
use wavemin::prelude::*;
use wavemin_testkit::{designs, golden};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn check(name: &str, out: &Outcome) {
    golden::check_snapshot(&golden_dir(), name, &golden::render_outcome(out));
}

#[test]
fn clkwavemin_s15850_matches_golden() {
    let d = designs::s15850(7);
    let mut cfg = WaveMinConfig::default().with_sample_count(16);
    cfg.max_intervals = Some(6);
    let out = ClkWaveMin::new(cfg).run(&d).expect("optimize");
    check("clkwavemin_s15850", &out);
}

#[test]
fn clkwavemin_s13207_matches_golden() {
    let d = designs::s13207(7);
    let mut cfg = WaveMinConfig::default().with_sample_count(16);
    cfg.max_intervals = Some(6);
    let out = ClkWaveMin::new(cfg).run(&d).expect("optimize");
    check("clkwavemin_s13207", &out);
}

#[test]
fn peakmin_s13207_matches_golden() {
    let d = designs::s13207(7);
    let mut cfg = WaveMinConfig::default().with_sample_count(16);
    cfg.max_intervals = Some(6);
    let out = ClkPeakMin::new(cfg).run(&d).expect("optimize");
    check("peakmin_s13207", &out);
}

#[test]
fn fast_variant_s15850_matches_golden() {
    let d = designs::s15850(11);
    let cfg = WaveMinConfig::default().with_sample_count(16);
    let out = ClkWaveMinFast::new(cfg).run(&d).expect("optimize");
    check("fast_s15850", &out);
}

#[test]
fn multimode_s15850_matches_golden() {
    let d = Design::from_benchmark_multimode_levels(
        &Benchmark::s15850(),
        3,
        4,
        4,
        wavemin_cells::units::Volts::new(0.9),
        wavemin_cells::units::Volts::new(1.1),
    );
    let cfg = WaveMinConfig::default()
        .with_skew_bound(wavemin_cells::units::Picoseconds::new(22.0))
        .with_sample_count(8);
    let out = ClkWaveMinM::new(cfg).run(&d).expect("optimize");
    check("multimode_s15850", &out);
}

/// Multi-mode with ADB embedding: the 12 ps bound forces ADBs, and the
/// snapshot records the adjustable delay codes of every mode (including
/// zero codes), which the ADB-free `multimode_s15850` golden cannot pin.
#[test]
fn multimode_s15850_adb_matches_golden() {
    let d = Design::from_benchmark_multimode(&Benchmark::s15850(), 3, 4, 4);
    let cfg = WaveMinConfig::default()
        .with_skew_bound(wavemin_cells::units::Picoseconds::new(12.0))
        .with_sample_count(8);
    let out = ClkWaveMinM::new(cfg).run(&d).expect("optimize");
    assert!(out.adb_count > 0, "the 12 ps bound must embed ADBs");
    check("multimode_s15850_adb", &out);
}
