//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * non-leaf background treatment (Observation 1): global vs local vs
//!   ignored;
//! * solver: Warburton ε-approximation vs exact Pareto vs greedy;
//! * window margin (headroom for the sibling-load feedback Observation 4
//!   ignores);
//! * zone pitch (the 50 µm empirical choice of Section VII-A).
//!
//! Usage: `ablation [seed] [--json out.json]`

use serde::Serialize;
use wavemin::config::BackgroundMode;
use wavemin::prelude::*;
use wavemin::report::{fmt, render_table};
use wavemin_bench::ExperimentArgs;
use wavemin_cells::units::Microns;

#[derive(Serialize)]
struct Row {
    variant: String,
    peak_ma: f64,
    skew_ps: f64,
    runtime_ms: f64,
}

fn main() {
    let args = ExperimentArgs::parse();
    let design = Design::from_benchmark(&Benchmark::s13207(), args.seed);
    println!("Ablation on s13207 (seed {})\n", args.seed);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut run = |label: &str, cfg: WaveMinConfig| {
        let out = ClkWaveMin::new(cfg).run(&design).expect(label);
        rows.push(vec![
            label.to_owned(),
            fmt(out.peak_after.value(), 2),
            fmt(out.skew_after.value(), 1),
            fmt(out.runtime.as_secs_f64() * 1e3, 1),
        ]);
        records.push(Row {
            variant: label.to_owned(),
            peak_ma: out.peak_after.value(),
            skew_ps: out.skew_after.value(),
            runtime_ms: out.runtime.as_secs_f64() * 1e3,
        });
    };

    run(
        "baseline (global bg, warburton, 50um)",
        WaveMinConfig::default(),
    );

    run(
        "background: local-zone",
        WaveMinConfig {
            background: BackgroundMode::LocalZone,
            ..WaveMinConfig::default()
        },
    );
    run(
        "background: none (prior-work style)",
        WaveMinConfig {
            background: BackgroundMode::None,
            ..WaveMinConfig::default()
        },
    );
    run(
        "solver: exact pareto (cap 64)",
        WaveMinConfig {
            solver: SolverKind::Exact,
            label_cap: 64,
            ..WaveMinConfig::default()
        },
    );
    run(
        "solver: warburton eps=0.5",
        WaveMinConfig {
            solver: SolverKind::Warburton { epsilon: 0.5 },
            ..WaveMinConfig::default()
        },
    );
    run(
        "window margin: none (full kappa)",
        WaveMinConfig {
            window_margin: 1.0,
            ..WaveMinConfig::default()
        },
    );
    run(
        "zone pitch: 25um",
        WaveMinConfig {
            zone_pitch: Microns::new(25.0),
            ..WaveMinConfig::default()
        },
    );
    run(
        "zone pitch: 100um",
        WaveMinConfig {
            zone_pitch: Microns::new(100.0),
            ..WaveMinConfig::default()
        },
    );
    run(
        "characterization: LUT + interpolation",
        WaveMinConfig {
            lut_characterization: true,
            ..WaveMinConfig::default()
        },
    );

    println!(
        "{}",
        render_table(
            &["variant", "peak (mA)", "skew (ps)", "runtime (ms)"],
            &rows
        )
    );
    println!("Expected shapes: larger zones help (more sinks optimized jointly, the");
    println!("paper's saturation caveat applies); dropping the margin risks skew");
    println!("overshoot; eps only mildly affects quality at these zone sizes.");
    args.persist(&records);
}
